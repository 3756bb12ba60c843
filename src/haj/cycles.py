"""Exact formal algebra of 0-cycles on products of curves.

Cycles here are finite rational combinations of tuples of point symbols,
kept fully symbolic: a point is either the factor's base point, a named
point (with optional exact coordinates), or the formal negation of another
symbol. All algebra is exact; numerics enter only through ``aj_on_elliptic``
and the level-2 filtration test, which delegate to the elliptic and
relations layers.

A curve factor is a ``CurveRef``: an elliptic curve with its base at the
group identity, or a projective line whose base is the unit of the
multiplicative group. Negation normalizes through double application and
fixes the base when the base is the identity.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import mpmath as mp

from .elliptic import (
    INFINITY,
    CurvePoint,
    EllipticCurve,
    PeriodLatticeData,
    elliptic_log,
    period_lattice,
    point_neg,
)
from .numkernel import BigComplex, NumKernelError, PrecisionCtx, _to_mpf
from .relations import LatticeMembership, lattice_membership

__all__ = [
    "CycleError",
    "FactorMismatch",
    "BadIndexSet",
    "MissingCoordinates",
    "CurveRef",
    "PointSymbol",
    "ZeroCycle",
    "zero_cycle",
    "box_cycle",
    "face_projection",
    "aj_on_elliptic",
    "FiltrationResult",
    "filtration_check",
    "kummer_pushpull",
]


class CycleError(NumKernelError):
    """Base for formal-cycle failures."""


class FactorMismatch(CycleError):
    """Point lists disagree in length or curve references."""


class BadIndexSet(CycleError):
    """A face-projection index list is not a valid selection."""


class MissingCoordinates(CycleError):
    """A numeric operation hit a purely symbolic point."""


@dataclasses.dataclass(frozen=True)
class CurveRef:
    """One factor of the ambient product.

    ``curve`` present means an elliptic factor with base point at infinity
    (the group identity). ``curve`` absent means the projective line with
    base point 1, the identity of the multiplicative group; negation there
    is inversion, which also fixes the base. ``base_is_identity`` can be
    turned off for exotic base choices, in which case Neg(Base) stays
    formal.
    """

    label: str
    curve: Optional[EllipticCurve] = None
    base_is_identity: bool = True

    @property
    def is_elliptic(self) -> bool:
        return self.curve is not None

    def to_json(self) -> dict:
        doc: dict = {"label": self.label}
        if self.curve is not None:
            doc["curve"] = self.curve.to_json()
        if not self.base_is_identity:
            doc["base_is_identity"] = False
        return doc


@dataclasses.dataclass(frozen=True)
class PointSymbol:
    """A formal point on one factor: Base, Named, or Neg of another symbol."""

    curve: CurveRef
    kind: str
    name: Optional[str] = None
    coordinates: Optional[CurvePoint] = None
    inner: Optional["PointSymbol"] = None

    @staticmethod
    def base(curve: CurveRef) -> "PointSymbol":
        return PointSymbol(curve, "base")

    @staticmethod
    def named(
        curve: CurveRef,
        name: str,
        coordinates: Optional[CurvePoint] = None,
    ) -> "PointSymbol":
        if coordinates is not None and curve.is_elliptic:
            if not curve.curve.contains(coordinates):
                raise ValueError(
                    "named point %r does not lie on curve %s" % (name, curve.label)
                )
        return PointSymbol(curve, "named", name=name, coordinates=coordinates)

    @staticmethod
    def neg(sym: "PointSymbol") -> "PointSymbol":
        if sym.kind == "neg":
            return sym.inner
        if sym.kind == "base" and sym.curve.base_is_identity:
            return sym
        return PointSymbol(sym.curve, "neg", inner=sym)

    def _sort_key(self) -> tuple:
        inner_key = self.inner._sort_key() if self.inner is not None else ()
        coords = "" if self.coordinates is None else str(self.coordinates)
        return (self.curve.label, self.kind, self.name or "", coords, inner_key)

    def __str__(self) -> str:
        if self.kind == "base":
            return "o[%s]" % self.curve.label
        if self.kind == "named":
            return "%s[%s]" % (self.name, self.curve.label)
        return "-%s" % self.inner

    def to_json(self) -> dict:
        doc: dict = {"curve": self.curve.label, "kind": self.kind}
        if self.name is not None:
            doc["name"] = self.name
        if self.coordinates is not None:
            doc["point"] = self.coordinates.to_json()
        if self.inner is not None:
            doc["inner"] = self.inner.to_json()
        return doc


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("cycle coefficients must be exact rationals, got %r" % (value,))


@dataclasses.dataclass(frozen=True)
class ZeroCycle:
    """A formal rational combination of n-tuples of point symbols.

    Terms are stored canonically sorted with zero coefficients dropped, so
    equality and hashing are structural. Every tuple must agree with the
    cycle's per-factor curve references.
    """

    n: int
    terms: Tuple[Tuple[Tuple[PointSymbol, ...], Fraction], ...]

    @staticmethod
    def from_terms(n: int, mapping: Mapping) -> "ZeroCycle":
        if n < 1:
            raise ValueError("a cycle needs at least one factor")
        cleaned: Dict[Tuple[PointSymbol, ...], Fraction] = {}
        for tup, coeff in mapping.items():
            c = _coeff(coeff)
            if c == 0:
                continue
            tup = tuple(tup)
            if len(tup) != n:
                raise FactorMismatch(
                    "term has %d factors, cycle has %d" % (len(tup), n)
                )
            cleaned[tup] = cleaned.get(tup, Fraction(0)) + c
        cleaned = {t: c for t, c in cleaned.items() if c != 0}
        refs: List[Optional[CurveRef]] = [None] * n
        for tup in cleaned:
            for j, sym in enumerate(tup):
                if refs[j] is None:
                    refs[j] = sym.curve
                elif refs[j] != sym.curve:
                    raise FactorMismatch(
                        "factor %d mixes curves %s and %s"
                        % (j + 1, refs[j].label, sym.curve.label)
                    )
        items = sorted(
            cleaned.items(), key=lambda kv: tuple(s._sort_key() for s in kv[0])
        )
        return ZeroCycle(n, tuple(items))

    def as_dict(self) -> Dict[Tuple[PointSymbol, ...], Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> Fraction:
        return sum((c for _, c in self.terms), Fraction(0))

    def factor_ref(self, j: int) -> CurveRef:
        """Curve reference of 1-based factor j (from any stored term)."""
        if not self.terms:
            raise ValueError("the zero cycle carries no factor references")
        if not 1 <= j <= self.n:
            raise BadIndexSet("factor index %d outside 1..%d" % (j, self.n))
        return self.terms[0][0][j - 1].curve

    def __add__(self, other: "ZeroCycle") -> "ZeroCycle":
        if not isinstance(other, ZeroCycle):
            return NotImplemented
        if self.n != other.n:
            raise FactorMismatch("cannot add cycles with different factor counts")
        acc = self.as_dict()
        for tup, c in other.terms:
            acc[tup] = acc.get(tup, Fraction(0)) + c
        return ZeroCycle.from_terms(self.n, acc)

    def __sub__(self, other: "ZeroCycle") -> "ZeroCycle":
        return self + (-other)

    def __neg__(self) -> "ZeroCycle":
        return self.scale(-1)

    def scale(self, factor) -> "ZeroCycle":
        f = _coeff(factor)
        return ZeroCycle.from_terms(self.n, {t: c * f for t, c in self.terms})

    def __rmul__(self, factor) -> "ZeroCycle":
        return self.scale(factor)

    def map_points(self, fn) -> "ZeroCycle":
        """Apply ``fn`` to every point symbol of every term."""
        acc: Dict[Tuple[PointSymbol, ...], Fraction] = {}
        for tup, c in self.terms:
            new = tuple(fn(sym) for sym in tup)
            acc[new] = acc.get(new, Fraction(0)) + c
        return ZeroCycle.from_terms(self.n, acc)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {
                    "tuple": [sym.to_json() for sym in tup],
                    "coeff": "%d/%d" % (c.numerator, c.denominator),
                }
                for tup, c in self.terms
            ],
        }


def zero_cycle(n: int) -> ZeroCycle:
    return ZeroCycle.from_terms(n, {})


def box_cycle(
    points: Sequence[PointSymbol], bases: Sequence[PointSymbol]
) -> ZeroCycle:
    """The signed 2^n expansion of the product of factors (p_j) - (o_j)."""

    if len(points) != len(bases) or not points:
        raise FactorMismatch("points and bases must have equal positive length")
    n = len(points)
    for j, (p, o) in enumerate(zip(points, bases)):
        if p.curve != o.curve:
            raise FactorMismatch(
                "factor %d: point on %s but base on %s"
                % (j + 1, p.curve.label, o.curve.label)
            )
    acc: Dict[Tuple[PointSymbol, ...], Fraction] = {}
    for mask in range(1 << n):
        tup = tuple(
            bases[j] if mask & (1 << j) else points[j] for j in range(n)
        )
        sign = Fraction(-1) if bin(mask).count("1") % 2 else Fraction(1)
        acc[tup] = acc.get(tup, Fraction(0)) + sign
    return ZeroCycle.from_terms(n, acc)


def face_projection(Z: ZeroCycle, sigma: Sequence[int]) -> ZeroCycle:
    """Pushforward to the subproduct selected by 1-based indices sigma."""

    sigma = tuple(sigma)
    if not sigma:
        raise BadIndexSet("sigma must select at least one factor")
    if any(not 1 <= j <= Z.n for j in sigma):
        raise BadIndexSet("sigma %r not within 1..%d" % (sigma, Z.n))
    if any(b <= a for a, b in zip(sigma, sigma[1:])):
        raise BadIndexSet("sigma must be strictly increasing")
    acc: Dict[Tuple[PointSymbol, ...], Fraction] = {}
    for tup, c in Z.terms:
        sub = tuple(tup[j - 1] for j in sigma)
        acc[sub] = acc.get(sub, Fraction(0)) + c
    return ZeroCycle.from_terms(len(sigma), acc)


def _resolve_point(sym: PointSymbol) -> CurvePoint:
    if sym.kind == "base":
        if not sym.curve.is_elliptic:
            raise MissingCoordinates(
                "factor %s is not elliptic" % sym.curve.label
            )
        return INFINITY
    if sym.kind == "named":
        if sym.coordinates is None:
            raise MissingCoordinates(
                "point %r carries no coordinates" % (sym.name,)
            )
        return sym.coordinates
    return point_neg(_resolve_point(sym.inner))


def aj_on_elliptic(
    Z: ZeroCycle,
    ctx: PrecisionCtx,
    lattice: Optional[PeriodLatticeData] = None,
) -> Tuple[BigComplex, PeriodLatticeData]:
    """Classical Abel-Jacobi value of a degree-0 cycle on one elliptic curve.

    Returns the coefficient-weighted sum of elliptic logarithms, reduced to
    the fundamental parallelogram, together with the period data that fixes
    the reduction.
    """

    if Z.n != 1:
        raise FactorMismatch("aj_on_elliptic needs a 1-factor cycle")
    if Z.is_zero:
        if lattice is None:
            raise ValueError(
                "the zero cycle fixes no curve; pass its period lattice"
            )
        return mp.mpc(0), lattice
    ref = Z.factor_ref(1)
    if not ref.is_elliptic:
        raise FactorMismatch("aj_on_elliptic needs an elliptic factor")
    if Z.degree != 0:
        raise ValueError("aj_on_elliptic needs a degree-0 cycle")
    if lattice is None:
        lattice = period_lattice(ref.curve, ctx)
    with ctx.work():
        total = mp.mpc(0)
        for (sym,), c in Z.terms:
            pt = _resolve_point(sym)
            lg = elliptic_log(pt, ref.curve, lattice, ctx)
            total += _to_mpf(c) * lg
        return lattice.reduce(total), lattice


@dataclasses.dataclass(frozen=True)
class FiltrationResult:
    """Outcome of a filtration-level test.

    ``witness_sigma`` is the violating projection for failures; the empty
    tuple marks a failure of the degree test itself. Level-2 passes record
    the lattice-membership certificates that back the AJ-vanishing claims,
    so the verdict inherits their explicit search bounds.
    """

    passed: bool
    level: int
    witness_sigma: Optional[Tuple[int, ...]] = None
    certificates: Tuple[Tuple[Tuple[int, ...], LatticeMembership], ...] = ()

    def to_json(self) -> dict:
        doc: dict = {"passed": self.passed, "level": self.level}
        if self.witness_sigma is not None:
            doc["witness_sigma"] = list(self.witness_sigma)
        if self.certificates:
            doc["certificates"] = [
                {"sigma": list(s), "membership": cert.to_json()}
                for s, cert in self.certificates
            ]
        return doc


def filtration_check(
    Z: ZeroCycle,
    level: int,
    max_den: int = 10**3,
    max_height: int = 10**4,
    ctx: PrecisionCtx = PrecisionCtx(),
) -> FiltrationResult:
    """Test membership in the product filtration at level 1 or 2.

    Level 1 is degree zero. Level 2 additionally requires every one-factor
    projection to have degree zero and Abel-Jacobi value in the rational
    span of the factor's periods, the latter decided by lattice_membership
    (an up-to-height verdict, recorded in the certificates).
    """

    if level not in (1, 2):
        raise ValueError("level must be 1 or 2")
    if Z.degree != 0:
        return FiltrationResult(False, level, witness_sigma=())
    if level == 1 or Z.is_zero:
        return FiltrationResult(True, level)

    certs = []
    for j in range(1, Z.n + 1):
        proj = face_projection(Z, (j,))
        if proj.degree != 0:
            return FiltrationResult(False, level, witness_sigma=(j,))
        if proj.is_zero:
            continue
        ref = proj.factor_ref(1)
        if not ref.is_elliptic:
            raise MissingCoordinates(
                "level 2 needs elliptic factors with computable AJ"
            )
        lattice = period_lattice(ref.curve, ctx)
        value, _ = aj_on_elliptic(proj, ctx, lattice)

        def recompute(ctx2, _proj=proj, _ref=ref):
            lat2 = period_lattice(_ref.curve, ctx2)
            v2, _ = aj_on_elliptic(_proj, ctx2, lat2)
            return [v2], [[lat2.omega_alpha], [lat2.omega_beta]]

        cert = lattice_membership(
            [value],
            [[lattice.omega_alpha], [lattice.omega_beta]],
            max_den=max_den,
            max_height=max_height,
            ctx=ctx,
            recompute=recompute,
        )
        certs.append(((j,), cert))
        if not cert.is_member:
            return FiltrationResult(
                False, level, witness_sigma=(j,), certificates=tuple(certs)
            )
    return FiltrationResult(True, level, certificates=tuple(certs))


def kummer_pushpull(Z: ZeroCycle) -> ZeroCycle:
    """Pull back the pushforward along the quotient by simultaneous negation.

    For a cycle on a product of two elliptic curves this equals
    Z + (-1,-1)_* Z, with the negation applied formally to every symbol.
    """

    if Z.is_zero:
        return Z
    if Z.n != 2:
        raise FactorMismatch("kummer_pushpull expects a 2-factor cycle")
    for j in (1, 2):
        if not Z.factor_ref(j).is_elliptic:
            raise FactorMismatch("kummer_pushpull expects elliptic factors")
    return Z + Z.map_points(PointSymbol.neg)
