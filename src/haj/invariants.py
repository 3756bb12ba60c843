"""Reduced higher Abel-Jacobi invariants of box cycles on products of curves.

The central objects are spread cycles: a family of 0-cycles over a source
elliptic curve (one parameter, two-factor targets) or over a product of two
copies of it (two parameters, three-factor targets), with each coordinate of
the family given by an affine map in the elliptic logarithms. The invariant
chi2 of a two-factor spread is a pair of complex numbers, one per source
homology generator, well defined modulo the rational lattice spanned by the
eight pairwise period products. chi3 of a three-factor spread evaluates a
degree-two current on the two tracked homology classes of the parameter
torus and is well defined modulo the lattice of triple period products.

Two independent evaluation routes are provided for chi2. The path-integral
route integrates the reduced first map against the differential of the
second along a loop, adding one period-weighted correction per fundamental-
domain cut crossing. The closed-form route evaluates the same quantity in
finite terms and is available when the first map is the identity. Running
both and checking agreement is the main internal consistency gate.

Every spread map is affine, so the cut preimages of the first map are
points on a chi2 loop and lines in the chi3 parameter square, and the
reduced first map is affine between them. Both invariants are therefore
evaluated exactly, with no adaptive quadrature: chi2 and the chi3 line
terms by the midpoint rule per piece, the chi3 bulk by the midpoint rule
per strip of the line arrangement, whose inner line integral is affine
across each strip.

Reduction conventions are load bearing and frozen here: each target has
one cut system, the edges of its fundamental domain about 0, and every
reduction calls ``PeriodLatticeData.reduce`` (values are defined modulo the
period lattice whichever cuts are chosen). Representatives live in the
half-open coordinate box [-1/2, 1/2)^2 with boundary snapping, a
nonconstant map is always reduced, and the translation of a constant map is
used exactly as handed in (a constant crosses no cut, so no reduction is
forced; keeping the lift makes the reported vector match the natural closed
form Omega * xi for whatever lift the caller names).
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple

from mpmath import mp

from .elliptic import (
    CurvePoint,
    EllipticCurve,
    PeriodLatticeData,
    elliptic_log,
    is_torsion,
    period_lattice,
    point_add,
    point_mul,
    point_neg,
)
from .numkernel import (
    GUARD_DIGITS,
    NumKernelError,
    PrecisionCtx,
    _to_mpf,
    complex_to_json,
)
from .relations import (
    IntegerRelation,
    LatticeMembership,
    PrecisionExhausted,
    detect_tau_relation,
    integer_relation_complex,
    lattice_membership,
)

__all__ = [
    "InvariantError",
    "CutGrazing",
    "MethodUnsupported",
    "StratificationOverflow",
    "SpreadMap",
    "BoxSpreadCycle",
    "Chi2Value",
    "chi2_box",
    "chi2_reduce",
    "Chi3Value",
    "chi3_box",
    "ClassifierVerdict",
    "classify_case",
    "Psi2Decision",
    "psi2_nonvanishing",
]


class InvariantError(NumKernelError):
    """Base class for invariant-evaluation failures."""


class CutGrazing(InvariantError):
    """A crossing landed within tolerance of a cut endpoint or corner.

    Raised instead of returning a value whose representative depends on
    which side of the degeneracy the rounding fell; perturbing the path
    offsets resolves it.
    """


class MethodUnsupported(InvariantError):
    """The requested evaluation method does not cover the given spread."""


class StratificationOverflow(InvariantError):
    """The cut arrangement grew past the hard complexity caps."""


# ---------------------------------------------------------------------------
# Spread maps and spread cycles
# ---------------------------------------------------------------------------


def _as_gaussian(m) -> Tuple[int, int]:
    if isinstance(m, tuple):
        a, b = m
        if a != int(a) or b != int(b):
            raise ValueError("multiplier entries must be integers")
        return int(a), int(b)
    if isinstance(m, int):
        return m, 0
    if isinstance(m, complex) and m.real == int(m.real) and m.imag == int(m.imag):
        return int(m.real), int(m.imag)
    raise ValueError(f"multiplier must be an integer or Gaussian integer, got {m!r}")


@dataclasses.dataclass(frozen=True)
class SpreadMap:
    """One affine coordinate of a spread cycle, valued in a target curve.

    The map sends a source parameter z (and, for three-factor spreads, a
    second parameter w) to multiplier*z + multiplier2*w + translation in the
    universal cover of the target. ``multiplier`` and ``multiplier2`` are
    Gaussian integers stored as (re, im) pairs; a Gaussian part only makes
    sense over a square source lattice and is validated when the map is
    mounted on a cycle. ``translation`` is a chosen lift in the cover; for a
    constant map it is used exactly as given.
    """

    multiplier: Tuple[int, int]
    translation: object
    target_curve: EllipticCurve
    target_lattice: PeriodLatticeData
    multiplier2: Tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "multiplier", _as_gaussian(self.multiplier))
        object.__setattr__(self, "multiplier2", _as_gaussian(self.multiplier2))

    @classmethod
    def identity(cls, curve: EllipticCurve, lattice: PeriodLatticeData) -> "SpreadMap":
        return cls(multiplier=(1, 0), translation=0, target_curve=curve, target_lattice=lattice)

    @classmethod
    def constant(
        cls, curve: EllipticCurve, lattice: PeriodLatticeData, translation
    ) -> "SpreadMap":
        return cls(multiplier=(0, 0), translation=translation, target_curve=curve, target_lattice=lattice)

    @classmethod
    def affine(
        cls,
        curve: EllipticCurve,
        lattice: PeriodLatticeData,
        multiplier,
        translation,
        multiplier2=(0, 0),
    ) -> "SpreadMap":
        return cls(
            multiplier=_as_gaussian(multiplier),
            translation=translation,
            target_curve=curve,
            target_lattice=lattice,
            multiplier2=_as_gaussian(multiplier2),
        )

    @property
    def is_constant(self) -> bool:
        return self.multiplier == (0, 0) and self.multiplier2 == (0, 0)

    def mult_mpc(self) -> mp.mpc:
        return mp.mpc(self.multiplier[0], self.multiplier[1])

    def mult2_mpc(self) -> mp.mpc:
        return mp.mpc(self.multiplier2[0], self.multiplier2[1])

    def is_identity(self) -> bool:
        if self.multiplier != (1, 0) or self.multiplier2 != (0, 0):
            return False
        with mp.workdps(self.target_lattice.digits + GUARD_DIGITS):
            span = abs(self.target_lattice.omega_alpha)
            return abs(mp.mpc(self.translation)) <= mp.power(10, -self.target_lattice.digits // 2) * span

    def to_json(self, ctx: PrecisionCtx) -> dict:
        return {
            "multiplier": list(self.multiplier),
            "multiplier2": list(self.multiplier2),
            "translation": complex_to_json(self.translation, ctx),
            "target": self.target_curve.to_json(),
        }


def _descends(mult: Tuple[int, int], src: PeriodLatticeData, tgt: PeriodLatticeData) -> bool:
    # multiplier * (source lattice) must land inside the target lattice
    if mult == (0, 0):
        return True
    with mp.workdps(min(src.digits, tgt.digits) + GUARD_DIGITS):
        m = mp.mpc(mult[0], mult[1])
        tol = mp.power(10, -(min(src.digits, tgt.digits) * 3) // 5)
        for w in (src.omega_alpha, src.omega_beta):
            s, t = tgt.coords(m * w)
            if abs(s - mp.nint(s)) > tol or abs(t - mp.nint(t)) > tol:
                return False
    return True


@dataclasses.dataclass(frozen=True)
class BoxSpreadCycle:
    """A spread of box cycles: a source curve and two or three affine maps.

    Two maps mean a one-parameter spread (chi2 applies); three maps mean a
    two-parameter spread over the square of the source (chi3 applies), each
    map affine in the parameter pair. Construction validates that every
    multiplier carries the source lattice into its target lattice and that
    Gaussian multipliers only appear over a square source lattice.
    """

    source_curve: EllipticCurve
    source_lattice: PeriodLatticeData
    maps: Tuple[SpreadMap, ...]

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        object.__setattr__(self, "maps", maps)
        if len(maps) not in (2, 3):
            raise ValueError("a spread cycle carries two or three maps")
        square = self._source_is_square()
        for pos, sm in enumerate(maps, start=1):
            if len(maps) == 2 and sm.multiplier2 != (0, 0):
                raise ValueError("two-factor spreads are one-parameter: multiplier2 must vanish")
            for mult in (sm.multiplier, sm.multiplier2):
                if mult[1] != 0 and not square:
                    raise ValueError(
                        f"map {pos}: Gaussian multiplier needs a square source lattice (tau = i)"
                    )
                if not _descends(mult, self.source_lattice, sm.target_lattice):
                    raise ValueError(
                        f"map {pos}: multiplier {mult} does not carry the source lattice "
                        "into the target lattice"
                    )

    def _source_is_square(self) -> bool:
        with mp.workdps(self.source_lattice.digits + GUARD_DIGITS):
            tol = mp.power(10, -(self.source_lattice.digits * 3) // 5)
            return abs(self.source_lattice.tau - mp.mpc(0, 1)) < tol


# ---------------------------------------------------------------------------
# chi2
# ---------------------------------------------------------------------------


def _pair_product_gens(lat1: PeriodLatticeData, lat2: PeriodLatticeData) -> tuple:
    """The eight generators of the period-product lattice in C^2.

    Order is frozen (second-slot products first, alpha before beta, first
    index outer): (0, P_aa), (0, P_ab), (0, P_ba), (0, P_bb), then the same
    four products in the first slot, where P_xy = Omega_1x * Omega_2y.
    """
    first = (lat1.omega_alpha, lat1.omega_beta)
    second = (lat2.omega_alpha, lat2.omega_beta)
    prods = [a * b for a in first for b in second]
    zero = mp.mpc(0)
    return tuple([(zero, p) for p in prods] + [(p, zero) for p in prods])


@dataclasses.dataclass(frozen=True)
class Chi2Value:
    """A computed chi2: one complex value per source homology generator.

    ``lattice_gens`` lists the eight C^2 generators of the ambient period-
    product lattice; the value is well defined modulo their rational span.
    ``method`` names the evaluation route that produced the values.
    """

    value_alpha: object
    value_beta: object
    lattice_gens: tuple
    method: str
    digits: int
    notes: tuple = ()

    def to_json(self, ctx: Optional[PrecisionCtx] = None) -> dict:
        ctx = ctx if ctx is not None else PrecisionCtx(self.digits)
        return {
            "invariant": "chi2",
            "method": self.method,
            "digits": self.digits,
            "values": {
                "alpha": complex_to_json(self.value_alpha, ctx),
                "beta": complex_to_json(self.value_beta, ctx),
            },
            "lattice_generators": [
                [complex_to_json(a, ctx), complex_to_json(b, ctx)] for a, b in self.lattice_gens
            ],
            "notes": list(self.notes),
        }


_METHOD_ALIASES = {
    "pathintegral": "PathIntegral",
    "path-integral": "PathIntegral",
    "closedform": "ClosedForm",
    "closed-form": "ClosedForm",
    "both": "Both",
}


def _canonical_method(method: str) -> str:
    key = str(method).replace("_", "-").lower()
    key = key.replace("-", "") if key in ("path-integral", "closed-form") else key
    canon = _METHOD_ALIASES.get(str(method).lower()) or _METHOD_ALIASES.get(key)
    if canon is None:
        raise ValueError(f"unknown chi2 method {method!r}")
    return canon


def _offset_pair(path_offset) -> Tuple[Fraction, Fraction]:
    eps, delta = path_offset
    eps = Fraction(eps)
    delta = Fraction(delta)
    for v in (eps, delta):
        if not (Fraction(-1, 2) < v < Fraction(1, 2)):
            raise ValueError("path offsets must lie strictly inside (-1/2, 1/2)")
    return eps, delta


# Crossings allowed per cut and loop.
_MAX_CROSSINGS = 1024


def _cut_levels(lo, hi, cap: int) -> range:
    """The integers k with k + 1/2 in [lo, hi], ascending.

    More than ``cap`` of them raise StratificationOverflow, so a huge
    multiplier is refused at once instead of walking every level it sweeps.
    """
    half = mp.mpf("0.5")
    levels = range(int(mp.ceil(lo - half)), int(mp.floor(hi - half)) + 1)
    if len(levels) > cap:
        raise StratificationOverflow(
            f"{len(levels)} cut levels in the swept span, above the cap of {cap}"
        )
    return levels


def _cut_crossings(r0, p, ctx: PrecisionCtx) -> list:
    """Crossings of the coordinate s(t) = r0 + p*t, t in [0, 1], with the levels k + 1/2.

    Returns (t, orientation) pairs sorted by t. Crossing k sits exactly at
    t = (k + 1/2 - r0)/p with orientation sign(p). A level within
    sqrt(tol) of either loop end, or a constant coordinate on a level,
    raises CutGrazing; more than _MAX_CROSSINGS crossings raise
    StratificationOverflow.
    """
    half = mp.mpf("0.5")
    edge = mp.sqrt(ctx.tol)
    if abs(p) < ctx.tol:
        if abs(r0 - mp.floor(r0) - half) < edge:
            raise CutGrazing("first-map trace runs inside a cut; move the path offset")
        return []
    for s in (r0, r0 + p):
        if abs(s - mp.floor(s) - half) < edge * abs(p):
            raise CutGrazing("cut crossing at the loop basepoint; move the path offset")
    levels = _cut_levels(min(r0, r0 + p), max(r0, r0 + p), _MAX_CROSSINGS)
    orient = 1 if p > 0 else -1
    return [((k + half - r0) / p, orient) for k in levels[::orient]]


def _loop_path_value(spread: BoxSpreadCycle, z0, period, ctx: PrecisionCtx) -> mp.mpc:
    """Path-integral chi2 along the loop z(t) = z0 + t*period in the source.

    Value = -integral of f1 dg2 over the loop plus, for every cut crossing
    of the reduced first map, the picked-up period times the second map's
    value at the crossing, signed by the crossing direction. The first
    map's trace is affine in t, so its crossings are found in closed form
    and the reduced first map is affine between them: the midpoint rule on
    each piece gives the integral exactly.
    """
    map1, map2 = spread.maps
    lat1 = map1.target_lattice
    m1, c1 = map1.mult_mpc(), mp.mpc(map1.translation)
    m2, c2 = map2.mult_mpc(), mp.mpc(map2.translation)

    def trace1(t):
        return m1 * (z0 + t * period) + c1

    edge = mp.sqrt(ctx.tol)
    crossings = []  # (param, orientation, picked-up period, cut index)
    for idx, coeff in ((0, lat1.omega_alpha), (1, lat1.omega_beta)):
        p, _, r0 = _sigma_affine(map1, z0, 0, period, 0, idx)
        found = _cut_crossings(r0, p, ctx)
        net = sum(orient for _, orient in found)
        if abs(p - net) > mp.mpf("0.25"):
            raise InvariantError(
                "crossing audit failed: net signed count does not match the loop displacement"
            )
        crossings.extend((t_hat, orient, coeff, idx) for t_hat, orient in found)
    for t_hat, _, _, idx in crossings:
        s, t = lat1.reduce_coords(trace1(t_hat))
        other = t if idx == 0 else s
        if abs(abs(other) - mp.mpf("0.5")) < edge:
            raise CutGrazing("cut crossing lands at a fundamental-domain corner")

    if map2.is_constant:
        # no integral term and no forced reduction: the translation lift
        # is the caller's choice of representative
        g_at = lambda t: c2
        integral = mp.mpc(0)
    else:
        def trace2(t):
            return m2 * (z0 + t * period) + c2

        g_at = lambda t: map2.target_lattice.reduce(trace2(t))
        red1 = lat1.reduce
        breaks = sorted(t for t, _, _, _ in crossings)
        integral = _piecewise_line_sum(
            lambda t, _: red1(trace1(t)) * m2 * period, (0, 0), (1, 0), breaks
        )

    corrections = mp.mpc(0)
    for t_hat, orient, coeff, _ in crossings:
        corrections += orient * coeff * g_at(t_hat)
    return -integral + corrections


def _closed_values(spread: BoxSpreadCycle, eps: Fraction, delta: Fraction, ctx: PrecisionCtx):
    map1, map2 = spread.maps
    lat = spread.source_lattice
    A, B = lat.omega_alpha, lat.omega_beta
    e, d = _to_mpf(eps), _to_mpf(delta)
    m2, c2 = map2.mult_mpc(), mp.mpc(map2.translation)
    if map2.is_constant:
        return A * c2, B * c2
    red2 = map2.target_lattice.reduce
    wa = red2(m2 * (A / 2 + d * B) + c2)
    wb = red2(m2 * (B / 2 + e * A) + c2)
    va = A * wa - m2 * A * d * B
    vb = B * wb - m2 * B * e * A
    return va, vb


def chi2_box(
    spread: BoxSpreadCycle,
    method: str = "PathIntegral",
    ctx: PrecisionCtx = PrecisionCtx(),
    path_offset=(Fraction(-1, 8), Fraction(-1, 8)),
) -> Chi2Value:
    """Evaluate chi2 of a two-factor spread on both source homology loops.

    ``method`` selects PathIntegral (general), ClosedForm (first map must be
    the identity), or Both (runs the two routes and insists they agree to
    the context agreement tolerance). ``path_offset`` places the loop
    basepoint at eps*Omega_alpha + delta*Omega_beta; the value moves by a
    lattice element under a change of offset, never by more.
    """
    if len(spread.maps) != 2:
        raise ValueError("chi2_box needs a two-factor spread; use chi3_box for three")
    canon = _canonical_method(method)
    eps, delta = _offset_pair(path_offset)
    notes = [f"path offset ({eps}, {delta})"]

    if canon in ("ClosedForm", "Both") and not spread.maps[0].is_identity():
        raise MethodUnsupported("ClosedForm needs the first map to be the identity")

    with ctx.work():
        lat = spread.source_lattice
        z0 = _to_mpf(eps) * lat.omega_alpha + _to_mpf(delta) * lat.omega_beta
        gens = _pair_product_gens(spread.maps[0].target_lattice, spread.maps[1].target_lattice)

        path_vals = closed_vals = None
        if canon in ("PathIntegral", "Both"):
            path_vals = (
                _loop_path_value(spread, z0, lat.omega_alpha, ctx),
                _loop_path_value(spread, z0, lat.omega_beta, ctx),
            )
        if canon in ("ClosedForm", "Both"):
            closed_vals = _closed_values(spread, eps, delta, ctx)

        if canon == "Both":
            scale = 1 + max(abs(v) for v in path_vals + closed_vals)
            dev = max(abs(p - c) for p, c in zip(path_vals, closed_vals))
            if dev > ctx.agreement_tol * scale:
                raise InvariantError(
                    f"route disagreement {mp.nstr(dev, 8)} exceeds the agreement tolerance"
                )
            notes.append(f"route agreement within {mp.nstr(dev, 5)}")
        if spread.maps[1].is_constant:
            notes.append("constant second map: translation lift used as given")

        vals = path_vals if path_vals is not None else closed_vals
        return Chi2Value(
            value_alpha=vals[0],
            value_beta=vals[1],
            lattice_gens=gens,
            method=canon,
            digits=ctx.digits,
            notes=tuple(notes),
        )


def chi2_reduce(
    value: Chi2Value,
    scale=1,
    max_den: int = 10**3,
    max_height: int = 10**4,
    ctx: PrecisionCtx = PrecisionCtx(),
    recompute: Optional[Callable] = None,
) -> LatticeMembership:
    """Decide scale * chi2 against the period-product lattice.

    ``scale`` multiplies both components before the membership test (a cycle
    taken with multiplicity scales its invariant). ``recompute``, when
    given, maps a PrecisionCtx to a fresh Chi2Value so member verdicts can
    be amplified at doubled precision.
    """
    s = Fraction(scale)
    with ctx.work():
        factor = _to_mpf(s)
        v = [factor * mp.mpc(value.value_alpha), factor * mp.mpc(value.value_beta)]
        gens = [list(g) for g in value.lattice_gens]

    wrapped = None
    if recompute is not None:
        def wrapped(ctx2: PrecisionCtx):
            fresh = recompute(ctx2)
            with ctx2.work():
                f2 = _to_mpf(s)
                return (
                    [f2 * mp.mpc(fresh.value_alpha), f2 * mp.mpc(fresh.value_beta)],
                    [list(g) for g in fresh.lattice_gens],
                )

    return lattice_membership(
        v, gens, max_den=max_den, max_height=max_height, ctx=ctx, recompute=wrapped
    )


# ---------------------------------------------------------------------------
# chi3
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _CutLine:
    """One cut preimage in the parameter square: p*s + q*t + r = 0.

    ``map_pos`` is the 1-based map index, ``index`` the gated target
    coordinate.
    """

    map_pos: int
    index: int
    p: object
    q: object
    r: object


_MAX_LINES = 256
_MAX_LEVELS = 64
_MAX_DOUBLE_POINTS = 4096


def _sigma_affine(sm: SpreadMap, z01, z02, period_u, period_w, index: int):
    """Coefficients (p, q, r0) of the gated coordinate over the square."""
    lat = sm.target_lattice
    a, b = sm.mult_mpc(), sm.mult2_mpc()
    const = a * z01 + b * z02 + mp.mpc(sm.translation)
    p = lat.coords(a * period_u)[index]
    q = lat.coords(b * period_w)[index]
    r0 = lat.coords(const)[index]
    return p, q, r0


def _lines_for_map(
    sm: SpreadMap, pos: int, z01, z02, period_u, period_w, margin, ctx: PrecisionCtx
) -> list:
    out = []
    for index in (0, 1):
        p, q, r0 = _sigma_affine(sm, z01, z02, period_u, period_w, index)
        if abs(p) < ctx.tol and abs(q) < ctx.tol:
            # constant coordinate: no transversal cut preimage, hence no
            # lines; an on-level constant is resolved by reduction snapping
            continue
        lo = r0 + min(mp.mpf(0), p) + min(mp.mpf(0), q) - margin
        hi = r0 + max(mp.mpf(0), p) + max(mp.mpf(0), q) + margin
        for k in _cut_levels(lo, hi, _MAX_LEVELS):
            out.append(_CutLine(map_pos=pos, index=index, p=p, q=q, r=r0 - (k + mp.mpf("0.5"))))
    return out


def _clip_to_square(line: _CutLine, ctx: PrecisionCtx):
    """The segment of the line inside [0,1]^2, oriented along (-q, p).

    Returns ((s0, t0), (s1, t1)) or None when the line misses the square.
    The orientation makes (gradient, direction) a positive frame, so a
    positive crossing of the line sees the gated coordinate increase.
    """
    p, q, r = line.p, line.q, line.r
    eps = mp.sqrt(ctx.tol)
    pts = []
    if abs(q) > eps * (abs(p) + abs(q)):
        for s in (mp.mpf(0), mp.mpf(1)):
            t = -(p * s + r) / q
            if -eps <= t <= 1 + eps:
                pts.append((s, min(max(t, mp.mpf(0)), mp.mpf(1))))
    if abs(p) > eps * (abs(p) + abs(q)):
        for t in (mp.mpf(0), mp.mpf(1)):
            s = -(q * t + r) / p
            if -eps <= s <= 1 + eps:
                pts.append((min(max(s, mp.mpf(0)), mp.mpf(1)), t))
    uniq = []
    for pt in pts:
        if all(abs(pt[0] - u[0]) + abs(pt[1] - u[1]) > eps for u in uniq):
            uniq.append(pt)
    if len(uniq) < 2:
        return None
    # extreme pair along the line direction
    d = (-q, p)
    uniq.sort(key=lambda u: u[0] * d[0] + u[1] * d[1])
    x0, x1 = uniq[0], uniq[-1]
    if abs(x1[0] - x0[0]) + abs(x1[1] - x0[1]) < eps:
        return None
    return x0, x1


def _segment_breaks(x0, x1, lines1: Sequence[_CutLine], ctx: PrecisionCtx) -> list:
    """Parameters in (0,1) where first-map cut lines cross the segment."""
    ds, dt = x1[0] - x0[0], x1[1] - x0[1]
    eps = mp.sqrt(ctx.tol)
    out = []
    for ln in lines1:
        denom = ln.p * ds + ln.q * dt
        numer = ln.p * x0[0] + ln.q * x0[1] + ln.r
        scale = (abs(ln.p) + abs(ln.q)) * (abs(ds) + abs(dt)) + mp.mpf(1)
        if abs(denom) < eps * scale:
            if abs(numer) < eps * scale:
                raise CutGrazing(
                    "a first-map cut line runs along a slice segment; "
                    "perturb the path offsets"
                )
            continue
        tau = -numer / denom
        if eps < tau < 1 - eps:
            out.append(tau)
    return sorted(out)


def _piecewise_line_sum(f, x0, x1, breaks) -> mp.mpc:
    # exact for integrands affine between breaks: midpoint rule per piece
    total = mp.mpc(0)
    knots = [mp.mpf(0)] + list(breaks) + [mp.mpf(1)]
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= a:
            continue
        mid = (a + b) / 2
        s = x0[0] + mid * (x1[0] - x0[0])
        t = x0[1] + mid * (x1[1] - x0[1])
        total += (b - a) * f(s, t)
    return total


def _meet(l1: _CutLine, l2: _CutLine, eps):
    """Intersection (s, t, det) of two cut lines; None when they are parallel within eps."""
    det = l1.p * l2.q - l2.p * l1.q
    norm = (abs(l1.p) + abs(l1.q)) * (abs(l2.p) + abs(l2.q))
    if abs(det) < eps * (norm + 1):
        return None
    return (l2.r * l1.q - l1.r * l2.q) / det, (l1.r * l2.p - l2.r * l1.p) / det, det


def _v_product_cycle(
    spread: BoxSpreadCycle, period_u, period_w, z01, z02, ctx: PrecisionCtx
) -> dict:
    """The chi3 current evaluated on one product 2-cycle of the parameters.

    Three terms: the bulk double integral of the reduced first map against
    the constant 2-form dG2 ^ dG3, one line integral per cut preimage of
    maps two and three (signed -omega2 / +omega3), and one point term per
    transversal intersection of a map-2 cut line with a map-3 cut line.
    """
    map1, map2, map3 = spread.maps
    a1, b1, c1 = map1.mult_mpc(), map1.mult2_mpc(), mp.mpc(map1.translation)
    red1 = map1.target_lattice.reduce

    def f1(s, t):
        return red1(a1 * (z01 + s * period_u) + b1 * (z02 + t * period_w) + c1)

    margin = mp.power(10, -max(4, ctx.digits // 5))
    lines1 = _lines_for_map(map1, 1, z01, z02, period_u, period_w, margin, ctx)
    lines2 = _lines_for_map(map2, 2, z01, z02, period_u, period_w, margin, ctx)
    lines3 = _lines_for_map(map3, 3, z01, z02, period_u, period_w, margin, ctx)
    if len(lines1) + len(lines2) + len(lines3) > _MAX_LINES:
        raise StratificationOverflow("cut arrangement exceeds the line budget")

    # ----- bulk -----
    a2, b2 = map2.mult_mpc(), map2.mult2_mpc()
    a3, b3 = map3.mult_mpc(), map3.mult2_mpc()
    jac = (a2 * b3 - b2 * a3) * period_u * period_w
    if jac == 0:
        bulk = mp.mpc(0)
    else:
        eps = mp.sqrt(ctx.tol)
        s_breaks = set()
        for ln in lines1:
            if abs(ln.q) < eps * (abs(ln.p) + abs(ln.q)):
                s_breaks.add(-ln.r / ln.p)
            else:
                for t_edge in (mp.mpf(0), mp.mpf(1)):
                    if abs(ln.p) > eps * (abs(ln.p) + abs(ln.q)):
                        s_breaks.add(-(ln.q * t_edge + ln.r) / ln.p)
        for i in range(len(lines1)):
            for j in range(i + 1, len(lines1)):
                meet = _meet(lines1[i], lines1[j], eps)
                if meet is not None:
                    s_breaks.add(meet[0])
        pts = sorted(s for s in s_breaks if 0 < s < 1)

        nonvert = [
            ln for ln in lines1 if abs(ln.q) > eps * (abs(ln.p) + abs(ln.q))
        ]

        def inner(s, _):
            # inside a strip the t-breaks move affinely with s and keep their
            # order, and f1 is the first map less a lattice vector constant on
            # each piece, so inner(s) is affine there
            tb = [-(ln.p * s + ln.r) / ln.q for ln in nonvert]
            return _piecewise_line_sum(f1, (s, 0), (s, 1), sorted(t for t in tb if 0 < t < 1))

        # the midpoint rule per strip is exact for the affine inner(s), and
        # it never evaluates on a strip end, where f1 may jump across a cut
        bulk = jac * _piecewise_line_sum(inner, (0, 0), (1, 0), pts)

    # ----- single-cut line terms -----
    single = mp.mpc(0)
    for ln in lines2 + lines3:
        seg = _clip_to_square(ln, ctx)
        if seg is None:
            continue
        x0, x1 = seg
        ds, dt = x1[0] - x0[0], x1[1] - x0[1]
        if ln.map_pos == 2:
            dg = a3 * period_u * ds + b3 * period_w * dt
            omega = (map2.target_lattice.omega_alpha, map2.target_lattice.omega_beta)[ln.index]
            sign = mp.mpf(-1)
        else:
            dg = a2 * period_u * ds + b2 * period_w * dt
            omega = (map3.target_lattice.omega_alpha, map3.target_lattice.omega_beta)[ln.index]
            sign = mp.mpf(1)
        if dg == 0:
            continue
        breaks = _segment_breaks(x0, x1, lines1, ctx)
        single += sign * omega * dg * _piecewise_line_sum(f1, x0, x1, breaks)

    # ----- double-cut point terms -----
    double = mp.mpc(0)
    eps = mp.sqrt(ctx.tol)
    count = 0
    for l2 in lines2:
        for l3 in lines3:
            meet = _meet(l2, l3, eps)
            if meet is None:
                # parallel; coincident pairs make the point term ill posed
                seg = _clip_to_square(l3, ctx)
                if seg is not None:
                    x0 = seg[0]
                    norm = (abs(l2.p) + abs(l2.q)) * (abs(l3.p) + abs(l3.q))
                    if abs(l2.p * x0[0] + l2.q * x0[1] + l2.r) < eps * (norm + 1):
                        raise CutGrazing(
                            "coincident second- and third-map cut lines; "
                            "perturb the path offsets"
                        )
                continue
            s_star, t_star, det = meet
            inside = margin < s_star < 1 - margin and margin < t_star < 1 - margin
            near_edge = (
                abs(s_star) < margin
                or abs(1 - s_star) < margin
                or abs(t_star) < margin
                or abs(1 - t_star) < margin
            )
            if near_edge:
                raise CutGrazing(
                    "a double cut point sits on the parameter square boundary"
                )
            if not inside:
                continue
            count += 1
            if count > _MAX_DOUBLE_POINTS:
                raise StratificationOverflow("too many double cut points")
            omega2 = (map2.target_lattice.omega_alpha, map2.target_lattice.omega_beta)[l2.index]
            omega3 = (map3.target_lattice.omega_alpha, map3.target_lattice.omega_beta)[l3.index]
            double += omega2 * omega3 * f1(s_star, t_star) * mp.sign(det)

    return {
        "value": bulk + single + double,
        "bulk": bulk,
        "single": single,
        "double": double,
    }


def _triple_product_gens(
    lat1: PeriodLatticeData, lat2: PeriodLatticeData, lat3: PeriodLatticeData
) -> tuple:
    """Eight scalar generators Omega_1x * Omega_2y * Omega_3z, x,y,z in {a,b}."""
    out = []
    for w1 in (lat1.omega_alpha, lat1.omega_beta):
        for w2 in (lat2.omega_alpha, lat2.omega_beta):
            for w3 in (lat3.omega_alpha, lat3.omega_beta):
                out.append(w1 * w2 * w3)
    return tuple(out)


@dataclasses.dataclass(frozen=True)
class Chi3Value:
    """chi3 on the two tracked 2-homology classes of the parameter torus.

    ``value_diag`` pairs with (alpha x alpha) - (beta x beta) and
    ``value_mixed`` with (alpha x beta) + (beta x alpha). ``pairings``
    records the four product-cycle evaluations with their term breakdowns
    (bulk, single-cut, double-cut). Values are well defined modulo the
    rational span of the eight triple period products.
    """

    value_diag: object
    value_mixed: object
    lattice_gens: tuple
    method: str
    digits: int
    pairings: tuple = ()
    notes: tuple = ()

    def to_json(self, ctx: Optional[PrecisionCtx] = None) -> dict:
        ctx = ctx if ctx is not None else PrecisionCtx(self.digits)
        return {
            "invariant": "chi3",
            "method": self.method,
            "digits": self.digits,
            "values": {
                "diag": complex_to_json(self.value_diag, ctx),
                "mixed": complex_to_json(self.value_mixed, ctx),
            },
            "lattice_generators": [complex_to_json(g, ctx) for g in self.lattice_gens],
            "pairings": [
                {
                    "cycle": label,
                    "value": complex_to_json(parts["value"], ctx),
                    "bulk": complex_to_json(parts["bulk"], ctx),
                    "single": complex_to_json(parts["single"], ctx),
                    "double": complex_to_json(parts["double"], ctx),
                }
                for label, parts in self.pairings
            ],
            "notes": list(self.notes),
        }


def chi3_box(
    spread: BoxSpreadCycle,
    method: str = "StratifiedCurrent",
    ctx: PrecisionCtx = PrecisionCtx(),
    offsets=((Fraction(-1, 8), Fraction(-1, 8)), (Fraction(-1, 8), Fraction(-1, 8))),
) -> Chi3Value:
    """Evaluate chi3 of a three-factor spread over the parameter square.

    ``offsets`` places the two parameter loops: ((eps1, delta1), (eps2,
    delta2)) in source-lattice coordinates. Only the stratified current
    evaluation exists; requesting anything else raises MethodUnsupported.
    """
    if len(spread.maps) != 3:
        raise ValueError("chi3_box needs a three-factor spread")
    key = str(method).replace("-", "").replace("_", "").lower()
    if key != "stratifiedcurrent":
        raise MethodUnsupported(f"chi3 has no {method!r} evaluation; use StratifiedCurrent")
    (e1, d1), (e2, d2) = (_offset_pair(offsets[0]), _offset_pair(offsets[1]))

    with ctx.work():
        lat = spread.source_lattice
        A, B = lat.omega_alpha, lat.omega_beta
        z01 = _to_mpf(e1) * A + _to_mpf(d1) * B
        z02 = _to_mpf(e2) * A + _to_mpf(d2) * B
        combos = (
            ("alpha,alpha", A, A),
            ("beta,beta", B, B),
            ("alpha,beta", A, B),
            ("beta,alpha", B, A),
        )
        parts = {}
        for label, pu, pw in combos:
            parts[label] = _v_product_cycle(spread, pu, pw, z01, z02, ctx)
        gens = _triple_product_gens(
            spread.maps[0].target_lattice,
            spread.maps[1].target_lattice,
            spread.maps[2].target_lattice,
        )
        return Chi3Value(
            value_diag=parts["alpha,alpha"]["value"] - parts["beta,beta"]["value"],
            value_mixed=parts["alpha,beta"]["value"] + parts["beta,alpha"]["value"],
            lattice_gens=gens,
            method="StratifiedCurrent",
            digits=ctx.digits,
            pairings=tuple((label, parts[label]) for label, _, _ in combos),
            notes=(f"parameter offsets ({e1}, {d1}) and ({e2}, {d2})",),
        )


# ---------------------------------------------------------------------------
# Case classifier
# ---------------------------------------------------------------------------


_CASE_CITATIONS = {
    "RankFourCM_Unconditional": "unconditional: CM period transcendence (Schneider)",
    "OneFactorCM_Unconditional": "unconditional: CM period transcendence (Schneider)",
    "IsogenousNonCM_Unconditional": "unconditional: period ratio transcendence (Schneider)",
    "NonIsogenousNonCM_Conditional": (
        "conditional: algebraic independence of the four periods "
        "(a conjecture of Waldschmidt)"
    ),
}


@dataclasses.dataclass(frozen=True)
class ClassifierVerdict:
    """Which nonvanishing regime a pair of curves falls into.

    ``case`` is one of RankFourCM_Unconditional, OneFactorCM_Unconditional,
    IsogenousNonCM_Unconditional, NonIsogenousNonCM_Conditional. The
    evidence dictionaries carry the minimal-polynomial and isogeny probes
    (relation coefficients, residuals, and undetected-at-precision flags
    when a probe ran out of precision before certifying either way).
    """

    case: str
    cm_evidence: tuple
    isogeny_evidence: dict
    citation: str
    max_height: int
    digits: int

    def to_json(self) -> dict:
        return {
            "verdict": self.case,
            "citation": self.citation,
            "max_height": self.max_height,
            "digits": self.digits,
            "cm": [dict(e) for e in self.cm_evidence],
            "isogeny": dict(self.isogeny_evidence),
        }


def _cm_probe(tau, max_height: int, ctx: PrecisionCtx) -> dict:
    """Search for a quadratic integer relation satisfied by tau."""
    out = {"tau": None, "relation": None, "residual": None, "undetected_at_precision": False}
    with ctx.work():
        t = mp.mpc(tau)
        out["tau"] = {"re": mp.nstr(t.real, min(ctx.digits, 30)), "im": mp.nstr(t.imag, min(ctx.digits, 30))}
        try:
            rel = integer_relation_complex([mp.mpc(1), t, t * t], max_height=max_height, ctx=ctx)
        except PrecisionExhausted:
            out["undetected_at_precision"] = True
            return out
        if rel is not None and rel.coeffs[2] == 0:
            # a degenerate linear hit cannot witness a quadratic irrationality
            rel = None
        if rel is not None:
            out["relation"] = list(rel.coeffs)
            out["residual"] = mp.nstr(mp.mpf(rel.residual), 8)
    return out


def classify_case(
    curve1: EllipticCurve,
    curve2: EllipticCurve,
    max_height: int = 10**3,
    ctx: PrecisionCtx = PrecisionCtx(),
) -> ClassifierVerdict:
    """Classify a pair of curves by CM and isogeny lattice probes.

    Both CM and isogenous gives the rank-four case; any CM factor without
    that gives the one-factor-CM case; an isogeny relation alone gives the
    isogenous non-CM case; otherwise the generic case, whose nonvanishing
    statement is conditional. Probes that exhaust precision are flagged and
    treated as not detected.
    """
    lat1 = period_lattice(curve1, ctx)
    lat2 = period_lattice(curve2, ctx)
    cm1 = _cm_probe(lat1.tau, max_height, ctx)
    cm2 = _cm_probe(lat2.tau, max_height, ctx)

    iso = {"relation": None, "undetected_at_precision": False}
    try:
        rel = detect_tau_relation(lat1.tau, lat2.tau, max_height=max_height, ctx=ctx)
        iso["relation"] = list(rel) if rel is not None else None
    except PrecisionExhausted:
        iso["undetected_at_precision"] = True

    has_cm1 = cm1["relation"] is not None
    has_cm2 = cm2["relation"] is not None
    isogenous = iso["relation"] is not None
    if has_cm1 and has_cm2 and isogenous:
        case = "RankFourCM_Unconditional"
    elif has_cm1 or has_cm2:
        case = "OneFactorCM_Unconditional"
    elif isogenous:
        case = "IsogenousNonCM_Unconditional"
    else:
        case = "NonIsogenousNonCM_Conditional"
    return ClassifierVerdict(
        case=case,
        cm_evidence=(cm1, cm2),
        isogeny_evidence=iso,
        citation=_CASE_CITATIONS[case],
        max_height=max_height,
        digits=ctx.digits,
    )


# ---------------------------------------------------------------------------
# psi2 decision
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Psi2Decision:
    """Nontriviality decision for the degree-two invariant of a marked box.

    ``outcome`` is Nontrivial, ZeroClass, or Inconclusive. The certificate
    records the collapsed point, the torsion search bound, and (for exact
    rational inputs within the Mazur range) why the bounded search is
    conclusive.
    """

    outcome: str
    marker: str
    certificate: dict
    citation: str

    def to_json(self) -> dict:
        return {
            "verdict": self.outcome,
            "marker": self.marker,
            "certificate": dict(self.certificate),
            "citation": self.citation,
        }


def psi2_nonvanishing(
    marker,
    w,
    bound: int = 16,
    ctx: Optional[PrecisionCtx] = None,
) -> Psi2Decision:
    """Decide nontriviality of the invariant attached to B(marker, W).

    The class vanishes rationally exactly when the degree-zero cycle W
    collapses under the group law to a torsion point. W must be a one-factor
    cycle of exact rational points on a rational curve; denominators in the
    cycle coefficients are cleared first (the invariant is a Q-linear
    quantity, so clearing them changes nothing).
    """
    if w.n != 1:
        raise ValueError("psi2 expects a one-factor cycle")
    marker_name = getattr(marker, "name", None) or str(marker)
    if w.is_zero:
        return Psi2Decision(
            outcome="ZeroClass",
            marker=marker_name,
            certificate={"collapsed_scale": 1, "collapsed_point": "infinity"},
            citation="the cycle is formally zero; nothing to decide",
        )
    ref = w.factor_ref(1)
    if ref.curve is None:
        raise ValueError("psi2 needs an elliptic factor")
    if w.degree != 0:
        raise ValueError("psi2 expects a degree-zero cycle")
    curve = ref.curve

    from .cycles import _resolve_point  # local import to avoid a cycle at load

    denom = 1
    for _, coeff in w.terms:
        denom = denom * coeff.denominator // math.gcd(denom, coeff.denominator)
    total = CurvePoint.infinity()
    for (sym,), coeff in w.terms:
        n = int(coeff * denom)
        pt = _resolve_point(sym)
        if not pt.is_exact():
            raise ValueError("psi2 needs exact rational coordinates")
        if n < 0:
            pt = point_neg(pt)
            n = -n
        total = point_add(total, point_mul(n, pt, curve), curve)

    cert = {"collapsed_scale": denom, "torsion_bound": bound}
    if total.is_infinity():
        cert["collapsed_point"] = "infinity"
        return Psi2Decision(
            outcome="ZeroClass",
            marker=marker_name,
            certificate=cert,
            citation="group-law collapse is exact; no transcendence input needed",
        )
    cert["collapsed_point"] = {
        "x": str(total.x),
        "y": str(total.y),
    }

    tor = is_torsion(total, curve, bound=bound, ctx=ctx)
    if tor.kind == "torsion":
        cert["torsion_order"] = tor.order
        return Psi2Decision(
            outcome="ZeroClass",
            marker=marker_name,
            certificate=cert,
            citation="exact torsion relation found by the bounded group-law search",
        )
    if tor.log_evidence is not None:
        cert["log_evidence"] = tor.log_evidence.to_json()
    if bound >= 12:
        # over Q the torsion order of a rational point is at most 12, so a
        # bounded search past that is conclusive
        return Psi2Decision(
            outcome="Nontrivial",
            marker=marker_name,
            certificate=cert,
            citation=(
                "nontorsion is conclusive for exact rational points by the "
                "uniform torsion bound over Q (Mazur); nonvanishing then "
                "follows for a very general marker point"
            ),
        )
    return Psi2Decision(
        outcome="Inconclusive",
        marker=marker_name,
        certificate=cert,
        citation="search bound below the uniform torsion bound; raise it to conclude",
    )
