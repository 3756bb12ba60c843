"""Milnor K_2 symbols on the rational function field Q(t).

Symbols are formal sums of tuples of rational functions with exact
rational coefficients. The module rewrites them to a Steinberg normal
form, evaluates tame symbols at places of Q(t), checks Weil reciprocity
exactly, pairs the logarithmic regulator current of a pair (f, g) with a
loop in the plane, and realizes constant symbols as box cycles on powers
of the multiplicative group. All of its exact algebra in Q[t] (parsing,
canonical form, factorization, residues, resultants, printing) runs in
qpoly.

One engine computes the tame symbol T_p{f, g} = (-1)^{ab} g1^a / f1^b in
the residue field k(p), Q[t]/(p) at a finite place, from the residues of
f1 and g1 taken once. tame_symbol, the regulator's residue sum and Weil
reciprocity all read it: reciprocity multiplies the norms N_{k(p)/Q} T_p,
each T_p itself where k(p) = Q and otherwise the resultant of the minimal
polynomial with the reduced residue.

Branch convention, fixed once for the whole module: every logarithm is
the principal branch, with cut along the negative real axis. The
regulator pairing therefore carries a correction term supported on the
loop's crossings of f^{-1}((-inf, 0)); its sign is calibrated so that a
positively oriented small circle about a simple zero x0 of f evaluates
to -2*pi*i*log g(x0).

Every loop is a circle and f, g have rational coefficients, so the loop
geometry is polynomial root finding with no sampling: the crossings are
the roots on the unit circle of one polynomial (numkernel.detect_crossings),
and the roots of the exact irreducible factors of f and g keep the loop
clear of every zero and pole and audit the crossings by the argument
principle (net signed crossings = zeros minus poles of f inside).

The regulator value comes from the residue theorem at full working
precision: the loop integral plus its crossing correction equals
-2*pi*i * sum_p log T_p{f, g} + (2*pi*i)^2 * k, summed over the zeros and
poles p inside the loop, with T_p the exact tame symbol (evaluated at each
enclosed conjugate root) and k an integer. The loop quadrature runs only as
a check at the 32-digit context floor, whatever precision is asked for: it
fixes k by rounding and refuses the value when the two routes disagree.
The check is the periodic trapezoid rule on the circle: one FFT of
dlog f and of dlog g gives their winding numbers (a root-free second audit
of the zeros minus poles inside) and spectral antiderivatives, the
integral follows by Parseval, and the branch of log f and log g at the
base point and at each crossing is counted exactly, so no log is taken at
the nodes. Its node count comes from the zero or pole nearest the circle;
a loop that would need more than 4096 nodes raises QuadratureStall.
A loop that encloses only a simple zero x0 of f, where g is a unit, has
T_x0 = g(x0), so its value is -2*pi*i*log g(x0) modulo (2*pi*i)^2 exactly
at every radius: the shrinking-loop defect reads 0, and the numerical
evidence for that loop is the quadrature check's 10^-16 gate.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from mpmath import mp

from . import qpoly
from .cycles import CurveRef, PointSymbol, ZeroCycle, box_cycle, zero_cycle
from .invariants import CutGrazing, InvariantError, StratificationOverflow
from .numkernel import (
    CircleAround,
    NumKernelError,
    PrecisionCtx,
    TangencySuspected,
    _horner,
    _to_mpf,
    complex_to_json,
    detect_crossings,
    integrate_path,
    poly_roots,
    trapezoid_nodes,
)
from .relations import LatticeMembership, lattice_membership

__all__ = [
    "DegreeTooHigh",
    "MilnorSymbolSum",
    "Place",
    "RationalFunc",
    "ReciprocityReport",
    "RegulatorValue",
    "ZeroEntry",
    "indeterminacy_defect",
    "regulator_eval",
    "steinberg_normalize",
    "symbol_to_box",
    "tame_symbol",
    "weil_reciprocity_check",
]


class MilnorError(NumKernelError):
    """Base class for symbol-level failures."""


class ZeroEntry(MilnorError):
    """An operation met a symbol entry that is identically zero."""


class DegreeTooHigh(MilnorError):
    """A place of degree above the workable bound appeared."""


# ---------------------------------------------------------------------------
# Exact rational functions of one variable
# ---------------------------------------------------------------------------

def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("coefficients must be exact rationals, not floats")
    return Fraction(value)


def _deg(coeffs: Tuple[Fraction, ...]) -> int:
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k] != 0:
            return k
    return 0


@dataclasses.dataclass(frozen=True)
class RationalFunc:
    """A rational function of t with exact rational coefficients.

    Stored in lowest terms with a monic denominator; coefficient tuples
    run from the constant term upward, so they double as the
    serialization format. The zero function is numerator (0,).
    """

    numerator: Tuple[Fraction, ...]
    denominator: Tuple[Fraction, ...] = (Fraction(1),)

    def __post_init__(self) -> None:
        num = qpoly.trim([_as_fraction(c) for c in self.numerator])
        den = qpoly.trim([_as_fraction(c) for c in self.denominator or (1,)])
        if not den:
            raise ValueError("denominator is identically zero")
        if not num:
            num, den = (Fraction(0),), (Fraction(1),)
        else:
            if len(den) > 1:
                g = qpoly.gcd(num, den)
                num, den = qpoly.quo_rem(num, g)[0], qpoly.quo_rem(den, g)[0]
            if den[-1] != 1:
                lead = 1 / den[-1]
                num, den = qpoly.scale(num, lead), qpoly.scale(den, lead)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    # -- constructors

    @staticmethod
    def const(value) -> "RationalFunc":
        return RationalFunc((_as_fraction(value),))

    @staticmethod
    def parse(text: str) -> "RationalFunc":
        """Parse a rational expression in t, e.g. ``"(t^2 - 2)/4"``.

        Raises qpoly.ParseError (a ValueError) on anything outside the
        parser's grammar or size caps.
        """
        return RationalFunc(*qpoly.parse(text))

    @staticmethod
    def from_json(doc: Mapping) -> "RationalFunc":
        return RationalFunc(
            tuple(Fraction(c) for c in doc["num"]),
            tuple(Fraction(c) for c in doc.get("den", ["1"])),
        )

    # -- structure

    @property
    def is_zero(self) -> bool:
        return self.numerator == (Fraction(0),)

    @property
    def is_constant(self) -> bool:
        return _deg(self.numerator) == 0 and self.denominator == (Fraction(1),)

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.numerator[0]

    @property
    def ord_infinity(self) -> int:
        """Vanishing order at t = infinity (negative for a pole)."""
        if self.is_zero:
            raise ZeroEntry("the zero function has no order at infinity")
        return _deg(self.denominator) - _deg(self.numerator)

    def leading_unit(self) -> Fraction:
        """The value of t^{ord_infinity} * self at infinity."""
        return (
            self.numerator[_deg(self.numerator)]
            / self.denominator[_deg(self.denominator)]
        )

    def _sort_key(self) -> tuple:
        return (
            max(_deg(self.numerator), _deg(self.denominator)),
            tuple((c.numerator, c.denominator) for c in self.numerator),
            tuple((c.numerator, c.denominator) for c in self.denominator),
        )

    # -- arithmetic (always re-canonicalized by the constructor)

    def __mul__(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc(
            qpoly.mul(self.numerator, other.numerator),
            qpoly.mul(self.denominator, other.denominator),
        )

    def __truediv__(self, other: "RationalFunc") -> "RationalFunc":
        if other.is_zero:
            raise ZeroDivisionError("division by the zero function")
        return RationalFunc(
            qpoly.mul(self.numerator, other.denominator),
            qpoly.mul(self.denominator, other.numerator),
        )

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        (a, b), (c, d) = (self.numerator, self.denominator), (other.numerator, other.denominator)
        return RationalFunc(qpoly.add(qpoly.mul(a, d), qpoly.mul(c, b)), qpoly.mul(b, d))

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        return self + (-other)

    def __neg__(self) -> "RationalFunc":
        return RationalFunc(tuple(-c for c in self.numerator), self.denominator)

    def __pow__(self, exponent: int) -> "RationalFunc":
        if exponent == 0:
            return RationalFunc.const(1)
        base = self if exponent > 0 else RationalFunc(self.denominator, self.numerator)
        out = base
        for _ in range(abs(exponent) - 1):
            out = out * base
        return out

    def one_minus(self) -> "RationalFunc":
        return RationalFunc.const(1) - self

    def derivative(self) -> "RationalFunc":
        p, q = self.numerator, self.denominator
        return RationalFunc(
            qpoly.sub(qpoly.mul(qpoly.derivative(p), q), qpoly.mul(p, qpoly.derivative(q))),
            qpoly.mul(q, q),
        )

    # -- evaluation

    def eval_exact(self, x) -> Fraction:
        x = _as_fraction(x)
        den = qpoly.horner(self.denominator, x)
        if den == 0:
            raise ZeroDivisionError(f"pole at t = {x}")
        return qpoly.horner(self.numerator, x) / den

    def eval_mpc(self, z):
        return _horner(self.numerator, z) / _horner(self.denominator, z)

    def dlog_sampler(self):
        """z -> (f'/f)(z), the coefficients converted once, to the nearest
        mpf at the current working precision."""
        parts = [
            (sign, [_to_mpf(c) for c in reversed(p)])
            for sign, p in ((1, self.numerator), (-1, self.denominator))
            if len(p) > 1
        ]

        def dlog(z):
            out = mp.mpc(0)
            for sign, coeffs in parts:
                value, slope = mp.polyval(coeffs, z, derivative=True)
                out += sign * slope / value
            return out

        return dlog

    def __str__(self) -> str:
        num = qpoly.to_str(self.numerator)
        if self.denominator == (Fraction(1),):
            return num
        return f"({num})/({qpoly.to_str(self.denominator)})"

    def to_json(self) -> dict:
        doc = {"num": [str(c) for c in self.numerator]}
        if self.denominator != (Fraction(1),):
            doc["den"] = [str(c) for c in self.denominator]
        return doc


# ---------------------------------------------------------------------------
# Symbol sums
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MilnorSymbolSum:
    """A rational linear combination of n-tuples {f_1, ..., f_n}.

    Terms are kept sorted with merged coefficients; tuples containing the
    constant 1 are dropped at construction (such symbols vanish), as are
    zero coefficients. Entries equal to the zero function are tolerated
    here and rejected by the evaluators that cannot handle them.
    """

    n: int
    terms: Tuple[Tuple[Tuple[RationalFunc, ...], Fraction], ...]

    @staticmethod
    def from_terms(n: int, mapping: Mapping) -> "MilnorSymbolSum":
        if n < 1:
            raise ValueError("symbol length must be at least 1")
        one = RationalFunc.const(1)
        acc: Dict[Tuple[RationalFunc, ...], Fraction] = {}
        for tup, coeff in mapping.items():
            tup = tuple(tup)
            if len(tup) != n:
                raise ValueError(f"term {tup} has length {len(tup)}, expected {n}")
            for entry in tup:
                if not isinstance(entry, RationalFunc):
                    raise TypeError(f"entry {entry!r} is not a RationalFunc")
            coeff = _as_fraction(coeff)
            if coeff == 0 or any(entry == one for entry in tup):
                continue
            acc[tup] = acc.get(tup, Fraction(0)) + coeff
        terms = tuple(
            sorted(
                ((tup, c) for tup, c in acc.items() if c != 0),
                key=lambda item: tuple(e._sort_key() for e in item[0]),
            )
        )
        return MilnorSymbolSum(n, terms)

    @staticmethod
    def symbol(*entries, coeff=1) -> "MilnorSymbolSum":
        return MilnorSymbolSum.from_terms(len(entries), {tuple(entries): coeff})

    def as_dict(self) -> Dict[Tuple[RationalFunc, ...], Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MilnorSymbolSum") -> "MilnorSymbolSum":
        if other.n != self.n:
            raise ValueError("cannot add symbols of different length")
        acc = self.as_dict()
        for tup, coeff in other.terms:
            acc[tup] = acc.get(tup, Fraction(0)) + coeff
        return MilnorSymbolSum.from_terms(self.n, acc)

    def scale(self, factor) -> "MilnorSymbolSum":
        factor = _as_fraction(factor)
        return MilnorSymbolSum.from_terms(
            self.n, {tup: factor * c for tup, c in self.terms}
        )

    def __neg__(self) -> "MilnorSymbolSum":
        return self.scale(-1)

    def __sub__(self, other: "MilnorSymbolSum") -> "MilnorSymbolSum":
        return self + (-other)

    def to_json(self) -> dict:
        return {
            "kind": "milnor-symbol-sum",
            "n": self.n,
            "terms": [
                {"entries": [e.to_json() for e in tup], "coeff": str(c)}
                for tup, c in self.terms
            ],
        }


# ---------------------------------------------------------------------------
# Steinberg normal form
# ---------------------------------------------------------------------------

# bounded, so that a long --stdio process normalizing many distinct symbols
# keeps a fixed footprint
@functools.lru_cache(maxsize=256)
def _entry_atoms(f: RationalFunc) -> Tuple[Tuple[RationalFunc, int], ...]:
    """Multiplicative atoms of f: a unit constant and monic irreducibles.

    Constants stay atomic (no integer factorization); the unit constant
    of the whole function splits off as one atom. f = 1 yields no atoms.
    """
    if f.is_zero:
        raise ZeroEntry("cannot factor the zero function")
    atoms: list = []
    unit = Fraction(1)
    for coeffs, sign in ((f.numerator, 1), (f.denominator, -1)):
        part_unit, factors = qpoly.factor(coeffs)
        unit *= part_unit ** sign
        for poly, exp in factors:
            atoms.append((RationalFunc(poly), sign * exp))
    if unit != 1:
        atoms.insert(0, (RationalFunc.const(unit), 1))
    return tuple(atoms)


def _expand_tuple(tup: Tuple[RationalFunc, ...]):
    """Multilinear expansion of one term into atomic tuples.

    Yields (atomic_tuple, multiplicity, changed). A tuple with an entry
    equal to 1 (empty atom list) yields nothing.
    """
    per_entry = [_entry_atoms(f) for f in tup]
    if any(len(atoms) == 0 for atoms in per_entry):
        yield from ()
        return
    changed = any(
        len(atoms) != 1 or atoms[0] != (tup[j], 1)
        for j, atoms in enumerate(per_entry)
    )
    idx = [0] * len(tup)
    while True:
        mult = 1
        entries = []
        for j, atoms in enumerate(per_entry):
            atom, exp = atoms[idx[j]]
            entries.append(atom)
            mult *= exp
        yield tuple(entries), Fraction(mult), changed
        j = len(tup) - 1
        while j >= 0:
            idx[j] += 1
            if idx[j] < len(per_entry[j]):
                break
            idx[j] = 0
            j -= 1
        if j < 0:
            return


def _sort_with_parity(entries: list) -> Tuple[tuple, int]:
    keys = [e._sort_key() for e in entries]
    inversions = sum(
        1
        for i in range(len(keys))
        for j in range(i + 1, len(keys))
        if keys[i] > keys[j]
    )
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    sign = -1 if inversions % 2 else 1
    return tuple(entries[i] for i in order), sign


def _steinberg_kill(entries: Sequence[RationalFunc]) -> bool:
    """True when a pair of slots matches {f, 1-f} or {f, -f}."""
    for i in range(len(entries)):
        for j in range(len(entries)):
            if i == j:
                continue
            if entries[j] == entries[i].one_minus() or entries[j] == -entries[i]:
                return True
    return False


def _reduce_tuple(entries: list) -> Tuple[Optional[tuple], int, bool]:
    """Apply the local rewriting rules to one atomic tuple.

    Returns (sorted_tuple_or_None, sign, changed); None means the term
    vanished through a Steinberg relation.
    """
    minus_one = RationalFunc.const(-1)
    changed = False
    if _steinberg_kill(entries):
        return None, 1, True
    # {.., f, .., f, ..} = {.., f, .., -1, ..}; -1 itself is a fixpoint
    while True:
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if entries[i] == entries[j] and entries[i] != minus_one:
                    entries = list(entries)
                    entries[j] = minus_one
                    changed = True
                    break
            else:
                continue
            break
        else:
            break
    tup, sign = _sort_with_parity(list(entries))
    if sign != 1 or tuple(entries) != tup:
        changed = True
    return tup, sign, changed


def steinberg_normalize(s: MilnorSymbolSum, max_passes: int = 64) -> MilnorSymbolSum:
    """Rewrite a symbol sum to its Steinberg normal form.

    The rules, applied to a fixpoint: multilinear expansion over monic
    irreducible factors with constants kept atomic, deletion of entries
    equal to 1, vanishing of terms containing {f, 1-f} or {f, -f} in two
    slots, the duplicate rule {f, f} -> {f, -1}, and an antisymmetry sort
    of each tuple with its sign. This is a normal form for the rewriting
    system, not a decision procedure for triviality in the Milnor group.
    """
    terms: Dict[Tuple[RationalFunc, ...], Fraction] = dict(s.terms)
    for _ in range(max_passes):
        out: Dict[Tuple[RationalFunc, ...], Fraction] = {}
        any_change = False
        for tup, coeff in terms.items():
            # the kill patterns must be seen before expansion scatters
            # them over atoms: 1 - t factors as (-1)(t - 1)
            if _steinberg_kill(tup):
                any_change = True
                continue
            for atomic, mult, expanded in _expand_tuple(tup):
                reduced, sign, changed = _reduce_tuple(list(atomic))
                any_change = any_change or expanded or changed
                if reduced is None:
                    continue
                out[reduced] = out.get(reduced, Fraction(0)) + coeff * mult * sign
        terms = {tup: c for tup, c in out.items() if c != 0}
        if not any_change:
            break
    return MilnorSymbolSum.from_terms(s.n, terms)


# ---------------------------------------------------------------------------
# Places and tame symbols
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Place:
    """A closed point of the projective line over Q.

    ``minpoly`` holds the monic irreducible minimal polynomial of a
    finite place (coefficients from the constant term up); the empty
    tuple marks the place at infinity. ``approx`` is an optional complex
    locator for documentation and never enters exact arithmetic.
    """

    minpoly: Tuple[Fraction, ...] = ()
    approx: Optional[complex] = None

    def __post_init__(self) -> None:
        coeffs = tuple(_as_fraction(c) for c in self.minpoly)
        object.__setattr__(self, "minpoly", coeffs)
        if not coeffs:
            return
        if _deg(coeffs) < 1 or coeffs[_deg(coeffs)] != 1:
            raise ValueError("finite places need a monic minimal polynomial")
        factors = qpoly.factor(coeffs)[1]
        if len(factors) != 1 or factors[0][1] != 1:
            raise ValueError("minimal polynomial must be irreducible over Q")

    @staticmethod
    def rational(x) -> "Place":
        x = _as_fraction(x)
        return Place((-x, Fraction(1)), approx=complex(x))

    @staticmethod
    def algebraic(coeffs: Sequence, approx: Optional[complex] = None) -> "Place":
        return Place(tuple(_as_fraction(c) for c in coeffs), approx=approx)

    @staticmethod
    def infinity() -> "Place":
        return Place(())

    @property
    def is_infinite(self) -> bool:
        return not self.minpoly

    @property
    def degree(self) -> int:
        return 0 if self.is_infinite else _deg(self.minpoly)

    def describe(self) -> Union[str, list]:
        return "infinity" if self.is_infinite else [str(c) for c in self.minpoly]


def _strip_place(f: RationalFunc, p: tuple) -> Tuple[int, tuple, tuple]:
    """Order of f at the place of p plus the p-free numerator/denominator."""
    order = 0
    parts = []
    for poly, sign in ((f.numerator, 1), (f.denominator, -1)):
        while True:
            quo, rem = qpoly.quo_rem(poly, p)
            if rem:
                break
            poly, order = quo, order + sign
        parts.append(poly)
    return order, parts[0], parts[1]


def _tame(f: RationalFunc, g: RationalFunc, place: Place):
    """(ord_p f, ord_p g, T_p{f, g}) at a place p of Q(t), exactly.

    With f = pi^a f1 and g = pi^b g1 for a uniformizer pi at p, the tame
    symbol is T_p = (-1)^{ab} g1^a / f1^b read in the residue field k(p).
    At infinity pi = 1/t and k(p) = Q, where f1 takes the value of the
    leading unit of f. At a finite place k(p) = Q[t]/(p): the residues
    u = f1 mod p and v = g1 mod p are taken once and T_p is formed from
    them there, reduced mod p. T_p comes as tame_symbol returns it.
    """
    if f.is_zero or g.is_zero:
        raise ZeroEntry("tame symbol needs nonzero entries")
    if place.is_infinite:
        (a, u), (b, v) = ((h.ord_infinity, h.leading_unit()) for h in (f, g))
        unit = (v**a / u**b,)
    else:
        p = place.minpoly
        (a, u), (b, v) = (
            (order, qpoly.quo_rem(qpoly.mul(num, qpoly.inverse_mod(den, p)), p)[1])
            for order, num, den in (_strip_place(h, p) for h in (f, g))
        )
        unit = qpoly.quo_rem(qpoly.mul(qpoly.pow_mod(v, a, p), qpoly.pow_mod(u, -b, p)), p)[1]
    sign = -1 if (a * b) % 2 else 1
    residue = tuple(Fraction(sign * c) for c in unit)
    return a, b, residue[0] if place.degree <= 1 else residue


def tame_symbol(pair: Sequence[RationalFunc], place: Place):
    """The tame symbol of {f, g} at a place of Q(t), exactly.

    Returns a Fraction at rational places and at infinity. At a place of
    degree d > 1 it returns the residue representative, reduced mod the
    minimal polynomial, as a coefficient tuple of length at most d
    (constant term first) in the generator of the residue field.
    """
    f, g = pair
    return _tame(f, g, place)[2]


# ---------------------------------------------------------------------------
# Weil reciprocity
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PlaceNorm:
    """One closed place's multiplicative contribution to reciprocity."""

    place: Place
    order_f: int
    order_g: int
    value: Fraction

    def to_json(self) -> dict:
        return {
            "place": self.place.describe(),
            "orders": [self.order_f, self.order_g],
            "value": str(self.value),
        }


@dataclasses.dataclass(frozen=True)
class ReciprocityReport:
    outcome: str  # "Holds" | "Violated"
    product: Fraction
    contributions: Tuple[PlaceNorm, ...]
    notes: Tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.outcome == "Holds"

    def to_json(self) -> dict:
        return {
            "check": "weil-reciprocity",
            "outcome": self.outcome,
            "product": str(self.product),
            "places": [c.to_json() for c in self.contributions],
            "notes": list(self.notes),
        }


def weil_reciprocity_check(
    pair: Sequence[RationalFunc], degree_cap: int = 6
) -> ReciprocityReport:
    """Check that the tame-symbol norms of {f, g} multiply to 1.

    Each closed place p where f or g has a zero or pole contributes
    N_{k(p)/Q} T_p{f, g}, with T_p from the same engine as tame_symbol:
    T_p itself at a rational place and at infinity, and at a place of
    degree d > 1 the resultant of the minimal polynomial with the residue
    of T_p reduced mod it, which is (-1)^{abd} N(g1)^a / N(f1)^b for
    f = p^a f1 and g = p^b g1. Raises DegreeTooHigh when an irreducible
    factor of degree above ``degree_cap`` turns up.
    """
    f, g = pair
    if f.is_zero or g.is_zero:
        raise ZeroEntry("reciprocity needs nonzero entries")
    minpolys = set()
    for h in (f, g):
        for coeffs in (h.numerator, h.denominator):
            for poly, _ in qpoly.factor(coeffs)[1]:
                d = len(poly) - 1
                if d > degree_cap:
                    raise DegreeTooHigh(
                        f"irreducible factor of degree {d} exceeds the bound {degree_cap}"
                    )
                minpolys.add(poly)
    places = [Place(c) for c in sorted(minpolys, key=lambda c: (_deg(c), c))]
    contributions = []
    product = Fraction(1)
    for place in places + [Place.infinity()]:
        a, b, unit = _tame(f, g, place)
        if a == 0 and b == 0:
            continue
        if place.degree > 1:
            # N(T_p) = Res(minpoly, residue) for the monic minpoly and the
            # residue reduced mod it
            unit = qpoly.resultant(place.minpoly, unit)
        contributions.append(PlaceNorm(place, a, b, unit))
        product *= unit
    outcome = "Holds" if product == 1 else "Violated"
    return ReciprocityReport(outcome, product, tuple(contributions))


# ---------------------------------------------------------------------------
# Regulator pairing with a loop
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RegulatorValue:
    """The regulator current of pairs {f, g} paired with one loop.

    ``value`` = ``integral`` + ``delta``, where the integral carries
    principal log f against dlog g along the loop and delta corrects each
    branch jump with -2*pi*i times log g at the crossing. The value is the
    residue sum at full precision, shifted by the (2*pi*i)^2 multiple that
    a 32-digit trapezoid-rule quadrature of the integral fixes; ``delta``
    is the sum over the crossings at full precision, and ``integral`` is
    value - delta.
    The value is well defined modulo (2*pi*i)^2 Q; ``indeterminacy``
    records the lattice-membership evidence for the reduction against
    that line.
    """

    value: mp.mpc
    integral: mp.mpc
    delta: mp.mpc
    crossings: Tuple[dict, ...]
    indeterminacy: LatticeMembership
    digits: int
    notes: Tuple[str, ...] = ()

    def to_json(self) -> dict:
        ctx = PrecisionCtx(self.digits)
        return {
            "invariant": "regulator2",
            "digits": self.digits,
            "value": complex_to_json(self.value, ctx),
            "terms": {
                "integral": complex_to_json(self.integral, ctx),
                "delta": complex_to_json(self.delta, ctx),
            },
            "crossings": list(self.crossings),
            "indeterminacy": self.indeterminacy.to_json(),
            "notes": list(self.notes),
        }


# deg N + deg D of an entry above this is refused before any root finding:
# the crossing polynomial has up to twice that degree, and each polish sweep
# of its roots costs O(n^2) divisions (regulator_eval on t^20 about 1/10
# takes about 0.27 s at 48 digits, t^50 about 1.0 s at 32 digits, on a
# 2-vCPU VM)
_MAX_LOOP_DEGREE = 50

# the quadrature check runs at the context floor whatever digits are asked
# for: it only has to fix k, whose margin is |2*pi*i|^2 / 2 ~ 19.7, and gate
# the residue sum at this context's agreement_tol (10^-16); its trapezoid
# rule aims four digits below that gate
_CHECK_CTX = PrecisionCtx(32)
_CHECK_DIGITS = 20


def _enclosed(
    coeffs: Tuple[Fraction, ...], loop: CircleAround, ctx: PrecisionCtx
) -> Tuple[int, Dict[Tuple[Fraction, ...], list], mp.mpf]:
    """Roots of a polynomial inside the loop's circle, grouped by place.

    Returns the number of roots inside with multiplicity; for each monic
    irreducible factor with a root inside, its minimal polynomial mapped
    to those roots; and the distance ratio of the root nearest the
    circle, min max(d/r, r/d) over the roots at distance d > 0 from the
    center (infinite when there is none). A linear factor gives its root
    exactly; each root finder call sees one irreducible factor, so simple
    roots only. A root within sqrt(tol) * radius of the circle raises
    CutGrazing: the loop passes through a zero or pole to working precision.
    """
    center, radius = mp.mpc(loop.center), mp.mpf(loop.radius)
    edge = mp.sqrt(ctx.tol) * radius
    count, places, ratio = 0, {}, mp.inf
    for minpoly, mult in qpoly.factor(coeffs)[1]:
        inside = []
        # t + c0 has the root -c0 exactly
        roots = [-_to_mpf(minpoly[0])] if len(minpoly) == 2 else poly_roots(minpoly, ctx)
        for root in roots:
            distance = abs(root - center)
            if abs(distance - radius) <= edge:
                raise CutGrazing(
                    "loop passes within working tolerance of a zero or pole; "
                    "move the loop or drop its radius more carefully"
                )
            if distance < radius:
                inside.append(root)
            if distance > 0:
                ratio = min(ratio, max(distance / radius, radius / distance))
        count += mult * len(inside)
        if inside:
            places[minpoly] = inside
    return count, places, ratio


def _check_value(f, g, loop, nodes, crossings, cut_logs, windings):
    """The loop integral of principal log f against dlog g, plus its
    crossing correction, by the periodic trapezoid rule; orientation +1.

    With a = (f'/f) z' and h = (g'/g) z' on the circle, the continuous
    branch of log f is Log f(z_0) + 2*pi*i*w*t + P(t) and that of log g is
    Log g(z_0) + 2*pi*i*w_g*t + S(t): w and w_g are the winding numbers
    a^_0 / 2*pi*i and h^_0 / 2*pi*i, and P, S the periodic antiderivatives
    with P(0) = S(0) = 0 (coefficients a^_k / 2*pi*i*k, the Nyquist term
    dropped). Principal Log f is that branch minus 2*pi*i per net crossing
    before t, and the crossing correction cancels log g at each crossing
    exactly, leaving

        Log f(z_0) * 2*pi*i*w_g + 2*pi*i*w * (pi*i*w_g - S^_0)
        + sum_k P^_k h^_-k - 2*pi*i*w * Log g(z_0)
        + (2*pi*i)^2 * (sum_c o_c * m_c - w * w_g),

    the sum over k by Parseval. m_c is the branch integer of the
    continuous log g at crossing c against ``cut_logs``, the values the
    correction uses, so S(t_c) only has to be right to within pi. The
    winding numbers must match ``windings``, the zeros minus poles of f and
    of g inside the loop.
    """
    two_pi_i = 2j * mp.pi
    a, h = integrate_path((f.dlog_sampler(), g.dlog_sampler()), loop, nodes, _CHECK_CTX)
    w, w_g = (int(mp.nint(mp.re(c[0] / two_pi_i))) for c in (a, h))
    if (w, w_g) != windings:
        raise InvariantError(
            "crossing audit failed: the trapezoid winding numbers of f and g do "
            "not match their zeros minus poles inside the loop"
        )
    freqs = range(1, nodes // 2)
    # P^_k and S^_k at k = 1, 2, ... and at -1, -2, ...
    p_pos = [a[k] / (two_pi_i * k) for k in freqs]
    p_neg = [-a[-k] / (two_pi_i * k) for k in freqs]
    s_pos = [h[k] / (two_pi_i * k) for k in freqs]
    s_neg = [-h[-k] / (two_pi_i * k) for k in freqs]
    p_0 = -mp.fsum(p_pos + p_neg)
    s_0 = -mp.fsum(s_pos + s_neg)
    pairing = (
        p_0 * h[0]
        + mp.fdot(p_pos, [h[-k] for k in freqs])
        + mp.fdot(p_neg, [h[k] for k in freqs])
    )
    z_0 = loop.point(0)
    log_f0, log_g0 = mp.log(f.eval_mpc(z_0)), mp.log(g.eval_mpc(z_0))
    branches = 0
    for c, log_g in zip(crossings, cut_logs):
        turn = mp.expjpi(2 * mp.mpf(c.param))
        back = mp.conj(turn)
        s_t = s_0 + turn * mp.polyval(s_pos[::-1], turn) + back * mp.polyval(s_neg[::-1], back)
        continuous = log_g0 + two_pi_i * w_g * c.param + s_t
        branches += c.orientation * int(mp.nint(mp.re((continuous - log_g) / two_pi_i)))
    return (
        log_f0 * two_pi_i * w_g
        + two_pi_i * w * (1j * mp.pi * w_g - s_0)
        + pairing
        - two_pi_i * w * log_g0
        + two_pi_i**2 * (branches - w * w_g)
    )


def _pair_regulator(f: RationalFunc, g: RationalFunc, loop: CircleAround, ctx: PrecisionCtx):
    if f.is_zero or g.is_zero:
        raise ZeroEntry("regulator needs nonzero entries")
    for h in (f, g):
        if _deg(h.numerator) + _deg(h.denominator) > _MAX_LOOP_DEGREE:
            raise StratificationOverflow(
                f"regulator entry {h} has degree above {_MAX_LOOP_DEGREE} "
                "(numerator plus denominator)"
            )
    try:
        # every zero and pole needs clearance; those of f also audit the crossings
        parts = [
            _enclosed(p, loop, ctx)
            for p in (f.numerator, f.denominator, g.numerator, g.denominator)
        ]
        nodes = trapezoid_nodes(min(ratio for _, _, ratio in parts), _CHECK_DIGITS)
        crossings = detect_crossings(f.numerator, f.denominator, loop, ctx)
    except TangencySuspected as exc:
        raise CutGrazing(f"loop grazes the branch cut of log f: {exc}") from exc
    # argument principle: the signed crossings count the winding of f about 0
    zeros, poles, g_zeros, g_poles = (count for count, _, _ in parts)
    if sum(c.orientation for c in crossings) != zeros - poles:
        raise InvariantError(
            "crossing audit failed: net signed count does not match the zeros "
            "minus poles of f inside the loop"
        )
    places = {}
    for _, inside, _ in parts:
        places.update(inside)
    two_pi_i = 2j * mp.pi
    residue = mp.mpc(0)
    for minpoly, roots in places.items():
        unit = tame_symbol((f, g), Place(minpoly))
        # a place of degree above 1 gives a class in Q[t]/(minpoly): evaluate
        # it at each conjugate root inside the loop
        coeffs = unit if isinstance(unit, tuple) else (unit,)
        for root in roots:
            residue += -two_pi_i * mp.log(_horner(coeffs, root))
    residue *= loop.orientation
    delta = mp.mpc(0)
    cut_logs = []
    for c in crossings:
        gval = g.eval_mpc(loop.point(c.param))
        log_g = mp.log(gval)
        if gval.real < 0 and abs(gval.imag) <= ctx.tol * abs(gval):
            # g sits on its own cut, where rounding would pick the branch: take
            # the principal value for a downward crossing and its mirror for an
            # upward one, so the term's (2*pi*i)^2 part is the same either way
            log_g = mp.mpc(log_g.real, c.orientation * mp.pi)
        cut_logs.append(log_g)
        delta += -two_pi_i * c.orientation * log_g
    delta *= loop.orientation

    with _CHECK_CTX.work():
        quad = loop.orientation * _check_value(
            f, g, loop, nodes, crossings, cut_logs, (zeros - poles, g_zeros - g_poles)
        )
        base = (2j * mp.pi) ** 2
        k = int(mp.nint(mp.re((quad - residue) / base)))
        gap = abs(quad - residue - k * base)
        if gap > _CHECK_CTX.agreement_tol * (1 + abs(quad)):
            raise InvariantError(
                f"route agreement failed: the loop quadrature and the residue sum "
                f"differ by {mp.nstr(gap, 8)} modulo (2*pi*i)^2"
            )
    # (2*pi*i)^2 is formed at full precision: k is an exact integer
    return residue + k * two_pi_i**2, delta, crossings


def regulator_eval(
    pairs: Union[Sequence[RationalFunc], MilnorSymbolSum],
    loop: CircleAround,
    ctx: PrecisionCtx = PrecisionCtx(),
    max_den: int = 10**3,
    max_height: int = 10**4,
) -> RegulatorValue:
    """Pair the regulator current of {f, g} terms with a loop in C.

    Accepts a single (f, g) pair or a length-2 MilnorSymbolSum, whose
    terms contribute linearly with their rational coefficients. The loop
    must keep clear of all zeros and poles involved; grazing either a
    divisor or the branch cut raises CutGrazing. The reported value is
    canonical modulo (2*pi*i)^2 Q and carries membership evidence for
    that reduction.
    """
    if isinstance(pairs, MilnorSymbolSum):
        if pairs.n != 2:
            raise ValueError("regulator pairing needs symbols of length 2")
        term_list = list(pairs.terms)
    else:
        f, g = pairs
        term_list = [((f, g), Fraction(1))]
    with ctx.work():
        value = mp.mpc(0)
        delta = mp.mpc(0)
        crossing_docs: list = []
        for index, ((f, g), coeff) in enumerate(term_list):
            part_value, part_delta, crossings = _pair_regulator(f, g, loop, ctx)
            weight = _to_mpf(coeff)
            value += weight * part_value
            delta += weight * part_delta
            for c in crossings:
                crossing_docs.append(
                    {
                        "term": index,
                        "param": mp.nstr(c.param, 17),
                        "point": complex_to_json(c.point, ctx),
                        "orientation": c.orientation,
                    }
                )
        integral = value - delta
        evidence = lattice_membership(
            [value],
            [[(2j * mp.pi) ** 2]],
            max_den=max_den,
            max_height=max_height,
            ctx=ctx,
        )
    return RegulatorValue(
        value=value,
        integral=integral,
        delta=delta,
        crossings=tuple(crossing_docs),
        indeterminacy=evidence,
        digits=ctx.digits,
        notes=(
            "principal-branch logs with cut on the negative real axis",
            "delta = -2*pi*i * sum(orientation * log g(crossing))",
        ),
    )


def indeterminacy_defect(
    value, ctx: PrecisionCtx, max_den: int = 16
) -> Tuple[mp.mpf, Fraction]:
    """Distance from value to the nearest q*(2*pi*i)^2 with den(q) <= max_den.

    The candidate q comes from a double-precision snap of the real ratio;
    with a small denominator bound the snap gap (about 1/(2*max_den^2))
    sits far above double rounding, so q is exact whenever a true small
    rational multiple exists and the defect itself is then measured at
    full working precision.
    """
    with ctx.work():
        base = (2j * mp.pi) ** 2
        ratio = mp.re(mp.mpc(value) / base)
        q = Fraction(float(ratio)).limit_denominator(max_den)
        defect = abs(mp.mpc(value) - _to_mpf(q) * base)
        return defect, q


# ---------------------------------------------------------------------------
# Constant symbols as box cycles
# ---------------------------------------------------------------------------


def symbol_to_box(s: MilnorSymbolSum) -> ZeroCycle:
    """Realize a constant symbol sum as a box cycle on (P^1 - {0, inf})^n.

    Each factor is a multiplicative-group line with base point 1; a term
    {a_1, ..., a_n} maps to the product of (a_j) - (1) expanded with
    signs. Non-constant entries are rejected, and a zero entry raises
    ZeroEntry since 0 is excluded from the marked line.
    """
    refs = tuple(CurveRef(f"L{j + 1}") for j in range(s.n))
    bases = tuple(PointSymbol.base(ref) for ref in refs)
    acc = zero_cycle(s.n)
    for tup, coeff in s.terms:
        points = []
        for j, entry in enumerate(tup):
            if entry.is_zero:
                raise ZeroEntry("0 does not lie on the marked multiplicative line")
            if not entry.is_constant:
                raise ValueError(
                    f"box realization needs constant entries, got {entry}"
                )
            points.append(PointSymbol.named(refs[j], str(entry.constant_value())))
        acc = acc + coeff * box_cycle(points, bases)
    return acc
