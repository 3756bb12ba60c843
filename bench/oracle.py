"""Exact checks that decide each generated request's expected verdict.

Nothing here calls into ``haj``: every expectation comes from rational
arithmetic or a theorem, so a numerical defect in the package cannot make
the oracle agree with it.

* the group law on y^2 = 4x^3 - g2*x - g3 in exact rationals, with Mazur's
  bound (a rational torsion point has order at most 12);
* the thirteen rational CM j-invariants, and point counts modulo small
  primes: two non-CM curves over Q with |a_p| different at a prime of good
  reduction are not isogenous, not even over an extension of Q;
* tame symbols of products of linear factors, in the convention the
  package documents (the value of (-1)^(ab) g^a / f^b with a = v(f),
  b = v(g));
* truncated square roots of squarefree integers, whose integer relations are
  known exactly.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

Point = Optional[Tuple[Fraction, Fraction]]  # None is the point at infinity

MAZUR_BOUND = 12

# j-invariants of the rational elliptic curves with complex multiplication
CM_J_INVARIANTS = frozenset(
    Fraction(j)
    for j in (
        0,
        1728,
        -3375,
        8000,
        -32768,
        54000,
        287496,
        -884736,
        -12288000,
        16581375,
        -884736000,
        -147197952000,
        -262537412640768000,
    )
)

CLASSIFY_CASES = (
    "RankFourCM_Unconditional",
    "OneFactorCM_Unconditional",
    "IsogenousNonCM_Unconditional",
    "NonIsogenousNonCM_Conditional",
)


# ---------------------------------------------------------------------------
# Curves y^2 = 4x^3 - g2*x - g3
# ---------------------------------------------------------------------------


def discriminant(g2: Fraction, g3: Fraction) -> Fraction:
    return Fraction(g2) ** 3 - 27 * Fraction(g3) ** 2


def j_invariant(g2: Fraction, g3: Fraction) -> Fraction:
    return 1728 * Fraction(g2) ** 3 / discriminant(g2, g3)


def has_cm(g2: Fraction, g3: Fraction) -> bool:
    return j_invariant(g2, g3) in CM_J_INVARIANTS


def on_curve(p: Point, g2: Fraction, g3: Fraction) -> bool:
    if p is None:
        return True
    x, y = p
    return y * y == 4 * x**3 - g2 * x - g3


def point_add(p: Point, q: Point, g2: Fraction) -> Point:
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if y1 + y2 == 0:
            return None
        lam = (12 * x1 * x1 - g2) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam / 4 - x1 - x2
    return x3, -(y1 + lam * (x3 - x1))


def torsion_order(p: Point, g2: Fraction) -> Optional[int]:
    """The order of a rational point, or None when it has infinite order."""
    acc = p
    for n in range(1, MAZUR_BOUND + 1):
        if acc is None:
            return n
        acc = point_add(acc, p, g2)
    return None


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def trace_of_frobenius(g2: Fraction, g3: Fraction, p: int) -> Optional[int]:
    """a_p of the model at a prime p >= 5, or None if the model is bad at p."""
    g2, g3 = Fraction(g2), Fraction(g3)
    if g2.denominator % p == 0 or g3.denominator % p == 0:
        return None
    if discriminant(g2, g3).numerator % p == 0:
        return None
    a = g2.numerator * pow(g2.denominator, -1, p) % p
    b = g3.numerator * pow(g3.denominator, -1, p) % p
    return -sum(_legendre(4 * x**3 - a * x - b, p) for x in range(p))


def _primes(lo: int, hi: int) -> Iterable[int]:
    for n in range(lo, hi):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            yield n


def non_isogeny_witness(c1: Tuple[Fraction, Fraction], c2: Tuple[Fraction, Fraction],
                        limit: int = 200) -> Optional[int]:
    """A prime where |a_p| differs, certifying that the curves are not isogenous."""
    for p in _primes(5, limit):
        a1 = trace_of_frobenius(*c1, p)
        a2 = trace_of_frobenius(*c2, p)
        if a1 is not None and a2 is not None and abs(a1) != abs(a2):
            return p
    return None


def classify_expectation(c1: Tuple[Fraction, Fraction], c2: Tuple[Fraction, Fraction]) -> Optional[str]:
    """The classifier case a curve pair must get, or None when no certificate exists."""
    cm1, cm2 = has_cm(*c1), has_cm(*c2)
    same_j = j_invariant(*c1) == j_invariant(*c2)
    if cm1 and cm2:
        return CLASSIFY_CASES[0] if same_j else CLASSIFY_CASES[1]
    if cm1 or cm2:
        return CLASSIFY_CASES[1]
    if same_j:
        return CLASSIFY_CASES[2]
    if non_isogeny_witness(c1, c2) is not None:
        return CLASSIFY_CASES[3]
    return None


# ---------------------------------------------------------------------------
# Tame symbols of products of linear factors
# ---------------------------------------------------------------------------

# a rational function as (constant, {root: exponent}) meaning c * prod (t - r)^e
Factored = Tuple[Fraction, Dict[Fraction, int]]


def _factored_value(f: Factored, at: Fraction, skip: Fraction) -> Fraction:
    const, roots = f
    out = Fraction(const)
    for r, e in roots.items():
        if r != skip:
            out *= (at - r) ** e
    return out


def tame_symbol(f: Factored, g: Factored, place) -> Fraction:
    """(-1)^(ab) * (g^a / f^b)(place) with a = v(f), b = v(g); place is a rational or 'inf'."""
    if place == "inf":
        # uniformizer 1/t: v(c * prod (t - r)^e) = -sum(e); the leading unit is c
        a = -sum(f[1].values())
        b = -sum(g[1].values())
        unit_f, unit_g = Fraction(f[0]), Fraction(g[0])
    else:
        a = f[1].get(place, 0)
        b = g[1].get(place, 0)
        unit_f = _factored_value(f, place, place)
        unit_g = _factored_value(g, place, place)
    sign = -1 if (a * b) % 2 else 1
    return sign * unit_g**a / unit_f**b


def factored_text(f: Factored) -> str:
    """Render c * prod (t - r)^e as an expression the package parses."""
    const, roots = f
    num = [f"(t - ({r}))^{e}" for r, e in sorted(roots.items()) if e > 0]
    den = [f"(t - ({r}))^{-e}" for r, e in sorted(roots.items()) if e < 0]
    text = f"({const})"
    if num:
        text += "*" + "*".join(num)
    if den:
        text += "/(" + "*".join(den) + ")"
    return text


# ---------------------------------------------------------------------------
# Square roots for planted integer relations
# ---------------------------------------------------------------------------


def sqrt_scaled(n: int, digits: int) -> int:
    """floor(sqrt(n) * 10^digits), exactly."""
    return math.isqrt(n * 10 ** (2 * digits))


def decimal_text(scaled: int, digits: int) -> str:
    sign = "-" if scaled < 0 else ""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{s[:-digits]}.{s[-digits:]}"


def proportional(found: Sequence[int], planted: Sequence[int]) -> bool:
    """True when two integer vectors are nonzero multiples of each other."""
    if len(found) != len(planted) or not any(found):
        return False
    n = len(found)
    return all(found[i] * planted[j] == found[j] * planted[i] for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# Comparing a verdict document with its expectation
# ---------------------------------------------------------------------------


def _near_half_integer(text: str, digits: int) -> bool:
    value = Decimal(text) * 2
    return abs(value - value.to_integral_value()) < Decimal(10) ** -(digits // 2)


def check(expect: dict, doc: dict, digits: int) -> Optional[str]:
    """None when the document carries the expected verdict, else the reason;
    a document with a missing or malformed field is a failure, not a crash."""
    try:
        return _check(expect, doc, digits)
    except (KeyError, TypeError, ValueError, AttributeError, ArithmeticError) as exc:
        return f"malformed result document: {type(exc).__name__}: {exc}"


def _check(expect: dict, doc: dict, digits: int) -> Optional[str]:
    if "error" in doc:
        err = doc["error"]
        return f"error {err.get('type')}: {err.get('message')}"
    result = doc.get("result", {})
    if "cases" in expect and result.get("cases") != expect["cases"]:
        return f"cases {result.get('cases')} != {expect['cases']}"
    if "verdict" in expect and result.get("verdict") != expect["verdict"]:
        return f"verdict {result.get('verdict')} != {expect['verdict']}"
    if expect.get("amplified") and not result.get("membership", {}).get("amplified"):
        return "member verdict was not amplified"
    if "order" in expect and result.get("order") != expect["order"]:
        return f"order {result.get('order')} != {expect['order']}"
    if "value" in expect and Fraction(result.get("value", "nan")) != Fraction(expect["value"]):
        return f"tame symbol {result.get('value')} != {expect['value']}"
    if "relation" in expect:
        found = [int(c) for c in (result.get("relation") or {}).get("coefficients", [])]
        if not proportional(found, expect["relation"]):
            return f"relation {found} is not a multiple of {expect['relation']}"
    if "half_period" in expect:
        coords = result.get("lattice_coords", {})
        s, t = Decimal(coords["s"]), Decimal(coords["t"])
        if max(abs(s), abs(t)) > Decimal("0.5") + Decimal(10) ** -(digits // 2):
            return f"log coordinates ({s}, {t}) are outside the fundamental domain"
        half = _near_half_integer(coords["s"], digits) and _near_half_integer(coords["t"], digits)
        if expect["half_period"] and not (half and (s or t)):
            return f"2-torsion log ({s}, {t}) is not a nonzero half period"
        if not expect["half_period"] and half:
            return f"log of a point of infinite order is a half period: ({s}, {t})"
    return None
