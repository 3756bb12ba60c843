"""The exact Q[t] kernel against sympy, which serves here as the reference."""

import json
import pathlib
import random
import sys
import time
from fractions import Fraction

import pytest
import sympy

from haj import qpoly
from haj.invariants import StratificationOverflow
from haj.milnor import RationalFunc

ROOT = pathlib.Path(__file__).resolve().parents[1]
T = sympy.Symbol("t")


def _sp(coeffs):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(tuple(coeffs))] or [0],
        T,
        domain="QQ",
    )


def _from_sp(poly):
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def _ref_factor(coeffs):
    """sympy's factor_list with the leading coefficients folded into the unit."""
    content, factors = _sp(coeffs).factor_list()
    unit, out = Fraction(int(content.p), int(content.q)), []
    for poly, exp in factors:
        lead = poly.LC()
        unit *= Fraction(int(lead.p), int(lead.q)) ** int(exp)
        out.append((_from_sp(poly.monic()), int(exp)))
    return unit, out


def _rand_poly(rng, degree, den=3):
    while True:
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(degree + 1)]
        if coeffs[-1]:
            return tuple(coeffs)


def _ref_parse(text):
    expr = sympy.sympify(text.replace("^", "**"), rational=True)
    num, den = sympy.together(expr).as_numer_denom()
    return RationalFunc(_from_sp(sympy.Poly(num, T, domain="QQ")),
                        _from_sp(sympy.Poly(den, T, domain="QQ")))


def _from_ints(*high_first):
    return tuple(Fraction(c) for c in reversed(high_first))


def test_factor_matches_sympy_including_the_order():
    rng = random.Random(31)
    for _ in range(3000):
        coeffs = (Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 4)),)
        # small degrees put several factors of one degree and multiplicity
        # side by side, so the order among them is exercised
        for _ in range(rng.randint(1, 3)):
            factor = _rand_poly(rng, rng.randint(1, 3)) if rng.random() < 0.9 else (0, 1)
            for _ in range(rng.randint(1, 3)):
                coeffs = qpoly.mul(coeffs, factor)
        assert qpoly.factor(coeffs) == _ref_factor(coeffs), coeffs


# Swinnerton-Dyer's degree-16 polynomial, the minimal polynomial of
# sqrt(2) + sqrt(3) + sqrt(5) + sqrt(7): irreducible over Q, but a product of
# factors of degree at most 2 modulo every prime
SD16 = _from_ints(1, 0, -136, 0, 6476, 0, -141912, 0, 1513334, 0, -7453176,
                  0, 13950764, 0, -5596840, 0, 46225)


def test_factor_of_hard_cases_is_fast():
    # Eisenstein at 3; ten cyclotomic factors from more modular ones; SD16
    cases = {
        "t^50 - 3": ((Fraction(-3),) + (Fraction(0),) * 49 + (Fraction(1),), 1),
        "t^48 - 1": ((Fraction(-1),) + (Fraction(0),) * 47 + (Fraction(1),), 10),
        "sd16": (SD16, 1),
    }
    for name, (coeffs, count) in cases.items():
        start = time.perf_counter()
        unit, factors = qpoly.factor(coeffs)
        elapsed = time.perf_counter() - start
        assert len(factors) == count, name
        assert elapsed < 0.1, (name, elapsed)
        assert (unit, factors) == _ref_factor(coeffs), name


def test_factor_refuses_past_its_recombination_budget(monkeypatch):
    # SD16 has at least 8 modular factors, all of even degree, so that
    # proving it irreducible tries more than 10 subsets
    monkeypatch.setattr(qpoly, "_MAX_TRIALS", 10)
    with pytest.raises(StratificationOverflow, match="recombination"):
        qpoly.factor(SD16)


def test_printer_matches_sstr():
    rng = random.Random(32)
    for trial in range(10000):
        if trial % 4 == 0:
            # c - m*t^k with c > 0: the binomial that prints its constant first
            coeffs = [Fraction(0)] * rng.randint(2, 5)
            coeffs[0] = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            coeffs[-1] = -Fraction(rng.randint(1, 5), rng.randint(1, 3))
            coeffs = [c * rng.choice((1, -1)) for c in coeffs] if trial % 8 == 0 else coeffs
        else:
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                      if rng.random() < 0.7 else Fraction(0) for _ in range(rng.randint(0, 6))]
        coeffs = qpoly.trim(coeffs)
        assert qpoly.to_str(coeffs) == sympy.sstr(_sp(coeffs).as_expr()), coeffs


def test_resultant_matches_sympy_on_reduced_residues():
    rng = random.Random(33)
    for _ in range(1000):
        d = rng.randint(2, 6)
        minpoly = tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)) + (Fraction(1),)
        residue = qpoly.trim(_rand_poly(rng, rng.randint(0, d - 1)))
        norm = _sp(minpoly).resultant(_sp(residue))
        assert qpoly.resultant(minpoly, residue) == Fraction(int(norm.p), int(norm.q))


def _expressions(doc):
    """Every rational-function string a request document carries."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in ("f", "g", "root_of") and isinstance(value, str):
                yield value
            elif key == "place" and isinstance(value, str) and "t" in value:
                yield value
            else:
                yield from _expressions(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _expressions(value)


def test_parse_matches_sympify_on_the_bench_plans_and_presets():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    docs = [json.loads(p.read_text()) for p in sorted((ROOT / "src/haj/presets").glob("*.json"))]
    for workload in WORKLOADS.values():
        plan = workload.build(1, 30) if workload.warm else workload.build(1, 30, cache_dir=None)
        docs.extend(r["wire"] for r in plan["warmup"] + plan["stream"])
    texts = sorted(set(text for doc in docs for text in _expressions(doc)))
    assert len(texts) > 50
    for text in texts:
        assert RationalFunc.parse(text) == _ref_parse(text), text


@pytest.mark.parametrize("text", [
    "-t**2", "2^-1*t", "t^2^2", "(t+1)/(t-1)", "0.5*t + .25", "5.", "--t", "t*+2",
    "(t^2 - 2)/4", "1/(2*t)^3", "0^0 + t", "(1/3)^-2 - t",
])
def test_parse_grammar_cases(text):
    assert RationalFunc.parse(text) == _ref_parse(text)


@pytest.mark.parametrize("text, reason", [
    ('__import__("os").getpid() + t', "unknown symbol"),
    ("x + 1", "unknown symbol"),
    ("t^(1/2)", "integer"),
    ("2t", "unexpected"),
    ("(t + 1", "parentheses"),
    ("", "empty"),
    ("1/(t - t)", "division by zero"),
    ("t^257", "degree"),
    ("(t+1)^(10^4)", "degree"),
    ("10^(10^5)*t", "bits"),
    ("7" * 4301, "literal"),
    ("(" * 101 + "t" + ")" * 101, "nested"),
    ("-" * 500 + "t", "nested"),
    ("t ** 1.5", "integer"),
    ("t ٣", "character"),
])
def test_parse_refusals(text, reason):
    with pytest.raises(qpoly.ParseError, match=reason):
        qpoly.parse(text)
