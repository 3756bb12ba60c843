"""Symbol normalization, tame symbols, reciprocity, and the loop regulator."""

import random
import time
from fractions import Fraction

import mpmath.calculus.quadrature as quadrature
import pytest
from click.testing import CliRunner
from mpmath import mp

from haj import milnor
from haj.cli import main
from haj.cycles import ZeroCycle
from haj.invariants import CutGrazing, InvariantError, StratificationOverflow
from haj.milnor import (
    DegreeTooHigh,
    MilnorSymbolSum,
    Place,
    RationalFunc,
    ZeroEntry,
    indeterminacy_defect,
    regulator_eval,
    steinberg_normalize,
    symbol_to_box,
    tame_symbol,
    weil_reciprocity_check,
)
from haj.numkernel import CircleAround, PrecisionCtx, detect_crossings

CTX = PrecisionCtx(48)

T = RationalFunc((0, 1))
ONE = RationalFunc.const(1)


def sym(*entries, coeff=1):
    return MilnorSymbolSum.symbol(*entries, coeff=coeff)


def rand_rf(rng, max_deg=4, den_deg=0):
    """Random nonzero polynomial (or quotient) with small coefficients."""
    def poly(deg):
        while True:
            cs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(deg + 1)]
            if cs[-1] != 0:
                return RationalFunc(tuple(cs))
    out = poly(rng.randint(1, max_deg))
    if den_deg:
        out = out / poly(rng.randint(1, den_deg))
    return out


# -- rational functions


def test_rational_func_canonical_form():
    f = RationalFunc((Fraction(2), Fraction(2)), (Fraction(0), Fraction(4)))
    # (2t+2)/(4t) reduces with monic denominator
    assert f.numerator == (Fraction(1, 2), Fraction(1, 2))
    assert f.denominator == (Fraction(0), Fraction(1))
    g = RationalFunc((Fraction(-2), Fraction(0), Fraction(2)), (Fraction(-2), Fraction(2)))
    # (2t^2-2)/(2t-2) = t+1
    assert g == RationalFunc.parse("t+1")
    assert RationalFunc((Fraction(0),), (Fraction(5),)).is_zero


def test_rational_func_zero_denominator():
    with pytest.raises(ValueError):
        RationalFunc((Fraction(1),), (Fraction(0),))


def test_rational_func_rejects_floats():
    with pytest.raises(TypeError):
        RationalFunc((0.5, 1.0))


def test_parse_and_arithmetic():
    f = RationalFunc.parse("(t^2 - 2)/4")
    assert f.numerator == (Fraction(-1, 2), Fraction(0), Fraction(1, 4))
    assert f.one_minus() == RationalFunc.parse("(6 - t^2)/4")
    assert -f == RationalFunc.parse("(2 - t^2)/4")
    assert f * RationalFunc.const(4) == RationalFunc.parse("t^2 - 2")
    assert (T ** 3 / T) == T * T
    assert T ** -2 == ONE / (T * T)
    with pytest.raises(ValueError):
        RationalFunc.parse("x + 1")


def test_eval_exact_and_numeric_agree():
    rng = random.Random(3)
    with CTX.work():
        for _ in range(20):
            f = rand_rf(rng, max_deg=3, den_deg=2)
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            try:
                exact = f.eval_exact(x)
            except ZeroDivisionError:
                continue
            num = f.eval_mpc(mp.mpf(x.numerator) / x.denominator)
            assert abs(num - mp.mpf(exact.numerator) / exact.denominator) < CTX.tol


def test_derivative_matches_dlog():
    rng = random.Random(4)
    with CTX.work():
        for _ in range(10):
            f = rand_rf(rng, max_deg=3, den_deg=1)
            z = mp.mpc(rng.uniform(2, 3), rng.uniform(1, 2))
            lhs = f.dlog_sampler()(z)
            rhs = f.derivative().eval_mpc(z) / f.eval_mpc(z)
            assert abs(lhs - rhs) < CTX.tol * (1 + abs(lhs))


def test_rational_func_json_round_trip():
    f = RationalFunc.parse("(3*t^2 - 1)/(2*t + 5)")
    doc = f.to_json()
    assert doc == {"num": ["-1/2", "0", "3/2"], "den": ["5/2", "1"]}
    assert RationalFunc.from_json(doc) == f


# -- symbol sums


def test_symbol_sum_drops_units_and_zero_coeffs():
    assert sym(RationalFunc.const(5), ONE).is_zero
    assert sym(T, T, coeff=0).is_zero
    s = sym(T, T - ONE) + sym(T, T - ONE, coeff=-1)
    assert s.is_zero
    with pytest.raises(ValueError):
        MilnorSymbolSum.from_terms(2, {(T,): 1})


def test_symbol_sum_merges_terms():
    a = sym(T, T - ONE, coeff=Fraction(1, 2))
    b = sym(T, T - ONE, coeff=Fraction(1, 3))
    merged = a + b
    assert len(merged.terms) == 1
    assert merged.terms[0][1] == Fraction(5, 6)
    assert (a - a).is_zero
    assert a.scale(2).terms[0][1] == Fraction(1)


# -- Steinberg normal form


def test_normalize_steinberg_pair_vanishes():
    assert steinberg_normalize(sym(T, ONE - T)).is_zero
    # the relation survives hiding behind a square
    assert steinberg_normalize(sym(T * T, ONE - T * T)).is_zero


def test_normalize_negation_pair_vanishes():
    f = RationalFunc.parse("t+5")
    assert steinberg_normalize(sym(f, -f)).is_zero


def test_normalize_power_multilinearity():
    g = RationalFunc.parse("t-3")
    lhs = steinberg_normalize(sym(T * T, g))
    rhs = steinberg_normalize(sym(T, g, coeff=2))
    assert lhs == rhs
    assert sum(abs(c) for _, c in lhs.terms) == 2


def test_normalize_product_multilinearity():
    # generic triples: no entry collides with a Steinberg kill pattern
    # of another, where the normal form (not a homomorphism) may differ
    triples = [
        ("t+7", "t-3", "t+5"),
        ("2*t", "t^2+1", "t-4"),
        ("t^3/(t-1)", "t+7", "t-3"),
        ("(3*t+1)/(t+2)", "t^2+t+1", "5"),
    ]
    for sf, sh, sg in triples:
        f, h, g = map(RationalFunc.parse, (sf, sh, sg))
        lhs = steinberg_normalize(sym(f * h, g))
        rhs = steinberg_normalize(sym(f, g) + sym(h, g))
        assert lhs == rhs


def test_normalize_duplicate_entry():
    f = RationalFunc.parse("t+5")
    lhs = steinberg_normalize(sym(f, f))
    assert lhs == steinberg_normalize(sym(f, RationalFunc.const(-1)))
    assert not lhs.is_zero


def test_normalize_minus_one_fixpoint():
    minus = RationalFunc.const(-1)
    s = sym(minus, minus)
    assert steinberg_normalize(s) == s


def test_normalize_idempotent_on_random_sums():
    rng = random.Random(17)
    for _ in range(6):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            tup = (rand_rf(rng, max_deg=2, den_deg=1), rand_rf(rng, max_deg=2))
            terms[tup] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        s = MilnorSymbolSum.from_terms(2, terms)
        once = steinberg_normalize(s)
        assert steinberg_normalize(once) == once


def test_normalize_atom_cache_is_bounded():
    # a long process normalizing many distinct functions keeps 256 of them
    milnor._entry_atoms.cache_clear()
    for a in range(1, 151):
        steinberg_normalize(sym(RationalFunc((a, 1)), RationalFunc((a, 2))))
    info = milnor._entry_atoms.cache_info()
    assert info.maxsize == 256
    assert info.currsize == 256
    assert info.misses > 256
    steinberg_normalize(sym(RationalFunc((150, 1)), RationalFunc((150, 2))))
    assert milnor._entry_atoms.cache_info().hits > info.hits


def test_normalize_antisymmetry_sign():
    g = RationalFunc.parse("t-3")
    lhs = steinberg_normalize(sym(g, T))
    rhs = steinberg_normalize(sym(T, g, coeff=-1))
    assert lhs == rhs


# -- places and tame symbols


def test_place_validation():
    with pytest.raises(ValueError):
        Place((Fraction(1), Fraction(2)))  # not monic
    with pytest.raises(ValueError):
        Place((Fraction(-1), Fraction(0), Fraction(1)))  # t^2-1 reducible
    assert Place.infinity().is_infinite
    assert Place.rational(Fraction(5, 2)).degree == 1
    assert Place.algebraic((1, 0, 1)).degree == 2


def test_tame_symbol_examples():
    assert tame_symbol((T, ONE - T), Place.rational(0)) == 1
    assert tame_symbol((T, RationalFunc.const(7)), Place.rational(0)) == 7
    assert tame_symbol((T * T, RationalFunc.parse("t-3")), Place.rational(0)) == 9


def test_tame_symbol_pinned_values():
    f = T ** 3 / RationalFunc.parse("t-1")
    g = RationalFunc.parse("(2*t+1)^2")
    assert tame_symbol((f, g), Place.rational(Fraction(-1, 2))) == 144
    assert tame_symbol((f, g), Place.infinity()) == Fraction(1, 16)


def test_tame_symbol_residue_class():
    place = Place.algebraic((1, 0, 1))
    value = tame_symbol((RationalFunc.parse("t^2+1"), RationalFunc.parse("t-3")), place)
    # the class of t-3 in Q[t]/(t^2+1), constant term first
    assert value == (Fraction(-3), Fraction(1))
    cubed = tame_symbol((RationalFunc.parse("(t^2+1)^3"), RationalFunc.const(2)), place)
    assert cubed == (Fraction(8),)


def test_tame_symbol_zero_entry():
    with pytest.raises(ZeroEntry):
        tame_symbol((RationalFunc.const(0), T), Place.rational(0))


# -- Weil reciprocity


def test_reciprocity_basic_pair():
    report = weil_reciprocity_check((T, RationalFunc.parse("t-1")))
    assert report.holds and report.product == 1
    values = {tuple(c.to_json()["place"]) if not c.place.is_infinite else "inf":
              c.value for c in report.contributions}
    assert values[("0", "1")] == -1
    assert values[("-1", "1")] == 1
    assert values["inf"] == -1


def test_reciprocity_mixed_pair_pinned():
    f = RationalFunc.parse("(t^2+1)*(t-2)/(t+3)")
    g = RationalFunc.parse("(t^3-t-1)/(2*t-5)")
    report = weil_reciprocity_check((f, g))
    assert report.holds
    pinned = [
        (["-5/2", "1"], Fraction(29, 44)),
        (["-2", "1"], Fraction(-5)),
        (["3", "1"], Fraction(11, 25)),
        (["1", "0", "1"], Fraction(5, 29)),
        (["-1", "-1", "0", "1"], Fraction(-1)),
        ("infinity", Fraction(4)),
    ]
    got = [(c.place.describe(), c.value) for c in report.contributions]
    assert got == pinned


def test_reciprocity_shared_factor():
    report = weil_reciprocity_check(
        (RationalFunc.parse("t*(t-1)"), RationalFunc.parse("t^2*(t+2)"))
    )
    assert report.holds


def test_reciprocity_random_pairs():
    rng = random.Random(11)
    start = time.time()
    checked = 0
    while checked < 100:
        f = rand_rf(rng, max_deg=4, den_deg=3)
        g = rand_rf(rng, max_deg=4, den_deg=3)
        report = weil_reciprocity_check((f, g))
        assert report.holds, (str(f), str(g), report.product)
        checked += 1
    assert time.time() - start < 10.0


def test_reciprocity_degree_cap():
    with pytest.raises(DegreeTooHigh):
        weil_reciprocity_check((RationalFunc.parse("t^7-2"), T))
    # a reducible degree-8 numerator is fine: the factors stay small
    big = RationalFunc.parse("(t^2+1)^4")
    assert weil_reciprocity_check((big, T)).holds


def test_reciprocity_zero_entry():
    with pytest.raises(ZeroEntry):
        weil_reciprocity_check((RationalFunc.const(0), T))



# -- the tame-symbol engine against the formulas it replaced: a RationalFunc
# quotient per place and a determinant norm, kept here as references in
# sympy's polynomial algebra, which the package no longer uses


def _sp(coeffs):
    import sympy

    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(tuple(coeffs))] or [0],
        sympy.Symbol("t"),
        domain="QQ",
    )


def _from_sp(poly):
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs()))


def _ref_strip(h, p):
    """ord_p h and the p-free numerator and denominator, by repeated division."""
    order, parts = 0, []
    for coeffs, sign in ((h.numerator, 1), (h.denominator, -1)):
        poly = _sp(coeffs)
        while True:
            quo, rem = poly.div(p)
            if not rem.is_zero:
                break
            poly, order = quo, order + sign
        parts.append(poly)
    return order, parts[0], parts[1]


def _ref_norm(p, h):
    """N(h mod p) as the determinant of multiplication by h on Q[t]/(p)."""
    import sympy

    d = p.degree()
    cur, columns = h.rem(p), []
    for _ in range(d):
        coeffs = list(reversed(cur.all_coeffs()))
        columns.append(coeffs + [sympy.Integer(0)] * (d - len(coeffs)))
        cur = (cur * sympy.Poly([1, 0], sympy.Symbol("t"), domain="QQ")).rem(p)
    det = sympy.Rational(sympy.Matrix(d, d, lambda i, j: columns[j][i]).det())
    return Fraction(int(det.p), int(det.q))


def _ref_tame(f, g, place):
    if place.is_infinite:
        a, b = f.ord_infinity, g.ord_infinity
        sign = -1 if (a * b) % 2 else 1
        return sign * g.leading_unit() ** a / f.leading_unit() ** b
    p = _sp(place.minpoly)
    a, fn, fd = _ref_strip(f, p)
    b, gn, gd = _ref_strip(g, p)
    sign = -1 if (a * b) % 2 else 1
    f1 = RationalFunc(_from_sp(fn), _from_sp(fd))
    g1 = RationalFunc(_from_sp(gn), _from_sp(gd))
    h = (g1 ** a) / (f1 ** b)
    if place.degree == 1:
        return sign * h.eval_exact(-place.minpoly[0])
    hn, hd = _sp(h.numerator), _sp(h.denominator)
    return tuple(sign * c for c in _from_sp((hn * hd.invert(p)).rem(p)))


def _irreducible(rng, degree):
    while True:
        coeffs = tuple(Fraction(rng.randint(-4, 4)) for _ in range(degree)) + (Fraction(1),)
        if _sp(coeffs).is_irreducible:
            return coeffs


def _factored_pair(rng, degrees):
    """f and g over one pool of monic irreducibles, orders in [-3, 3]."""
    pool = [RationalFunc(_irreducible(rng, d)) for d in degrees]

    def entry():
        out = RationalFunc.const(Fraction(rng.choice([-3, -2, 2, 3, 5]), rng.randint(1, 4)))
        for factor in rng.sample(pool, 2):
            out = out * factor ** rng.choice([-3, -2, -1, 1, 2, 3])
        return out

    return entry(), entry()


def test_reciprocity_norms_match_the_determinant_norm():
    # places of degree 2-5 shared by f and g, so a and b are both nonzero;
    # at places of odd degree, sympy's resultant of an unreduced residue of
    # odd degree above it has the wrong sign, which the reduced residue avoids
    rng = random.Random(20)
    start = time.time()
    for trial in range(24):
        degrees = ((3, 5, 1), (2, 4, 3), (5, 3, 2))[trial % 3]
        f, g = _factored_pair(rng, degrees)
        report = weil_reciprocity_check((f, g))
        assert report.holds, (str(f), str(g))
        for c in report.contributions:
            if c.place.is_infinite:
                assert c.value == _ref_tame(f, g, c.place)
                continue
            p = _sp(c.place.minpoly)
            a, fn, fd = _ref_strip(f, p)
            b, gn, gd = _ref_strip(g, p)
            assert (c.order_f, c.order_g) == (a, b)
            sign = -1 if (a * b * c.place.degree) % 2 else 1
            norm_f1 = _ref_norm(p, fn) / _ref_norm(p, fd)
            norm_g1 = _ref_norm(p, gn) / _ref_norm(p, gd)
            assert c.value == sign * norm_g1 ** a / norm_f1 ** b, (str(f), str(g), c.to_json())
    assert time.time() - start < 5.0


def test_tame_symbol_matches_the_rational_function_formula():
    rng = random.Random(21)
    start = time.time()
    for trial in range(40):
        degree = 1 + trial % 4
        place = Place(_irreducible(rng, degree))
        other = RationalFunc(_irreducible(rng, rng.randint(1, 3)))
        p = RationalFunc(place.minpoly)
        f = p ** rng.randint(-3, 3) * rand_rf(rng, max_deg=3, den_deg=2)
        g = p ** rng.randint(-3, 3) * other ** rng.choice([-1, 1]) * rand_rf(rng, max_deg=2)
        for at in (place, Place.infinity()):
            assert tame_symbol((f, g), at) == _ref_tame(f, g, at), (str(f), str(g), degree)
    assert time.time() - start < 5.0


# -- regulator pairing


SHRINK_F = RationalFunc.parse("t^2-2")
SHRINK_G = RationalFunc.parse("t+1")


def test_regulator_shrink_loop_law():
    with CTX.work():
        x0 = mp.sqrt(2)
        target = 2j * mp.pi * mp.log(x0 + 1)
    defects = []
    for rexp in (1, 2, 3):
        r = mp.mpf(10) ** -rexp
        loop = CircleAround(x0, r)
        rv = regulator_eval((SHRINK_F, SHRINK_G), loop, CTX)
        assert len(rv.crossings) == 1
        with CTX.work():
            defect, q = indeterminacy_defect(rv.value + target, CTX)
            envelope = r * abs(mp.log(r))
        assert q == 0
        # each radius respects the shrinking envelope; the crossing
        # correction reproduces the residue far below it
        assert defect <= envelope
        assert defect < mp.mpf("1e-30")
        defects.append(defect)
    assert defects[1] < mp.mpf("1e-3")


def test_regulator_contractible_loop():
    loop = CircleAround(5, mp.mpf(1) / 2)
    rv = regulator_eval((SHRINK_F, SHRINK_G), loop, CTX)
    assert not rv.crossings
    assert abs(rv.value) < CTX.tol
    assert rv.indeterminacy.is_member
    assert rv.indeterminacy.coefficients == (Fraction(0),)


def test_regulator_pole_loop_half_coefficient():
    # loop around the pole of dlog g where f is negative real: the
    # value is an exact half multiple of (2 pi i)^2
    with CTX.work():
        center = mp.mpc(-1, "0.01")
    loop = CircleAround(center, mp.mpf("0.1"))
    rv = regulator_eval((SHRINK_F, SHRINK_G), loop, CTX)
    assert len(rv.crossings) == 2
    assert rv.indeterminacy.is_member
    assert rv.indeterminacy.coefficients == (Fraction(-1, 2),)
    with CTX.work():
        assert abs(rv.value - (2j * mp.pi) ** 2 * Fraction(-1, 2)) < CTX.tol


def test_regulator_steinberg_pair_is_lattice_point():
    f = RationalFunc.parse("(t^2-2)/4")
    with CTX.work():
        center = mp.mpc("0.5", "0.01")
    loop = CircleAround(center, mp.mpf("0.4"))
    rv = regulator_eval((f, f.one_minus()), loop, CTX)
    assert len(rv.crossings) == 2
    assert rv.indeterminacy.is_member
    defect, _ = indeterminacy_defect(rv.value, CTX)
    assert defect < CTX.tol


def test_regulator_orientation_reversal():
    with CTX.work():
        x0 = mp.sqrt(2)
    fwd = CircleAround(x0, mp.mpf("0.01"))
    rev = CircleAround(x0, mp.mpf("0.01"), -1)
    va = regulator_eval((SHRINK_F, SHRINK_G), fwd, CTX).value
    vb = regulator_eval((SHRINK_F, SHRINK_G), rev, CTX).value
    with CTX.work():
        assert abs(va + vb) < CTX.tol


def test_regulator_additive_in_symbol_sums():
    g2 = RationalFunc.parse("t+3")
    with CTX.work():
        x0 = mp.sqrt(2)
    loop = CircleAround(x0, mp.mpf("0.01"))
    s = MilnorSymbolSum.from_terms(
        2, {(SHRINK_F, SHRINK_G): Fraction(2), (SHRINK_F, g2): Fraction(-1, 3)}
    )
    total = regulator_eval(s, loop, CTX)
    v1 = regulator_eval((SHRINK_F, SHRINK_G), loop, CTX).value
    v2 = regulator_eval((SHRINK_F, g2), loop, CTX).value
    with CTX.work():
        combo = 2 * v1 - v2 / 3
        assert abs(total.value - combo) < CTX.agreement_tol
    assert {c["term"] for c in total.crossings} == {0, 1}


def test_regulator_constant_unit_second_entry():
    loop = CircleAround(5, mp.mpf(1) / 2)
    rv = regulator_eval((SHRINK_F, ONE), loop, CTX)
    assert rv.value == 0


def test_regulator_grazing_errors():
    with CTX.work():
        x0 = mp.sqrt(2)
    with pytest.raises(CutGrazing):
        # passes through the zero of f
        regulator_eval((SHRINK_F, SHRINK_G), CircleAround(0, x0), CTX)
    with pytest.raises(CutGrazing):
        # starts exactly on the branch cut: f(1) = -1
        regulator_eval((SHRINK_F, SHRINK_G), CircleAround(0, 1), CTX)


def test_regulator_crossing_audit_refuses_a_lost_crossing(monkeypatch):
    # one crossing fewer than the zero of f inside the loop asks for
    with CTX.work():
        loop = CircleAround(mp.sqrt(2), mp.mpf("0.01"))
    found = milnor.detect_crossings
    monkeypatch.setattr(milnor, "detect_crossings", lambda *args: found(*args)[1:])
    with pytest.raises(InvariantError, match="audit"):
        regulator_eval((SHRINK_F, SHRINK_G), loop, CTX)


def test_enclosed_linear_factor_needs_no_root_finder(monkeypatch):
    # (3t - 1)(t^2 - 2): only the quadratic factor reaches poly_roots, and
    # the root of t - 1/3 is 1/3 rounded once at the working precision
    calls = []
    real = milnor.poly_roots
    monkeypatch.setattr(milnor, "poly_roots", lambda c, ctx: calls.append(c) or real(c, ctx))
    ctx = PrecisionCtx(48)
    coeffs = tuple(Fraction(c) for c in (2, -6, -1, 3))
    with ctx.work():
        loop = CircleAround(mp.mpf(1) / 3, mp.mpf(1) / 10)
        count, places, _ = milnor._enclosed(coeffs, loop, ctx)
        assert count == 1 and places == {(Fraction(-1, 3), Fraction(1)): [mp.mpf(1) / 3]}
    assert calls == [(Fraction(-2), Fraction(0), Fraction(1))]


def test_regulator_degree_cap_refuses_before_root_finding():
    with CTX.work():
        loop = CircleAround(mp.mpf(1) / 10, 1)
    for pair in ((T**200, T - RationalFunc.const(3)), (T, T**51 - RationalFunc.const(3))):
        start = time.perf_counter()
        with pytest.raises(StratificationOverflow):
            regulator_eval(pair, loop, CTX)
        assert time.perf_counter() - start < 1


def test_regulator_argument_validation():
    loop = CircleAround(5, mp.mpf(1) / 2)
    with pytest.raises(ZeroEntry):
        regulator_eval((RationalFunc.const(0), SHRINK_G), loop, CTX)
    with pytest.raises(ValueError):
        regulator_eval(MilnorSymbolSum.symbol(T, T, T), loop, CTX)


# -- regulator routes: the residue sum against full-precision quadrature


def linear_product(roots):
    out = ONE
    for r in roots:
        out = out * RationalFunc((-r, Fraction(1)))
    return out


def route_loop(center_re, radius, orientation=1):
    """Circle about center_re + radius*i/5: clear of the real axis's symmetry."""
    with CTX.work():
        center = mp.mpc(mp.mpf(center_re.numerator) / center_re.denominator,
                        mp.mpf(radius.numerator) / radius.denominator / 5)
        return CircleAround(center, mp.mpf(radius.numerator) / radius.denominator, orientation)


def inside(rng, center_re, radius, k):
    # rational roots within 0.45 radius of the center
    return [center_re + radius * Fraction(x, 10) for x in rng.sample(range(-4, 5), k)]


def outside(rng, center_re, radius, k):
    # rational roots at least twice the radius away from the center
    return [center_re + radius * Fraction(rng.choice((-1, 1)) * rng.randint(20, 30), 10)
            for _ in range(k)]


def route_case(name, rng):
    c, r = Fraction(rng.randint(-10, 10), 10), Fraction(rng.randint(5, 20), 10)
    if name == "orientation -1":
        f = linear_product(inside(rng, c, r, 1)) / linear_product(outside(rng, c, r, 1))
        g = linear_product(inside(rng, c, r, 1) + outside(rng, c, r, 1))
        return {(f, g): 1}, route_loop(c, r, -1)
    if name == "weighted sum":
        zeros = inside(rng, c, r, 3)
        f1 = linear_product(zeros[:1]) / linear_product(outside(rng, c, r, 1))
        g1 = linear_product(zeros[1:2] + outside(rng, c, r, 1))
        f2 = linear_product(zeros[2:] + outside(rng, c, r, 1))
        g2 = linear_product(outside(rng, c, r, 2))
        return {(f1, g1): 2, (f2, g2): Fraction(-1, 3)}, route_loop(c, r)
    if name == "pole of g only":
        f = linear_product(outside(rng, c, r, 2)) / linear_product(outside(rng, c, r, 1))
        g = linear_product(outside(rng, c, r, 1)) / linear_product(inside(rng, c, r, 1))
        return {(f, g): 1}, route_loop(c, r)
    if name == "contractible":
        f = linear_product(outside(rng, c, r, 2)) / linear_product(outside(rng, c, r, 1))
        g = linear_product(outside(rng, c, r, 2))
        return {(f, g): 1}, route_loop(c, r)
    if name == "t^2-2 one conjugate":
        c, r = Fraction(7, 5), Fraction(1, 2)
        g = linear_product(outside(rng, c, r, 1)) / linear_product(outside(rng, c, r, 1))
        return {(SHRINK_F, g): 1}, route_loop(c, r)
    if name == "t^2-2 both conjugates":
        c, r = Fraction(0), Fraction(2)
        g = linear_product(inside(rng, c, r, 1) + outside(rng, c, r, 1))
        return {(SHRINK_F, g): 1}, route_loop(c, r)
    raise AssertionError(name)


def cut_logs(g, loop, crossings, ctx):
    """log g at each crossing, with the module's convention where g sits on
    its own cut: a crossing at a real point z, where f and g are both real."""
    out = []
    for c in crossings:
        gval = g.eval_mpc(loop.point(c.param))
        log_g = mp.log(gval)
        if gval.real < 0 and abs(gval.imag) <= ctx.tol * abs(gval):
            log_g = mp.mpc(log_g.real, c.orientation * mp.pi)
        out.append(log_g)
    return out


def gauss_legendre_value(f, g, loop, ctx):
    """Integral of principal log f against dlog g plus the crossing
    correction, by adaptive Gauss-Legendre quadrature between crossings."""
    with ctx.work():
        crossings = detect_crossings(f.numerator, f.denominator, loop, ctx)
        dlog_g = g.dlog_sampler()

        def integrand(t):
            z = loop.point(t)
            return mp.log(f.eval_mpc(z)) * dlog_g(z) * loop.tangent(t)

        pts = [mp.mpf(0)] + [mp.mpf(c.param) for c in crossings] + [mp.mpf(1)]
        total = mp.fsum(
            mp.quad(integrand, [left, right], method="gauss-legendre")
            for left, right in zip(pts[:-1], pts[1:])
        )
        for c, log_g in zip(crossings, cut_logs(g, loop, crossings, ctx)):
            total += -2j * mp.pi * c.orientation * log_g
        return loop.orientation * total


def quadrature_value(terms, loop, ctx):
    """Sum of weight * (integral + delta) by quadrature at ctx's precision."""
    with ctx.work():
        total = mp.mpc(0)
        for (f, g), weight in terms.items():
            weight = Fraction(weight)
            total += mp.mpf(weight.numerator) / weight.denominator * gauss_legendre_value(f, g, loop, ctx)
        return total


ROUTE_CASES = (
    "orientation -1",
    "weighted sum",
    "pole of g only",
    "contractible",
    "t^2-2 one conjugate",
    "t^2-2 both conjugates",
)


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_regulator_residue_route_matches_full_precision_quadrature(name):
    terms, loop = route_case(name, random.Random(f"route:{name}"))
    rv = regulator_eval(MilnorSymbolSum.from_terms(2, terms), loop, CTX)
    with CTX.work():
        assert abs(rv.value - quadrature_value(terms, loop, CTX)) < mp.mpf("1e-35")


def branch_case(seed):
    """A loop about zeros of f and of g, so the continuous log g often sits
    off the principal branch at f's crossings."""
    rng = random.Random(f"branch:{seed}")
    c, r = Fraction(rng.randint(-10, 10), 10), Fraction(rng.randint(5, 20), 10)
    f = linear_product(inside(rng, c, r, rng.randint(1, 2))) / linear_product(outside(rng, c, r, 1))
    g = linear_product(inside(rng, c, r, rng.randint(1, 2)) + outside(rng, c, r, 1))
    if rng.random() < 0.5:
        g = g * RationalFunc.const(-1)
    return f, g, route_loop(c, r, rng.choice((1, -1)))


@pytest.mark.parametrize("seed", range(8))
def test_trapezoid_check_matches_gauss_legendre_with_branch_integers(seed, monkeypatch):
    f, g, loop = branch_case(seed)
    check, original, seen = milnor._CHECK_CTX, milnor._check_value, []

    def spy(*args):
        seen.append((args[4], args[5], original(*args)))
        return seen[-1][2]

    monkeypatch.setattr(milnor, "_check_value", spy)
    rv = regulator_eval((f, g), loop, CTX)
    (crossings, logs, value), = seen
    with check.work():
        reference = gauss_legendre_value(f, g, loop, check)
        # the branch integer m_c of the continuous log g at each crossing
        dlog_g = g.dlog_sampler()
        h = lambda t: dlog_g(loop.point(t)) * loop.tangent(t)
        log_g0 = mp.log(g.eval_mpc(loop.point(0)))
        branches = sum(
            c.orientation * int(mp.nint(mp.re((log_g0 + mp.quad(h, [0, c.param]) - log_g) / (2j * mp.pi))))
            for c, log_g in zip(crossings, logs)
        )
        assert branches != 0
        assert abs(loop.orientation * value - reference) < mp.mpf("1e-20")
        # the same (2*pi*i)^2 multiple: the reference sits on the value itself
        assert abs(reference - rv.value) < mp.mpf("1e-20")


def test_regulator_runs_no_adaptive_quadrature(monkeypatch):
    # every route loop and the paper's shrinking loops answer with the
    # trapezoid rule alone: no mp.quad call and no Gauss-Legendre nodes
    def no_quad(*args, **kwargs):
        raise AssertionError("the regulator ran an adaptive quadrature")

    monkeypatch.setattr(mp, "quad", no_quad)
    monkeypatch.setattr("mpmath.quad", no_quad)
    monkeypatch.setattr(quadrature.GaussLegendre, "calc_nodes", no_quad)
    ctx = PrecisionCtx(64)
    for name in ROUTE_CASES:
        terms, loop = route_case(name, random.Random(f"route:{name}"))
        regulator_eval(MilnorSymbolSum.from_terms(2, terms), loop, ctx)
    result = CliRunner().invoke(
        main, ["milnor-reg", "--preset", "paper-9-loops", "--digits", "64"], catch_exceptions=False
    )
    assert result.exit_code == 0


def test_regulator_value_stable_from_96_to_192_digits_with_k_nonzero():
    f = RationalFunc.parse("(t + 1/2)/(t - 1/2)")
    g = RationalFunc.parse("(t - 2)*(t + 3)")
    values = {}
    for digits in (96, 192):
        ctx = PrecisionCtx(digits)
        with ctx.work():
            loop = CircleAround(mp.mpc(0, mp.mpf(3) / 10), 1)
        values[digits] = regulator_eval((f, g), loop, ctx).value
    with PrecisionCtx(192).work():
        # both tame symbols are negative: the principal-log residue sum sits
        # a nonzero multiple k of (2*pi*i)^2 away from the value
        units = [tame_symbol((f, g), Place.rational(x)) for x in (Fraction(-1, 2), Fraction(1, 2))]
        principal = sum(-2j * mp.pi * mp.log(mp.mpf(u.numerator) / u.denominator) for u in units)
        k = (values[192] - principal) / (2j * mp.pi) ** 2
        assert abs(k - mp.nint(k.real)) < mp.mpf("1e-150")
        assert mp.nint(k.real) != 0
        assert abs(values[96] - values[192]) < mp.mpf(10) ** -76


def test_regulator_answers_at_96_digits_where_quadrature_stalled():
    # a full-precision quadrature answered this loop at 48 digits but stalled
    # at 96; the residue sum answers at 96 and agrees with the 48-digit value
    f = RationalFunc.parse("(t + 4/3)/(t - 1/3)")
    g = RationalFunc.parse("(t - 3)*(t + 5/2)")
    ctx = PrecisionCtx(96)
    with ctx.work():
        loop = CircleAround(mp.mpc(mp.mpf(-4) / 5, mp.mpf(-2) / 5), mp.mpf(21) / 10)
        pinned = mp.mpf("-3.050535574640435873206171454852119993949147")
    rv = regulator_eval((f, g), loop, ctx)
    with ctx.work():
        assert abs(rv.value.imag - pinned) < mp.mpf(10) ** -38
        assert abs(rv.value.real) < mp.mpf(10) ** -96


def test_regulator_refuses_a_wrong_tame_symbol(monkeypatch):
    with CTX.work():
        loop = CircleAround(mp.sqrt(2), mp.mpf("0.01"))
    monkeypatch.setattr(milnor, "tame_symbol", lambda pair, place: Fraction(3))
    with pytest.raises(InvariantError, match="route agreement"):
        regulator_eval((SHRINK_F, SHRINK_G), loop, CTX)


def test_regulator_json_shape():
    loop = CircleAround(5, mp.mpf(1) / 2)
    doc = regulator_eval((SHRINK_F, SHRINK_G), loop, CTX).to_json()
    assert doc["invariant"] == "regulator2"
    assert doc["digits"] == 48
    assert set(doc["terms"]) == {"integral", "delta"}
    assert doc["indeterminacy"]["verdict"] == "member"
    assert isinstance(doc["crossings"], list)


def test_indeterminacy_defect_snaps_exact_multiples():
    with CTX.work():
        base = (2j * mp.pi) ** 2
        value = base * mp.mpf(3) / 4
        defect, q = indeterminacy_defect(value, CTX)
        assert q == Fraction(3, 4)
        assert defect < CTX.tol
        # 11/30 needs denominator 30; the nearest den<=16 rational
        # (4/11) misses by 1/330, so the defect stays visibly nonzero
        off = base * mp.mpf(11) / 30
        defect2, q2 = indeterminacy_defect(off, CTX)
        assert q2 == Fraction(4, 11)
        assert defect2 > mp.mpf("0.1")


# -- box realization


def test_symbol_to_box_pair():
    a = RationalFunc.const(Fraction(5, 3))
    b = RationalFunc.const(-2)
    cycle = symbol_to_box(sym(a, b))
    assert cycle.n == 2
    assert cycle.degree == 0
    named = {
        tuple(str(p) for p in tup): coeff for tup, coeff in cycle.as_dict().items()
    }
    assert named == {
        ("5/3[L1]", "-2[L2]"): Fraction(1),
        ("5/3[L1]", "o[L2]"): Fraction(-1),
        ("o[L1]", "-2[L2]"): Fraction(-1),
        ("o[L1]", "o[L2]"): Fraction(1),
    }


def test_symbol_to_box_unit_entry_vanishes():
    s = sym(RationalFunc.const(7), ONE)
    assert s.is_zero
    assert symbol_to_box(s).is_zero


def test_symbol_to_box_linear():
    a = RationalFunc.const(2)
    b = RationalFunc.const(3)
    c = RationalFunc.const(5)
    lhs = symbol_to_box(sym(a, b) + sym(a, c, coeff=Fraction(1, 2)))
    rhs = symbol_to_box(sym(a, b)) + symbol_to_box(sym(a, c)).scale(Fraction(1, 2))
    assert lhs == rhs


def test_symbol_to_box_rejects_bad_entries():
    with pytest.raises(ZeroEntry):
        symbol_to_box(sym(RationalFunc.const(0), RationalFunc.const(2)))
    with pytest.raises(ValueError):
        symbol_to_box(sym(T, RationalFunc.const(2)))


def test_symbol_to_box_triple():
    vals = [RationalFunc.const(k) for k in (2, 3, 5)]
    cycle = symbol_to_box(MilnorSymbolSum.symbol(*vals))
    assert cycle.n == 3
    assert len(cycle.as_dict()) == 8
    assert cycle.degree == 0
