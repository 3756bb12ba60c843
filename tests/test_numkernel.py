"""Kernel tests: precision contexts, AGM, circle loops, the trapezoid rule, crossings.

Oracle values are frozen from independent computations (hand-iterated AGM,
closed-form contour integrals, angles read off by elementary trigonometry).
"""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from haj import numkernel
from haj.elliptic import EllipticCurve, PeriodLatticeData
from haj.milnor import RationalFunc, regulator_eval
from haj.invariants import (
    CutGrazing,
    SpreadMap,
    StratificationOverflow,
    _cut_crossings,
    _sigma_affine,
)
from haj.numkernel import (
    CircleAround,
    NonConvergence,
    PrecisionCtx,
    QuadratureStall,
    TangencySuspected,
    agm,
    complex_from_json,
    complex_to_json,
    detect_crossings,
    integrate_path,
    poly_roots,
    trapezoid_nodes,
)

CTX = PrecisionCtx(48)
UNIT = CircleAround(0, 1)

# agm(1, sqrt(2)), frozen from 60 hand iterations a <- (a+b)/2, b <- sqrt(ab)
# at 70 digits; this is the lemniscatic value pi/varpi.
AGM_1_SQRT2 = "1.198140234735592207439922492280323878227212663215651558"
# agm(1, 3+4i) by the same hand iteration with the closest-to-mean branch rule.
AGM_1_3_4I_RE = "2.020103187239161848666101235454040502243240124815665679"
AGM_1_3_4I_IM = "1.485292844799555011187849521580774725620106056959227862"


def test_precision_ctx_validates():
    with pytest.raises(ValueError):
        PrecisionCtx(31)
    PrecisionCtx(32)  # boundary is legal


def test_tolerance_ladder():
    ctx = PrecisionCtx(100)
    with ctx.work():
        assert mp.almosteq(mp.log10(ctx.tol), -80)
        assert mp.almosteq(mp.log10(ctx.relation_tol), -60)
        assert mp.almosteq(mp.log10(ctx.agreement_tol), -50)


def test_serialization_roundtrip_1ulp():
    rng = random.Random(20260817)
    for digits in (32, 48, 128):
        ctx = PrecisionCtx(digits)
        with ctx.work():
            ulp = mp.power(10, 1 - digits)
            for _ in range(25):
                mag = rng.uniform(-30, 30)
                z = mp.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mp.power(10, mag)
                back = complex_from_json(complex_to_json(z, ctx), ctx)
                assert abs(back - z) <= ulp * abs(z)


def test_serialization_exact_zero():
    ctx = PrecisionCtx(32)
    j = complex_to_json(mp.mpc(0), ctx)
    assert complex_from_json(j, ctx) == 0


def test_agm_frozen_real():
    with CTX.work():
        got = agm(1, mp.sqrt(2), CTX)
        assert abs(got - mp.mpf(AGM_1_SQRT2)) < mp.mpf(10) ** -46


def test_agm_frozen_complex():
    with CTX.work():
        got = agm(1, mp.mpc(3, 4), CTX)
        want = mp.mpc(mp.mpf(AGM_1_3_4I_RE), mp.mpf(AGM_1_3_4I_IM))
        assert abs(got - want) < mp.mpf(10) ** -46


def test_agm_fixed_and_degenerate_points():
    with CTX.work():
        assert agm(mp.mpf(3), mp.mpf(3), CTX) == 3
        assert agm(0, mp.mpc(2, 1), CTX) == 0
        assert agm(mp.mpc(2, 1), 0, CTX) == 0


def test_agm_homogeneity():
    # agm(ka, kb) = k agm(a, b); seeded complex samples
    rng = random.Random(7)
    with CTX.work():
        for _ in range(20):
            a = mp.mpc(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            b = mp.mpc(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            k = mp.mpc(rng.uniform(0.5, 2), rng.uniform(-0.5, 0.5))
            lhs = agm(k * a, k * b, CTX)
            rhs = k * agm(a, b, CTX)
            assert abs(lhs - rhs) < mp.mpf(10) ** -40 * abs(rhs)


def test_agm_matches_mpmath_on_positive_reals():
    rng = random.Random(11)
    with CTX.work():
        for _ in range(10):
            a = mp.mpf(rng.uniform(0.1, 10))
            b = mp.mpf(rng.uniform(0.1, 10))
            assert abs(agm(a, b, CTX) - mp.agm(a, b)) < mp.mpf(10) ** -40


def test_path_point_and_tangent_consistency():
    # tangent should match a central difference of point()
    loops = [
        CircleAround(mp.mpc(1, 2), mp.mpf("0.75")),
        CircleAround(mp.mpc(-1, 0), mp.mpf(3), -1),
    ]
    with CTX.work():
        h = mp.mpf(10) ** -20
        for loop in loops:
            for t in (mp.mpf("0.15"), mp.mpf("0.4"), mp.mpf("0.8")):
                fd = (loop.point(t + h) - loop.point(t - h)) / (2 * h)
                assert abs(fd - loop.tangent(t)) < mp.mpf(10) ** -15
                assert abs(abs(loop.point(t) - loop.center) - loop.radius) < mp.mpf(10) ** -40


def test_path_orientation_validation():
    with pytest.raises(ValueError):
        CircleAround(0, 1, orientation=2)


def test_integrate_residue_2pii():
    # closed form: contour integral of 1/z over the unit circle is 2 pi i,
    # and 1/z * z' is constant on it, so every other coefficient vanishes
    with CTX.work():
        (c,) = integrate_path([lambda z: 1 / z], UNIT, 8, CTX)
        assert abs(c[0] - 2j * mp.pi) < CTX.tol * 10
        assert max(abs(x) for x in c[1:]) < CTX.tol * 10


def test_integrate_holomorphic_vanishes():
    # z^k dz is exact for k >= 0: its loop integral vanishes at every center
    p = CircleAround(mp.mpc(0, 1), mp.mpf(2))
    with CTX.work():
        coeffs = integrate_path([lambda z, k=k: z**k for k in range(5)], p, 8, CTX)
        assert max(abs(c[0]) for c in coeffs) < CTX.tol * 10


def test_integrate_fourier_coefficients_closed_form():
    # on z = c + r*e^(2*pi*i*t), (z - c)^2 * z' = 2*pi*i * r^3 * e^(6*pi*i*t):
    # one coefficient at frequency 3, and frequency -3 sits at index N - 3
    p = CircleAround(mp.mpc(1, -2), mp.mpf("0.5"))
    with CTX.work():
        (c,) = integrate_path([lambda z: (z - p.center) ** 2], p, 8, CTX)
        assert abs(c[3] - 2j * mp.pi * mp.mpf("0.125")) < CTX.tol * 10
        assert max(abs(x) for k, x in enumerate(c) if k != 3) < CTX.tol * 10
        (c,) = integrate_path([lambda z: 1 / (z - p.center) ** 4], p, 8, CTX)
        assert abs(c[5] - 2j * mp.pi * 8) < CTX.tol * 10


def test_integrate_ignores_orientation():
    # the coefficients follow t as in CircleAround.point; callers apply the sign
    fwd = CircleAround(mp.mpc(1, 1), mp.mpf("1.5"))
    rev = CircleAround(mp.mpc(1, 1), mp.mpf("1.5"), -1)
    with CTX.work():
        (v1,) = integrate_path([lambda z: 1 / (z - fwd.center)], fwd, 8, CTX)
        (v2,) = integrate_path([lambda z: 1 / (z - fwd.center)], rev, 8, CTX)
        assert v1 == v2
        assert abs(v1[0] - 2j * mp.pi) < CTX.tol * 10


def test_integrate_converges_exponentially_as_nodes_double():
    # 1/(z - a) with |a| = 2 on the unit circle: the trapezoid integral
    # misses 2*pi*i*a^-N / (1 - a^-N), so each doubling squares the error
    a = mp.mpc("1.2", "1.6")
    with CTX.work():
        errors = []
        for nodes in (8, 16, 32, 64, 128):
            (c,) = integrate_path([lambda z: 1 / (z - a)], UNIT, nodes, CTX)
            errors.append(abs(c[0]))
            assert abs(c[0] + 2j * mp.pi * a**-nodes / (1 - a**-nodes)) < CTX.tol
        for e1, e2 in zip(errors, errors[1:]):
            assert e2 < mp.mpf("1.01") * e1**2 / (2 * mp.pi)
        assert errors[-1] < mp.mpf("1e-37")


def test_integrate_needs_a_power_of_two():
    with pytest.raises(ValueError):
        integrate_path([lambda z: z], UNIT, 12, CTX)


def test_trapezoid_nodes_follow_the_ratio():
    # ratio^(-N/2) <= e^-10 * 10^-20, N a power of 2 and at least 8
    assert trapezoid_nodes(mp.inf, 20) == 8
    assert trapezoid_nodes(mp.mpf("12.7"), 20) == 64
    assert trapezoid_nodes(5, 20) == 128
    assert trapezoid_nodes(mp.mpf("1.035"), 20) == 4096


def test_quadrature_stall_over_node_budget():
    # a zero or pole within a factor 1.02 of the radius needs 5600 nodes
    with pytest.raises(QuadratureStall, match="budget"):
        trapezoid_nodes(mp.mpf("1.02"), 20)
    with pytest.raises(ValueError):
        trapezoid_nodes(1, 20)


# Log-cut crossings of rational functions along circles: f = num/den with
# exact coefficients, constant term first.


def test_axis_crossings_double_loop():
    # z^2 on the unit circle: crossings at t = 1/4 and 3/4, both downward (+1)
    crossings = detect_crossings((0, 0, 1), (1,), UNIT, CTX)
    assert len(crossings) == 2
    with CTX.work():
        assert abs(mp.mpf(crossings[0].param) - mp.mpf("0.25")) < CTX.tol
        assert abs(mp.mpf(crossings[1].param) - mp.mpf("0.75")) < CTX.tol
    assert [c.orientation for c in crossings] == [1, 1]


def _enclosed(points, center, radius):
    # exact count of rational points, with multiplicity, inside the circle
    return sum(
        mult for a, mult in points if (a - center.real) ** 2 + center.imag**2 < radius**2
    )


def test_axis_crossing_sum_matches_winding():
    # argument principle: the signed crossing count of the log cut is the
    # number of zeros minus poles of f inside the loop
    rng = random.Random(99)
    checked = 0
    while checked < 12:
        zeros = [(Fraction(rng.randint(-12, 12), 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
        poles = [(Fraction(rng.randint(-12, 12), 4), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        if {a for a, _ in zeros} & {b for b, _ in poles}:
            continue
        center = complex(Fraction(rng.randint(-8, 8), 4), Fraction(rng.randint(-4, 4), 8))
        radius = Fraction(rng.randint(2, 12), 4)
        # keep every divisor point clear of the circle
        if any(abs(abs(a - center) - radius) < 0.05 for a, _ in zeros + poles):
            continue
        num, den = RationalFunc.const(rng.choice((-3, -1, 2))), RationalFunc.const(1)
        for a, mult in zeros:
            num = num * RationalFunc((-a, 1)) ** mult
        for b, mult in poles:
            den = den * RationalFunc((-b, 1)) ** mult
        with CTX.work():
            loop = CircleAround(mp.mpc(center), mp.mpf(radius.numerator) / radius.denominator)
        crossings = detect_crossings(num.numerator, den.numerator, loop, CTX)
        expected = _enclosed(zeros, center, radius) - _enclosed(poles, center, radius)
        assert sum(c.orientation for c in crossings) == expected
        checked += 1


def test_axis_no_crossing_when_left_half_avoided():
    # z on the circle about 3 stays in the right half plane
    assert detect_crossings((0, 1), (1,), CircleAround(3, 1), CTX) == []


# z - 2 - i on the unit circle is z - 2 on the unit circle about -i: the
# trace touches -2 at z = 0 (t = 1/4) without crossing
BELOW = mp.mpc(0, -1)


def test_axis_tangency_detected():
    with pytest.raises(TangencySuspected):
        detect_crossings((-2, 1), (1,), CircleAround(BELOW, 1), CTX)


def test_axis_near_miss_is_clean():
    with CTX.work():
        loop = CircleAround(BELOW * (1 + mp.mpf("1e-4")), 1)
    assert detect_crossings((-2, 1), (1,), loop, CTX) == []


def test_axis_touch_on_positive_side_is_clean():
    # z + 2 - i touches +2 instead: a double root of the crossing polynomial
    assert detect_crossings((2, 1), (1,), CircleAround(BELOW, 1), CTX) == []


def test_axis_crossing_at_the_base_point_refused():
    # z on the circle of radius 1/2 about -1 meets the cut at z = -1/2, t = 0
    with CTX.work():
        loop = CircleAround(-1, mp.mpf(1) / 2)
    with pytest.raises(TangencySuspected):
        detect_crossings((0, 1), (1,), loop, CTX)


def test_axis_root_finder_failure_refused(monkeypatch):
    def stuck(*args, **kwargs):
        raise mp.mp.NoConvergence("stuck")

    monkeypatch.setattr(mp, "polyroots", stuck)
    with pytest.raises(TangencySuspected):
        detect_crossings((0, 0, 1), (1,), UNIT, CTX)


def test_axis_fast_winding_counted_exactly():
    # t^20 on the unit circle about 1/10 winds 20 times; a 257-sample scan
    # undercounts such traces (54 of 200 crossings for t^200)
    with CTX.work():
        loop = CircleAround(mp.mpf(1) / 10, 1)
    crossings = detect_crossings((0,) * 20 + (1,), (1,), loop, CTX)
    assert len(crossings) == 20
    assert all(c.orientation == 1 for c in crossings)


# Polynomial roots: double-precision Aberth seeds, one Durand-Kerner polish at
# working precision.


def _polyroots_spy(monkeypatch) -> list:
    # records the keyword arguments of every mp.polyroots call
    calls, real = [], mp.polyroots

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(mp, "polyroots", spy)
    return calls


def test_seeded_roots_match_the_default_start(monkeypatch):
    # the crossing polynomials of random f = num/den on random circles, of
    # degree 2-16, solved from Aberth seeds and from mpmath's default start
    polys = []
    real = numkernel.poly_roots

    def capture(coeffs, ctx):
        if 2 <= len(coeffs) - 1 <= 16:
            polys.append((list(coeffs), ctx))
        return real(coeffs, ctx)

    monkeypatch.setattr(numkernel, "poly_roots", capture)
    rng = random.Random(18)
    while len(polys) < 12:
        digits = (64, 128, 256)[len(polys) % 3]
        ctx = PrecisionCtx(digits)
        num = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        den = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 4))]
        with ctx.work():
            center = mp.mpc(mp.mpf(rng.randint(-80, 80)) / 41, mp.mpf(rng.randint(-40, 40)) / 87)
            loop = CircleAround(center, mp.mpf(rng.randint(1, 120)) / 43)
        before = len(polys)
        try:
            detect_crossings(tuple(num) + (1,), tuple(den) + (1,), loop, ctx)
        except TangencySuspected:
            del polys[before:]
    monkeypatch.setattr(numkernel, "poly_roots", real)
    for coeffs, ctx in polys:
        seeded = real(coeffs, ctx)
        with monkeypatch.context() as m:
            m.setattr(numkernel, "_aberth_seeds", lambda coeffs: None)
            default = real(coeffs, ctx)
        assert len(seeded) == len(default) == len(coeffs) - 1
        with ctx.work():
            ulp = mp.power(10, -ctx.digits)
            for x, y in zip(seeded, default):
                assert abs(x - y) <= ulp * max(1, abs(y))


def test_seeds_settle_on_roots_eight_decades_apart(monkeypatch):
    # roots of modulus 10^-4 .. 10^4: from one circle of starting points
    # Aberth has not settled within its sweep budget; from the Newton
    # polygon's circles every seed lands on its root in double precision
    calls = _polyroots_spy(monkeypatch)
    with CTX.work():
        roots = [mp.mpf(10) ** k * mp.expjpi(mp.mpf(k) / 7) for k in range(-4, 5)]
        coeffs = [mp.mpc(1)]
        for root in roots:
            coeffs = [a - root * b for a, b in zip([0] + coeffs, coeffs + [0])]
        seeds = numkernel._aberth_seeds(coeffs)
        for root in roots:
            assert min(abs(z - complex(root)) for z in seeds) < 1e-10 * abs(root)
        found = poly_roots(coeffs, CTX)
        assert len(calls) == 1 and calls[0]["roots_init"] is not None
        for root in roots:
            assert min(abs(w - root) for w in found) < CTX.tol * abs(root)


def test_roots_beyond_double_range(monkeypatch):
    # 10^400 * (w - 2)(w - 3): no double seeds, so mpmath's default start
    calls = _polyroots_spy(monkeypatch)
    with CTX.work():
        coeffs = [mp.mpf("1e400") * c for c in (6, -5, 1)]
        roots = poly_roots(coeffs, CTX)
        assert [c["roots_init"] for c in calls] == [None]
        assert abs(roots[0] - 2) < CTX.tol and abs(roots[1] - 3) < CTX.tol


def test_non_monic_exact_coefficients():
    # -2*10^400 + 10^400 * w^2: Fractions beyond double range, leading one not 1
    roots = poly_roots((Fraction(-2 * 10**400), 0, Fraction(10**400)), CTX)
    with CTX.work():
        assert abs(roots[0] + mp.sqrt(2)) < CTX.tol and abs(roots[1] - mp.sqrt(2)) < CTX.tol


def _exact_value(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def test_exact_rationals_convert_to_the_nearest_mpf():
    # p/q with 400-digit p and q at 100 bits: one rounding, to nearest.
    # Rounding p and q first, or rounding toward zero as mpmath's own
    # Fraction conversion does, misses the nearest mpf on some of them
    rng = random.Random(400)
    missed = {"mpf(p)/mpf(q)": 0, "mpmathify": 0}
    with mp.workprec(100):
        for _ in range(100):
            q = Fraction(rng.randrange(10**399, 10**400) * rng.choice((-1, 1)),
                         rng.randrange(10**399, 10**400))
            x = numkernel._to_mpf(q)
            _, man, exp, bc = x._mpf_
            assert abs(_exact_value(x) - q) <= Fraction(2) ** (exp + bc - 100) / 2
            missed["mpf(p)/mpf(q)"] += mp.mpf(q.numerator) / mp.mpf(q.denominator) != x
            missed["mpmathify"] += mp.mpmathify(q) != x
    assert all(missed.values()), missed


def test_poly_roots_converts_fractions_to_nearest(monkeypatch):
    seen, real = [], mp.polyroots
    monkeypatch.setattr(mp, "polyroots", lambda coeffs, **kw: seen.append(coeffs) or real(coeffs, **kw))
    coeffs = (Fraction(-2, 3), Fraction(1, 7), Fraction(5, 3))
    poly_roots(coeffs, CTX)
    with CTX.work(), mp.extraprec(60):
        assert seen[0] == [numkernel._to_mpf(c) for c in reversed(coeffs)]


def test_double_root_converges_through_the_retry(monkeypatch):
    # (w - 1)^2 (w + 2): the seeded polish stalls at 60 extra bits and the
    # doubled-precision retry converges
    calls = _polyroots_spy(monkeypatch)
    roots = poly_roots((2, -3, 0, 1), CTX)
    assert len(calls) == 2 and all(c["roots_init"] is not None for c in calls)
    with CTX.work():
        for x, y in zip(roots, (-2, 1, 1)):
            assert abs(x - y) < CTX.tol


def test_regulator_root_finding_is_seeded(monkeypatch):
    # a workload-shaped loop: f = (t^2 - 3)(t + 2) about sqrt(3), g = t^2 + t + 5
    calls = _polyroots_spy(monkeypatch)
    f = RationalFunc.parse("(t^2 - 3)*(t + 2)")
    g = RationalFunc.parse("t^2 + t + 5")
    ctx = PrecisionCtx(64)
    with ctx.work():
        loop = CircleAround(mp.sqrt(3), mp.mpf(1) / 10)
    regulator_eval((f, g), loop, ctx)
    assert calls and all(c["roots_init"] is not None for c in calls)


# Lattice-cut crossings of affine traces, solved in closed form in
# haj.invariants. The lattices below are bases only; the curve is a label.

E_SQ = EllipticCurve(20, 0)
UNIT_LAT = PeriodLatticeData(E_SQ, 1, mp.mpc(0, 1), 48)  # basis (1, i)


def test_lattice_crossings_square_lattice():
    # s(t) = -1/8 + 2t crosses 1/2 at t = 5/16 and 3/2 at t = 13/16
    with CTX.work():
        found = _cut_crossings(mp.mpf(-1) / 8, mp.mpf(2), CTX)
        assert [o for _, o in found] == [1, 1]
        assert [t for t, _ in found] == [mp.mpf("0.3125"), mp.mpf("0.8125")]


def test_lattice_crossings_reverse_orientation():
    # s(t) = 15/8 - 2t meets level 3/2 before level 1/2, both downward
    with CTX.work():
        found = _cut_crossings(mp.mpf(15) / 8, mp.mpf(-2), CTX)
        assert [o for _, o in found] == [-1, -1]
        assert [t for t, _ in found] == [mp.mpf("0.1875"), mp.mpf("0.6875")]


def test_lattice_crossing_grid_exact_hit():
    with CTX.work():
        assert _cut_crossings(mp.mpf(-1) / 8, mp.mpf(1), CTX) == [(mp.mpf("0.625"), 1)]


def test_lattice_beta_cut_and_offset():
    # the beta coordinate of t*i - i/4 runs from -1/4 to 3/4
    with CTX.work():
        sm = SpreadMap((1, 0), mp.mpc(0, "-0.25"), E_SQ, UNIT_LAT)
        p, _, r0 = _sigma_affine(sm, 0, 0, mp.mpc(0, 1), 0, 1)
        assert _cut_crossings(r0, p, CTX) == [(mp.mpf("0.75"), 1)]


def test_lattice_constant_coordinate_near_cut_is_clean():
    # a coordinate held at -1/8 never approaches a level
    with CTX.work():
        assert _cut_crossings(mp.mpf(-1) / 8, mp.mpf(0), CTX) == []


def test_lattice_tangency_detected():
    # a constant coordinate sitting on a level runs inside the cut
    with CTX.work(), pytest.raises(CutGrazing):
        _cut_crossings(mp.mpf(1) / 2, mp.mpf(0), CTX)


def test_lattice_crossings_basepoint_and_cap():
    with CTX.work():
        with pytest.raises(CutGrazing):
            _cut_crossings(mp.mpf(-1) / 2, mp.mpf(3), CTX)
        with pytest.raises(CutGrazing):
            _cut_crossings(mp.mpf(-1) / 4, mp.mpf("2.75"), CTX)
        # 1024 crossings per cut is the most the cap lets through
        assert len(_cut_crossings(mp.mpf(-1) / 8, mp.mpf(1024), CTX)) == 1024
        with pytest.raises(StratificationOverflow):
            _cut_crossings(mp.mpf(-1) / 8, mp.mpf(1025), CTX)


def test_lattice_skew_basis_coordinates():
    with CTX.work():
        lat = PeriodLatticeData(E_SQ, mp.mpc(2, 1), mp.mpc(-1, 3), 48)
        z = mp.mpf("0.3") * lat.omega_alpha + mp.mpf("-0.2") * lat.omega_beta
        sm = SpreadMap.identity(E_SQ, lat)
        p, q, r0 = _sigma_affine(sm, z, 0, lat.omega_alpha, 0, 0)
        assert abs(p - 1) < CTX.tol and q == 0 and abs(r0 - mp.mpf("0.3")) < CTX.tol
        p, q, r0 = _sigma_affine(sm, z, 0, lat.omega_alpha, 0, 1)
        assert abs(p) < CTX.tol and abs(r0 + mp.mpf("0.2")) < CTX.tol
