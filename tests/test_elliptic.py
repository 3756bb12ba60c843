"""Elliptic layer tests: periods, Weierstrass functions, logs, group law.

Independent oracles used here:
  * mpmath.agm on the sorted root data (period oracle)
  * a numpy double-precision symmetric lattice sum for p(z) (series oracle)
  * hand-applied duplication formula for 2*(-1, 4) (group-law oracle)
Frozen literals were produced by those oracles in separate runs.
"""

import copy
import functools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from haj import cli, elliptic
from haj.numkernel import PrecisionCtx
from haj.elliptic import (
    CurvePoint,
    DegenerateCurve,
    EllipticCurve,
    INFINITY,
    InversionMismatch,
    PeriodValidationFailed,
    PoleAtInput,
    compute_periods,
    eisenstein_invariants,
    elliptic_log,
    is_torsion,
    period_lattice,
    point_add,
    point_mul,
    point_neg,
    _cubic_roots,
    _laurent_coeffs_mpf,
    weierstrass_p,
)

CTX = PrecisionCtx(48)

E_CM = EllipticCurve(20, 0, label="cm-square")

# pi/agm(sqrt(e1-e3), sqrt(e1-e2)) on roots (sqrt5, 0, -sqrt5), frozen at 64 digits
OMEGA_ALPHA_CM = "1.753475568523043451069558025401015238984"


@pytest.fixture(scope="module")
def lat_cm():
    return compute_periods(E_CM, CTX)


def test_discriminant_guard():
    with pytest.raises(DegenerateCurve):
        EllipticCurve(12, 8)  # 12^3 = 27*64
    with pytest.raises(DegenerateCurve):
        EllipticCurve(0, 0)


def test_contains_exact_and_numeric(lat_cm):
    assert E_CM.contains(CurvePoint.affine(-1, 4))
    assert not E_CM.contains(CurvePoint.affine(-1, 3))
    with CTX.work():
        p = CurvePoint.affine(mp.sqrt(5), mp.mpf(0))
        assert E_CM.contains(p, CTX)


def test_periods_cm_curve(lat_cm):
    with CTX.work():
        assert abs(lat_cm.omega_alpha - mp.mpf(OMEGA_ALPHA_CM)) < mp.mpf(10) ** -38
        assert abs(lat_cm.tau - 1j) < mp.mpf(10) ** -40
        assert lat_cm.omega_alpha.imag == 0
        assert lat_cm.omega_beta.real == 0


def test_periods_against_library_agm_oracle(lat_cm):
    # independent: mpmath's own agm on the same root data
    with CTX.work():
        e1, e3 = mp.sqrt(5), -mp.sqrt(5)
        oracle = mp.pi / mp.agm(mp.sqrt(e1 - e3), mp.sqrt(e1))
        assert abs(lat_cm.omega_alpha - oracle) < mp.mpf(10) ** -44


def test_real_period_convention_three_real_roots():
    # every three-real-root curve: omega_alpha on the real axis
    for g2, g3 in [(20, 0), (8, 1), (12, 5), (7, -2)]:
        lat = compute_periods(EllipticCurve(g2, g3), CTX)
        with CTX.work():
            assert abs(lat.omega_alpha.imag) < CTX.tol
            assert lat.omega_alpha.real > 0
            assert lat.tau.imag > 0


def test_square_lattice_when_g3_zero():
    for g2 in (20, 5, -4):
        lat = compute_periods(EllipticCurve(g2, 0), CTX)
        with CTX.work():
            assert abs(lat.tau - 1j) < mp.mpf(10) ** -40


def test_eisenstein_reconstruction_suite():
    # ten curves spanning both root configurations
    curves = [
        (20, 0), (8, 1), (12, 5), (0, 16), (0, 4),
        (-4, 0), (5, -3), (-1, 1), (100, 50), (7, 2),
    ]
    for digits in (48,):
        ctx = PrecisionCtx(digits)
        bound = mp.mpf(10) ** -(digits // 2)
        for g2, g3 in curves:
            lat = compute_periods(EllipticCurve(g2, g3), ctx)
            with ctx.work():
                g2r, g3r = eisenstein_invariants(lat.omega_alpha, lat.omega_beta, ctx)
                assert abs(g2r - g2) < bound * max(1, abs(g2)), (g2, g3)
                assert abs(g3r - g3) < bound * max(1, abs(g3)), (g2, g3)


def _one_real_root_curves(count: int, seed: int) -> list:
    # seeded integer curves with g2^3 - 27*g3^2 < 0
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g2, g3 = rng.randint(-60, 60), rng.randint(-60, 60)
        if g2**3 - 27 * g3**2 < 0:
            out.append(EllipticCurve(g2, g3))
    return out


def test_one_real_root_basis_does_not_depend_on_the_digits():
    # one labeling of the roots and both Gauss-reduction ties broken by rule:
    # (8, -16) has Re(tau) = -1/2 exactly, and (0, 16) also |tau| = 1
    pinned = [EllipticCurve(8, -16), EllipticCurve(0, 16)]
    for curve in pinned + _one_real_root_curves(40, 19):
        lats = [compute_periods(curve, PrecisionCtx(d)) for d in (64, 128, 256)]
        with mp.workdps(80):
            for lat in lats[:2]:
                assert abs(lat.omega_alpha - lats[2].omega_alpha) < mp.mpf(10) ** -60, curve
                assert abs(lat.omega_beta - lats[2].omega_beta) < mp.mpf(10) ** -60, curve
    taus = [compute_periods(curve, CTX).tau for curve in pinned]
    with CTX.work():
        assert all(abs(tau.real + mp.mpf(1) / 2) < CTX.tol for tau in taus)
        assert abs(abs(taus[1]) - 1) < CTX.tol


def test_labeled_basis_validates_on_wide_curves():
    # compute_periods validates its one labeled basis or raises
    rng = random.Random(23)
    ctx = PrecisionCtx(64)
    checked = 0
    while checked < 200:
        g2, g3 = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
        if g2**3 == 27 * g3**2:
            continue
        lat = compute_periods(EllipticCurve(g2, g3), ctx)
        with ctx.work():
            assert lat.tau.imag > 0
            if g2**3 < 27 * g3**2:
                assert -mp.mpf(1) / 2 - ctx.tol <= lat.tau.real < mp.mpf(1) / 2
                assert abs(lat.tau) > 1 - ctx.tol
        checked += 1


def test_weierstrass_half_period_values(lat_cm):
    with CTX.work():
        p1, _ = weierstrass_p(lat_cm.omega_alpha / 2, lat_cm, CTX)
        assert abs(p1 - mp.sqrt(5)) < CTX.tol * 100
        p2, _ = weierstrass_p((lat_cm.omega_alpha + lat_cm.omega_beta) / 2, lat_cm, CTX)
        assert abs(p2) < CTX.tol * 100
        p3, _ = weierstrass_p(lat_cm.omega_beta / 2, lat_cm, CTX)
        assert abs(p3 + mp.sqrt(5)) < CTX.tol * 100


def test_weierstrass_even_odd_and_diffeq(lat_cm):
    rng = random.Random(31)
    with CTX.work():
        for _ in range(10):
            s = mp.mpf(rng.uniform(0.05, 0.45))
            t = mp.mpf(rng.uniform(0.05, 0.45))
            z = s * lat_cm.omega_alpha + t * lat_cm.omega_beta
            p, pp = weierstrass_p(z, lat_cm, CTX)
            pm, ppm = weierstrass_p(-z, lat_cm, CTX)
            scale = 1 + abs(p) ** 3
            assert abs(p - pm) < CTX.tol * scale
            assert abs(pp + ppm) < CTX.tol * scale
            assert abs(pp**2 - (4 * p**3 - 20 * p)) < CTX.tol * scale * 100


def test_weierstrass_periodicity(lat_cm):
    rng = random.Random(32)
    with CTX.work():
        for _ in range(6):
            z = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)) * lat_cm.omega_alpha
            z = z + mp.mpf("0.13") * lat_cm.omega_beta
            p0, _ = weierstrass_p(z, lat_cm, CTX)
            p1, _ = weierstrass_p(z + lat_cm.omega_alpha, lat_cm, CTX)
            p2, _ = weierstrass_p(z + 3 * lat_cm.omega_beta, lat_cm, CTX)
            scale = 1 + abs(p0)
            assert abs(p1 - p0) < CTX.tol * scale
            assert abs(p2 - p0) < CTX.tol * scale


def test_weierstrass_lattice_sum_oracle(lat_cm):
    # numpy double-precision symmetric sum; truncation error ~ 1/N^2
    numpy = pytest.importorskip("numpy")
    with CTX.work():
        z = mp.mpf("0.3") * lat_cm.omega_alpha + mp.mpf("0.2") * lat_cm.omega_beta
        ours, _ = weierstrass_p(z, lat_cm, CTX)
        zc = complex(z)
        wa = complex(lat_cm.omega_alpha)
        wb = complex(lat_cm.omega_beta)
    N = 240
    ms = numpy.arange(-N, N + 1)
    M, Nn = numpy.meshgrid(ms, ms)
    omega = M * wa + Nn * wb
    mask = (M != 0) | (Nn != 0)
    om = omega[mask]
    total = 1.0 / zc**2 + numpy.sum(1.0 / (zc - om) ** 2 - 1.0 / om**2)
    assert abs(complex(ours) - total) < 2e-4


def test_weierstrass_pole_guard(lat_cm):
    with pytest.raises(PoleAtInput):
        weierstrass_p(0, lat_cm, CTX)
    with CTX.work():
        z = 3 * lat_cm.omega_alpha - 2 * lat_cm.omega_beta
    with pytest.raises(PoleAtInput):
        weierstrass_p(z, lat_cm, CTX)


@functools.lru_cache(maxsize=None)
def _exact_laurent(g2: Fraction, g3: Fraction, count: int) -> tuple:
    # the DLMF 23.9 recurrence in exact rationals, the reference for the mpf one
    cs = [None, None, g2 / 20, g3 / 28]
    for k in range(4, count + 2):
        acc = sum((cs[m] * cs[k - m] for m in range(2, k - 1)), Fraction(0))
        cs.append(Fraction(3, (2 * k + 1) * (k - 3)) * acc)
    return tuple(cs[2:])


@pytest.mark.parametrize("g2, g3", [
    (Fraction(7, 2), Fraction(-1, 2)),
    (Fraction(20), Fraction(0)),
    (Fraction(0), Fraction(4, 3)),
])
@pytest.mark.parametrize("dps", [128, 256])
def test_laurent_coeffs_mpf_match_exact_recurrence(g2, g3, dps):
    # as many terms as weierstrass_p takes at this working precision; the
    # exact list is computed once per curve and its prefixes reused
    count = math.ceil((dps + 12) * math.log(10) / (2 * math.log(10 / 3))) + 4
    exact = _exact_laurent(g2, g3, 261)[:count]
    ours = _laurent_coeffs_mpf(g2, g3, count, dps)
    assert len(ours) == count
    with mp.workdps(dps + 20):
        for c, q in zip(ours, exact):
            if q == 0:
                assert c == 0
            else:
                want = mp.mpf(q.numerator) / q.denominator
                assert abs(c - want) <= mp.mpf(10) ** (1 - dps) * abs(want)


def test_shortest_vector_norm_is_cached_at_lattice_precision(lat_cm):
    with mp.workdps(lat_cm.digits + 20):
        want = min(abs(m * lat_cm.omega_alpha + n * lat_cm.omega_beta)
                   for m in range(-2, 3) for n in range(-2, 3) if m or n)
    with mp.workdps(15):
        ell = lat_cm.shortest_vector_norm()
    assert ell == want
    assert lat_cm.shortest_vector_norm() is ell


def test_elliptic_log_infinity(lat_cm):
    assert elliptic_log(INFINITY, E_CM, lat_cm, CTX) == 0


def test_elliptic_log_two_torsion(lat_cm):
    # (0, 0) sits at the middle root: log is the mixed half-period
    xi = elliptic_log(CurvePoint.affine(0, 0), E_CM, lat_cm, CTX)
    with CTX.work():
        want = lat_cm.reduce((lat_cm.omega_alpha + lat_cm.omega_beta) / 2)
        assert abs(xi - want) < CTX.tol * 10
        # e1 = sqrt5 half-period
        xi1 = elliptic_log(
            CurvePoint.affine(mp.sqrt(5), mp.mpf(0)), E_CM, lat_cm, CTX
        )
        want1 = lat_cm.reduce(lat_cm.omega_alpha / 2)
        assert abs(xi1 - want1) < CTX.tol * 10


def test_elliptic_log_marked_point(lat_cm):
    # frozen from the p-inversion oracle: xi = s + omega_beta/2 (mod lattice),
    # s = 0.41973506420715257405..., reduced representative has beta coord -1/2
    xi = elliptic_log(CurvePoint.affine(-1, 4), E_CM, lat_cm, CTX)
    with CTX.work():
        s = mp.mpf("0.4197350642071525740499161422607772787901")
        want = s - lat_cm.omega_beta / 2
        assert abs(xi - want) < mp.mpf(10) ** -38
        p, pp = weierstrass_p(xi, lat_cm, CTX)
        assert abs(p + 1) < CTX.tol * 100
        assert abs(pp - 4) < CTX.tol * 100


def test_elliptic_log_post_on_multiples(lat_cm):
    # p-inversion round trip on exact multiples of the marked point
    base = CurvePoint.affine(-1, 4)
    with CTX.work():
        for n in (2, 3, 5):
            pt = point_mul(n, base, E_CM)
            xi = elliptic_log(pt, E_CM, lat_cm, CTX)
            p, pp = weierstrass_p(xi, lat_cm, CTX)
            x = mp.mpf(pt.x.numerator) / mp.mpf(pt.x.denominator)
            y = mp.mpf(pt.y.numerator) / mp.mpf(pt.y.denominator)
            scale = 1 + abs(x) ** 2
            assert abs(p - x) < CTX.tol * scale * 100
            assert abs(pp - y) < mp.sqrt(CTX.tol) * scale


def test_elliptic_log_sign_resolution(lat_cm):
    # p and -p share x; the p' match must separate them
    with CTX.work():
        xi_plus = elliptic_log(CurvePoint.affine(-1, 4), E_CM, lat_cm, CTX)
        xi_minus = elliptic_log(CurvePoint.affine(-1, -4), E_CM, lat_cm, CTX)
        diff = lat_cm.reduce(xi_plus + xi_minus)
        # logs of opposite points cancel mod the lattice
        assert abs(diff) < CTX.tol * 100 or abs(
            abs(diff) - abs(lat_cm.omega_alpha)
        ) < mp.mpf("1e-30")


def test_elliptic_log_homomorphism(lat_cm):
    rng = random.Random(77)
    base = CurvePoint.affine(-1, 4)
    with CTX.work():
        for _ in range(8):
            m = rng.randint(1, 6)
            n = rng.randint(1, 6)
            p = point_mul(m, base, E_CM)
            q = point_mul(n, base, E_CM)
            r = point_add(p, q, E_CM)
            xi_p = elliptic_log(p, E_CM, lat_cm, CTX)
            xi_q = elliptic_log(q, E_CM, lat_cm, CTX)
            xi_r = elliptic_log(r, E_CM, lat_cm, CTX)
            s, t = lat_cm.coords(xi_p + xi_q - xi_r)
            assert abs(s - mp.nint(s)) < mp.mpf(10) ** -36
            assert abs(t - mp.nint(t)) < mp.mpf(10) ** -36


def test_group_law_identity_and_inverse():
    p = CurvePoint.affine(-1, 4)
    assert point_add(p, INFINITY, E_CM) == p
    assert point_add(INFINITY, p, E_CM) == p
    assert point_add(p, point_neg(p), E_CM).is_infinity()


def test_two_torsion_doubles_to_infinity():
    t = CurvePoint.affine(0, 0)
    assert point_add(t, t, E_CM).is_infinity()


def test_duplication_frozen_oracle():
    # by hand: m = (12-20)/8 = -1, x2 = 1/4 + 2 = 9/4, y2 = -(-1*(9/4+1)+4) = -3/4
    d = point_add(CurvePoint.affine(-1, 4), CurvePoint.affine(-1, 4), E_CM)
    assert d.x == Fraction(9, 4)
    assert d.y == Fraction(-3, 4)
    assert E_CM.contains(d)


def test_group_law_exactness_preserved():
    p = CurvePoint.affine(-1, 4)
    q = point_mul(7, p, E_CM)
    assert q.is_exact()
    assert isinstance(q.x, Fraction)
    assert E_CM.contains(q)


def test_group_law_associativity_seeded():
    # 200 triples from small multiples of the marked point (exact throughout)
    rng = random.Random(2026)
    p0 = CurvePoint.affine(-1, 4)
    multiples = {n: point_mul(n, p0, E_CM) for n in range(-6, 7)}
    for _ in range(200):
        a = multiples[rng.randint(-6, 6)]
        b = multiples[rng.randint(-6, 6)]
        c = multiples[rng.randint(-6, 6)]
        lhs = point_add(point_add(a, b, E_CM), c, E_CM)
        rhs = point_add(a, point_add(b, c, E_CM), E_CM)
        assert lhs == rhs


def test_group_law_commutativity_seeded():
    rng = random.Random(2027)
    p0 = CurvePoint.affine(-1, 4)
    for _ in range(40):
        a = point_mul(rng.randint(-5, 5), p0, E_CM)
        b = point_mul(rng.randint(-5, 5), p0, E_CM)
        assert point_add(a, b, E_CM) == point_add(b, a, E_CM)


def test_point_mul_matches_repeated_addition():
    p0 = CurvePoint.affine(-1, 4)
    acc = INFINITY
    for n in range(1, 9):
        acc = point_add(acc, p0, E_CM)
        assert point_mul(n, p0, E_CM) == acc


def test_is_torsion_trivial_cases():
    r = is_torsion(INFINITY, E_CM)
    assert r.kind == "torsion" and r.order == 1
    r = is_torsion(CurvePoint.affine(0, 0), E_CM)
    assert r.kind == "torsion" and r.order == 2


def test_is_torsion_marked_point_is_free():
    r = is_torsion(CurvePoint.affine(-1, 4), E_CM, bound=16)
    assert r.kind == "not-torsion-up-to"
    assert r.bound == 16


def test_reduce_snap_determinism(lat_cm):
    with CTX.work():
        # beta coordinate exactly 1/2 snaps to the -1/2 representative
        z = lat_cm.omega_beta / 2
        s, t = lat_cm.reduce_coords(z)
        assert t == mp.mpf("-0.5")
        assert abs(s) < CTX.tol
        # tiny noise around the boundary lands on the same representative
        for eps in (mp.mpf("1e-45"), -mp.mpf("1e-45")):
            s2, t2 = lat_cm.reduce_coords(z + eps * lat_cm.omega_beta)
            assert t2 == mp.mpf("-0.5")


def test_reduce_roundtrip(lat_cm):
    rng = random.Random(4)
    with CTX.work():
        for _ in range(10):
            s = mp.mpf(rng.uniform(-0.49, 0.49))
            t = mp.mpf(rng.uniform(-0.49, 0.49))
            z = lat_cm.from_coords(s, t)
            shifted = z + rng.randint(-3, 3) * lat_cm.omega_alpha + rng.randint(-3, 3) * lat_cm.omega_beta
            red = lat_cm.reduce(shifted)
            assert abs(red - z) < CTX.tol * 10


# ---------------------------------------------------------------------------
# Process-wide period pool
# ---------------------------------------------------------------------------

CHI2_MEMBER = {
    "source": {"g2": "20", "g3": "0", "label": "E"},
    "maps": [
        {"multiplier": 1, "translation": "0"},
        {"multiplier": 0, "target": {"g2": "0", "g3": "16", "label": "F"},
         "translation": {"periods": ["1", "-1"]}},
    ],
    "method": "Both",
}
CLASSIFY = {
    "first": {"g2": "20", "g3": "0", "label": "A"},
    "second": {"g2": "0", "g3": "16", "label": "B"},
    "max_height": 1000,
}
TORSION = {"curve": {"g2": "20", "g3": "0"}, "point": {"x": "-1", "y": "4"}}


@pytest.fixture
def period_calls(monkeypatch):
    """An empty pool and a log of every compute_periods call made through it."""
    calls = []

    def counting(curve, ctx):
        calls.append((curve, ctx.digits))
        return compute_periods(curve, ctx)

    period_lattice.cache_clear()
    _cubic_roots.cache_clear()
    monkeypatch.setattr(elliptic, "compute_periods", counting)
    yield calls
    period_lattice.cache_clear()


def _document(op, args, digits=64):
    doc, code, _ = cli.run_op(op, cli.RunConfig(digits=digits), copy.deepcopy(args))
    assert code == 0, doc
    return cli._canonical_json(doc)


def test_period_pool_computes_each_curve_and_digits_once(period_calls):
    lat = period_lattice(E_CM, CTX)
    # the ctx compares by digits alone, so a cancel hook does not split the key
    assert period_lattice(E_CM, PrecisionCtx(48, cancelled=lambda: False)) is lat
    assert period_calls == [(E_CM, 48)]
    assert lat.curve == E_CM and lat.digits == 48
    assert period_lattice(E_CM, PrecisionCtx(64)) is not lat
    assert period_calls == [(E_CM, 48), (E_CM, 64)]
    roots = _cubic_roots(E_CM, CTX)
    assert isinstance(roots, tuple) and len(roots) == 3
    assert _cubic_roots(E_CM, PrecisionCtx(48)) is roots


def test_period_pool_does_not_cache_failures(monkeypatch):
    calls = []

    def fails_once(curve, ctx):
        calls.append(curve)
        if len(calls) == 1:
            raise PeriodValidationFailed(f"injected failure for {curve}")
        return compute_periods(curve, ctx)

    period_lattice.cache_clear()
    monkeypatch.setattr(elliptic, "compute_periods", fails_once)
    try:
        with pytest.raises(PeriodValidationFailed, match="cm-square"):
            period_lattice(E_CM, CTX)
        lat = period_lattice(E_CM, CTX)
        assert period_lattice(E_CM, CTX) is lat
        assert len(calls) == 2
    finally:
        period_lattice.cache_clear()


@pytest.mark.parametrize("op, args", [("classify", CLASSIFY), ("torsion", TORSION)])
def test_repeated_request_computes_no_periods(period_calls, op, args):
    first = _document(op, args)
    computed = len(period_calls)
    assert computed > 0
    assert _document(op, args) == first
    assert len(period_calls) == computed


@pytest.mark.parametrize("op, args", [
    ("chi2", CHI2_MEMBER), ("classify", CLASSIFY), ("torsion", TORSION),
])
def test_documents_match_with_cold_or_warm_pool(period_calls, op, args):
    cold = _document(op, args)
    warm = _document(op, args)
    period_lattice.cache_clear()
    assert _document(op, args) == cold == warm
