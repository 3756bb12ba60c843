"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Every criterion runs at its stated precision, tolerance, and wall-clock
budget and prints one `criterion NN <slug>: PASS/FAIL` line (visible with
`pytest -v -s`, and in the captured output of any failure). Criteria are
deliberately end to end: they rebuild their inputs from scratch rather
than reusing cached fixtures, except where a sibling suite's frozen
constructors are exactly the configuration under test.
"""

import random
import subprocess
import sys
import time
import pathlib
from fractions import Fraction

import mpmath as mp

import test_invariants as ti
import test_milnor as tml

from haj.cycles import CurveRef, PointSymbol, ZeroCycle, box_cycle, kummer_pushpull
from haj.elliptic import CurvePoint, EllipticCurve, compute_periods, elliptic_log
from haj.invariants import (
    BoxSpreadCycle,
    SpreadMap,
    chi2_box,
    chi2_reduce,
    classify_case,
    psi2_nonvanishing,
)
from haj.milnor import (
    RationalFunc,
    indeterminacy_defect,
    regulator_eval,
    weil_reciprocity_check,
)
from haj.numkernel import CircleAround, PrecisionCtx

ROOT = pathlib.Path(__file__).resolve().parents[1]

E_CM = EllipticCurve(20, 0, label="E1")
E_GEN = EllipticCurve(8, 1, label="E2")
E_HEX = EllipticCurve(0, 16, label="E3")
E_GEN2 = EllipticCurve(12, 5, label="E4")
P_NT = CurvePoint.affine(-1, 4)


def _report(num, slug, ok, detail=""):
    line = f"criterion {num:02d} {slug}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line = f"{line} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_square_lattice_tau():
    started = time.monotonic()
    ctx = PrecisionCtx(64)
    lat = compute_periods(E_CM, ctx)
    elapsed = time.monotonic() - started
    with ctx.work():
        deviation = abs(lat.tau - mp.mpc(0, 1))
        ok = deviation < mp.mpf("1e-50") and elapsed < 1.0
        detail = f"|tau - i| = {mp.nstr(deviation, 3)}, {elapsed:.2f}s"
    _report(1, "square-lattice tau", ok, detail)


def test_criterion_02_nontorsion_family_chi2():
    started = time.monotonic()
    ctx = PrecisionCtx(128)
    tol = mp.mpf("1e-64")
    lat = compute_periods(E_CM, ctx)
    with ctx.work():
        xi = elliptic_log(P_NT, E_CM, lat, ctx)
        spread = BoxSpreadCycle(
            E_CM,
            lat,
            (SpreadMap.identity(E_CM, lat), SpreadMap.affine(E_CM, lat, 1, -xi)),
        )
        v_path = chi2_box(spread, method="PathIntegral", ctx=ctx)
        v_closed = chi2_box(spread, method="ClosedForm", ctx=ctx)
        agree = max(
            abs(v_path.value_alpha - v_closed.value_alpha),
            abs(v_path.value_beta - v_closed.value_beta),
        )
        A = lat.omega_alpha
        target = A * A / 2 - xi * A
        anchored = min(
            abs(v_closed.value_alpha - target), abs(v_closed.value_alpha + target)
        )
        membership = chi2_reduce(
            v_closed, max_den=10**3, max_height=10**4, ctx=ctx
        )
    elapsed = time.monotonic() - started
    ok = (
        agree < tol
        and anchored < tol
        and membership.verdict == "no-relation-up-to"
        and elapsed < 30.0
    )
    detail = (
        f"routes {mp.nstr(agree, 3)}, anchor {mp.nstr(anchored, 3)}, "
        f"{membership.verdict}, {elapsed:.1f}s"
    )
    _report(2, "nontorsion family chi2", ok, detail)


def test_criterion_03_identity_pair_scale_two():
    ctx = PrecisionCtx(64)
    lat = compute_periods(E_CM, ctx)
    with ctx.work():
        spread = BoxSpreadCycle(
            E_CM, lat, (SpreadMap.identity(E_CM, lat), SpreadMap.identity(E_CM, lat))
        )
        v = chi2_box(spread, method="Both", ctx=ctx)
        membership = chi2_reduce(v, scale=2, ctx=ctx)
    ok = membership.is_member and all(
        c.denominator <= 2 for c in membership.coefficients
    )
    dens = sorted({c.denominator for c in membership.coefficients})
    _report(3, "identity pair at scale two", ok, f"member, denominators {dens}")


def test_criterion_04_constant_map_nu_vector():
    ctx = PrecisionCtx(128)
    tol = mp.mpf("1e-64")
    lat1 = compute_periods(E_CM, ctx)
    lat2 = compute_periods(E_GEN, ctx)
    with ctx.work():
        q = Fraction(5, 16) * lat2.omega_alpha + Fraction(7, 32) * lat2.omega_beta
        spread = BoxSpreadCycle(
            E_CM,
            lat1,
            (SpreadMap.identity(E_CM, lat1), SpreadMap.constant(E_GEN, lat2, q)),
        )
        v = chi2_box(spread, method="Both", ctx=ctx)
        A, B = lat1.omega_alpha, lat1.omega_beta
        nu_err = max(abs(v.value_alpha - A * q), abs(v.value_beta - B * q))
        prods = [
            w1 * w2
            for w1 in (A, B)
            for w2 in (lat2.omega_alpha, lat2.omega_beta)
        ]
        expected = tuple([(0, p) for p in prods] + [(p, 0) for p in prods])
        gens_exact = len(v.lattice_gens) == 8 and all(
            got[0] == want[0] and got[1] == want[1]
            for got, want in zip(v.lattice_gens, expected)
        )
    ok = nu_err < tol and gens_exact
    _report(
        4,
        "constant-map nu vector",
        ok,
        f"|nu - (Aq, Bq)| = {mp.nstr(nu_err, 3)}, generators exact: {gens_exact}",
    )


def test_criterion_05_cm_marker_membership():
    ctx = PrecisionCtx(128)
    lat1 = compute_periods(E_CM, ctx)
    lat2 = compute_periods(E_GEN, ctx)
    with ctx.work():
        xi = mp.mpc(0, 1) * lat2.omega_alpha
        spread = BoxSpreadCycle(
            E_CM,
            lat1,
            (SpreadMap.identity(E_CM, lat1), SpreadMap.constant(E_GEN, lat2, xi)),
        )
        v = chi2_box(spread, method="Both", ctx=ctx)
        membership = chi2_reduce(v, ctx=ctx, recompute=None)
        coeffs = [str(c) for c in (membership.coefficients or ())]
        # the stated reading: nu = (P_ba, -P_aa) in the generator order
        # (0,aa) (0,ab) (0,ba) (0,bb) (aa,0) (ab,0) (ba,0) (bb,0)
        pinned = ["-1", "0", "0", "0", "0", "0", "1", "0"]
        recon_err = mp.mpf(0)
        if membership.is_member:
            fr = lambda c: mp.mpf(c.numerator) / c.denominator
            recon_a = sum(fr(c) * g[0] for c, g in zip(membership.coefficients, v.lattice_gens))
            recon_b = sum(fr(c) * g[1] for c, g in zip(membership.coefficients, v.lattice_gens))
            recon_err = max(abs(recon_a - v.value_alpha), abs(recon_b - v.value_beta))
    ok = membership.is_member and coeffs == pinned and recon_err < mp.mpf("1e-64")
    _report(
        5,
        "cm marker membership",
        ok,
        f"coefficients {coeffs}, reconstruction {mp.nstr(recon_err, 3)}",
    )


def test_criterion_06_classifier_regimes():
    ctx = PrecisionCtx(64)
    got = []
    v = classify_case(E_CM, E_CM, max_height=10**3, ctx=ctx)
    got.append(v.case)
    evidence_ok = (
        v.cm_evidence[0]["relation"] == [1, 0, 1]
        and v.isogeny_evidence["relation"] is not None
    )
    v = classify_case(E_CM, E_GEN, max_height=10**3, ctx=ctx)
    got.append(v.case)
    evidence_ok = evidence_ok and v.cm_evidence[1]["relation"] is None
    v = classify_case(E_GEN, E_GEN2, max_height=10**3, ctx=ctx)
    got.append(v.case)
    evidence_ok = evidence_ok and v.isogeny_evidence["relation"] is None
    want = [
        "RankFourCM_Unconditional",
        "OneFactorCM_Unconditional",
        "NonIsogenousNonCM_Conditional",
    ]
    ok = got == want and evidence_ok
    _report(6, "classifier regimes", ok, f"{got}, evidence {evidence_ok}")


def test_criterion_07_psi2_decisions():
    ctx = PrecisionCtx(48)
    ref = CurveRef("E1", E_CM)
    o = PointSymbol.base(ref)
    p = PointSymbol.named(ref, "p", P_NT)
    t = PointSymbol.named(ref, "t", CurvePoint.affine(0, 0))
    d1 = psi2_nonvanishing(p, ZeroCycle.from_terms(1, {(p,): 1, (o,): -1}), bound=16, ctx=ctx)
    d2 = psi2_nonvanishing(p, ZeroCycle.from_terms(1, {(t,): 1, (o,): -1}), bound=16)
    ok = d1.outcome == "Nontrivial" and d2.outcome == "ZeroClass"
    _report(7, "psi2 decisions", ok, f"{d1.outcome} / {d2.outcome}")


def test_criterion_08_kummer_pushpull_exact():
    checks = []
    for (curve, pp, xx) in (
        (E_CM, CurvePoint.affine(-1, 4), CurvePoint.affine(Fraction(9, 4), Fraction(-3, 4))),
        (E_CM, CurvePoint.affine(Fraction(9, 4), Fraction(-3, 4)), CurvePoint.affine(-1, -4)),
    ):
        ref1 = CurveRef("A", curve)
        ref2 = CurveRef("B", curve)
        ps = PointSymbol.named(ref1, "p", pp)
        xs = PointSymbol.named(ref2, "xi", xx)
        bases = [PointSymbol.base(ref1), PointSymbol.base(ref2)]
        cycle = box_cycle([ps, xs], bases)
        mirrored = box_cycle([PointSymbol.neg(ps), PointSymbol.neg(xs)], bases)
        checks.append(kummer_pushpull(cycle) == cycle + mirrored)
    ok = all(checks)
    _report(8, "kummer pull-push identity", ok, f"exact on {len(checks)} cycles")


def test_criterion_09_weil_reciprocity_random():
    rng = random.Random(11)
    started = time.monotonic()
    for _ in range(100):
        f = tml.rand_rf(rng, max_deg=4, den_deg=3)
        g = tml.rand_rf(rng, max_deg=4, den_deg=3)
        report = weil_reciprocity_check((f, g))
        if not report.holds:
            _report(9, "weil reciprocity", False, f"violated at {f}, {g}")
    elapsed = time.monotonic() - started
    ok = elapsed < 10.0
    _report(9, "weil reciprocity", ok, f"100 random pairs hold, {elapsed:.2f}s")


def test_criterion_10_shrink_loop_law():
    # the loop value approaches -2*pi*i*log g(x0); each radius must keep
    # its defect under the r*|log r| envelope (a strictly decreasing bound
    # through these radii) and the stated radius meets the hard threshold.
    # The value comes from the residue sum, where T_x0 = g(x0), so the
    # defect is 0 by construction; regulator_eval's own 32-digit quadrature
    # check (10^-16) is the numerical evidence for each loop
    ctx = PrecisionCtx(48)
    f = RationalFunc.parse("t^2-2")
    g = RationalFunc.parse("t+1")
    with ctx.work():
        x0 = mp.sqrt(2)
        target = 2j * mp.pi * mp.log(x0 + 1)
    defects = {}
    envelopes_ok = True
    for exp in (1, 2, 3):
        radius = mp.mpf(10) ** -exp
        loop = CircleAround(x0, radius)
        rv = regulator_eval((f, g), loop, ctx)
        with ctx.work():
            defect, snap = indeterminacy_defect(rv.value + target, ctx)
            envelope = radius * abs(mp.log(radius))
        defects[exp] = defect
        envelopes_ok = envelopes_ok and snap == 0 and defect <= envelope
    hard = defects[2] < mp.mpf("1e-3")
    ok = hard and envelopes_ok
    shown = ", ".join(f"1e-{e}: {mp.nstr(d, 3)}" for e, d in defects.items())
    _report(10, "shrink-loop law", ok, f"defects {shown}")


def test_criterion_11_property_suites():
    node_ids = [
        "tests/test_elliptic.py::test_eisenstein_reconstruction_suite",
        "tests/test_elliptic.py::test_group_law_associativity_seeded",
        "tests/test_elliptic.py::test_elliptic_log_homomorphism",
        "tests/test_relations.py::test_pslq_minimal_polynomials_within_height_10",
        "tests/test_relations.py::test_membership_permutation_invariance",
        "tests/test_relations.py::test_membership_generator_scaling_halves_coefficients",
        "tests/test_invariants.py::test_chi2_path_offset_moves_value_by_lattice",
        "tests/test_milnor.py::test_normalize_idempotent_on_random_sums",
        "tests/test_invariants.py::test_chi3_vanishes_on_constants",
        "tests/test_invariants.py::test_chi3_matches_the_geometric_oracle",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--no-header", "-p", "no:cacheprovider", *node_ids],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
    ok = proc.returncode == 0
    _report(11, "property suites", ok, tail)
    if not ok:
        print(proc.stdout)
