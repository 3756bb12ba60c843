"""Tests for integer-relation detection and lattice membership."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from sympy import Matrix, QQ, ZZ
from sympy.matrices.normalforms import hermite_normal_form
from sympy.polys.matrices import DomainMatrix

from haj.numkernel import PrecisionCtx
from haj.relations import (
    IntegerRelation,
    LatticeMembership,
    PrecisionExhausted,
    detect_tau_relation,
    integer_relation_complex,
    lattice_membership,
    lll_reduce,
    pslq,
)

CTX = PrecisionCtx(64)


# ---------------------------------------------------------------------------
# pslq
# ---------------------------------------------------------------------------


def test_pslq_golden_ratio():
    with CTX.work():
        phi = (1 + mp.sqrt(5)) / 2
        rel = pslq([1, phi, phi * phi], 10**4, CTX)
    assert rel is not None
    assert rel.coeffs in ((1, 1, -1), (-1, -1, 1))
    assert rel.residual < CTX.relation_tol


def test_pslq_duplicate_entry():
    with CTX.work():
        rel = pslq([mp.pi, mp.pi], 10**4, CTX)
    assert rel.coeffs in ((1, -1), (-1, 1))


def test_pslq_minimal_polynomials_within_height_10():
    with CTX.work():
        s2 = mp.sqrt(2)
        rel = pslq([1, s2, 2], 10, CTX)
        assert rel is not None and rel.height <= 10
        a, b, c = rel.coeffs
        assert b == 0 and a == -2 * c and a != 0

        t = mp.cbrt(2)
        rel = pslq([1, t, t * t, 2], 10, CTX)
        assert rel is not None and rel.height <= 10
        a, b, c, d = rel.coeffs
        assert b == 0 and c == 0 and a == -2 * d and a != 0


def test_pslq_log23_exhaustion():
    ctx = PrecisionCtx(100)
    with ctx.work():
        rel = pslq([mp.mpf(1), mp.log(2), mp.log(3)], 10**6, ctx)
    assert rel is None


def test_pslq_finds_large_height_below_bound():
    ctx = PrecisionCtx(100)
    with ctx.work():
        s2 = mp.sqrt(2)
        v = (mp.mpf(8191) - 7001 * s2) / 4999
        rel = pslq([1, s2, v], 10**4, ctx)
        assert rel is not None
        assert sorted(abs(c) for c in rel.coeffs) == [4999, 7001, 8191]
        assert rel.residual < ctx.relation_tol * 2


def test_pslq_certifies_absence_when_minimal_relation_is_larger():
    ctx = PrecisionCtx(100)
    with ctx.work():
        s2 = mp.sqrt(2)
        v = (mp.mpf(8191) - 7001 * s2) / 4999
        assert pslq([1, s2, v], 100, ctx) is None


def test_pslq_random_rational_recovery():
    rng = random.Random(1123)
    ctx = PrecisionCtx(48)
    with ctx.work():
        for _ in range(12):
            p = rng.randint(1, 400)
            q = rng.randint(1, 400)
            rel = pslq([1, mp.mpf(p) / q], 10**4, ctx)
            assert rel is not None
            a, b = rel.coeffs
            assert a * q + b * p == 0


def test_pslq_random_combination_of_radicals():
    rng = random.Random(55)
    with CTX.work():
        basis = [mp.mpf(1), mp.sqrt(2), mp.sqrt(3)]
        for _ in range(8):
            co = [rng.randint(-9, 9) for _ in basis]
            if not any(co):
                co[0] = 1
            target = mp.fsum(c * b for c, b in zip(co, basis))
            rel = pslq([target] + basis, 10**3, CTX)
            assert rel is not None
            resid = abs(rel.coeffs[0] * target
                        + mp.fsum(c * b for c, b in zip(rel.coeffs[1:], basis)))
            assert resid < CTX.relation_tol * 10


def test_pslq_zero_entry_and_single_value():
    with CTX.work():
        rel = pslq([mp.mpf(0), mp.pi], 10**4, CTX)
        assert rel.coeffs == (1, 0)
        assert pslq([mp.mpf(1)], 10**4, CTX) is None
        assert pslq([mp.mpf(0)], 10**4, CTX).coeffs == (1,)


def test_pslq_rejects_truly_complex_input():
    with CTX.work():
        with pytest.raises(ValueError):
            pslq([mp.mpf(1), mp.mpc(0, 1)], 10**4, CTX)


def test_pslq_precision_budget_guard():
    ctx = PrecisionCtx(32)
    with pytest.raises(PrecisionExhausted):
        pslq([1, 2, 3], 10**12, ctx)


def test_pslq_cancellation_token():
    ctx = PrecisionCtx(64, cancelled=lambda: True)
    with pytest.raises(InterruptedError):
        pslq([1, mp.sqrt(2), mp.sqrt(3)], 10**4, ctx)


def test_relation_json_shape():
    with CTX.work():
        rel = pslq([mp.pi, mp.pi], 10**4, CTX)
    doc = rel.to_json(CTX)
    assert doc["coefficients"] in (["1", "-1"], ["-1", "1"])
    assert doc["height"] == 1 and doc["precision"] == 64


# ---------------------------------------------------------------------------
# exact LLL
# ---------------------------------------------------------------------------


def _row_hnf(rows):
    return hermite_normal_form(Matrix(rows).T).T.tolist()


def _fraction_gso(rows):
    n = len(rows)
    star = [[Fraction(x) for x in r] for r in rows]
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            denom = sum(x * x for x in star[j])
            mu[i][j] = Fraction(sum(a * b for a, b in zip(rows[i], star[j])), 1) / denom
            star[i] = [a - mu[i][j] * b for a, b in zip(star[i], star[j])]
    return star, mu


def test_lll_preserves_lattice_and_is_reduced():
    rng = random.Random(9041)
    for _ in range(10):
        n = rng.randint(2, 5)
        w = n + rng.randint(0, 3)
        while True:
            rows = [[rng.randint(-60, 60) for _ in range(w)] for _ in range(n)]
            if Matrix(rows).rank() == n:
                break
        red = lll_reduce(rows)
        assert _row_hnf(red) == _row_hnf(rows)
        star, mu = _fraction_gso(red)
        for i in range(n):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for k in range(1, n):
            lhs = sum(x * x for x in star[k])
            rhs = (Fraction(3, 4) - mu[k][k - 1] ** 2) * sum(x * x for x in star[k - 1])
            assert lhs >= rhs


def test_lll_agrees_with_reference_reduction():
    rng = random.Random(77)
    for _ in range(8):
        n = rng.randint(2, 6)
        w = n + rng.randint(0, 4)
        while True:
            rows = [[rng.randint(-50, 50) for _ in range(w)] for _ in range(n)]
            if Matrix(rows).rank() == n:
                break
        mine = lll_reduce(rows)
        dm = DomainMatrix([[ZZ(x) for x in r] for r in rows], (n, w), ZZ)
        ref = dm.lll(delta=QQ(3, 4)).to_Matrix().tolist()
        assert _row_hnf(mine) == _row_hnf(ref)


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2, 3], [2, 4, 6]])


# ---------------------------------------------------------------------------
# lattice membership
# ---------------------------------------------------------------------------


def _demo_gens():
    g1 = [mp.mpc(mp.sqrt(2), mp.pi), mp.mpc(1, 3)]
    g2 = [mp.mpc(mp.e, -1), mp.mpc(0, mp.sqrt(7))]
    g3 = [mp.mpc(mp.log(5), mp.mpf(1) / 3), mp.mpc(mp.sqrt(11), 2)]
    return g1, g2, g3


def test_membership_identity_generator():
    with CTX.work():
        g1, g2, g3 = _demo_gens()
        cert = lattice_membership(g1, [g1, g2, g3], ctx=CTX)
    assert cert.is_member
    assert cert.coefficients == (Fraction(1), Fraction(0), Fraction(0))


def test_membership_constructed_combination():
    with CTX.work():
        g1, g2, g3 = _demo_gens()
        v = [a / 2 + b / 3 for a, b in zip(g1, g2)]
        cert = lattice_membership(v, [g1, g2, g3], ctx=CTX)
    assert cert.is_member
    assert cert.coefficients == (Fraction(1, 2), Fraction(1, 3), Fraction(0))
    assert cert.residual < CTX.relation_tol * 10


def test_membership_permutation_invariance():
    with CTX.work():
        g1, g2, g3 = _demo_gens()
        v = [a / 2 + b / 3 for a, b in zip(g1, g2)]
        cert = lattice_membership(v, [g3, g2, g1], ctx=CTX)
    assert cert.is_member
    assert cert.coefficients == (Fraction(0), Fraction(1, 3), Fraction(1, 2))


def test_membership_generator_scaling_halves_coefficients():
    with CTX.work():
        g1, g2, g3 = _demo_gens()
        v = [a / 2 + b / 3 for a, b in zip(g1, g2)]
        doubled = [[2 * z for z in g1], g2, g3]
        cert = lattice_membership(v, doubled, ctx=CTX)
    assert cert.is_member
    assert cert.coefficients == (Fraction(1, 4), Fraction(1, 3), Fraction(0))


def test_membership_no_relation_case():
    with CTX.work():
        cert = lattice_membership([mp.pi], [[mp.log(2)], [mp.log(3)]], ctx=CTX)
    assert not cert.is_member
    assert cert.verdict == "no-relation-up-to"
    assert cert.max_den == 10**3 and cert.max_height == 10**4
    doc = cert.to_json()
    assert doc["conclusive"] is False
    assert "not a proof" in doc["note"]


def test_membership_zero_vector_is_trivially_member():
    with CTX.work():
        g1, g2, _ = _demo_gens()
        cert = lattice_membership([mp.mpc(0), mp.mpc(0)], [g1, g2], ctx=CTX)
    assert cert.is_member
    assert all(c == 0 for c in cert.coefficients)


def test_membership_amplification_rejects_near_miss():
    ctx = PrecisionCtx(32)
    with ctx.work():
        g1 = [mp.mpc(mp.sqrt(2), mp.pi)]
        g2 = [mp.mpc(mp.e, -1)]
        fuzz = 1 + mp.mpf(10) ** -25
        v = [g1[0] * fuzz]

        plain = lattice_membership(v, [g1, g2], ctx=ctx)
        assert plain.is_member

        def recompute(ctx2):
            return v, [g1, g2]

        amped = lattice_membership(v, [g1, g2], ctx=ctx, recompute=recompute)
    assert not amped.is_member
    assert amped.amplified
    assert any("amplification" in n for n in amped.notes)


def test_membership_amplification_accepts_true_member():
    ctx = PrecisionCtx(48)

    def build(c):
        with c.work():
            g1 = [mp.mpc(mp.sqrt(2), mp.pi)]
            g2 = [mp.mpc(mp.e, -1)]
            v = [g1[0] / 2 + g2[0] / 3]
        return v, [g1, g2]

    v, gens = build(ctx)
    cert = lattice_membership(v, gens, ctx=ctx, recompute=lambda c2: build(c2))
    assert cert.is_member and cert.amplified
    assert cert.coefficients == (Fraction(1, 2), Fraction(1, 3))


def test_membership_json_member_shape():
    with CTX.work():
        g1, g2, _ = _demo_gens()
        v = [a / 2 for a in g1]
        doc = lattice_membership(v, [g1, g2], ctx=CTX).to_json()
    assert doc["verdict"] == "member"
    assert doc["coefficients"] == ["1/2", "0/1"]
    assert doc["precision"] == 64


def test_membership_input_validation():
    with pytest.raises(ValueError):
        lattice_membership([mp.mpf(1)], [], ctx=CTX)
    with pytest.raises(ValueError):
        lattice_membership([mp.mpf(1)], [[mp.mpf(1), mp.mpf(2)]], ctx=CTX)


# ---------------------------------------------------------------------------
# complex relations and tau detection
# ---------------------------------------------------------------------------


def test_integer_relation_complex_gaussian():
    with CTX.work():
        rel = integer_relation_complex([mp.mpc(1), mp.mpc(0, 1), mp.mpc(1, 1)], 10, CTX)
    assert rel is not None
    assert rel.coeffs == (1, 1, -1)


def test_tau_relation_equal_lattices():
    with CTX.work():
        got = detect_tau_relation(mp.mpc(0, 1), mp.mpc(0, 1), 10**4, CTX)
    assert got == (0, 1, 1, 0)


def test_tau_relation_double_lattice():
    with CTX.work():
        tau1, tau2 = mp.mpc(0, 1), mp.mpc(0, 2)
        got = detect_tau_relation(tau1, tau2, 10**4, CTX)
        assert got is not None
        a, b, c, d = got
        # Moebius witness: tau2 * (c + d*tau1) = a + b*tau1, exactly here.
        lhs = tau2 * (c + d * tau1)
        rhs = a + b * tau1
        assert abs(lhs - rhs) < CTX.relation_tol
        assert (c, d) != (0, 0)
        assert max(abs(x) for x in got) == 2
        again = detect_tau_relation(tau1, tau2, 10**4, CTX)
    assert again == got


def test_tau_relation_none_for_unrelated_cm_value():
    with CTX.work():
        tau2 = (1 + mp.sqrt(163) * mp.mpc(0, 1)) / 2
        got = detect_tau_relation(mp.mpc(0, 1), tau2, 10**3, CTX)
    assert got is None


def test_tau_relation_requires_upper_half_plane():
    with pytest.raises(ValueError):
        detect_tau_relation(mp.mpc(0, -1), mp.mpc(0, 1), 10, CTX)


def test_tau_relation_random_moebius_images():
    rng = random.Random(4242)
    found = 0
    with CTX.work():
        tau1 = mp.mpc(mp.mpf(1) / 3, mp.sqrt(2))
        for _ in range(6):
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c == 0:
                continue
            tau2 = (a + b * tau1) / (c + d * tau1)
            if tau2.imag <= 0:
                continue
            got = detect_tau_relation(tau1, tau2, 10**3, CTX)
            assert got is not None
            ga, gb, gc, gd = got
            resid = abs(ga + gb * tau1 - gc * tau2 - gd * tau1 * tau2)
            assert resid < CTX.relation_tol * 10
            found += 1
    assert found >= 3


# ---------------------------------------------------------------------------
# height-budget scale of the LLL embeddings
# ---------------------------------------------------------------------------


def _planted_membership(ctx):
    # the chi2 shape: 2 complex components, 4 generators; the planted
    # relation 1000*v = 10000*g1 - 9999*g2 + 7*g3 + g4 has height 10^4 and
    # denominator 10^3, the default bounds
    with ctx.work():
        gens = [
            [mp.mpc(mp.sqrt(2), mp.pi), mp.mpc(1, mp.sqrt(3))],
            [mp.mpc(mp.e, -1), mp.mpc(mp.log(7), mp.sqrt(7))],
            [mp.mpc(mp.log(5), mp.mpf(1) / 3), mp.mpc(mp.sqrt(11), 2)],
            [mp.mpc(mp.euler, mp.sqrt(13)), mp.mpc(-mp.catalan, mp.log(3))],
        ]
        coeffs = (Fraction(10), Fraction(-9999, 1000), Fraction(7, 1000), Fraction(1, 1000))
        v = [
            mp.fsum(mp.mpf(c.numerator) / c.denominator * g[j] for c, g in zip(coeffs, gens))
            for j in range(2)
        ]
    return v, gens, coeffs


@pytest.mark.parametrize("digits", [64, 128, 256, 512])
def test_membership_planted_at_full_height_and_denominator(digits):
    ctx = PrecisionCtx(digits)
    v, gens, coeffs = _planted_membership(ctx)
    cert = lattice_membership(v, gens, max_den=10**3, max_height=10**4, ctx=ctx)
    assert cert.is_member
    assert cert.coefficients == coeffs
    assert cert.residual < ctx.relation_tol


def test_integer_relation_complex_planted_height_9999():
    with CTX.work():
        a, b = mp.sqrt(2), mp.sqrt(3)
        c = (9999 * a + 1234 * b) / 5678
        rel = integer_relation_complex([a, b, c], 10**4, CTX)
    assert rel is not None
    assert rel.coeffs == (9999, 1234, -5678)


@pytest.mark.parametrize("digits", [64, 256])
def test_integer_relation_complex_unrelated_radicals(digits):
    ctx = PrecisionCtx(digits)
    with ctx.work():
        rel = integer_relation_complex([mp.mpf(1), mp.sqrt(2), mp.sqrt(3)], 10**4, ctx)
    assert rel is None


def test_embedding_entries_do_not_grow_with_digits(monkeypatch):
    import haj.relations as relations

    real_lll = relations.lll_reduce
    largest = []

    def recording_lll(rows, ctx=None):
        largest.append(max(abs(x) for row in rows for x in row))
        return real_lll(rows, ctx)

    monkeypatch.setattr(relations, "lll_reduce", recording_lll)
    seen = {}
    for digits in (256, 1024):
        ctx = PrecisionCtx(digits)
        v, gens, coeffs = _planted_membership(ctx)
        assert lattice_membership(v, gens, ctx=ctx).coefficients == coeffs
        with ctx.work():
            xs = [mp.mpf(1), mp.sqrt(2), 3 - 2 * mp.sqrt(2)]
        assert integer_relation_complex(xs, 10**4, ctx).coeffs == (3, -2, -1)
        seen[digits] = tuple(largest)
        largest.clear()
    assert seen[256] == seen[1024]
    assert all(entry < 10**60 for entry in seen[256])


def test_membership_amplification_recomputes_once():
    # v = g1 and g2 = 2*g1: the reduced basis holds two relations with a
    # nonzero v column, (1, -1, 0) and (1, 1, -1), and both pass the
    # residual test; perturbed 2x data rejects both
    ctx = PrecisionCtx(32)
    with ctx.work():
        x = mp.mpc(mp.sqrt(2), mp.pi)
        v, gens = [x], [[x], [2 * x]]
    calls = []

    def recompute(ctx2):
        calls.append(ctx2.digits)
        with ctx2.work():
            return [x * (1 + mp.mpf(10) ** -20)], gens

    cert = lattice_membership(v, gens, ctx=ctx, recompute=recompute)
    assert not cert.is_member
    assert len([n for n in cert.notes if "amplification" in n]) == 2
    assert calls == [64]


@pytest.mark.parametrize("digits,magnitude", [(128, -30), (64, -40), (128, 30)])
def test_embedding_scale_follows_data_magnitude(digits, magnitude):
    # the scale is relative to the largest modulus of the data, so a planted
    # relation far from magnitude 1 keeps the digits it has at magnitude 1
    ctx = PrecisionCtx(digits)
    with ctx.work():
        unit = mp.mpf(10) ** magnitude
        xs = [unit, unit * mp.sqrt(2), unit * (3 - 2 * mp.sqrt(2))]
    rel = integer_relation_complex(xs, 10**4, ctx)
    assert rel is not None and rel.coeffs == (3, -2, -1)

    v, gens, coeffs = _planted_membership(ctx)
    with ctx.work():
        v = [z * unit for z in v]
        gens = [[z * unit for z in g] for g in gens]
    cert = lattice_membership(v, gens, max_den=10**3, max_height=10**4, ctx=ctx)
    assert cert.is_member
    assert cert.coefficients == coeffs


def test_relation_acceptance_is_relative_to_the_data():
    # 10^-70 is below the relation tolerance at 64 digits: the data round
    # to zero in the embedding, and an absolute acceptance bound would pass
    # the trivial relation (0, 0, 1)
    with CTX.work():
        unit = mp.mpf(10) ** -70
        xs = [unit, unit * mp.sqrt(2), unit * (3 - 2 * mp.sqrt(2))]
    assert integer_relation_complex(xs, 10**4, CTX) is None
    # exactly vanishing data still satisfy every relation
    rel = integer_relation_complex([mp.mpc(0)] * 3, 10, CTX)
    assert rel is not None and rel.residual == 0


def test_scale_margin_covers_lll_loss_at_many_terms():
    # 12 terms at height 2: the budget is 6 digits, so the margin alone has
    # to separate the relation from the spurious vectors
    ctx = PrecisionCtx(64)
    rng = random.Random("12:2")
    for _ in range(6):
        with ctx.work():
            xs = [mp.sqrt(rng.randrange(2, 10**6)) * rng.choice((1, -1)) for _ in range(11)]
            cs = [rng.randint(-2, 2) for _ in range(11)]
            c_last = rng.randint(1, 2)
            xs.append(-mp.fsum(c * x for c, x in zip(cs, xs)) / c_last)
        rel = integer_relation_complex(xs, 2, ctx)
        assert rel is not None
        with ctx.work():
            assert abs(mp.fsum(c * x for c, x in zip(rel.coeffs, xs))) < ctx.relation_tol
