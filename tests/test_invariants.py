"""Tests for the higher invariants on spread cycles.

Covers the two chi2 evaluation routes and their lattice reduction, the
stratified chi3 current (checked against an independent polygon-geometry
evaluation), the curve-pair case classifier, and the degree-two
nonvanishing decision.
"""

import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from haj.cycles import CurveRef, MissingCoordinates, PointSymbol, ZeroCycle
from haj.elliptic import (
    CurvePoint,
    EllipticCurve,
    compute_periods,
    elliptic_log,
)
from haj.invariants import (
    BoxSpreadCycle,
    Chi2Value,
    CutGrazing,
    InvariantError,
    MethodUnsupported,
    SpreadMap,
    StratificationOverflow,
    chi2_box,
    chi2_reduce,
    chi3_box,
    classify_case,
    psi2_nonvanishing,
)
from haj.numkernel import PrecisionCtx
from haj.relations import lattice_membership

CTX = PrecisionCtx(48)
CTX64 = PrecisionCtx(64)

E_CM = EllipticCurve(20, 0, label="E1")     # square lattice, tau = i
E_GEN = EllipticCurve(8, 1, label="E2")     # no CM
E_HEX = EllipticCurve(0, 16, label="E3")    # hexagonal lattice
E_GEN2 = EllipticCurve(12, 5, label="E4")   # no CM, not isogenous to E2

LAT = compute_periods(E_CM, CTX)
LAT64 = compute_periods(E_CM, CTX64)
LAT2 = compute_periods(E_GEN, CTX)
LAT2_64 = compute_periods(E_GEN, CTX64)

P_NT = CurvePoint.affine(-1, 4)             # nontorsion on E_CM
XI = elliptic_log(P_NT, E_CM, LAT, CTX)
XI64 = elliptic_log(P_NT, E_CM, LAT64, CTX64)


def ident(lat=LAT):
    return SpreadMap.identity(E_CM, lat)


def aff(mult, trans, mult2=(0, 0), lat=LAT):
    return SpreadMap.affine(E_CM, lat, mult, trans, multiplier2=mult2)


def spread2(map2, lat=LAT):
    return BoxSpreadCycle(E_CM, lat, (ident(lat), map2))


def frac_mpf(c):
    return mp.mpf(c.numerator) / c.denominator


# ---------------------------------------------------------------------------
# spread construction
# ---------------------------------------------------------------------------


def test_spread_map_constructors():
    m = ident()
    assert m.multiplier == (1, 0) and m.multiplier2 == (0, 0)
    assert m.is_identity() and not m.is_constant

    c = SpreadMap.constant(E_CM, LAT, 0)
    assert c.is_constant and c.multiplier == (0, 0)

    g = aff(2 + 3j, 0)
    assert g.multiplier == (2, 3)
    assert aff((0, 1), 0).multiplier == (0, 1)

    doc = ident().to_json(CTX)
    assert doc["multiplier"] == [1, 0]
    assert set(doc) == {"multiplier", "multiplier2", "translation", "target"}

    with pytest.raises(ValueError):
        aff(1.5, 0)
    with pytest.raises(ValueError):
        aff(2 + 0.5j, 0)


def test_spread_cycle_validation():
    with pytest.raises(ValueError):
        BoxSpreadCycle(E_CM, LAT, (ident(),))
    with pytest.raises(ValueError):
        BoxSpreadCycle(E_CM, LAT, (ident(),) * 4)
    # a second parameter direction makes no sense on a two-factor spread
    with pytest.raises(ValueError):
        BoxSpreadCycle(E_CM, LAT, (ident(), aff(1, 0, mult2=(1, 0))))
    # Gaussian multipliers need a square source lattice
    with pytest.raises(ValueError):
        BoxSpreadCycle(
            E_GEN,
            LAT2,
            (SpreadMap.identity(E_GEN, LAT2), SpreadMap.affine(E_GEN, LAT2, (0, 1), 0)),
        )
    # multiplier 1 does not carry the E_CM lattice into the E_GEN lattice
    with pytest.raises(ValueError):
        BoxSpreadCycle(E_CM, LAT, (ident(), SpreadMap.affine(E_GEN, LAT2, 1, 0)))
    # a cross-curve constant is fine: multiplier 0 descends trivially
    BoxSpreadCycle(E_CM, LAT, (ident(), SpreadMap.constant(E_GEN, LAT2, 0)))


# ---------------------------------------------------------------------------
# chi2: evaluation routes
# ---------------------------------------------------------------------------


def test_chi2_identity_family_both_routes():
    # maps (z, z - xi) with xi the log of a nontorsion point; the closed
    # form collapses to A*A/2 - xi*A and -(xi + B/2)*B at the default
    # path offset, and the path integral lands on the same numbers
    with CTX64.work():
        sp = spread2(aff(1, -XI64, lat=LAT64), lat=LAT64)
        v = chi2_box(sp, method="Both", ctx=CTX64)
        A, B = LAT64.omega_alpha, LAT64.omega_beta
        assert abs(v.value_alpha - (A * A / 2 - XI64 * A)) < mp.mpf("1e-50")
        assert abs(v.value_beta + (XI64 + B / 2) * B) < mp.mpf("1e-50")
        assert v.method == "Both"
        assert any(n.startswith("route agreement") for n in v.notes)

        for method in ("PathIntegral", "ClosedForm"):
            w = chi2_box(sp, method=method, ctx=CTX64)
            assert abs(w.value_alpha - v.value_alpha) < mp.mpf("1e-50")
            assert abs(w.value_beta - v.value_beta) < mp.mpf("1e-50")
            assert w.method == method


def test_chi2_nontorsion_family_has_no_small_relation():
    with CTX64.work():
        sp = spread2(aff(1, -XI64, lat=LAT64), lat=LAT64)
        v = chi2_box(sp, method="ClosedForm", ctx=CTX64)
        red = chi2_reduce(v, max_den=10**3, max_height=10**4, ctx=CTX64)
        assert red.verdict == "no-relation-up-to"
        assert not red.is_member


def test_chi2_identity_pair_gives_half_periods():
    # maps (z, z): the crossing value sits exactly on a cut and the snap
    # convention sends it to the negative side, so each loop returns minus
    # half its squared period
    with CTX64.work():
        sp = spread2(ident(LAT64), lat=LAT64)
        v = chi2_box(sp, method="Both", ctx=CTX64)
        A, B = LAT64.omega_alpha, LAT64.omega_beta
        assert abs(v.value_alpha + A * A / 2) < mp.mpf("1e-50")
        assert abs(v.value_beta + B * B / 2) < mp.mpf("1e-50")

        # doubling the cycle clears the halves: an integer combination of
        # the period products (the CM identity B*B = -A*A does the rest)
        red = chi2_reduce(v, scale=2, ctx=CTX64)
        assert red.is_member
        assert all(c.denominator <= 2 for c in red.coefficients)
        recon_a = sum(frac_mpf(c) * g[0] for c, g in zip(red.coefficients, v.lattice_gens))
        recon_b = sum(frac_mpf(c) * g[1] for c, g in zip(red.coefficients, v.lattice_gens))
        assert abs(recon_a - 2 * v.value_alpha) < mp.mpf("1e-40")
        assert abs(recon_b - 2 * v.value_beta) < mp.mpf("1e-40")

        # without the doubling, integer coefficients cannot reach the halves
        red1 = chi2_reduce(v, max_den=1, ctx=CTX64)
        assert red1.verdict == "no-relation-up-to"


def test_chi2_constant_translation_is_exact():
    # second map constant xi on another curve: the value is (A*xi, B*xi)
    # with no reduction applied to the handed-in translation lift
    with CTX64.work():
        xi2 = Fraction(5, 16) * LAT2_64.omega_alpha + Fraction(7, 32) * LAT2_64.omega_beta
        sp = BoxSpreadCycle(
            E_CM, LAT64, (ident(LAT64), SpreadMap.constant(E_GEN, LAT2_64, xi2))
        )
        v = chi2_box(sp, method="Both", ctx=CTX64)
        A, B = LAT64.omega_alpha, LAT64.omega_beta
        assert abs(v.value_alpha - A * xi2) < mp.mpf("1e-60")
        assert abs(v.value_beta - B * xi2) < mp.mpf("1e-60")
        assert any("translation lift used as given" in n for n in v.notes)

        # the eight ambient generators come out in the documented order
        prods = [
            w1 * w2
            for w1 in (A, B)
            for w2 in (LAT2_64.omega_alpha, LAT2_64.omega_beta)
        ]
        expected = tuple([(0, p) for p in prods] + [(p, 0) for p in prods])
        assert len(v.lattice_gens) == 8
        for got, want in zip(v.lattice_gens, expected):
            assert got[0] == want[0] and got[1] == want[1]


def test_chi2_cm_marker_lands_in_lattice():
    # square first factor and constant translation i * Omega_2alpha: the
    # value is (P_ba, -P_aa) on the nose, so the membership certificate
    # reads those two generators with unit coefficients
    with CTX64.work():
        xi2 = mp.mpc(0, 1) * LAT2_64.omega_alpha
        sp = BoxSpreadCycle(
            E_CM, LAT64, (ident(LAT64), SpreadMap.constant(E_GEN, LAT2_64, xi2))
        )
        v = chi2_box(sp, method="Both", ctx=CTX64)
        red = chi2_reduce(v, ctx=CTX64)
        assert red.is_member
        assert [str(c) for c in red.coefficients] == [
            "-1", "0", "0", "0", "0", "0", "1", "0",
        ]
        recon_a = sum(frac_mpf(c) * g[0] for c, g in zip(red.coefficients, v.lattice_gens))
        recon_b = sum(frac_mpf(c) * g[1] for c, g in zip(red.coefficients, v.lattice_gens))
        assert abs(recon_a - v.value_alpha) < mp.mpf("1e-40")
        assert abs(recon_b - v.value_beta) < mp.mpf("1e-40")


def test_chi2_routes_agree_on_random_affine_maps():
    rng = random.Random(7)
    with CTX.work():
        A, B = LAT.omega_alpha, LAT.omega_beta
        for _ in range(5):
            m2 = rng.choice([-2, -1, 1, 2])
            c2 = Fraction(rng.randrange(-7, 8), 16) * A + Fraction(rng.randrange(-7, 8), 16) * B
            v = chi2_box(spread2(aff(m2, c2)), method="Both", ctx=CTX)
            assert any(n.startswith("route agreement") for n in v.notes)


def test_chi2_path_offset_moves_value_by_lattice():
    # the loop basepoint is a choice; moving it shifts each component by
    # an integer combination of the period products, never more
    with CTX.work():
        sp = spread2(aff(1, -XI))
        v0 = chi2_box(sp, ctx=CTX)
        gens = [list(g) for g in v0.lattice_gens]
        for off in ((Fraction(1, 8), Fraction(3, 16)),
                    (Fraction(-3, 16), Fraction(1, 4)),
                    (Fraction(5, 32), Fraction(-7, 32))):
            v1 = chi2_box(sp, ctx=CTX, path_offset=off)
            d = [v1.value_alpha - v0.value_alpha, v1.value_beta - v0.value_beta]
            r = lattice_membership(d, gens, max_den=1, max_height=100, ctx=CTX)
            assert r.is_member, off


def test_chi2_additive_in_the_translation():
    # chi2 is a quadratic refinement: the failure of additivity in the
    # second-map translation is itself a lattice element
    with CTX.work():
        A, B = LAT.omega_alpha, LAT.omega_beta
        x = Fraction(1, 8) * A + Fraction(1, 16) * B
        y = Fraction(3, 16) * A - Fraction(1, 8) * B
        vals = [
            chi2_box(spread2(aff(1, t)), ctx=CTX)
            for t in (x, y, x + y, mp.mpc(0))
        ]
        d = [
            vals[0].value_alpha + vals[1].value_alpha - vals[2].value_alpha - vals[3].value_alpha,
            vals[0].value_beta + vals[1].value_beta - vals[2].value_beta - vals[3].value_beta,
        ]
        gens = [list(g) for g in vals[0].lattice_gens]
        r = lattice_membership(d, gens, max_den=1, max_height=100, ctx=CTX)
        assert r.is_member


def test_chi2_cm_degeneration_of_the_lattice():
    # on the square-times-square product every period product lies in the
    # rank-two space spanned by A*A and i*A*A
    with CTX.work():
        sp = spread2(aff(1, -XI))
        v = chi2_box(sp, method="ClosedForm", ctx=CTX)
        A = LAT.omega_alpha
        basis = [[A * A], [mp.mpc(0, 1) * A * A]]
        for ga, gb in v.lattice_gens:
            nz = ga if gb == 0 else gb
            r = lattice_membership([nz], basis, max_den=1, max_height=10, ctx=CTX)
            assert r.is_member


def test_chi2_method_gating():
    with CTX.work():
        sp = BoxSpreadCycle(E_CM, LAT, (aff(2, 0), aff(1, -XI)))
        with pytest.raises(MethodUnsupported):
            chi2_box(sp, method="ClosedForm", ctx=CTX)
        with pytest.raises(MethodUnsupported):
            chi2_box(sp, method="Both", ctx=CTX)
        # but the path integral handles a degree-four first map fine
        v = chi2_box(sp, ctx=CTX)
        assert mp.isfinite(v.value_alpha) and mp.isfinite(v.value_beta)

        with pytest.raises(ValueError):
            chi2_box(spread2(aff(1, 0)), method="Simpson", ctx=CTX)
        with pytest.raises(ValueError):
            chi2_box(spread2(aff(1, 0)), ctx=CTX, path_offset=(Fraction(1, 2), 0))
        m_w = aff(0, 0, mult2=(1, 0))
        with pytest.raises(ValueError):
            chi2_box(BoxSpreadCycle(E_CM, LAT, (ident(), m_w, ident())), ctx=CTX)


def test_chi2_corner_crossing_is_rejected():
    # multiplier 1+i turns the alpha loop into a diagonal trace whose two
    # coordinates hit their cut levels at the same instant when the beta
    # offset is zero: a fundamental-domain corner, not a usable crossing
    with CTX.work():
        sp = BoxSpreadCycle(E_CM, LAT, (aff((1, 1), 0), SpreadMap.constant(E_CM, LAT, 0)))
        with pytest.raises(CutGrazing):
            chi2_box(sp, ctx=CTX, path_offset=(Fraction(-1, 8), 0))
        # a generic offset separates the two crossings again
        v = chi2_box(sp, ctx=CTX, path_offset=(Fraction(-1, 8), Fraction(-1, 16)))
        assert mp.isfinite(v.value_alpha)


def test_chi2_reduce_scale_and_recompute():
    with CTX64.work():
        sp = spread2(ident(LAT64), lat=LAT64)
        v = chi2_box(sp, method="ClosedForm", ctx=CTX64)
        red = chi2_reduce(
            v,
            scale=2,
            ctx=CTX64,
            recompute=lambda c2: chi2_box(sp, method="ClosedForm", ctx=c2),
        )
        assert red.is_member and red.amplified


def test_chi2_json_shape():
    with CTX.work():
        v = chi2_box(spread2(aff(1, -XI)), ctx=CTX)
        doc = v.to_json(CTX)
        assert doc["invariant"] == "chi2"
        assert set(doc["values"]) == {"alpha", "beta"}
        assert set(doc["values"]["alpha"]) == {"re", "im"}
        assert len(doc["lattice_generators"]) == 8
        assert doc["method"] == "PathIntegral"


# ---------------------------------------------------------------------------
# chi2: large first-map multipliers
# ---------------------------------------------------------------------------

E_REG = EllipticCurve(Fraction(7, 2), Fraction(-1, 2))
LAT_REG = compute_periods(E_REG, CTX64)


def _multiplier_spread(m):
    A, B = LAT_REG.omega_alpha, LAT_REG.omega_beta
    return BoxSpreadCycle(E_REG, LAT_REG, (
        SpreadMap.affine(E_REG, LAT_REG, m, 0),
        SpreadMap.affine(E_REG, LAT_REG, 1, A / 3 + B / 5),
    ))


def test_chi2_large_multiplier_pinned():
    # 70 cut crossings on each loop; values frozen from an independent
    # evaluation by sampled crossing search and Gauss-Legendre quadrature
    with CTX64.work():
        v = chi2_box(_multiplier_spread(70), ctx=CTX64)
        alpha = mp.mpc(
            "2.791932713194500181100047678808898528471201956069558945699016624441924325047",
            "37.51710168851876998717954780682505907916859905311731125963158886353513507872",
        )
        beta = mp.mpc(
            "0",
            "107.5490248404204739632480370462318360269499839522696256109438880754673872257",
        )
        assert abs(v.value_alpha - alpha) < mp.mpf("1e-64")
        assert abs(v.value_beta - beta) < mp.mpf("1e-64")


@pytest.mark.parametrize("m", [300, 1100])
def test_chi2_trace_starting_on_a_cut_grazes(m):
    # 300/8 and 1100/8 are half-integers: the default offset puts the
    # basepoint of the alpha loop on a cut level
    with CTX64.work(), pytest.raises(CutGrazing):
        chi2_box(_multiplier_spread(m), ctx=CTX64)


def test_chi2_huge_multiplier_is_refused_quickly():
    started = time.perf_counter()
    with CTX64.work(), pytest.raises(StratificationOverflow):
        chi2_box(_multiplier_spread(10**6 + 1), ctx=CTX64)
    assert time.perf_counter() - started < 10


# ---------------------------------------------------------------------------
# chi3: independent geometric oracle
# ---------------------------------------------------------------------------
#
# The oracle re-derives the current by plane geometry: split the parameter
# square into convex polygons along the first map's cut preimages, use one
# affine representative of the reduced first map per polygon (fixed by its
# centroid), and evaluate the bulk by areas, the line terms by trapezoid
# endpoint averages of that representative, and the point terms directly.
# No stratified quadrature, no midpoint sums.


def _oracle_lines(sm, z01, z02, pu, pw):
    lat = sm.target_lattice
    a, b = sm.mult_mpc(), sm.mult2_mpc()
    const = a * z01 + b * z02 + mp.mpc(sm.translation)
    out = []
    for index in (0, 1):
        p = lat.coords(a * pu)[index]
        q = lat.coords(b * pw)[index]
        r0 = lat.coords(const)[index]
        if abs(p) + abs(q) < mp.mpf("1e-30"):
            continue
        lo = r0 + min(mp.mpf(0), p) + min(mp.mpf(0), q) - mp.mpf("0.01")
        hi = r0 + max(mp.mpf(0), p) + max(mp.mpf(0), q) + mp.mpf("0.01")
        k = int(mp.floor(lo - mp.mpf("0.5")))
        while k + mp.mpf("0.5") <= hi:
            level = mp.mpf(k) + mp.mpf("0.5")
            if level >= lo:
                out.append((index, p, q, r0 - level))
            k += 1
    return out


def _split_polygon(poly, p, q, r):
    vals = [p * s + q * t + r for s, t in poly]
    pos, neg = [], []
    n = len(poly)
    for i in range(n):
        j = (i + 1) % n
        vi, vj = vals[i], vals[j]
        if vi >= 0:
            pos.append(poly[i])
        if vi <= 0:
            neg.append(poly[i])
        if (vi > 0 > vj) or (vi < 0 < vj):
            w = vi / (vi - vj)
            cut = (
                poly[i][0] + w * (poly[j][0] - poly[i][0]),
                poly[i][1] + w * (poly[j][1] - poly[i][1]),
            )
            pos.append(cut)
            neg.append(cut)
    return [pg for pg in (pos, neg) if len(pg) >= 3]


def _area_centroid(poly):
    a = mp.mpf(0)
    cx = cy = mp.mpf(0)
    n = len(poly)
    for i in range(n):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % n]
        cross = x0 * y1 - x1 * y0
        a += cross
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    a = a / 2
    if abs(a) < mp.mpf("1e-40"):
        return mp.mpf(0), (mp.mpf(0), mp.mpf(0))
    return a, (cx / (6 * a), cy / (6 * a))


def _clip_line_to_square(p, q, r):
    tiny = mp.mpf("1e-30")
    pts = []
    if abs(q) > tiny * (abs(p) + abs(q)):
        for s in (mp.mpf(0), mp.mpf(1)):
            t = -(p * s + r) / q
            if -tiny <= t <= 1 + tiny:
                pts.append((s, min(max(t, mp.mpf(0)), mp.mpf(1))))
    if abs(p) > tiny * (abs(p) + abs(q)):
        for t in (mp.mpf(0), mp.mpf(1)):
            s = -(q * t + r) / p
            if -tiny <= s <= 1 + tiny:
                pts.append((min(max(s, mp.mpf(0)), mp.mpf(1)), t))
    uniq = []
    for pt in pts:
        if all(abs(pt[0] - u[0]) + abs(pt[1] - u[1]) > mp.mpf("1e-25") for u in uniq):
            uniq.append(pt)
    if len(uniq) < 2:
        return None
    uniq.sort(key=lambda u: -q * u[0] + p * u[1])   # oriented along (-q, p)
    return uniq[0], uniq[-1]


def _clip_param_to_polygon(x0, x1, poly):
    # Liang-Barsky against the polygon's edges; counterclockwise winding
    # makes (ay - by, bx - ax) the inward normal
    u0, u1 = mp.mpf(0), mp.mpf(1)
    d = (x1[0] - x0[0], x1[1] - x0[1])
    n = len(poly)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        nx, ny = ay - by, bx - ax
        num = nx * (x0[0] - ax) + ny * (x0[1] - ay)
        den = nx * d[0] + ny * d[1]
        if abs(den) < mp.mpf("1e-40"):
            if num < 0:
                return None
            continue
        u = -num / den
        if den > 0:
            u0 = max(u0, u)
        else:
            u1 = min(u1, u)
        if u0 >= u1:
            return None
    return u0, u1


def _oracle_v(spread, pu, pw, z01, z02):
    map1, map2, map3 = spread.maps
    a1, b1, c1 = map1.mult_mpc(), map1.mult2_mpc(), mp.mpc(map1.translation)
    red1 = map1.target_lattice.reduce

    def h1(s, t):
        return a1 * (z01 + s * pu) + b1 * (z02 + t * pw) + c1

    square = [
        (mp.mpf(0), mp.mpf(0)),
        (mp.mpf(1), mp.mpf(0)),
        (mp.mpf(1), mp.mpf(1)),
        (mp.mpf(0), mp.mpf(1)),
    ]
    regions = [square]
    for _, p, q, r in _oracle_lines(map1, z01, z02, pu, pw):
        regions = [piece for poly in regions for piece in _split_polygon(poly, p, q, r)]

    reps = []
    for poly in regions:
        area, cen = _area_centroid(poly)
        if area <= mp.mpf("1e-30"):
            continue
        z = h1(cen[0], cen[1])
        reps.append((poly, area, cen, z - red1(z)))

    a2, b2 = map2.mult_mpc(), map2.mult2_mpc()
    a3, b3 = map3.mult_mpc(), map3.mult2_mpc()
    lat2, lat3 = map2.target_lattice, map3.target_lattice

    jac = (a2 * b3 - b2 * a3) * pu * pw
    bulk = mp.mpc(0)
    for poly, area, cen, shift in reps:
        bulk += jac * area * (h1(cen[0], cen[1]) - shift)

    lines2 = _oracle_lines(map2, z01, z02, pu, pw)
    lines3 = _oracle_lines(map3, z01, z02, pu, pw)

    single = mp.mpc(0)
    for which, lines, lat_o in ((2, lines2, lat2), (3, lines3, lat3)):
        for index, p, q, r in lines:
            seg = _clip_line_to_square(p, q, r)
            if seg is None:
                continue
            x0, x1 = seg
            omega = (lat_o.omega_alpha, lat_o.omega_beta)[index]
            if which == 2:
                dg_ds, dg_dt, sgn = a3 * pu, b3 * pw, mp.mpf(-1)
            else:
                dg_ds, dg_dt, sgn = a2 * pu, b2 * pw, mp.mpf(1)
            dfull = dg_ds * (x1[0] - x0[0]) + dg_dt * (x1[1] - x0[1])
            if dfull == 0:
                continue
            for poly, _, _, shift in reps:
                got = _clip_param_to_polygon(x0, x1, poly)
                if got is None:
                    continue
                u0, u1 = got
                if u1 - u0 < mp.mpf("1e-35"):
                    continue
                pa = (x0[0] + u0 * (x1[0] - x0[0]), x0[1] + u0 * (x1[1] - x0[1]))
                pb = (x0[0] + u1 * (x1[0] - x0[0]), x0[1] + u1 * (x1[1] - x0[1]))
                f_avg = (h1(pa[0], pa[1]) + h1(pb[0], pb[1])) / 2 - shift
                single += sgn * omega * f_avg * dfull * (u1 - u0)

    double = mp.mpc(0)
    for i2, p2, q2, r2 in lines2:
        for i3, p3, q3, r3 in lines3:
            det = p2 * q3 - p3 * q2
            if abs(det) < mp.mpf("1e-30") * ((abs(p2) + abs(q2)) * (abs(p3) + abs(q3)) + 1):
                continue
            ss = (r3 * q2 - r2 * q3) / det
            tt = (r2 * p3 - r3 * p2) / det
            pad = mp.mpf("1e-12")
            if not (pad < ss < 1 - pad and pad < tt < 1 - pad):
                continue
            om2 = (lat2.omega_alpha, lat2.omega_beta)[i2]
            om3 = (lat3.omega_alpha, lat3.omega_beta)[i3]
            double += om2 * om3 * red1(h1(ss, tt)) * mp.sign(det)

    return bulk + single + double


def _chi3_configs():
    # three-factor spreads exercising translations in both parameter
    # directions, a traceless second map, and a Gaussian multiplier
    m_u = lambda tr=0: aff(1, tr)
    m_w = lambda tr=0: aff(0, tr, mult2=(1, 0))
    m_uw = lambda tr=0: aff(1, tr, mult2=(1, 0))
    return [
        BoxSpreadCycle(E_CM, LAT, (m_u(XI / 5), m_w(), m_uw(XI / 3))),
        BoxSpreadCycle(E_CM, LAT, (m_uw(XI / 7), aff(1, 0, mult2=(-1, 0)), m_w(2 * XI / 5))),
        BoxSpreadCycle(E_CM, LAT, (m_u(XI / 5), m_w(XI / 11), aff((0, 1), XI / 3, mult2=(1, 0)))),
    ]


COMBOS = (
    ("alpha,alpha", 0, 0),
    ("beta,beta", 1, 1),
    ("alpha,beta", 0, 1),
    ("beta,alpha", 1, 0),
)


def test_chi3_matches_the_geometric_oracle():
    with CTX.work():
        A, B = LAT.omega_alpha, LAT.omega_beta
        z0 = -(A + B) / 8
        tol = mp.power(10, -CTX.digits)
        for sp in _chi3_configs():
            v = chi3_box(sp, ctx=CTX)
            parts = dict(v.pairings)
            for label, iu, iw in COMBOS:
                pu, pw = (A, B)[iu], (A, B)[iw]
                want = _oracle_v(sp, pu, pw, z0, z0)
                assert abs(parts[label]["value"] - want) < tol, (label, sp.maps)


def test_chi3_needs_no_quadrature(monkeypatch):
    # every chi3 term is a finite sum over the cut arrangement
    with CTX.work():
        want = [chi3_box(sp, ctx=CTX) for sp in _chi3_configs()]

    def no_quad(*args, **kwargs):
        raise AssertionError("chi3 ran an adaptive quadrature")

    monkeypatch.setattr(mp.mp, "quad", no_quad)
    with CTX.work():
        for sp, v0 in zip(_chi3_configs(), want):
            v = chi3_box(sp, ctx=CTX)
            assert (v.value_diag, v.value_mixed) == (v0.value_diag, v0.value_mixed)
            assert v.pairings == v0.pairings


def test_chi3_pinned_value():
    # frozen regression anchor for the first oracle configuration
    with CTX.work():
        v = chi3_box(_chi3_configs()[0], ctx=CTX)
        want = mp.mpc("0.172073275637", "-0.359424683038")
        assert abs(v.value_diag - want) < mp.mpf("1e-9")
        assert abs(v.value_mixed) < mp.mpf("1e-30")


def test_chi3_vanishes_on_constants():
    with CTX.work():
        c = lambda tr: SpreadMap.constant(E_CM, LAT, tr)
        sp = BoxSpreadCycle(E_CM, LAT, (c(XI / 3), c(0), c(XI / 7)))
        v = chi3_box(sp, ctx=CTX)
        assert v.value_diag == 0 and v.value_mixed == 0
        # one constant factor already kills the 2-form and every line term
        sp2 = BoxSpreadCycle(E_CM, LAT, (aff(1, XI / 5), c(XI / 7), aff(1, 0, mult2=(1, 0))))
        v2 = chi3_box(sp2, ctx=CTX)
        assert abs(v2.value_diag) < mp.mpf("1e-40")
        assert abs(v2.value_mixed) < mp.mpf("1e-40")


def test_chi3_parameter_offsets_do_not_move_the_value():
    # the evaluation depends only on the homology class of the parameter
    # torus: changing both loop basepoints reproduces the value exactly,
    # not merely modulo the triple period products
    with CTX.work():
        sp = _chi3_configs()[0]
        v0 = chi3_box(sp, ctx=CTX)
        for offs in (
            ((Fraction(1, 8), Fraction(1, 16)), (Fraction(-3, 16), Fraction(1, 8))),
            ((Fraction(1, 5), Fraction(-1, 7)), (Fraction(1, 9), Fraction(2, 7))),
        ):
            v1 = chi3_box(sp, ctx=CTX, offsets=offs)
            assert abs(v1.value_diag - v0.value_diag) < mp.mpf("1e-40")
            assert abs(v1.value_mixed - v0.value_mixed) < mp.mpf("1e-40")
        # and the mod-lattice statement holds a fortiori
        d = [v1.value_diag - v0.value_diag]
        gens = [[g] for g in v0.lattice_gens]
        r = lattice_membership(d, gens, max_den=16, max_height=100, ctx=CTX)
        assert r.is_member


def test_chi3_bulk_scales_with_the_second_multiplier():
    # the bulk pairs the reduced first map against dG2 ^ dG3, so doubling
    # the second map's multiplier doubles exactly the bulk part
    with CTX.work():
        sp1 = _chi3_configs()[0]
        maps2 = (sp1.maps[0], aff(0, 0, mult2=(2, 0)), sp1.maps[2])
        sp2 = BoxSpreadCycle(E_CM, LAT, maps2)
        v1 = chi3_box(sp1, ctx=CTX)
        v2 = chi3_box(sp2, ctx=CTX)
        p1, p2 = dict(v1.pairings), dict(v2.pairings)
        for label, _, _ in COMBOS:
            assert abs(p2[label]["bulk"] - 2 * p1[label]["bulk"]) < mp.mpf("1e-30")


def test_chi3_grazing_and_overflow_guards():
    with CTX.work():
        m_w = lambda tr=0: aff(0, tr, mult2=(1, 0))
        # identical second and third maps lay their cut lines on top of
        # each other; the point terms are ill posed
        sp = BoxSpreadCycle(E_CM, LAT, (aff(1, XI / 5), m_w(XI / 7), m_w(XI / 7)))
        with pytest.raises(CutGrazing):
            chi3_box(sp, ctx=CTX)
        # a degree-4900 first map sweeps more cut levels than the budget
        sp_big = BoxSpreadCycle(E_CM, LAT, (aff(70, 0), m_w(), aff(1, 0, mult2=(1, 0))))
        with pytest.raises(StratificationOverflow):
            chi3_box(sp_big, ctx=CTX)
        sp_ok = _chi3_configs()[0]
        with pytest.raises(MethodUnsupported):
            chi3_box(sp_ok, method="ClosedForm", ctx=CTX)
        with pytest.raises(ValueError):
            chi3_box(sp_ok, ctx=CTX, offsets=((Fraction(1, 2), 0), (0, 0)))
        with pytest.raises(ValueError):
            chi3_box(spread2(aff(1, 0)), ctx=CTX)


def test_chi3_json_shape():
    with CTX.work():
        v = chi3_box(_chi3_configs()[0], ctx=CTX)
        doc = v.to_json(CTX)
        assert doc["invariant"] == "chi3"
        assert set(doc["values"]) == {"diag", "mixed"}
        assert len(doc["lattice_generators"]) == 8
        assert [p["cycle"] for p in doc["pairings"]] == [
            "alpha,alpha", "beta,beta", "alpha,beta", "beta,alpha",
        ]
        assert set(doc["pairings"][0]) == {"cycle", "value", "bulk", "single", "double"}


# ---------------------------------------------------------------------------
# case classifier
# ---------------------------------------------------------------------------


def test_classifier_four_cases():
    v = classify_case(E_CM, E_CM, max_height=10**3, ctx=CTX64)
    assert v.case == "RankFourCM_Unconditional"
    assert v.cm_evidence[0]["relation"] == [1, 0, 1]
    assert v.isogeny_evidence["relation"] is not None
    assert "Schneider" in v.citation

    v = classify_case(E_CM, E_GEN, max_height=10**3, ctx=CTX64)
    assert v.case == "OneFactorCM_Unconditional"
    assert v.cm_evidence[0]["relation"] == [1, 0, 1]
    assert v.cm_evidence[1]["relation"] is None
    assert v.isogeny_evidence["relation"] is None

    # two CM factors with different CM fields stay in the one-factor case
    v = classify_case(E_CM, E_HEX, max_height=10**3, ctx=CTX64)
    assert v.case == "OneFactorCM_Unconditional"
    assert v.cm_evidence[1]["relation"] is not None
    assert v.isogeny_evidence["relation"] is None

    v = classify_case(E_GEN, E_GEN2, max_height=10**3, ctx=CTX64)
    assert v.case == "NonIsogenousNonCM_Conditional"
    assert v.cm_evidence[0]["relation"] is None
    assert v.cm_evidence[1]["relation"] is None
    assert "conditional" in v.citation

    doc = v.to_json()
    assert doc["verdict"] == v.case
    assert set(doc) >= {"verdict", "citation", "cm", "isogeny", "digits"}


def test_classifier_flags_exhausted_probes():
    # a height budget far beyond the working precision cannot certify the
    # isogeny probe either way; the verdict records that honestly
    v = classify_case(E_GEN, E_GEN2, max_height=10**6, ctx=PrecisionCtx(32))
    assert v.case == "NonIsogenousNonCM_Conditional"
    assert v.isogeny_evidence["undetected_at_precision"]


# ---------------------------------------------------------------------------
# degree-two nonvanishing decision
# ---------------------------------------------------------------------------

REF_CM = CurveRef("E1", E_CM)


def _w_cycle(mapping):
    return ZeroCycle.from_terms(1, mapping)


def test_psi2_decisions():
    o = PointSymbol.base(REF_CM)
    p = PointSymbol.named(REF_CM, "p", P_NT)
    t2 = PointSymbol.named(REF_CM, "t", CurvePoint.affine(0, 0))

    d = psi2_nonvanishing(p, _w_cycle({(p,): 1, (o,): -1}), bound=16, ctx=CTX)
    assert d.outcome == "Nontrivial"
    assert "Mazur" in d.citation
    assert d.certificate["torsion_bound"] == 16
    assert d.marker == "p"

    d = psi2_nonvanishing(p, _w_cycle({(t2,): 1, (o,): -1}), bound=16)
    assert d.outcome == "ZeroClass"
    assert d.certificate["torsion_order"] == 2

    # group-law collapse: p + (-p) - 2o is the zero class on the nose
    d = psi2_nonvanishing(p, _w_cycle({(p,): 1, (PointSymbol.neg(p),): 1, (o,): -2}))
    assert d.outcome == "ZeroClass"
    assert d.certificate["collapsed_point"] == "infinity"

    # denominators are cleared first; 5/3 (p - o) collapses to 5p
    d = psi2_nonvanishing(p, _w_cycle({(p,): Fraction(5, 3), (o,): Fraction(-5, 3)}))
    assert d.outcome == "Nontrivial"
    assert d.certificate["collapsed_scale"] == 3

    d = psi2_nonvanishing(p, _w_cycle({(p,): 1, (o,): -1}), bound=8)
    assert d.outcome == "Inconclusive"

    d = psi2_nonvanishing(p, ZeroCycle.from_terms(1, {}))
    assert d.outcome == "ZeroClass"

    doc = d.to_json()
    assert set(doc) == {"verdict", "marker", "certificate", "citation"}


def test_psi2_input_validation():
    o = PointSymbol.base(REF_CM)
    p = PointSymbol.named(REF_CM, "p", P_NT)
    with pytest.raises(ValueError):
        psi2_nonvanishing(p, ZeroCycle.from_terms(2, {(p, o): 1, (o, o): -1}))
    with pytest.raises(ValueError):
        psi2_nonvanishing(p, _w_cycle({(p,): 1}))
    bare = PointSymbol.named(REF_CM, "q")
    with pytest.raises(MissingCoordinates):
        psi2_nonvanishing(p, _w_cycle({(bare,): 1, (o,): -1}))
    line = CurveRef("L1", None)
    a = PointSymbol.named(line, "a")
    b = PointSymbol.named(line, "b")
    with pytest.raises(ValueError):
        psi2_nonvanishing(p, _w_cycle({(a,): 1, (b,): -1}))
