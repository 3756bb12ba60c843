"""Seeded workloads: the requests the package receives and the verdicts it owes.

Each request is a dict with ``wire``, the exact ``haj --stdio`` request the
program receives, and ``expect``, the verdict derived in ``oracle`` by
construction or by an exact check. Inputs are filtered only for
mathematical admissibility (nonsingular curves, points of infinite order
where a construction needs one, loops clear of divisors, pairs with a
certificate); never by whether the package gets them right.

All three workloads are closed loops with one client: the next request is
sent only after the previous verdict came back.
"""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import oracle

Curve = Tuple[Fraction, Fraction]

LADDER = (64, 128, 256, 512)
EXACT_OPS = ("tame", "weil", "kummer-check")
PRESETS = {
    "paper-14": {"verdict": "NoRelationUpTo"},
    "paper-16-rem3": {"verdict": "Member", "amplified": True},
    "paper-16-classify": None,  # filled from the oracle below
    "paper-17": {"verdict": "Holds"},
    "paper-9-loops": {"verdict": "WithinEnvelope"},
}
PRESET_CLASSIFY_PAIRS = (
    ((20, 0), (20, 0)),
    ((20, 0), (8, 1)),
    ((20, 0), (0, 16)),
    ((8, 1), (12, 5)),
)
SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: str
    bypasses: str
    warm: bool
    build: Callable[..., dict]


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _curve_doc(c: Curve, label: str = "") -> dict:
    doc = {"g2": str(c[0]), "g3": str(c[1])}
    if label:
        doc["label"] = label
    return doc


def _point_doc(p) -> dict:
    return {"x": str(p[0]), "y": str(p[1])}


def _request(family: str, op: str, digits: int, args: dict, expect: dict,
             cache_dir: Optional[str] = None) -> dict:
    config = {"digits": digits}
    if cache_dir is not None:
        config["cache_dir"] = cache_dir
    return {"family": family, "wire": {"op": op, "config": config, **args}, "expect": expect}


@dataclasses.dataclass(frozen=True)
class PoolCurve:
    """y^2 = 4(x - e)(x^2 + e*x + c): a rational 2-torsion point (e, 0) and a
    rational point of infinite order (x0, y0)."""

    curve: Curve
    two_torsion: Tuple[Fraction, Fraction]
    point: Tuple[Fraction, Fraction]


def pool_curve(rng: random.Random, real_roots: Optional[bool] = None) -> PoolCurve:
    """A seeded curve; ``real_roots`` asks for three real roots (a rectangular
    period lattice) or one (a rhombic one)."""
    while True:
        e = Fraction(rng.randint(-2, 2))
        x0 = Fraction(rng.randint(-3, 3))
        y0 = Fraction(rng.randint(1, 5))
        if x0 == e:
            continue
        c = y0 * y0 / (4 * (x0 - e)) - x0 * x0 - e * x0
        g2, g3 = 4 * e * e - 4 * c, 4 * e * c
        if oracle.discriminant(g2, g3) == 0 or oracle.has_cm(g2, g3):
            continue
        if oracle.torsion_order((x0, y0), g2) is not None:
            continue
        if real_roots is not None and (e * e - 4 * c > 0) != real_roots:
            continue
        return PoolCurve((g2, g3), (e, Fraction(0)), (x0, y0))


def cm_curve(rng: random.Random) -> Curve:
    """j = 1728 (CM by Z[i]) or j = 0 (CM by Z[(1+sqrt(-3))/2])."""
    if rng.random() < 0.5:
        return Fraction(rng.choice((4, 8, 20, -4, 12))), Fraction(0)
    return Fraction(0), Fraction(rng.choice((4, 16, -8, 27)))


def twist(c: Curve, d: int) -> Curve:
    return c[0] * d * d, c[1] * d**3


# ---------------------------------------------------------------------------
# Request families (one function per verdict construction)
# ---------------------------------------------------------------------------


def chi2_no_relation(pc: PoolCurve, digits: int, **kw) -> dict:
    """(z, z - ellog P) with P of infinite order: no relation with the lattice."""
    args = {
        "source": _curve_doc(pc.curve, "E"),
        "maps": [
            {"multiplier": 1, "translation": "0"},
            {"multiplier": 1, "translation": {"point": _point_doc(pc.point), "sign": -1}},
        ],
        "method": "Both",
    }
    return _request("chi2_no_relation", "chi2", digits, args, {"verdict": "NoRelationUpTo"}, **kw)


def chi2_member(pc: PoolCurve, target: PoolCurve, coeffs: Tuple[int, int], digits: int, **kw) -> dict:
    """Identity against a constant map at an integer combination of the target's
    periods: the constant map sits on the target's origin, so chi2 lies in the
    period-product lattice and the doubled-precision recompute confirms it."""
    args = {
        "source": _curve_doc(pc.curve, "E"),
        "maps": [
            {"multiplier": 1, "translation": "0"},
            {
                "multiplier": 0,
                "target": _curve_doc(target.curve, "F"),
                "translation": {"periods": [str(coeffs[0]), str(coeffs[1])]},
            },
        ],
        "method": "Both",
    }
    return _request("chi2_member", "chi2", digits, args, {"verdict": "Member", "amplified": True}, **kw)


def chi3_constant_factor(pc: PoolCurve, frac: Tuple[int, int], digits: int, **kw) -> dict:
    """A constant factor kills the 2-form and every line term: chi3 vanishes,
    so both components are lattice members."""
    args = {
        "source": _curve_doc(pc.curve, "E"),
        "maps": [
            {"multiplier": 1, "translation": {"point": _point_doc(pc.point), "sign": 1}},
            {"multiplier": 0, "translation": {"periods": [f"1/{frac[0]}", f"1/{frac[1]}"]}},
            {"multiplier": 1, "multiplier2": 1, "translation": "0"},
        ],
        "reduce": True,
    }
    return _request("chi3_constant_factor", "chi3", digits, args, {"verdict": "Member"}, **kw)


def ellog(pc: PoolCurve, half_period: bool, digits: int, **kw) -> dict:
    """y = 0 points log to half periods; every log lands in [-1/2, 1/2]^2."""
    p = pc.two_torsion if half_period else pc.point
    args = {"curve": _curve_doc(pc.curve), "point": _point_doc(p)}
    return _request("ellog", "ellog", digits, args, {"half_period": half_period}, **kw)


def torsion(pc: PoolCurve, half_period: bool, digits: int, **kw) -> dict:
    """Exact group law up to Mazur's bound decides the verdict and the order."""
    p = pc.two_torsion if half_period else pc.point
    order = 2 if half_period else oracle.torsion_order(p, pc.curve[0])
    expect = {"verdict": "Torsion", "order": order} if order else {"verdict": "NotTorsionUpTo"}
    args = {"curve": _curve_doc(pc.curve), "point": _point_doc(p)}
    return _request("torsion", "torsion", digits, args, expect, **kw)


def classify(c1: Curve, c2: Curve, digits: int, **kw) -> dict:
    case = oracle.classify_expectation(c1, c2)
    if case is None:
        raise ValueError("pair has no classification certificate")
    args = {"first": _curve_doc(c1, "A"), "second": _curve_doc(c2, "B"), "max_height": 1000}
    return _request("classify", "classify", digits, args, {"verdict": case}, **kw)


def relation(rng: random.Random, planted: bool, digits: int, **kw) -> dict:
    """Truncated square roots of squarefree integers: a planted relation holds
    exactly between the decimals sent, and 1, sqrt(p), sqrt(q) have none."""
    width = digits + 10
    p, q = rng.sample(SQUAREFREE, 2)
    xp, xq = oracle.sqrt_scaled(p, width), oracle.sqrt_scaled(q, width)
    if planted:
        a, b = rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((-1, 1)) * rng.randint(1, 9)
        xs = [xp, xq, a * xp + b * xq]
        expect = {"verdict": "RelationFound", "relation": [a, b, -1]}
    else:
        xs = [10**width, xp, xq]
        expect = {"verdict": "NoRelationUpTo"}
    args = {"xs": [oracle.decimal_text(x, width) for x in xs]}
    return _request("relation", "relation", digits, args, expect, **kw)


@dataclasses.dataclass(frozen=True)
class LoopPair:
    """f = (t^2 - n) * k(t) with k > 0 near sqrt(n), and g clear of sqrt(n)."""

    n: int
    f: str
    g: str


LOOP_SHAPES = tuple((k_kind, quadratic_g) for k_kind in range(3) for quadratic_g in (False, True))


def loop_pair(rng: random.Random, shape: Tuple[int, bool]) -> LoopPair:
    """A seeded pair of the given shape: k is 1, t^2 + m or t + a, g is linear or quadratic."""
    k_kind, quadratic_g = shape
    while True:
        n = rng.choice(SQUAREFREE)
        root = n**0.5
        if k_kind == 0:
            k, k_roots = "1", []
        elif k_kind == 1:
            m = rng.randint(1, 5)
            k, k_roots = f"(t^2 + {m})", []
        else:
            a = rng.randint(-1, 4)  # t + a > 0 near sqrt(n) since a > -sqrt(2)
            k, k_roots = f"(t + {a})", [-a]
        b = rng.randint(-6, 6)
        if not quadratic_g:
            g, g_roots = f"t + {b}", [-b]
            g_at = root + b
        else:
            c = rng.randint(1, 6)
            g, g_roots = f"t^2 + {b}*t + {c}", []
            disc = b * b - 4 * c
            if disc >= 0:
                g_roots = [(-b + s * disc**0.5) / 2 for s in (1, -1)]
            g_at = root * root + b * root + c
        others = [-root] + k_roots + g_roots
        # loops of radius <= 1/10 around sqrt(n) stay clear of every other divisor
        # point, and a single loop's value is away from the lattice (|g| != 1)
        if min(abs(z - root) for z in others) < 0.5 or abs(abs(g_at) - 1) < 0.05:
            continue
        return LoopPair(n, f"(t^2 - {n})*{k}", g)


def milnor_shrink(lp: LoopPair, radii: Tuple[str, ...], digits: int, **kw) -> dict:
    """Around a simple zero x0 of f the regulator is -2*pi*i*log g(x0) modulo
    (2*pi*i)^2 Q, so every radius stays within its r*|log r| envelope."""
    args = {
        "f": lp.f,
        "g": lp.g,
        "center": {"root_of": f"t^2 - {lp.n}", "near": f"{lp.n ** 0.5:.6f}"},
        "radii": list(radii),
        "orientation": 1,
    }
    return _request("milnor_shrink", "milnor-reg", digits, args, {"verdict": "WithinEnvelope"}, **kw)


def milnor_single(lp: LoopPair, radius: str, digits: int, **kw) -> dict:
    """One loop: the value is -2*pi*i*log g(x0) modulo (2*pi*i)^2 Q, which is
    off the lattice because |g(x0)| != 1."""
    args = {
        "f": lp.f,
        "g": lp.g,
        "center": {"root_of": f"t^2 - {lp.n}", "near": f"{lp.n ** 0.5:.6f}"},
        "radius": radius,
    }
    return _request("milnor_single", "milnor-reg", digits, args, {"verdict": "NoRelationUpTo"}, **kw)


def _factored(rng: random.Random, roots: List[int]) -> oracle.Factored:
    const = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
    picks = rng.sample(roots, rng.randint(1, 3))
    return const, {Fraction(r): rng.choice((-2, -1, 1, 2)) for r in picks}


def tame(rng: random.Random, digits: int, **kw) -> dict:
    """Products of linear factors, so valuations and units are exact by construction."""
    roots = list(range(-4, 5))
    f, g = _factored(rng, roots), _factored(rng, roots)
    if rng.random() < 0.25:
        place = "inf"
    else:
        place = Fraction(rng.choice(list(f[1]) + list(g[1]) + [rng.choice(roots)]))
    value = oracle.tame_symbol(f, g, place)
    args = {
        "f": oracle.factored_text(f),
        "g": oracle.factored_text(g),
        "place": "inf" if place == "inf" else str(place),
    }
    return _request("tame", "tame", digits, args, {"value": str(value)}, **kw)


def weil(rng: random.Random, digits: int, **kw) -> dict:
    """Weil reciprocity is a theorem: the product of tame-symbol norms is 1."""
    args = {"random": 6, "seed": rng.randint(0, 10**6), "max_deg": 3}
    return _request("weil", "weil", digits, args, {"verdict": "Holds"}, **kw)


def kummer(p1: PoolCurve, p2: PoolCurve, digits: int, **kw) -> dict:
    """The pull-push through simultaneous negation is B(p, xi) + B(-p, -xi)."""
    args = {
        "curves": [_curve_doc(p1.curve, "F1"), _curve_doc(p2.curve, "F2")],
        "p": _point_doc(p1.point),
        "xi": _point_doc(p2.point),
    }
    return _request("kummer", "kummer-check", digits, args, {"verdict": "Holds"}, **kw)


# ---------------------------------------------------------------------------
# Workload plans
# ---------------------------------------------------------------------------


# one cycle of the lattice stream, built so that each tier's median latency
# falls inside its chi2 NoRelationUpTo band, with cheaper families below it
# and member tests above. The 128-digit chi2 requests draw on the
# ``wide`` pool, warm at 128 digits only, so the median averages over more
# curves. Requests that evaluate the Weierstrass function stay at 128/256
# digits, because its exact Laurent coefficients cost about 15 s per generic
# curve at 512 digits; member tests too, because one at 512 digits costs 1.5
# to 7 s (LLL on 10^512-scaled entries plus the 1024-digit recompute).
LATTICE_CYCLE = (
    ("chi2", 128), ("relation", 128), ("chi2", 256), ("member", 128), ("chi2", 128),
    ("ellog", 128), ("chi3", 256), ("chi2", 128), ("relation", 512), ("chi2", 256),
    ("torsion", 128), ("chi2", 128), ("member", 256), ("chi3", 128), ("classify", 512),
    ("chi2", 128), ("ellog", 256), ("member", 128), ("chi2", 256), ("chi2", 128),
)


def _lattice_request(slot: int, rng: random.Random, pool: List[PoolCurve],
                     wide: Optional[List[PoolCurve]] = None, **kw) -> dict:
    # families, curves and tiers rotate by slot; only the numbers are random
    family, digits = LATTICE_CYCLE[slot % len(LATTICE_CYCLE)]
    turn = slot // len(LATTICE_CYCLE)
    if family == "chi2" and digits == 128 and wide:
        pool = wide
    pc = pool[(slot + turn) % len(pool)]
    digits = kw.pop("digits", digits)
    if family == "chi2":
        return chi2_no_relation(pc, digits, **kw)
    if family == "member":
        # no Weierstrass function here, so fresh curves cost no warm-up and
        # each run averages the LLL over many lattices
        coeffs = rng.choice(((1, 0), (0, 1), (1, 1), (2, -1), (-1, 2)))
        return chi2_member(pool_curve(rng), pool_curve(rng), coeffs, digits, **kw)
    if family == "chi3":
        return chi3_constant_factor(pc, (rng.randint(2, 5), rng.randint(2, 7)), digits, **kw)
    if family == "ellog":
        return ellog(pc, (slot + turn) % 2 == 0, digits, **kw)
    if family == "torsion":
        return torsion(pc, turn % 2 == 1, digits, **kw)
    if family == "classify":
        return _classify_pair(rng, turn, digits, **kw)
    return relation(rng, (slot + turn) % 2 == 0, digits, **kw)


def _classify_pair(rng: random.Random, turn: int, digits: int, **kw) -> dict:
    """One pair per classifier regime, in turn; fresh curves for the generic ones."""
    pc = pool_curve(rng)
    kind = turn % 5
    if kind == 0:
        a = cm_curve(rng)
        return classify(a, twist(a, rng.choice((2, 3, -1))), digits, **kw)
    if kind == 1:
        return classify(pc.curve, cm_curve(rng), digits, **kw)
    if kind == 2:
        return classify((Fraction(20), Fraction(0)), (Fraction(0), Fraction(16)), digits, **kw)
    if kind == 3:
        return classify(pc.curve, twist(pc.curve, rng.choice((2, 3, -1, 5))), digits, **kw)
    while True:
        other = pool_curve(rng)
        if oracle.classify_expectation(pc.curve, other.curve):
            return classify(pc.curve, other.curve, digits, **kw)


# one cycle of the regulator stream. Six cheap exact requests lie below ten
# 64-digit loops, so the median falls inside the loops; the shrink list and
# the two 128-digit loops hold p90 and the 256-digit loop lies above it. 100
# samples take about 35 s, so a 30 s run runs on until it has them.
REGULATOR_CYCLE = (
    ("single", 64), ("tame", 64), ("single", 64), ("single", 128), ("single", 64),
    ("weil", 64), ("single", 64), ("shrink", 64), ("single", 64), ("kummer", 64),
    ("single", 64), ("single", 256), ("single", 64), ("tame", 64), ("single", 64),
    ("single", 128), ("single", 64), ("weil", 64), ("single", 64), ("kummer", 64),
)


def _regulator_request(slot: int, rng: random.Random, curves: List[PoolCurve], **kw) -> dict:
    # each numerical (family, digits) walks the loop shapes in a fixed order,
    # with a fresh seeded pair per request
    family, digits = REGULATOR_CYCLE[slot % len(REGULATOR_CYCLE)]
    if family in ("single", "shrink"):
        earlier = REGULATOR_CYCLE[: slot % len(REGULATOR_CYCLE)].count((family, digits))
        count = earlier + slot // len(REGULATOR_CYCLE) * REGULATOR_CYCLE.count((family, digits))
        digits = kw.pop("digits", digits)
        lp = loop_pair(rng, LOOP_SHAPES[(count + count // len(LOOP_SHAPES)) % len(LOOP_SHAPES)])
        if family == "shrink":
            return milnor_shrink(lp, ("1/10", "1/100"), digits, **kw)
        return milnor_single(lp, "1/10", digits, **kw)
    kw.pop("digits", None)
    if family == "tame":
        return tame(rng, digits, **kw)
    if family == "weil":
        return weil(rng, digits, **kw)
    p1, p2 = rng.sample(curves, 2)
    return kummer(p1, p2, digits, **kw)


def _warmup(stream: List[dict]) -> List[dict]:
    """One request of each (family, digits) shape, taken from the stream itself."""
    seen, out = set(), []
    for req in stream:
        shape = (req["family"], req["wire"]["config"]["digits"])
        if shape not in seen:
            seen.add(shape)
            out.append(req)
    return out


def build_lattice(seed: int, seconds: int) -> dict:
    # a chi2 request costs up to 1.7x more on one curve than on another, so a
    # tier's median averages over 6 curves at 256 digits and 16 at 128
    rng = random.Random(f"lattice:{seed}")
    pool = [pool_curve(rng, real) for real in (True, False) * 3]
    wide = pool + [pool_curve(rng, real) for real in (True, False) * 5]
    stream = [_lattice_request(i, rng, pool, wide) for i in range(120)]
    warm = _warmup(stream)
    # every curve at each tier it is used at, so the Laurent caches are warm
    warm += [ellog(pc, False, 128) for pc in wide] + [ellog(pc, False, 256) for pc in pool]
    return {"warmup": warm, "stream": stream}


# the regulator warm-up is the same on every seed, so set-up does the same
# work on every run. Its loop needs Gauss-Legendre degree 6, 7 and 8 at 64,
# 128 and 256 digits, the highest any stream loop needed in probes over seeds
# 1-3, so the timed phase generates no nodes; the traced run counts them.
WARM_LOOP = LoopPair(3, "(t^2 - 3)*1", "t + -3")


def build_regulator(seed: int, seconds: int) -> dict:
    rng = random.Random(f"regulator:{seed}")
    curves = [pool_curve(rng) for _ in range(4)]
    stream = [_regulator_request(i, rng, curves) for i in range(200)]
    warm = random.Random("regulator:warm-up")
    warmup = [milnor_single(WARM_LOOP, "1/10", d) for d in (64, 128, 256)]
    warmup += [milnor_shrink(WARM_LOOP, ("1/10", "1/100"), 64), tame(warm, 64), weil(warm, 64),
               kummer(pool_curve(warm), pool_curve(warm), 64)]
    return {"warmup": warmup, "stream": stream}


def preset_requests(cache_dir: Optional[str]) -> List[dict]:
    out = []
    for name, expect in PRESETS.items():
        if expect is None:
            expect = {"cases": [oracle.classify_expectation(*(tuple(map(Fraction, c)) for c in pair))
                                for pair in PRESET_CLASSIFY_PAIRS]}
        tiers = (64, 128) if name == "paper-9-loops" else LADDER
        for d in tiers:
            config = {"digits": d}
            if cache_dir is not None:
                config["cache_dir"] = cache_dir
            out.append({"family": name, "wire": {"preset": name, "config": config}, "expect": expect})
    return out


def build_cold_batch(seed: int, seconds: int, cache_dir: Optional[str] = None) -> dict:
    """All presets on the digits ladder plus freshly generated requests, most
    on curves seen once and a few on repeated curves, so the period cache
    both writes and hits."""
    rng = random.Random(f"cold-batch:{seed}")
    kw = {"cache_dir": cache_dir}
    batch = preset_requests(cache_dir)
    repeated = pool_curve(rng)
    for slot in range(2 * seconds):
        pc = repeated if slot % 3 == 0 else pool_curve(rng)
        batch.append(_lattice_request(slot, rng, [pc, pool_curve(rng)], digits=128, **kw))
        curves = [pool_curve(rng), pool_curve(rng)]
        batch.append(_regulator_request(slot, rng, curves, digits=(128, 64)[slot % 2], **kw))
    return {"warmup": [], "stream": batch}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lattice",
            why="warm process on a small curve pool at 128/256/512 digits: periods, the "
            "Weierstrass function, LLL with its doubled-precision recompute, and the invariants",
            loads="elliptic (weierstrass_p, elliptic_log, compute_periods), relations "
            "(lll_reduce, lattice_membership, amplify), invariants (chi2, chi3, classify)",
            bypasses="milnor is never called; Gauss-Legendre nodes stay warm",
            warm=True,
            build=build_lattice,
        ),
        Workload(
            name="regulator",
            why="warm process at 64/128/256 digits: loop quadrature, cut-crossing detection "
            "and Milnor regulators, plus the exact symbol algebra",
            loads="numkernel (integrate_path, detect_crossings), milnor (regulator_eval, "
            "tame_symbol, weil_reciprocity_check), cycles (kummer_pushpull)",
            bypasses="elliptic is never called and relations sees only 1-generator LLLs, so "
            "every lattice-side change is predicted not to move this workload",
            warm=True,
            build=build_regulator,
        ),
        Workload(
            name="cold-batch",
            why="one fresh `haj --stdio --jobs 2` batch with a fresh period cache: import, node "
            "generation, exact Laurent coefficients and periods paid in every process",
            loads="every layer cold, the per-request Session, the worker pool and the disk cache",
            bypasses="nothing warm: no cache survives from an earlier run",
            warm=False,
            build=build_cold_batch,
        ),
    )
}
