"""Tests of the benchmark itself: generators, span arithmetic and the oracle."""

from __future__ import annotations

import json
import pathlib
import random
from fractions import Fraction

import pytest

import oracle
import tracer
from workloads import (PRESETS, WORKLOADS, _factored, build_cold_batch, build_lattice,
                       build_regulator, pool_curve)

F = Fraction


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", [build_lattice, build_regulator])
def test_warm_generators_are_deterministic_per_seed(build):
    first, again, other = build(7, 30), build(7, 30), build(8, 30)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first["stream"]) != json.dumps(other["stream"])
    assert first["warmup"] and len(first["stream"]) >= 100


def test_regulator_warm_up_is_the_same_on_every_seed():
    assert json.dumps(build_regulator(1, 30)["warmup"]) == json.dumps(build_regulator(2, 30)["warmup"])


def test_cold_batch_is_deterministic_and_carries_every_preset():
    first = build_cold_batch(3, 10, cache_dir="cache")
    assert json.dumps(first) == json.dumps(build_cold_batch(3, 10, cache_dir="cache"))
    presets = {r["wire"].get("preset") for r in first["stream"]} - {None}
    assert presets == set(PRESETS)
    assert all(r["wire"]["config"]["cache_dir"] == "cache" for r in first["stream"])


def test_requests_carry_no_expectation_on_the_wire():
    for name, wl in WORKLOADS.items():
        plan = wl.build(1, 10) if wl.warm else wl.build(1, 10, cache_dir="c")
        for req in plan["warmup"] + plan["stream"]:
            assert "expect" not in req["wire"] and req["expect"]


def test_pool_curves_are_admissible():
    rng = random.Random(0)
    for _ in range(20):
        pc = pool_curve(rng)
        g2, g3 = pc.curve
        assert oracle.discriminant(g2, g3) != 0
        assert oracle.on_curve(pc.point, g2, g3) and oracle.on_curve(pc.two_torsion, g2, g3)
        assert oracle.torsion_order(pc.point, g2) is None
        assert oracle.torsion_order(pc.two_torsion, g2) == 2


def test_planted_relations_hold_exactly_in_the_decimals_sent():
    for req in build_lattice(5, 30)["stream"]:
        if req["family"] == "relation" and "relation" in req["expect"]:
            xs = [F(x) for x in req["wire"]["xs"]]
            assert sum(c * x for c, x in zip(req["expect"]["relation"], xs)) == 0


def test_tame_expectations_satisfy_weil_reciprocity():
    # with linear factors only, every place is rational or infinite, so the
    # product of the oracle's symbols over all places must be 1
    rng = random.Random(3)
    for _ in range(50):
        f, g = _factored(rng, list(range(-4, 5))), _factored(rng, list(range(-4, 5)))
        product = oracle.tame_symbol(f, g, "inf")
        for place in set(f[1]) | set(g[1]):
            product *= oracle.tame_symbol(f, g, place)
        assert product == 1


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def _span(name, start, end, parent, digits=128, extra=None):
    return [name, start, end, parent, 0, digits, extra]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        _span("cli.run_op", 0.0, 10.0, -1, extra=[]),
        _span("invariants.chi2_box", 1.0, 4.0, 0),
        _span("elliptic.weierstrass_p", 2.0, 3.0, 1),
        _span("relations.lattice_membership", 5.0, 9.0, 0, extra=True),
        _span("invariants.chi2_box", 6.0, 8.5, 3),
        _span("relations.lll_reduce", 8.5, 8.75, 3, extra=12),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 1.25, 2.5, 0.25]
    m = tracer.layer_metrics(spans, wall=12.0, verdicts=6)
    assert m["trace.self_sum_s"] == 10.0
    assert m["trace.untraced_s"] == 2.0
    assert m["trace.verdicts_per_s"] == 0.5
    # the chi2 recompute under the membership test is the amplification layer
    assert m["invariants.chi2_box.calls"] == 1 and m["relations.amplify.calls"] == 1
    assert m["relations.amplify.self_s"] == 2.5
    assert m["relations.amplify.accept_ratio"] == 1.0
    assert m["elliptic.weierstrass_p.self_s.d128"] == 1.0
    assert m["relations.lll_reduce.max_entry_bits"] == 12
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_self == pytest.approx(m["trace.self_sum_s"])


def test_metric_names_cover_every_layer_once():
    names = tracer.metric_names()
    assert len(names) == len(set(names))
    benchmark = json.loads((pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == {
        name: tracer.metric_unit(name) for name in names}


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_exact_torsion_orders():
    assert oracle.torsion_order((F(-1), F(4)), F(20)) is None  # paper-14's point
    assert oracle.torsion_order((F(0), F(0)), F(20)) == 2
    assert oracle.torsion_order((F(2), F(6)), F(0)) == 6  # y^2 = x^3 + 1 scaled


def test_classify_expectations_of_the_bundled_pairs():
    pairs = [((F(20), F(0)), (F(20), F(0))), ((F(20), F(0)), (F(8), F(1))),
             ((F(20), F(0)), (F(0), F(16))), ((F(8), F(1)), (F(12), F(5)))]
    assert [oracle.classify_expectation(a, b) for a, b in pairs] == [
        "RankFourCM_Unconditional",
        "OneFactorCM_Unconditional",
        "OneFactorCM_Unconditional",
        "NonIsogenousNonCM_Conditional",
    ]
    generic = (F(8), F(1))
    assert oracle.classify_expectation(generic, (F(8 * 4), F(8))) == "IsogenousNonCM_Unconditional"


def test_check_compares_verdicts_and_exact_fields():
    ok = {"result": {"verdict": "Member", "membership": {"amplified": True}}}
    assert oracle.check({"verdict": "Member", "amplified": True}, ok, 128) is None
    assert "amplified" in oracle.check({"verdict": "Member", "amplified": True},
                                       {"result": {"verdict": "Member", "membership": {}}}, 128)
    assert "error" in oracle.check({"verdict": "Holds"}, {"error": {"type": "X", "message": "m"}}, 64)
    rel = {"result": {"verdict": "RelationFound", "relation": {"coefficients": ["-2", "-6", "2"]}}}
    assert oracle.check({"verdict": "RelationFound", "relation": [1, 3, -1]}, rel, 64) is None
    assert oracle.check({"verdict": "RelationFound", "relation": [1, 2, -1]}, rel, 64)
    half = {"result": {"lattice_coords": {"s": "-0.5", "t": "0.0"}}}
    assert oracle.check({"half_period": True}, half, 64) is None
    assert oracle.check({"half_period": False}, half, 64)


def test_check_reports_malformed_documents_as_failures():
    assert "malformed" in oracle.check({"half_period": True}, {"result": {"lattice_coords": {}}}, 64)
    assert "malformed" in oracle.check({"value": "2"}, {"result": {"value": "nan"}}, 64)
    assert "malformed" in oracle.check({"verdict": "Holds"}, {"result": None}, 64)


def test_oracle_agrees_with_the_package_on_a_small_sample():
    cli = pytest.importorskip("haj.cli")
    plan = build_lattice(11, 10)
    sample = [r for r in plan["stream"] if r["family"] in ("torsion", "relation", "classify")][:6]
    sample += [r for r in build_regulator(11, 10)["stream"] if r["family"] in ("tame", "kummer")][:4]
    for req in sample:
        wire = json.loads(json.dumps(req["wire"]))
        op = wire.pop("op")
        wire["config"]["digits"] = 64 if op != "relation" else wire["config"]["digits"]
        cfg = cli.RunConfig.from_mapping(wire.pop("config"))
        doc, code, _ = cli.run_op(op, cfg, wire)
        assert code == 0 and oracle.check(req["expect"], doc, cfg.digits) is None, doc
