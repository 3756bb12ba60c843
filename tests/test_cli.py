"""Command line adapters: envelopes, presets, cache, stdio, exit codes."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner
from mpmath import mp

from haj.cli import (
    PRESET_NAMES,
    PeriodCacheEntry,
    RunConfig,
    SchemaError,
    _cache_path,
    _loop_from,
    _pool_size,
    _rf_from,
    load_preset,
    main,
    render_doc,
    run_op,
)
from haj.elliptic import _BASIS_RULE, EllipticCurve, PeriodLatticeData, compute_periods
from haj.numkernel import PrecisionCtx


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    return result


def doc_of(result):
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# config and envelope
# ---------------------------------------------------------------------------


def test_run_config_validation():
    cfg = RunConfig()
    assert cfg.digits == 128
    assert cfg.max_height == 10**4
    assert cfg.max_den == 10**3
    assert cfg.torsion_bound == 16
    with pytest.raises(SchemaError) as err:
        RunConfig(digits=16)
    assert err.value.path == "config.digits"
    for field in ("max_height", "max_den", "torsion_bound"):
        with pytest.raises(SchemaError):
            RunConfig(**{field: 0})
    with pytest.raises(SchemaError):
        RunConfig(output_format="yaml")
    with pytest.raises(SchemaError):
        RunConfig.from_mapping({"unknown_knob": 3})


def test_envelope_shape_and_determinism(runner):
    args = ["periods", "--g2", "20", "--g3", "0", "--digits", "64"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.exit_code == 0
    # byte-identical reruns, schema-first envelope, no run metadata inside
    assert first.output == second.output
    doc = doc_of(first)
    assert set(doc) == {"schema", "command", "config", "inputs", "result"}
    assert doc["schema"] == "haj/1"
    assert doc["command"] == "periods"
    assert doc["config"] == {
        "digits": 64,
        "max_height": 10000,
        "max_den": 1000,
        "torsion_bound": 16,
    }
    assert first.output == render_doc(doc, "json")


def test_periods_square_lattice(runner):
    result = invoke(runner, ["periods", "--g2", "20", "--g3", "0", "--digits", "64"])
    doc = doc_of(result)
    with mp.workdps(80):
        tau = mp.mpc(doc["result"]["tau"]["re"], doc["result"]["tau"]["im"])
        assert abs(tau - mp.mpc(0, 1)) < mp.mpf("1e-50")


def test_text_format(runner):
    result = invoke(
        runner,
        ["periods", "--g2", "20", "--g3", "0", "--digits", "48", "--format", "text"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert "command = periods" in lines
    assert "config.digits = 48" in lines
    assert any(line.startswith("result.tau.im = 1.0") for line in lines)


def test_env_overrides(runner):
    result = invoke(
        runner,
        ["periods", "--g2", "20", "--g3", "0"],
        env={"HAJ_DIGITS": "48", "HAJ_FORMAT": "text"},
    )
    assert "config.digits = 48" in result.output.splitlines()


def test_no_subcommand_prints_help(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert "Commands:" in result.output


# ---------------------------------------------------------------------------
# schema and module errors
# ---------------------------------------------------------------------------


def test_schema_error_paths(runner):
    result = invoke(runner, ["periods", "--g2", "20", "--g3", "abc"])
    assert result.exit_code == 2
    err = doc_of(result)["error"]
    assert err["type"] == "schema"
    assert err["field"] == "inputs.curve.g3"

    result = invoke(runner, ["chi2", "--preset", "nope"])
    assert result.exit_code == 2
    assert doc_of(result)["error"]["field"] == "preset"

    result = invoke(runner, ["chi2"])
    assert result.exit_code == 2
    assert "needs --preset or --input" in doc_of(result)["error"]["message"]

    result = invoke(runner, ["periods", "--g2", "20", "--g3", "0", "--digits", "16"])
    assert result.exit_code == 2
    assert doc_of(result)["error"]["field"] == "config.digits"

    result = invoke(runner, ["tame", "--f", "t", "--g", "t", "--place", "t^2-1"])
    assert result.exit_code == 2
    assert doc_of(result)["error"]["field"] == "inputs.place"


def test_module_error_hints(runner):
    # degenerate curve: evaluator error, exit 1, remediation hint
    result = invoke(runner, ["periods", "--g2", "0", "--g3", "0"])
    assert result.exit_code == 1
    err = doc_of(result)["error"]
    assert err["type"] == "DegenerateCurve"
    assert "g2" in err["hint"]

    # f(1) = -1 lands exactly on the branch cut: refused, not averaged over
    result = invoke(
        runner,
        ["milnor-reg", "--f", "t^2-2", "--g", "t+1", "--center", "0",
         "--radius", "1", "--digits", "48"],
    )
    assert result.exit_code == 1
    err = doc_of(result)["error"]
    assert "perturb" in err["hint"] or "cut" in err["hint"]

    # a regulator entry past the degree cap is refused before any root finding
    result = invoke(
        runner,
        ["milnor-reg", "--f", "t^60", "--g", "t-3", "--center", "1/10",
         "--radius", "1", "--digits", "48"],
    )
    assert result.exit_code == 1
    err = doc_of(result)["error"]
    assert err["type"] == "StratificationOverflow"
    assert "lower-degree" in err["hint"]

    # the loop passes 0.023 from the zero of g at -1/2, a distance ratio of
    # 1.015: the check's trapezoid rule would need 7700 nodes, above its budget
    # whatever --digits is, so the hint moves the loop instead
    result = invoke(
        runner,
        ["milnor-reg", "--f", "(t+4)/(t+2)", "--g", "(t+1/2)*(t-1)",
         "--center", "-2,0.4", "--radius", "153/100", "--digits", "64"],
    )
    assert result.exit_code == 1
    err = doc_of(result)["error"]
    assert err["type"] == "QuadratureStall"
    assert "move the loop" in err["hint"]

    # point off the curve is a schema problem with the field path
    result = invoke(runner, ["ellog", "--g2", "20", "--g3", "0", "--x", "1", "--y", "1"])
    assert result.exit_code == 2
    assert doc_of(result)["error"]["field"] == "inputs.point"


def test_loop_near_a_zero_answers_where_quadrature_stalled(runner):
    # 0.05 from the zero of g at -1/2 (distance ratio 1.035) adaptive
    # Gauss-Legendre stalled; the trapezoid rule answers with 4096 nodes. Only
    # the pole of f at -2 lies inside, where the tame symbol is 1/g(-2) = 2/9.
    result = invoke(
        runner,
        ["milnor-reg", "--f", "(t+4)/(t+2)", "--g", "(t+1/2)*(t-1)",
         "--center", "-2,0.4", "--radius", "3/2", "--digits", "64"],
    )
    assert result.exit_code == 0
    value = doc_of(result)["result"]["regulator"]["value"]
    with mp.workdps(64):
        assert abs(mp.mpf(value["im"]) + 2 * mp.pi * mp.log(mp.mpf(2) / 9)) < mp.mpf("1e-60")
        k = mp.mpf(value["re"]) / (-4 * mp.pi**2)
        assert abs(k - mp.nint(k)) < mp.mpf("1e-60")


def test_root_of_center_is_the_root_nearest_the_seed(runner):
    # 1.04 lies nearer 1 than 11/10, and 1.06 nearer 11/10; a double root
    # beside the seed does not change which root is nearest
    ctx = PrecisionCtx(48)
    request = {"op": "milnor-reg", "config": {"digits": 48}, "f": "t - 1", "g": "t + 5",
               "radius": "1/100"}
    for root_of, near, root in (("(t-1)*(t-11/10)*(t+3)", "1.04", "1"),
                                ("(t-1)*(t-11/10)*(t+3)", "1.06", "1.1"),
                                ("(t-1)*(t-5)^2", "1.04", "1")):
        request["center"] = {"root_of": root_of, "near": near}
        with ctx.work():
            assert abs(_loop_from(request, ctx).center - mp.mpf(root)) < ctx.tol
        result = runner.invoke(main, ["--stdio"], input=json.dumps(request) + "\n")
        assert result.exit_code == 0


def test_root_of_center_needs_no_newton_iteration(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.findroot called")

    monkeypatch.setattr(mp, "findroot", refuse)
    args = {"f": "t - 1", "g": "t + 5", "radius": "1/100",
            "center": {"root_of": "(t-1)*(t-11/10)*(t+3)", "near": "1.01"}}
    doc, code, _ = run_op("milnor-reg", RunConfig.from_mapping({"digits": 48}), args)
    assert code == 0 and "error" not in doc


def test_shrink_mode_resolves_the_root_of_center_once(monkeypatch):
    import haj.cli as cli

    calls = []
    real = cli.poly_roots
    monkeypatch.setattr(cli, "poly_roots", lambda c, ctx: calls.append(c) or real(c, ctx))
    args = {"f": "t^2 - 3", "g": "t + 1", "radii": ["1/10", "1/100"],
            "center": {"root_of": "t^2 - 3", "near": "1.7"}}
    doc, code, _ = run_op("milnor-reg", RunConfig.from_mapping({"digits": 48}), args)
    assert code == 0 and len(doc["result"]["loops"]) == 2
    assert len(calls) == 1


def test_root_of_center_on_a_double_root(runner):
    # the root finder runs on the squarefree part (t - 1)(t + 3), so the
    # double root at 1 is found from either seed
    ctx = PrecisionCtx(48)
    request = {"op": "milnor-reg", "config": {"digits": 48}, "f": "t - 1", "g": "t + 5",
               "radius": "1/100"}
    for near in ("1.01", "1.04"):
        request["center"] = {"root_of": "(t-1)^2*(t+3)", "near": near}
        with ctx.work():
            assert abs(_loop_from(request, ctx).center - 1) < ctx.tol
        result = runner.invoke(main, ["--stdio"], input=json.dumps(request) + "\n")
        assert result.exit_code == 0
    request["center"] = {"root_of": "5", "near": "1"}
    result = runner.invoke(main, ["--stdio"], input=json.dumps(request) + "\n")
    assert result.exit_code == 2
    assert _stdio_lines(result)[0]["error"]["field"] == "inputs.center.root_of"


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


# sha256 of each preset's rendered document, so that no refactor moves a
# verdict byte unnoticed; a change meant to move one updates its entry here
FROZEN = {
    ("paper-14", 64): "9175fa8e3b2648da5d9d655e8e79d9c106b2387a9be73afb383af366c0bc43cf",
    ("paper-14", 128): "c61d3e23163c85631c49134a9086d3b772c59d7472f026abbad51efb546e2363",
    ("paper-16-rem3", 64): "1135a0dda8e39351645df4aa6d5ea409b5e4456756e81026b99a87d413bb0e07",
    ("paper-16-rem3", 128): "627f05022cedf09db089ce39c3c9ea8dd4f8725a2639c10dab573de3ef96e1a7",
    ("paper-16-classify", 64): "9b2691be0471dbf252a0e50aa301146a67b72889b90850841ba63e2cac3f6bdd",
    ("paper-16-classify", 128): "63ab43c276f85a75bac4340872ac750d56fdcf314296f00781db8d117f0d363f",
    ("paper-17", 48): "9c31a6926a89d3d8730f1c64c76d6aba547a671d5657f44ba24fe74013504c12",
    ("paper-17", 64): "751224001cc2f67b7b8fb9f0eb2a518001b59b6bcb5adbaea7444cf5f236f93d",
    ("paper-17", 128): "3d908ed78d00744c954e8c72789a6edc4f9a5a51fc3b4cdbd511a76ba713c53c",
    ("paper-9-loops", 48): "3d40c4eaf525f1c8bfe0297dc055bdb634efacf10463f569063ec63f8d9cc14f",
    ("paper-9-loops", 64): "a37b262f5b476baef063c30b2481543fe520f6204c160d782c25460ed6be0b7e",
    ("paper-9-loops", 128): "27d68d01eb8f94265d4e320f57ce7766b3ab51e3f511d3adbf80f33a1e148f08",
}


def run_frozen(runner, op, preset, digits):
    """Run a preset and check its document against the frozen sha256."""
    result = invoke(runner, [op, "--preset", preset, "--digits", str(digits)])
    assert result.exit_code == 0
    assert hashlib.sha256(result.output.encode()).hexdigest() == FROZEN[(preset, digits)]
    return result


def assert_frozen_ladder(runner, op, preset):
    for digits in (64, 128):
        run_frozen(runner, op, preset, digits)


def test_presets_load_and_name_their_op():
    ops = {
        "paper-14": "chi2",
        "paper-16-rem3": "chi2",
        "paper-16-classify": "classify",
        "paper-17": "kummer-check",
        "paper-9-loops": "milnor-reg",
    }
    assert set(PRESET_NAMES) == set(ops)
    for name, op in ops.items():
        doc = load_preset(name)
        assert doc["op"] == op


def test_chi2_preset_nontorsion_family(runner):
    # the height budget needs 1.5 * 9 * log10(maxHeight) = 54 digits here
    result = run_frozen(runner, "chi2", "paper-14", 64)
    res = doc_of(result)["result"]
    assert res["verdict"] == "NoRelationUpTo"
    assert res["membership"]["conclusive"] is False
    assert res["chi2"]["method"] == "Both"
    assert any(n.startswith("route agreement") for n in res["chi2"]["notes"])
    run_frozen(runner, "chi2", "paper-14", 128)


def test_chi2_preset_cm_marker(runner):
    result = run_frozen(runner, "chi2", "paper-16-rem3", 64)
    res = doc_of(result)["result"]
    assert res["verdict"] == "Member"
    assert res["membership"]["amplified"] is True
    assert res["membership"]["coefficients"] == [
        "-1/1", "0/1", "0/1", "0/1", "0/1", "0/1", "1/1", "0/1",
    ]
    run_frozen(runner, "chi2", "paper-16-rem3", 128)


def test_chi2_no_reduce_flag(runner):
    result = invoke(
        runner, ["chi2", "--preset", "paper-14", "--digits", "48", "--no-reduce"]
    )
    res = doc_of(result)["result"]
    assert "membership" not in res
    assert "verdict" not in res
    assert "chi2" in res


def test_classify_preset_regimes(runner):
    result = run_frozen(runner, "classify", "paper-16-classify", 64)
    res = doc_of(result)["result"]
    assert res["cases"] == [
        "RankFourCM_Unconditional",
        "OneFactorCM_Unconditional",
        "OneFactorCM_Unconditional",
        "NonIsogenousNonCM_Conditional",
    ]
    assert res["pairs"][0]["classification"]["cm"][0]["relation"] == [1, 0, 1]
    assert res["pairs"][3]["classification"]["isogeny"]["relation"] is None
    run_frozen(runner, "classify", "paper-16-classify", 128)


def test_kummer_preset_exact(runner):
    result = run_frozen(runner, "kummer-check", "paper-17", 48)
    res = doc_of(result)["result"]
    assert res["verdict"] == "Holds"
    assert res["exact"] is True
    # (o, o) appears in both mirror copies, so the sum has 7 distinct terms
    assert len(res["pushpull"]["terms"]) == 7
    coeffs = {
        tuple(sym["kind"] for sym in term["tuple"]): term["coeff"]
        for term in res["pushpull"]["terms"]
    }
    assert coeffs[("base", "base")] == "2/1"
    assert_frozen_ladder(runner, "kummer-check", "paper-17")


def test_shrink_preset_envelope(runner):
    result = run_frozen(runner, "milnor-reg", "paper-9-loops", 48)
    res = doc_of(result)["result"]
    assert res["verdict"] == "WithinEnvelope"
    assert [l["radius"] for l in res["loops"]] == ["1/10", "1/100", "1/1000"]
    for loop in res["loops"]:
        assert loop["shrink"]["within_envelope"] is True
        assert loop["shrink"]["snap"] == "0/1"
        assert len(loop["regulator"]["crossings"]) == 1
    with mp.workdps(60):
        assert mp.mpf(res["loops"][1]["shrink"]["defect"]) < mp.mpf("1e-3")
    assert_frozen_ladder(runner, "milnor-reg", "paper-9-loops")


# ---------------------------------------------------------------------------
# point commands
# ---------------------------------------------------------------------------


def test_ellog_reports_lattice_coords(runner):
    result = invoke(
        runner, ["ellog", "--g2", "20", "--g3", "0", "--x", "-1", "--y", "4", "--digits", "48"]
    )
    res = doc_of(result)["result"]
    with mp.workdps(60):
        s = mp.mpf(res["lattice_coords"]["s"])
        t = mp.mpf(res["lattice_coords"]["t"])
        assert -0.5 <= s < 0.5 and -0.5 <= t < 0.5
        xi = mp.mpc(res["xi"]["re"], res["xi"]["im"])
        assert abs(xi) > 0.1


def test_torsion_verdicts(runner):
    result = invoke(
        runner, ["torsion", "--g2", "20", "--g3", "0", "--x", "0", "--y", "0", "--digits", "48"]
    )
    res = doc_of(result)["result"]
    assert res["verdict"] == "Torsion"
    assert res["order"] == 2

    result = invoke(
        runner, ["torsion", "--g2", "20", "--g3", "0", "--x", "-1", "--y", "4", "--digits", "48"]
    )
    assert result.exit_code == 0  # a bounded negative is a computed verdict
    res = doc_of(result)["result"]
    assert res["verdict"] == "NotTorsionUpTo"
    assert res["log_evidence"]["verdict"] == "no-relation-up-to"


def test_psi2_verdicts(runner):
    result = invoke(
        runner, ["psi2", "--g2", "20", "--g3", "0", "--x", "-1", "--y", "4", "--digits", "48"]
    )
    res = doc_of(result)["result"]
    assert res["verdict"] == "Nontrivial"
    assert "Mazur" in res["decision"]["citation"]

    result = invoke(
        runner, ["psi2", "--g2", "20", "--g3", "0", "--x", "0", "--y", "0", "--digits", "48"]
    )
    res = doc_of(result)["result"]
    assert res["verdict"] == "ZeroClass"
    assert res["decision"]["certificate"]["torsion_order"] == 2


# ---------------------------------------------------------------------------
# function-field commands
# ---------------------------------------------------------------------------


def test_tame_values(runner):
    result = invoke(runner, ["tame", "--f", "t", "--g", "1-t", "--place", "0"])
    assert doc_of(result)["result"]["value"] == "1"

    result = invoke(
        runner, ["tame", "--f", "t^3/(t-1)", "--g", "(2*t+1)^2", "--place", "-1/2"]
    )
    assert doc_of(result)["result"]["value"] == "144"

    result = invoke(runner, ["tame", "--f", "t^3/(t-1)", "--g", "(2*t+1)^2", "--place", "inf"])
    assert doc_of(result)["result"]["value"] == "1/16"

    result = invoke(runner, ["tame", "--f", "t^2+1", "--g", "t-3", "--place", "t^2+1"])
    value = doc_of(result)["result"]["value"]
    assert value["modulus"] == ["1", "0", "1"]
    assert value["residue"] == ["-3", "1"]


def test_weil_single_pair(runner):
    result = invoke(
        runner,
        ["weil", "--f", "(t^2+1)*(t-2)/(t+3)", "--g", "(t^3-t-1)/(2*t-5)"],
    )
    res = doc_of(result)["result"]
    assert res["verdict"] == "Holds"
    assert res["product"] == "1"
    assert len(res["places"]) == 6


def test_weil_random_batch_is_seeded(runner):
    args = ["weil", "--random", "15", "--seed", "7", "--max-deg", "3", "--digits", "48"]
    first = invoke(runner, args)
    second = invoke(runner, args)
    assert first.output == second.output
    res = doc_of(first)["result"]
    assert res["verdict"] == "Holds"
    assert res["trials"] == 15
    assert len(res["checks"]) == 15
    assert res["violations"] == []


def test_milnor_reg_single_loop(runner):
    result = invoke(
        runner,
        ["milnor-reg", "--f", "t^2-2", "--g", "t+1", "--center", "5",
         "--radius", "1/2", "--digits", "48"],
    )
    res = doc_of(result)["result"]
    assert res["verdict"] == "Member"
    assert res["regulator"]["indeterminacy"]["coefficients"] == ["0/1"]
    assert res["regulator"]["crossings"] == []


def test_relation_search_and_membership(runner, tmp_path):
    with mp.workdps(60):
        root2 = mp.nstr(mp.sqrt(2), 55)
    result = invoke(
        runner,
        ["relation", "--xs", f"1,{root2},2", "--digits", "48", "--max-height", "10"],
    )
    res = doc_of(result)["result"]
    assert res["verdict"] == "RelationFound"
    assert res["relation"]["coefficients"] == ["2", "0", "-1"]

    # no relation within the height budget is still a computed verdict
    result = invoke(
        runner,
        ["relation", "--xs", f"1,{root2}", "--digits", "48", "--max-height", "10"],
    )
    assert result.exit_code == 0
    assert doc_of(result)["result"]["verdict"] == "NoRelationUpTo"

    payload = {"v": ["3/2"], "gens": [["1/2"]]}
    path = tmp_path / "member.json"
    path.write_text(json.dumps(payload))
    result = invoke(runner, ["relation", "--input", str(path), "--digits", "48"])
    res = doc_of(result)["result"]
    assert res["verdict"] == "Member"
    assert res["membership"]["coefficients"] == ["3/1"]


def test_chi3_input_file(runner, tmp_path):
    payload = {
        "source": {"g2": "20", "g3": "0", "label": "E1"},
        "maps": [
            {"multiplier": 1, "translation": "0"},
            {"multiplier": [1, 0], "multiplier2": 1, "translation": "0"},
            {"multiplier": 0, "multiplier2": 1, "translation": {"periods": ["1/3", "0"]}},
        ],
    }
    path = tmp_path / "chi3.json"
    path.write_text(json.dumps(payload))
    result = invoke(runner, ["chi3", "--input", str(path), "--digits", "48"])
    assert result.exit_code == 0
    res = doc_of(result)["result"]
    assert res["verdict"] == "Evaluated"
    assert res["chi3"]["method"] == "StratifiedCurrent"
    assert len(res["chi3"]["lattice_generators"]) == 8


def test_chi2_member_on_a_rhombic_lattice_survives_amplification():
    # (g2, g3) = (8, -16) has Re(tau) = -1/2 exactly; the doubled-precision
    # recompute must see the same basis, or it rejects the planted member
    args = {"source": {"g2": "8", "g3": "-16", "label": "E"},
            "maps": [{"multiplier": 1, "translation": "0"},
                     {"multiplier": 0, "target": {"g2": "13", "g3": "-9", "label": "F"},
                      "translation": {"periods": ["2", "-1"]}}],
            "method": "Both"}
    doc, code, _ = run_op("chi2", RunConfig.from_mapping({"digits": 256}), args)
    assert code == 0
    assert doc["result"]["verdict"] == "Member"
    assert doc["result"]["membership"]["amplified"] is True


# ---------------------------------------------------------------------------
# period cache
# ---------------------------------------------------------------------------


def test_cache_hit_is_byte_identical(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["periods", "--g2", "20", "--g3", "0", "--digits", "48",
            "--cache-dir", str(cache)]
    cold = invoke(runner, args)
    assert cold.exit_code == 0
    files = list(cache.glob("periods-*.json"))
    assert len(files) == 1
    hit = invoke(runner, args)
    assert hit.output == cold.output

    # and the cache must be transparent: no cache, same bytes
    bare = invoke(runner, ["periods", "--g2", "20", "--g3", "0", "--digits", "48"])
    assert bare.output == cold.output


def test_cache_entry_roundtrip_and_checksum(runner, tmp_path):
    cache = tmp_path / "cache"
    args = ["periods", "--g2", "8", "--g3", "1", "--digits", "48",
            "--cache-dir", str(cache)]
    cold = invoke(runner, args)
    path = next(cache.glob("periods-*.json"))
    entry = PeriodCacheEntry.from_json(json.loads(path.read_text()))
    assert entry.verify()
    assert entry.key == {"g2": "8", "g3": "1", "digits": 48, "basis": _BASIS_RULE}

    # tampering breaks the checksum; the entry is rejected and rebuilt
    doc = entry.to_json()
    doc["payload"]["omega_alpha"]["re"][0] += 2
    path.write_text(json.dumps(doc))
    rescued = invoke(runner, args)
    assert rescued.output == cold.output
    assert PeriodCacheEntry.from_json(json.loads(path.read_text())).verify()


def test_cache_is_byte_transparent_on_write_and_hit(runner, tmp_path):
    # paper-14's chi2 has components that are zero, printed as rounding noise
    # below 10^-digits; an exact cache keeps that noise identical
    cache = tmp_path / "cache"
    args = ["chi2", "--preset", "paper-14", "--digits", "64"]
    bare = invoke(runner, args)
    assert bare.exit_code == 0
    manifest = tmp_path / "run.json"
    for event in ("cache-write", "cache-hit"):
        cached = invoke(runner, args + ["--cache-dir", str(cache), "--manifest", str(manifest)])
        assert all(e.startswith(event) for e in json.loads(manifest.read_text())["cache_events"])
        assert cached.output == bare.output


def test_decimal_cache_entry_is_never_served(runner, tmp_path):
    # an entry in the earlier decimal encoding, with a valid checksum, is
    # rejected and rewritten, not parsed and not a crash
    cache = tmp_path / "cache"
    cache.mkdir()
    curve, ctx = EllipticCurve(8, 1), PrecisionCtx(48)
    lat = compute_periods(curve, ctx)
    key = PeriodCacheEntry.build(curve, lat, 48).key
    with mp.workdps(68):
        payload = {name: {"re": mp.nstr(w.real, 68), "im": mp.nstr(w.imag, 68)}
                   for name, w in (("omega_alpha", lat.omega_alpha), ("omega_beta", lat.omega_beta))}
    decimal = PeriodCacheEntry(key, payload, PeriodCacheEntry._digest(key, payload))
    assert decimal.verify() and not decimal.revalidate(curve, ctx)
    _cache_path(cache, key).write_text(json.dumps(decimal.to_json()))

    manifest = tmp_path / "run.json"
    args = ["periods", "--g2", "8", "--g3", "1", "--digits", "48"]
    result = invoke(runner, args + ["--cache-dir", str(cache), "--manifest", str(manifest)])
    assert result.exit_code == 0
    events = json.loads(manifest.read_text())["cache_events"]
    assert events[0].startswith("cache-rejected") and events[1].startswith("cache-write")
    assert result.output == invoke(runner, args).output
    rewritten = PeriodCacheEntry.from_json(json.loads(_cache_path(cache, key).read_text()))
    assert rewritten.verify() and rewritten.revalidate(curve, ctx)


def test_cache_entry_without_the_basis_rule_is_never_served(runner, tmp_path):
    # an entry keyed by (g2, g3, digits) alone may hold another basis of the
    # same lattice, which passes revalidation; here (wa, wa + wb)
    cache = tmp_path / "cache"
    cache.mkdir()
    curve, ctx = EllipticCurve(8, -16), PrecisionCtx(48)
    lat = compute_periods(curve, ctx)
    with ctx.work():
        other = PeriodLatticeData(curve, lat.omega_alpha, lat.omega_alpha + lat.omega_beta, 48)
    built = PeriodCacheEntry.build(curve, other, 48)
    old_key = {k: v for k, v in built.key.items() if k != "basis"}
    stale = PeriodCacheEntry(old_key, built.payload, PeriodCacheEntry._digest(old_key, built.payload))
    assert stale.verify() and stale.revalidate(curve, ctx)
    _cache_path(cache, old_key).write_text(json.dumps(stale.to_json()))

    manifest = tmp_path / "run.json"
    args = ["periods", "--g2", "8", "--g3", "-16", "--digits", "48"]
    result = invoke(runner, args + ["--cache-dir", str(cache), "--manifest", str(manifest)])
    events = json.loads(manifest.read_text())["cache_events"]
    assert any(e.startswith("cache-write") for e in events)
    assert not any(e.startswith("cache-hit") for e in events)
    assert result.output == invoke(runner, args).output


def test_manifest_carries_metadata_not_verdict(runner, tmp_path):
    cache = tmp_path / "cache"
    manifest = tmp_path / "run.json"
    args = ["periods", "--g2", "20", "--g3", "0", "--digits", "48",
            "--cache-dir", str(cache), "--manifest", str(manifest)]
    first = invoke(runner, args)
    meta = json.loads(manifest.read_text())
    assert meta["schema"] == "haj/1-manifest"
    assert meta["exit_code"] == 0
    assert any(e.startswith("cache-write") for e in meta["cache_events"])
    assert "written_at" in meta and "elapsed_seconds" in meta
    # the verdict document itself stays free of metadata
    assert "written_at" not in first.output
    second = invoke(runner, args)
    assert second.output == first.output
    assert any(
        e.startswith("cache-hit") for e in json.loads(manifest.read_text())["cache_events"]
    )


# ---------------------------------------------------------------------------
# stdio batch mode
# ---------------------------------------------------------------------------


def _stdio_lines(result):
    return [json.loads(line) for line in result.output.splitlines() if line.strip()]


def test_stdio_requests(runner):
    requests = "\n".join(
        [
            json.dumps({"op": "periods", "config": {"digits": 48},
                        "curve": {"g2": "20", "g3": "0"}}),
            json.dumps({"op": "torsion", "config": {"digits": 48},
                        "curve": {"g2": "20", "g3": "0"}, "point": {"x": "0", "y": "0"}}),
            json.dumps({"op": "kummer-check", "preset": "paper-17"}),
        ]
    )
    result = runner.invoke(main, ["--stdio"], input=requests + "\n")
    assert result.exit_code == 0
    docs = _stdio_lines(result)
    assert [d["command"] for d in docs] == ["periods", "torsion", "kummer-check"]
    assert docs[1]["result"]["verdict"] == "Torsion"
    assert docs[2]["result"]["verdict"] == "Holds"
    assert docs[0]["config"]["digits"] == 48


def test_stdio_worker_pool_preserves_order(runner):
    requests = "\n".join(
        json.dumps({"op": "periods", "config": {"digits": 48}, "curve": {"g2": g2, "g3": "1"}})
        for g2 in ("8", "12", "7", "9")
    )
    serial = runner.invoke(main, ["--stdio"], input=requests + "\n")
    pooled = runner.invoke(main, ["--stdio", "--jobs", "2"], input=requests + "\n")
    assert pooled.exit_code == 0
    assert pooled.output == serial.output
    docs = _stdio_lines(pooled)
    assert [d["inputs"]["curve"]["g2"] for d in docs] == ["8", "12", "7", "9"]


def test_stdio_pool_size_is_bounded(monkeypatch):
    # the pool never outgrows the CPUs or the batch; no pool is started here
    monkeypatch.setattr("haj.cli.os.cpu_count", lambda: 2)
    assert _pool_size(2, 30) == 2
    assert _pool_size(10**6, 30) == 2
    assert _pool_size(10**6, 1) == 1
    assert _pool_size(1, 30) == 1
    assert _pool_size(4, 0) == 1
    monkeypatch.setattr("haj.cli.os.cpu_count", lambda: None)
    assert _pool_size(8, 30) == 1


def test_import_leaves_heavy_modules_unloaded():
    # process pools, package metadata, sympy and hashlib (with OpenSSL) load
    # only where they are used
    probe = ("import sys, haj.cli; print(sorted(m for m in ('concurrent.futures', "
             "'multiprocessing', 'importlib.metadata', 'sympy', 'hashlib', '_hashlib') "
             "if m in sys.modules))")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_regulator_request_loads_no_array_library():
    # the regulator check's FFT runs in mpmath: one milnor-reg request leaves
    # numpy and scipy unimported (numpy alone adds about 13 MB of RSS)
    request = json.dumps({"op": "milnor-reg", "preset": "paper-9-loops", "config": {"digits": 48}})
    probe = ("import sys, haj.cli; out, code = haj.cli._stdio_one(sys.argv[1]); "
             "assert code == 0, out; "
             "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe, request], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_no_op_loads_sympy():
    # the exact symbol algebra is haj.qpoly: every preset, milnor-reg in its
    # three forms, tame at a degree-2 place and weil leave sympy unimported
    loop = {"center": {"root_of": "t^2 - 2", "near": "1.4"}, "config": {"digits": 48}}
    requests = [{"op": load_preset(name)["op"], "preset": name} for name in PRESET_NAMES] + [
        {"op": "milnor-reg", "f": "(t^2 - 2)*(t + 1)", "g": "t + 3", "radius": "1/10", **loop},
        {"op": "milnor-reg", "f": "t^2 - 2", "g": "t + 3", "radii": ["1/10", "1/100"], **loop},
        {"op": "milnor-reg", "pairs": [{"f": "t^2 - 2", "g": "t + 3"},
                                       {"f": "t - 1", "g": "2", "coeff": "1/2"}],
         "radius": "1/10", **loop},
        {"op": "tame", "f": "(t^2 + 1)*t", "g": "(t^2 + 1)^2/(t - 3)", "place": "t^2 + 1"},
        {"op": "weil", "random": 4, "seed": 3, "max_deg": 3},
        {"op": "weil", "f": "(t^2 + 1)*(t - 2)", "g": "t^3 - 2"},
    ]
    probe = ("import json, sys, haj.cli\n"
             "for line in sys.argv[1:]:\n"
             "    out, code = haj.cli._stdio_one(line)\n"
             "    assert code == 0, out\n"
             "print('sympy' in sys.modules)")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe, *map(json.dumps, requests)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_expression_injection_is_a_schema_error():
    with pytest.raises(SchemaError) as err:
        _rf_from('__import__("os").getpid() + t', "inputs.f")
    assert err.value.path == "inputs.f"


def test_stdio_answers_every_line_after_a_refused_expression(runner):
    tame = {"op": "tame", "g": "t - 1", "place": "1", "config": {"digits": 48}}
    requests = "\n".join([json.dumps({**tame, "f": '__import__("os").getpid()'}),
                          json.dumps({**tame, "f": "t^2 - 3"})])
    result = runner.invoke(main, ["--stdio"], input=requests + "\n")
    assert result.exit_code == 2
    first, second = _stdio_lines(result)
    assert first["error"]["type"] == "schema" and first["error"]["field"] == "inputs.f"
    assert second["result"]["value"] == "-1/2"


def test_a_high_power_is_refused_before_expansion():
    start = time.perf_counter()
    with pytest.raises(SchemaError):
        _rf_from("(t+1)^(10^4)", "inputs.f")
    assert time.perf_counter() - start < 1.0


def test_a_huge_coefficient_is_a_schema_error():
    args = {"f": "10^(10^5)*t", "g": "t - 2", "place": "1"}
    doc, code, _ = run_op("tame", RunConfig(digits=48), args)
    assert code == 2
    assert doc["error"]["type"] == "schema" and doc["error"]["field"] == "inputs.f"


def test_stdio_error_handling(runner):
    requests = "\n".join(
        [
            "this is not json",
            json.dumps({"op": "periods", "config": {"digits": 48},
                        "curve": {"g2": "20", "g3": "0"}}),
            json.dumps({"op": "no-such-op"}),
        ]
    )
    result = runner.invoke(main, ["--stdio"], input=requests + "\n")
    assert result.exit_code == 2  # worst failure wins, good lines still answer
    docs = _stdio_lines(result)
    assert docs[0]["error"]["type"] == "schema"
    assert docs[1]["result"]["tau"]["im"].startswith("1.0")
    assert docs[2]["error"]["field"] == "op"


def test_stdio_rejects_subcommand_combination(runner):
    result = runner.invoke(main, ["--stdio", "periods", "--g2", "20", "--g3", "0"])
    assert result.exit_code == 2
