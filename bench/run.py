"""Seeded verdict benchmark for ``haj``: one workload per run.

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src`` as is.
A warm workload times ``--seconds`` seconds or 100 requests, whichever takes
longer, so that ten latency samples lie beyond p90. Every verdict is checked against the oracle in ``oracle.py``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. The lines before it
explain the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import EXACT_OPS, WORKLOADS  # noqa: E402

PYTHON = sys.executable or "python3"
RUN_BUDGET_S = 170.0
SETUP_REPEATS = 3
# a warm run answers at least this many requests, so that at least ten
# latency samples lie beyond p90
MIN_SAMPLES = 100
BEYOND_P90 = 10
SUMMARY_TIERS = (64, 128, 256, 512)
# 128 digits is the tier every workload uses; the other tiers' medians are
# printed only, because a lattice run's 256-digit median moves with the
# seed's curves by more than the 0.25 bound
END_TO_END_TIERS = (128,)


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("HAJ_CACHE_DIR", None)
    return env


def _run(cmd: List[str], stdin: str, deadline: float) -> Tuple[int, str, float]:
    """Run a child in its own process group; kill the whole group on timeout."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=_env(), start_new_session=True,
    )
    try:
        out, err = proc.communicate(stdin, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[:3])} overran the run budget") from None
    wall = time.perf_counter() - started
    if proc.returncode < 0:
        raise BenchError(f"{' '.join(cmd[:3])} died with signal {-proc.returncode}: {err[-500:]}")
    return proc.returncode, out, wall


def _worker(job: dict, deadline: float) -> dict:
    code, out, _ = _run([PYTHON, str(HERE / "worker.py")], json.dumps(job), deadline)
    if code != 0:
        raise BenchError(f"worker exited {code}")
    return json.loads(out)


def _import_probe(deadline: float) -> float:
    probe = "import time; t = time.perf_counter(); import haj.cli; print(time.perf_counter() - t)"
    code, out, _ = _run([PYTHON, "-c", probe], "", deadline)
    if code != 0:
        raise BenchError("importing haj.cli failed")
    return float(out)


def _cli_version(deadline: float) -> float:
    code, _, wall = _run([PYTHON, "-m", "haj.cli", "--version"], "", deadline)
    if code != 0:
        raise BenchError("haj --version failed")
    return wall


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _judge(requests: List[dict], records: List[dict]) -> List[Optional[str]]:
    """Per record: None if correct, else why it failed. A repeat of an earlier
    request must reproduce its document bytes exactly."""
    first_bytes = {}
    verdicts = []
    for rec in records:
        req = requests[rec["index"]]
        text = json.dumps(rec["doc"], sort_keys=True, separators=(",", ":"))
        reason = oracle.check(req["expect"], rec["doc"], req["wire"]["config"]["digits"])
        if reason is None and rec["code"] != 0:
            reason = f"exit code {rec['code']}"
        if reason is None and first_bytes.setdefault(rec["index"], text) != text:
            reason = "repeated request produced different document bytes"
        verdicts.append(reason)
    return verdicts


def _cold_batch(plan: dict, deadline: float) -> dict:
    lines = "".join(json.dumps(r["wire"]) + "\n" for r in plan["stream"])
    _, out, wall = _run([PYTHON, "-m", "haj.cli", "--stdio", "--jobs", "2"], lines, deadline)
    docs = [json.loads(line) for line in out.splitlines() if line.strip()]
    if len(docs) != len(plan["stream"]):
        raise BenchError(f"batch answered {len(docs)} of {len(plan['stream'])} requests")
    # haj --stdio writes the whole batch at the end, so every verdict waits for the batch
    records = [{"index": i, "latency": wall, "code": 1 if "error" in d else 0, "doc": d}
               for i, d in enumerate(docs)]
    return {"warmup_records": [], "records": records, "wall": wall}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "haj" / "cli.py").is_file():
        raise BenchError("no package at src/haj; run from a checkout of the repository")
    deadline = time.monotonic() + RUN_BUDGET_S
    wl = WORKLOADS[workload]
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    spans_out = out_dir / f"spans-{workload}-{seed}.json"
    cache_dir = None
    try:
        if wl.warm:
            plan = wl.build(seed, seconds)
            imports = [_import_probe(deadline) for _ in range(SETUP_REPEATS - 1)]
            report = _worker({"mode": "warm", "warmup": [r["wire"] for r in plan["warmup"]],
                              "stream": [r["wire"] for r in plan["stream"]], "seconds": seconds,
                              "min_samples": MIN_SAMPLES, "trace": trace, "spans_out": str(spans_out)}, deadline)
            setup_s = statistics.median(imports + [report["import_s"]]) + report["warmup_s"]
        else:
            cache_dir = tempfile.mkdtemp(prefix="period-cache-", dir=out_dir)
            plan = wl.build(seed, seconds, cache_dir=cache_dir)
            setup_s = statistics.median(_cli_version(deadline) for _ in range(SETUP_REPEATS))
            if trace:
                # traced in one fresh process: haj --stdio --jobs 1 under the tracer
                report = _worker({"mode": "stdio", "stream": [r["wire"] for r in plan["stream"]],
                                  "trace": True, "spans_out": str(spans_out)}, deadline)
            else:
                report = _cold_batch(plan, deadline)
    finally:
        if cache_dir is not None:
            shutil.rmtree(cache_dir, ignore_errors=True)

    warm_failures = [r for r in _judge(plan["warmup"], report["warmup_records"]) if r]
    judged = _judge(plan["stream"], report["records"])
    failures = [(rec, why) for rec, why in zip(report["records"], judged) if why]
    for rec, why in failures[:5]:
        wire = plan["stream"][rec["index"]]["wire"]
        print(f"FAILED {wire.get('op', wire.get('preset'))}@{wire['config']['digits']}: {why}")
    for why in warm_failures[:5]:
        print(f"FAILED warm-up request: {why}")

    attempted = len(report["records"])
    correct = attempted - len(failures)
    numeric = [(plan["stream"][r["index"]]["wire"], r["latency"]) for r in report["records"]
               if plan["stream"][r["index"]]["wire"].get("op") not in EXACT_OPS]
    latencies = [r["latency"] for r in report["records"]]
    tier = {d: [lat for wire, lat in numeric if wire["config"]["digits"] == d] for d in SUMMARY_TIERS}
    rss_kb = max(report.get("peak_rss_kb", 0),
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "verdicts_per_s": (correct / report["wall"], "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (_percentile(latencies, 0.9), "s"),
        **{f"latency_p50_s.d{d}": (statistics.median(tier[d]) if tier[d] else 0.0, "s")
           for d in END_TO_END_TIERS},
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    beyond = sum(1 for lat in latencies if lat > metrics["latency_p90_s"][0])
    too_few = wl.warm and beyond < BEYOND_P90
    if too_few:
        print(f"FAILED only {beyond} latency samples beyond p90, fewer than {BEYOND_P90}")
    print(f"workload {workload} seed {seed}: {wl.why}")
    print(f"  loads: {wl.loads}; bypasses: {wl.bypasses}")
    print(f"  {attempted} requests in {report['wall']:.2f} s, {len(failures)} failed "
          f"(failed_frac {len(failures) / max(attempted, 1):.4f}), "
          f"{beyond} latency samples beyond p90")
    print("  median latency per tier (numerical ops): " + ", ".join(
        f"d{d} {statistics.median(tier[d]):.4f} s (n={len(tier[d])})" for d in SUMMARY_TIERS if tier[d]))
    if trace:
        metrics = {name: (value, tracer.metric_unit(name)) for name, value in report["layers"].items()}
        print(f"  trace: {len(json.load(open(spans_out)))} spans written to "
              f"{spans_out.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        if not trace or not name.endswith(".calls") or value:
            print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": not failures and not warm_failures and not too_few,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
