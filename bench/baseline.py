"""Record the baseline: medians and quartiles of repeated benchmark runs.

    python3 bench/baseline.py

Runs ``bench/run.py`` on every workload with ``run_seconds`` from
BENCHMARK.json: two sets of ten untraced runs (seeds 1-10 and 11-20), then
two traced runs (seeds 1-2). For every metric it writes the median, first and
third quartile of each set and the quartile spread as a share of the median,
and for every end-to-end metric how much worse the second set's median is
than the first's, against the metric's bound. The tracing overhead is traced
over untraced ``verdicts_per_s``; on cold-batch the traced run is a
one-process ``--jobs 1`` batch, so its ratio also holds the lost parallelism.
Writes ``bench/baseline.json``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETS = (range(1, 11), range(11, 21))
TRACED_SEEDS = (1, 2)


def _one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def summarize(results: List[dict]) -> Dict[str, dict]:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def worsening(first: Dict[str, dict], second: Dict[str, dict], spec: List[dict]) -> Dict[str, dict]:
    """Per end-to-end metric: how much worse the second median is than the first."""
    out = {}
    for metric in spec:
        a, b = first[metric["name"]]["median"], second[metric["name"]]["median"]
        worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
        out[metric["name"]] = {"worse": worse, "bound": metric["bound"], "ok": worse <= metric["bound"]}
    return out


def main() -> None:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = {"seconds": seconds, "workloads": {}}
    for name in WORKLOADS:
        sets = [[_one(name, s, seconds, False) for s in seeds] for seeds in SETS]
        traced = [_one(name, s, seconds, True) for s in TRACED_SEEDS]
        summaries = [summarize(runs) for runs in sets]
        entry = {
            "sets": [
                {
                    "seeds": list(seeds),
                    "all_correct": all(r["correct"] for r in runs),
                    "attempted": [r["attempted"] for r in runs],
                    "failed": [r["failed"] for r in runs],
                    "end_to_end": summary,
                }
                for seeds, runs, summary in zip(SETS, sets, summaries)
            ],
            "second_set_worse": worsening(*summaries, bench["end_to_end"]),
            "traced_seeds": list(TRACED_SEEDS),
            "per_layer": summarize(traced),
        }
        entry["trace_overhead"] = (entry["per_layer"]["trace.verdicts_per_s"]["median"]
                                   / summaries[0]["verdicts_per_s"]["median"])
        doc["workloads"][name] = entry
        print(name, [{k: round(v["spread"], 4) for k, v in s.items()} for s in summaries],
              {k: round(v["worse"], 4) for k, v in entry["second_set_worse"].items()}, flush=True)
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
