"""The process that does the work: imports ``haj`` and answers the requests.

Reads one JSON job from stdin and writes one JSON report to stdout.

``warm`` mode times the import, runs the warm-up requests, then loops over
the stream, one ``haj.cli.run_op`` call at a time, until the timed phase has
lasted ``seconds`` and answered ``min_samples`` requests; each call's wall
time is its latency, and a call that raises is a failed request. ``stdio``
mode runs the batch through ``haj --stdio --jobs 1`` in this process, which
is how the cold batch is traced. With ``trace`` set, spans are recorded in
the timed phase only, written to ``spans_out`` and summarized per layer.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import tracer as tracing


def _warm(job: dict, tracer) -> dict:
    import haj.cli as cli

    def answer(wire: dict) -> dict:
        req = json.loads(json.dumps(wire))
        op = req.pop("op")
        cfg = cli.RunConfig.from_mapping(req.pop("config"))
        started = time.perf_counter()
        try:
            doc, code, _ = cli.run_op(op, cfg, req)
        except Exception as exc:  # a crash is a failed request, not a failed run
            doc, code = {"error": {"type": type(exc).__name__, "message": str(exc)}}, 1
        return {"latency": time.perf_counter() - started, "code": code, "doc": doc}

    started = time.perf_counter()
    warm_records = [{"index": i, **answer(w)} for i, w in enumerate(job["warmup"])]
    warmup_s = time.perf_counter() - started
    if tracer is not None:
        tracer.clear()

    stream, records = job["stream"], []
    started = time.perf_counter()
    while len(records) < job["min_samples"] or time.perf_counter() - started < job["seconds"]:
        index = len(records) % len(stream)
        records.append({"index": index, **answer(stream[index])})
    wall = time.perf_counter() - started
    return {"warmup_s": warmup_s, "warmup_records": warm_records, "records": records, "wall": wall}


def _stdio(job: dict, tracer) -> dict:
    import haj.cli as cli

    lines = "".join(json.dumps(w) + "\n" for w in job["stream"])
    out = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out):
        sys.stdin = io.StringIO(lines)
        try:
            cli.main(["--stdio", "--jobs", "1"], standalone_mode=False)
        except SystemExit:
            pass
    wall = time.perf_counter() - started
    docs = [json.loads(line) for line in out.getvalue().splitlines()]
    records = [{"index": i, "latency": wall, "code": 1 if "error" in d else 0, "doc": d}
               for i, d in enumerate(docs)]
    return {"warmup_s": 0.0, "warmup_records": [], "records": records, "wall": wall}


def main() -> None:
    job = json.loads(sys.stdin.read())
    started = time.perf_counter()
    import haj.cli  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - started
    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    report = (_warm if job["mode"] == "warm" else _stdio)(job, tracer)
    report["import_s"] = import_s
    if tracer is not None:
        with open(job["spans_out"], "w") as fh:
            json.dump(tracer.spans, fh)
        verdicts = sum(1 for r in report["records"] if r["code"] == 0)
        report["layers"] = tracing.layer_metrics(tracer.spans, report["wall"], verdicts)
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(report))


if __name__ == "__main__":
    main()
