"""One benchmark repetition, run in a fresh interpreter.

Imports ``logad`` from the checkout's ``src`` first, so that the parent can
time interpreter start-up plus import.  With ``--probe`` it stops there.
Otherwise it runs one workload through ``logad.run`` or ``logad.run_grid``
with outputs in ``--out``, checks the outputs, and writes a JSON result to
``--result``.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload NAME --corpus META.json --seed N \\
        --out DIR --result FILE [--trace-file FILE]
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
import logad  # noqa: E402

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import TRAIN_FRACTION, WORKLOADS, pipeline_seed  # noqa: E402


def _run(args) -> dict:
    workload = WORKLOADS[args.workload]
    meta = json.loads(Path(args.corpus).read_text())
    out_dir = Path(args.out)
    config = logad.RunConfig(
        input=Path(meta["input"]),
        adapter=meta["adapter"],
        labels=None if meta["labels"] is None else Path(meta["labels"]),
        representation=workload.representation,
        model=workload.model,
        scenario=workload.scenario,
        train_fraction=TRAIN_FRACTION,
        seed=pipeline_seed(args.seed),
        out_dir=out_dir,
    )
    entry = getattr(logad, workload.entry)
    scores: list = []
    tracer = spans.Tracer() if args.trace_file else None
    missing = [] if tracer is None else tracer.missing

    if tracer is None:
        with spans.capture_scores(logad, scores, missing):
            t0 = time.perf_counter()
            entry(config)
            wall_s = time.perf_counter() - t0
    else:
        with spans.traced(logad, tracer, scores):
            t0 = time.perf_counter()
            tracer.call(f"pipeline.{workload.entry}", entry, config)
            wall_s = time.perf_counter() - t0
    peak_rss_mb = spans.maxrss_mb()

    reports = checks.read_reports(out_dir)
    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "cells": [
            [r["meta"]["representation"], r["meta"]["model"], r["auc"]] for r in reports
        ],
        "report_digest": checks.report_digest(out_dir),
        "score_digest": checks.score_digest(scores),
        "errors": checks.check_run(workload, meta, reports, scores),
        "missing_hooks": missing,
    }
    if tracer is not None:
        values, not_applicable = spans.layer_metrics(tracer)
        result["layers"] = values
        result["not_applicable"] = not_applicable
        Path(args.trace_file).write_text(
            json.dumps({"workload": workload.name, "seed": args.seed,
                        "spans": tracer.dump(), "counts": dict(tracer.counts)})
        )
    return result


def main() -> int:
    if not Path(logad.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported logad from {logad.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--corpus")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps({"imported_at": IMPORTED_AT}))
        return 0
    Path(args.result).write_text(json.dumps(_run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
