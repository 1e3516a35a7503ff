"""Benchmark of the logad pipeline on seeded synthetic workloads.

    python3 perfbench/run.py --workload line_words_rm --seed 1 --seconds 55 --trace 0

Run from a checkout of the repository; ``logad`` is imported from its
``src``.  The inputs are generated from ``--seed`` and cached under
``.perfbench/``.  Each timed repetition runs sequentially in a fresh
interpreter (one client, closed loop), so peak RSS and import cost are
those of one CLI call.  Repetitions continue until ``--seconds`` is spent,
and at least three are made.  With ``--trace 1`` one more, traced
repetition follows and the per-layer metrics come from it.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from workloads import WORKLOADS, corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

MIN_REPS = 3
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "lines_per_s": "lines/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "auc": "ratio",
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _spawn(argv: list[str], timeout: float) -> tuple[float, subprocess.CompletedProcess]:
    """Start the worker and wait for it; returns (spawn time, process)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *argv]
    spawned_at = _now()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=max(timeout, 1.0),
    )
    return spawned_at, proc


def _probe(timeout: float) -> float:
    """Seconds from interpreter start until ``import logad`` returns."""
    spawned_at, proc = _spawn(["--probe"], timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["imported_at"] - spawned_at


def _repetition(args, corpus_meta: Path, timeout: float, trace_file: Path | None) -> dict:
    """One repetition in a fresh interpreter; returns its result or its error."""
    # The same directory for every repetition, so that reports, which
    # record their output directory, are comparable byte for byte.
    rep_dir = WORK / "repetition"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    try:
        result_path = rep_dir / "result.json"
        argv = ["--workload", args.workload, "--corpus", str(corpus_meta),
                "--seed", str(args.seed), "--out", str(rep_dir / "out"),
                "--result", str(result_path)]
        if trace_file is not None:
            argv += ["--trace-file", str(trace_file)]
        try:
            spawned_at, proc = _spawn(argv, timeout)
        except subprocess.TimeoutExpired:
            return {"errors": [f"repetition exceeded {timeout:.0f} s and was stopped"]}
        if proc.returncode != 0 or not result_path.exists():
            return {"errors": [f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}"]}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["imported_at"] - spawned_at
        return result
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def _fmt(rep: dict) -> str:
    if "wall_s" not in rep:
        return "FAILED"
    return (f"wall {rep['wall_s']:.3f} s, setup {rep['setup_s']:.3f} s, "
            f"peak rss {rep['peak_rss_mb']:.1f} MB")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier; below 1 only for the self-test")
    args = parser.parse_args()

    started = _now()
    if not (ROOT / "src" / "logad" / "__init__.py").is_file():
        print(f"no logad package under {ROOT / 'src'}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import logad

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    meta = corpus(logad, WORK, workload, args.seed, args.scale)
    corpus_meta = Path(meta["input"]).parent / "meta.json"
    print(f"workload {workload.name}, seed {args.seed}: {meta['lines']} lines, "
          f"{meta['units']} units, {meta['anomalous_units']} anomalous")

    def left() -> float:
        return RUN_LIMIT_S - (_now() - started)

    _probe(left())  # warm-up: byte-compile and fill the page cache
    setup_samples = [_probe(left())]  # the repetitions add one sample each

    reps: list[dict] = []
    loop_start = _now()
    while True:
        reps.append(_repetition(args, corpus_meta, left(), None))
        spent = _now() - loop_start
        per_rep = spent / len(reps)
        needed = per_rep * (2 if args.trace else 1)  # room for the traced repetition
        if len(reps) >= MIN_REPS and spent + needed > args.seconds:
            break
        if needed > left():
            break

    traced = None
    trace_file = WORK / "trace" / f"{workload.name}-seed{args.seed}.json"
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        traced = _repetition(args, corpus_meta, left(), trace_file)

    # Every repetition must pass its checks and reproduce the first one's
    # reports and scores exactly.
    runs = reps + ([traced] if traced else [])
    reference = next((r for r in runs if not r["errors"]), None)
    for r in runs:
        if reference is not None and not r["errors"]:
            for key in ("report_digest", "score_digest"):
                if r[key] != reference[key]:
                    r["errors"].append(f"{key} differs from the first passing repetition")
    failed = sum(1 for r in runs if r["errors"])
    good = [r for r in reps if not r["errors"]]

    for i, r in enumerate(reps, 1):
        print(f"  repetition {i}: {_fmt(r)}")
    if traced:
        print(f"  traced repetition: {_fmt(traced)}")
    for r in runs:
        for err in r["errors"]:
            print(f"  CHECK FAILED: {err}")
    hooks = sorted({name for r in runs for name in r.get("missing_hooks", [])})
    if hooks:
        print(f"  pipeline names not found, their metrics read 0: {', '.join(hooks)}")

    metrics: dict[str, dict] = {}
    if good:
        walls = sorted(r["wall_s"] for r in good)
        wall = statistics.median(walls)
        setup_samples += [r["setup_s"] for r in good]
        print("  cells: " + ", ".join(f"{rep}x{model} auc={auc:.4f}"
                                      for rep, model, auc in good[0]["cells"]))
        print(f"  report digest {good[0]['report_digest']}")
        print(f"  score digest  {good[0]['score_digest']}")
        print(f"  wall over {len(walls)} timed repetitions: best {walls[0]:.3f} s, "
              f"median {wall:.3f} s, worst {walls[-1]:.3f} s; setup median over "
              f"{len(setup_samples)} interpreter starts")
        if not args.trace:
            values = {
                "wall_s": wall,
                "lines_per_s": meta["lines"] / wall,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
                "setup_s": statistics.median(setup_samples),
                "auc": statistics.fmean(auc for _, _, auc in good[0]["cells"]),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        elif traced and not traced["errors"]:
            values = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - wall})
            metrics = {name: {"value": float(values[name]), "unit": unit}
                       for name, unit, _ in PER_LAYER}
            print(f"  tracing overhead {values['trace.overhead_s']:.3f} s "
                  f"(traced wall minus untraced median)")
            print(f"  not applicable (reported as 0): {', '.join(traced['not_applicable']) or '-'}")
            print(f"  spans written to {trace_file.relative_to(ROOT)}")

    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
