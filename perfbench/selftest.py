"""Tiny-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is emitted for every workload
(or listed as not applicable), that a corrupted score vector fails the
output checks, and that the benchmark refuses to run without the program.
Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
import logad  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import TRAIN_FRACTION, WORKLOADS, corpus, pipeline_seed  # noqa: E402

TINY = ["--seed", "3", "--seconds", "1", "--scale", "0.01"]

# Metrics that do not apply to a workload, reported as 0.
NOT_APPLICABLE = {
    "line_words_rm": {"represent.flatten_s", "represent.templates",
                      "represent.unseen_event_rate", "vectorize.transform_train_s"},
    "grid_hdfs": set(),
}


def _bench(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_every_metric_for_every_workload():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == {name: unit for name, unit, _ in spans.PER_LAYER}
    for name in WORKLOADS:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            proc = _bench(ROOT, "--workload", name, "--trace", trace, *TINY)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (name, trace, set(got) ^ set(expected))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if trace == "1":
                line = next(ln for ln in proc.stdout.splitlines() if "not applicable" in ln)
                listed = line.split(":", 1)[1].strip()
                listed = set() if listed == "-" else set(listed.split(", "))
                assert listed == NOT_APPLICABLE[name], (name, listed)


def _tiny_run(out_dir: Path, corrupt=None):
    """Run line_words_rm at the smallest size, optionally corrupting its scores."""
    workload = WORKLOADS["line_words_rm"]
    meta = corpus(logad, WORK, workload, 3, 0.01)
    config = logad.RunConfig(
        input=Path(meta["input"]), adapter="bgl", representation="words", model="rm",
        scenario="normal_only", train_fraction=TRAIN_FRACTION, seed=pipeline_seed(3),
        out_dir=out_dir,
    )
    pipeline = logad.pipeline
    original = pipeline.rm_score
    if corrupt is not None:
        pipeline.rm_score = lambda *a: corrupt(original(*a))
    scores: list = []
    try:
        with spans.capture_scores(logad, scores, []):
            logad.run(config)
    finally:
        pipeline.rm_score = original
    reports = checks.read_reports(out_dir)
    return checks.check_run(workload, meta, reports, scores), checks.score_digest(scores)


def test_corrupted_scores_fail_the_checks():
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        errors, clean = _tiny_run(tmp / "clean")
        assert errors == [], errors

        def nan_one(s):
            s = s.copy()
            s[len(s) // 2] = float("nan")
            return s

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # NaN in the histogram
            errors, _ = _tiny_run(tmp / "nan", nan_one)
        assert any("non-finite" in e for e in errors), errors
        assert any("histogram range" in e for e in errors), errors

        # A finite but different vector passes the per-run checks; the
        # digest comparison across repetitions is what catches it.
        _, shuffled = _tiny_run(tmp / "reversed", lambda s: s[::-1].copy())
        assert shuffled != clean


def test_refuses_to_run_without_the_program():
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(bare, "--workload", "line_words_rm", *TINY)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
