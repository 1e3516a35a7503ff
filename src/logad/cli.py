"""Command line interface.

``logad run`` executes one configuration (or a representation x model grid)
against a log file and writes report.json, grid.csv and a score histogram
CSV.  ``logad gen`` writes a synthetic labeled corpus.  Options may also be
given in a JSON config file whose keys mirror the run options; explicit
command line flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .ingest import ADAPTERS, SplitMode
from .pipeline import (
    MODELS,
    REPRESENTATIONS,
    SCENARIOS,
    ConfigError,
    RunConfig,
    run,
    run_grid,
    run_repeats,
)
from .synth import ANOMALY_KINDS, gen_synthetic


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logad", description="Fast unsupervised log anomaly detection"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every flag but --config, --grid and --repeats sets the RunConfig field
    # named by its dest; a flag left out is None and keeps the file's value.
    p_run = sub.add_parser("run", help="run the detection pipeline")
    p_run.add_argument("--config", type=Path, help="JSON config file (flags override it)")
    p_run.add_argument("--input", type=Path, help="log file (or directory for hadoop)")
    p_run.add_argument("--adapter", choices=list(ADAPTERS), help="dataset adapter")
    p_run.add_argument("--labels", type=Path, help="label CSV: hdfs/hadoop need one, others refuse")
    p_run.add_argument("--rep", dest="representation", choices=REPRESENTATIONS,
                       help="log representation")
    p_run.add_argument("--model", choices=MODELS, help="anomaly scorer")
    p_run.add_argument("--scenario", choices=SCENARIOS, help="training scenario")
    p_run.add_argument("--train-frac", dest="train_fraction", type=float,
                       help=f"train split fraction (default {RunConfig.train_fraction})")
    p_run.add_argument("--sample-frac", dest="sample_fraction", type=float,
                       help="pre-split sample fraction")
    p_run.add_argument("--split-mode", choices=[m.value for m in SplitMode])
    p_run.add_argument("--seed", type=int, help="seed for sampling, splitting and models")
    p_run.add_argument("--out", dest="out_dir", type=Path, help="output directory for reports")
    p_run.add_argument("--grid", action="store_true", help="run all reps x models")
    p_run.add_argument("--repeats", type=int, default=1, help="re-run with derived seeds")
    p_run.add_argument("--k", type=int, help=f"kmeans cluster count (default {RunConfig.k})")
    p_run.add_argument("--n-trees", type=int,
                       help=f"isolation forest size (default {RunConfig.n_trees})")
    p_run.add_argument("--subsample", type=int,
                       help=f"isolation forest subsample (default {RunConfig.subsample})")
    p_run.add_argument("--sim-threshold", type=float,
                       help=f"template similarity (default {RunConfig.sim_threshold})")
    p_run.add_argument("--depth", type=int, help=f"template tree depth (default {RunConfig.depth})")
    p_run.add_argument("--f1-budget", type=int, help="bounded threshold search budget")
    p_run.add_argument("--bins", dest="n_bins", type=int,
                       help=f"histogram bin count (default {RunConfig.n_bins})")
    p_run.add_argument(
        "--dump-templates", action="store_true", default=None, help="write mined templates CSV"
    )

    p_gen = sub.add_parser("gen", help="generate a synthetic labeled corpus")
    p_gen.add_argument("--out", type=Path, required=True, help="output log file")
    p_gen.add_argument("--normal", type=int, default=10000, help="normal line count")
    p_gen.add_argument("--anomalies", type=int, default=200, help="anomalous line count")
    p_gen.add_argument("--templates", type=int, default=20, help="normal template count")
    p_gen.add_argument("--kind", choices=ANOMALY_KINDS, default="unseen_token")
    p_gen.add_argument("--seed", type=int, default=0)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    fields = RunConfig.__dataclass_fields__
    if args.config is not None:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ConfigError(
                f"config file {args.config} must hold a JSON object, got {file_values!r}"
            )
        unknown = set(file_values) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        values.update(file_values)
    values.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    if values.get("input") is None:
        raise ConfigError("an input log file is required (--input or config file)")
    if values.get("adapter") is None:
        raise ConfigError("an adapter is required (--adapter or config file)")
    return RunConfig(**values)


def _print_report(report) -> None:
    meta = report.meta
    print(
        f"{meta['dataset']} rep={meta['representation']} model={meta['model']} "
        f"scenario={meta['scenario']} auc={report.auc:.4f} f1={report.best_f1:.4f} "
        f"threshold={report.best_threshold:.6g} model_time={report.model_time:.4f}s"
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            path = gen_synthetic(
                args.out,
                n_normal=args.normal,
                n_anomalies=args.anomalies,
                n_templates=args.templates,
                anomaly_kind=args.kind,
                seed=args.seed,
            )
            print(f"wrote {path}")
            return 0

        config = _config_from_args(args)
        if args.repeats < 1:
            raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
        if args.grid and args.repeats > 1:
            raise ConfigError("--grid and --repeats cannot be combined")
        if args.grid:
            for report in run_grid(config):
                _print_report(report)
        elif args.repeats > 1:
            reports, summary = run_repeats(config, args.repeats)
            for report in reports:
                _print_report(report)
            for metric, stats in summary.items():
                print(
                    f"{metric}: mean={stats['mean']:.4f} "
                    f"min={stats['min']:.4f} max={stats['max']:.4f}"
                )
        else:
            _print_report(run(config))
        return 0
    except (ValueError, OSError) as exc:  # ConfigError and LoadError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
