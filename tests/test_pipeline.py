import csv
import json
import re
import time
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from logad import pipeline, vectorize
from logad.cli import main
from logad.ingest import LogRecord, SplitMode, SplitSpec, load, split
from logad.normalize import normalize_message
from logad.pipeline import ConfigError, RunConfig, execute, grid_cells, run, run_grid, run_repeats
from logad.synth import gen_synthetic, max_templates
from logad.vectorize import Weighting


@pytest.fixture(scope="module")
def unseen_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "unseen.log"
    return gen_synthetic(path, n_normal=600, n_anomalies=30, n_templates=10,
                         anomaly_kind="unseen_token", seed=5)


@pytest.fixture(scope="module")
def hdfs_corpus(tmp_path_factory):
    """HDFS-style log and label CSV: synthetic lines dealt to 100 blocks.

    A block is anomalous iff any of its lines is.
    """
    d = tmp_path_factory.mktemp("hdfs")
    source = gen_synthetic(d / "source.log", n_normal=1985, n_anomalies=15, n_templates=10,
                           anomaly_kind="unseen_token", seed=8)
    rng = np.random.default_rng(8)
    n_blocks = 100
    lines = source.read_text().splitlines()
    block_of_line = rng.permutation(np.arange(len(lines)) % n_blocks)
    anomalous = np.zeros(n_blocks, dtype=bool)
    with open(d / "hdfs.log", "w") as fh:
        for line, block in zip(lines, block_of_line):
            parts = line.split(maxsplit=9)
            anomalous[block] |= parts[0] != "-"
            fh.write(f"081109 203615 143 INFO dfs.DataNode: {parts[9]} for block blk_{block}\n")
    with open(d / "labels.csv", "w") as fh:
        fh.write("BlockId,Label\n")
        for block in range(n_blocks):
            fh.write(f"blk_{block},{'Anomaly' if anomalous[block] else 'Normal'}\n")
    return d


@pytest.fixture(scope="module")
def hadoop_corpus(tmp_path_factory):
    """A hadoop directory: synthetic messages dealt to 60 application logs
    under a timestamped header, and a label CSV keyed by file stem.

    An application is anomalous iff any of its lines is.
    """
    d = tmp_path_factory.mktemp("hadoop")
    source = gen_synthetic(d / "source.log", n_normal=1192, n_anomalies=8, n_templates=10,
                           anomaly_kind="unseen_token", seed=9)
    apps = d / "apps"
    apps.mkdir()
    lines = source.read_text().splitlines()
    n_apps = 60
    logs = [[] for _ in range(n_apps)]
    anomalous = np.zeros(n_apps, dtype=bool)
    for i, line in enumerate(lines):
        parts = line.split(maxsplit=9)
        anomalous[i % n_apps] |= parts[0] != "-"
        logs[i % n_apps].append(f"2015-10-17 15:37:{i % 60:02d},{i % 997:03d} INFO [main] "
                                f"org.apache.hadoop.mapreduce.v2.app.MRAppMaster: {parts[9]}\n")
    for app, log in enumerate(logs):
        (apps / f"application_{app:04d}.log").write_text("".join(log))
    with open(d / "labels.csv", "w") as fh:
        fh.write("application,label\n")
        for app in range(n_apps):
            fh.write(f"application_{app:04d},{'Anomaly' if anomalous[app] else 'Normal'}\n")
    return d


def _hadoop_config(corpus_dir, **overrides):
    return _hdfs_config(corpus_dir, input=corpus_dir / "apps", adapter="hadoop", **overrides)


def _hdfs_config(corpus_dir, **overrides):
    defaults = dict(
        input=corpus_dir / "hdfs.log",
        adapter="hdfs",
        labels=corpus_dir / "labels.csv",
        scenario="normal_only",
        train_fraction=0.2,
        seed=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def _unlabeled_hdfs(tmp_path) -> RunConfig:
    """An hdfs run over 20 blocks whose label file names none of them, so
    every test unit's label is unknown."""
    log, labels = tmp_path / "hdfs.log", tmp_path / "labels.csv"
    log.write_text("".join(f"081109 203615 143 INFO dfs.DataNode: message {i} for blk_{i % 20}\n"
                           for i in range(100)))
    labels.write_text("BlockId,Label\nblk_other,Normal\n")
    return RunConfig(input=log, adapter="hdfs", labels=labels, train_fraction=0.2)


def _represent_reached(*args):
    raise AssertionError("_represent ran before the check")


def _config(corpus, **overrides):
    defaults = dict(
        input=Path(corpus),
        adapter="bgl",
        representation="words",
        model="rm",
        scenario="normal_only",
        train_fraction=0.2,
        seed=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestGenSynthetic:
    def test_all_normal_file(self, tmp_path):
        p = gen_synthetic(tmp_path / "n.log", 1000, 0, 20, "unseen_token", seed=2)
        lines = p.read_text().splitlines()
        assert len(lines) == 1000
        assert all(line.startswith("- ") for line in lines)

    def test_unseen_anomalies_have_oov_token(self, tmp_path):
        p = gen_synthetic(tmp_path / "u.log", 500, 40, 10, "unseen_token", seed=3)
        normal_tokens = set()
        anomaly_docs = []
        for line in p.read_text().splitlines():
            msg = normalize_message(line.split(maxsplit=9)[9])
            if line.startswith("- "):
                normal_tokens.update(msg.split())
            else:
                anomaly_docs.append(msg.split())
        assert anomaly_docs
        assert all(any(t not in normal_tokens for t in doc) for doc in anomaly_docs)

    def test_rare_anomalies_reuse_normal_pool(self, tmp_path):
        p = gen_synthetic(tmp_path / "r.log", 500, 40, 10, "rare_token", seed=3)
        normal_tokens = set()
        anomaly_docs = []
        for line in p.read_text().splitlines():
            msg = normalize_message(line.split(maxsplit=9)[9])
            if line.startswith("- "):
                normal_tokens.update(msg.split())
            else:
                anomaly_docs.append(msg.split())
        assert all(all(t in normal_tokens for t in doc) for doc in anomaly_docs)

    def test_fixed_seed_identical_file(self, tmp_path):
        a = gen_synthetic(tmp_path / "a.log", 100, 10, 5, "rare_token", seed=9)
        b = gen_synthetic(tmp_path / "b.log", 100, 10, 5, "rare_token", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            gen_synthetic(tmp_path / "x.log", 0, 1, 5, "rare_token", seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(tmp_path / "x.log", 10, -1, 5, "rare_token", seed=0)
        with pytest.raises(ValueError):
            gen_synthetic(tmp_path / "x.log", 10, 1, 5, "weird_kind", seed=0)
        top = max_templates()
        for n_templates in (0, top + 1):
            with pytest.raises(ValueError, match=rf"n_templates must be in \[1, {top}\]"):
                gen_synthetic(tmp_path / "x.log", 10, 1, n_templates, "rare_token", seed=0)


class TestRun:
    def test_report_shape(self, unseen_corpus, tmp_path):
        report = run(_config(unseen_corpus, out_dir=tmp_path / "out"))
        assert 0.0 <= report.auc <= 1.0
        assert 0.0 <= report.best_f1 <= 1.0
        for stage in ("load", "normalize", "split", "filter", "represent",
                      "vectorize", "fit", "score"):
            assert stage in report.timings
        assert "sample" not in report.timings  # fraction 1.0 skips the stage
        assert report.meta["f1_label_assisted"] is True
        assert report.meta["params"]["train_fraction"] == 0.2
        out = tmp_path / "out"
        assert (out / "report.json").exists()
        assert (out / "grid.csv").exists()
        assert any(out.glob("hist_*.csv"))

    def test_sample_stage_recorded_when_requested(self, unseen_corpus):
        report = run(_config(unseen_corpus, sample_fraction=0.8))
        assert "sample" in report.timings

    def test_unfiltered_has_no_filter_stage(self, unseen_corpus):
        report = run(_config(unseen_corpus, scenario="unfiltered"))
        assert "filter" not in report.timings

    def test_oovd_unfiltered_rejected(self, unseen_corpus):
        with pytest.raises(ConfigError):
            run(_config(unseen_corpus, model="oovd", scenario="unfiltered"))

    def test_unknown_labels_fail_evaluation(self, tmp_path):
        with pytest.raises(ValueError, match="got an unknown label"):
            run(_unlabeled_hdfs(tmp_path))

    @pytest.mark.parametrize("entry", [run, run_grid, lambda config: run_repeats(config, 2)],
                             ids=["run", "run_grid", "run_repeats"])
    def test_plain_input_is_config_error_before_load(self, tmp_path, monkeypatch, entry):
        # Every plain line is unlabeled, and every run evaluates its test units.
        calls = Counter()
        monkeypatch.setattr(pipeline, "load", lambda *args: calls.update(["load"]))
        config = RunConfig(input=tmp_path / "in.log", adapter="plain")
        message = ("plain input has no labels to evaluate; use a labeled adapter, one of "
                   "('bgl', 'thunderbird', 'hdfs', 'hadoop'), or logad.load")
        with pytest.raises(ConfigError, match=re.escape(message)):
            entry(config)
        assert calls["load"] == 0

    @pytest.mark.parametrize("field", ["representation", "model", "scenario", "split_mode"])
    def test_unknown_choice_is_config_error(self, tmp_path, field):
        config = RunConfig(input=tmp_path / "missing.log", adapter="bgl", **{field: "nope"})
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            config.validate()

    @pytest.mark.parametrize("field,value", [
        ("sample_fraction", 1.5),
        ("sample_fraction", 0.0),
        ("train_fraction", 1.0),
        ("train_fraction", 0.0),
    ])
    def test_bad_fraction_is_config_error_before_load(self, tmp_path, field, value):
        config = RunConfig(input=tmp_path / "missing.log", adapter="plain", **{field: value})
        with pytest.raises(ConfigError, match=field):
            run(config)

    @pytest.mark.parametrize("out_dir", ["afile", "afile/sub"])
    def test_out_dir_under_a_file_is_config_error(self, tmp_path, out_dir):
        (tmp_path / "afile").write_text("")
        config = RunConfig(input=tmp_path / "missing.log", adapter="bgl",
                           out_dir=tmp_path / out_dir)
        with pytest.raises(ConfigError, match=re.escape(f"{tmp_path / 'afile'} is not a dir")):
            config.validate()

    def test_grid_into_an_unusable_out_dir_fails_before_load(self, tmp_path, monkeypatch):
        calls = Counter()
        monkeypatch.setattr(pipeline, "load", lambda *args: calls.update(["load"]))
        (tmp_path / "afile").write_text("")
        config = RunConfig(input=tmp_path / "in.log", adapter="bgl", scenario="normal_only",
                           out_dir=tmp_path / "afile")
        with pytest.raises(ConfigError, match="out_dir"):
            run_grid(config)
        assert calls["load"] == 0

    def test_k_below_one_is_config_error_before_load(self, tmp_path):
        config = RunConfig(input=tmp_path / "missing.log", adapter="plain", model="kmeans", k=0)
        with pytest.raises(ConfigError, match="k must"):
            run(config)

    @pytest.mark.parametrize("field,value", [
        ("n_trees", 0),
        ("subsample", 1),
        ("subsample", 0),
        ("n_bins", 0),
        ("f1_budget", 0),
        ("depth", 2),
        ("sim_threshold", 0.0),
        ("sim_threshold", 1.0),
        ("seed", -1),
    ])
    def test_bad_parameter_is_config_error_before_load(self, tmp_path, field, value):
        config = RunConfig(input=tmp_path / "missing.log", adapter="plain", model="iforest",
                           **{field: value})
        with pytest.raises(ConfigError, match=f"{field} must"):
            run(config)

    @pytest.mark.parametrize("case", ["unknown", "single_class", "empty_train"])
    def test_label_errors_come_before_represent(self, tmp_path, monkeypatch, case):
        monkeypatch.setattr(pipeline, "_represent", _represent_reached)
        p = tmp_path / "in.log"
        head = "1 2 3 4 5 6 7 8"
        if case == "unknown":
            config = _unlabeled_hdfs(tmp_path)
        elif case == "single_class":
            p.write_text("".join(f"- {head} message {i}\n" for i in range(100)))
            config = RunConfig(input=p, adapter="bgl", train_fraction=0.2)
        else:
            # Chronological split: the anomalous first lines are the whole train side.
            lines = [f"FATAL {head} crash {i}" for i in range(20)]
            lines += [f"{'FATAL' if i % 10 == 0 else '-'} {head} message {i}" for i in range(80)]
            p.write_text("\n".join(lines) + "\n")
            config = RunConfig(input=p, adapter="bgl", train_fraction=0.2,
                               split_mode="chronological", scenario="normal_only")
        with pytest.raises(ValueError, match="label"):
            run(config)

    @pytest.mark.parametrize("entry", [execute, run_grid])
    @pytest.mark.parametrize("corpus", ["lines", "blocks"])
    def test_k_above_train_units_fails_before_represent(
        self, unseen_corpus, hdfs_corpus, tmp_path, monkeypatch, entry, corpus
    ):
        # 126 train lines (about 120 after the filter); 20 train blocks of
        # about 20 lines each, so k=100 only fails when blocks are counted.
        if corpus == "lines":
            config = _config(unseen_corpus, model="kmeans", k=200)
        else:
            config = _hdfs_config(hdfs_corpus, model="kmeans", k=100)
        out = tmp_path / "out"
        monkeypatch.setattr(pipeline, "_represent", _represent_reached)
        with pytest.raises(ValueError, match=f"k={config.k} exceeds"):
            entry(replace(config, out_dir=out))
        assert not out.exists()

    @pytest.mark.parametrize("entry", [execute, run_grid])
    @pytest.mark.parametrize("corpus", ["lines", "blocks"])
    def test_iforest_below_two_train_units_fails_before_represent(
        self, unseen_corpus, hdfs_corpus, tmp_path, monkeypatch, entry, corpus
    ):
        # One train line of 630, or one train block of 100; k=1 leaves the
        # isolation forest as the grid's largest need.
        if corpus == "lines":
            config = _config(unseen_corpus, train_fraction=0.001)
        else:
            config = _hdfs_config(hdfs_corpus, train_fraction=0.01)
        config = replace(config, model="iforest", scenario="unfiltered", k=1,
                         out_dir=tmp_path / "out")
        calls = []
        monkeypatch.setattr(pipeline, "_represent", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="iforest's minimum of 2 exceeds the 1 train units"):
            entry(config)
        assert calls == []
        assert not config.out_dir.exists()

    def test_k_is_not_checked_without_kmeans(self, unseen_corpus):
        assert 0.0 <= run(_config(unseen_corpus, model="rm", k=200)).auc <= 1.0

    def test_events_representation_runs(self, unseen_corpus):
        report = run(_config(unseen_corpus, representation="events", model="oovd"))
        assert report.auc == 1.0

    def test_deterministic_grid_row(self, unseen_corpus, tmp_path):
        rows = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            run(_config(unseen_corpus, out_dir=out))
            with open(out / "grid.csv", newline="") as fh:
                rows.append(list(csv.reader(fh))[1])
        # identical except wall-clock timing columns
        assert rows[0][:7] == rows[1][:7]

    def test_histogram_csv_content(self, unseen_corpus, tmp_path):
        out = tmp_path / "out"
        report = run(_config(unseen_corpus, out_dir=out, n_bins=10))
        hist_file = next(out.glob("hist_*.csv"))
        rows = hist_file.read_text().splitlines()[1:]
        total = sum(int(r.split(",")[2]) + int(r.split(",")[3]) for r in rows)
        assert total == report.meta["n_test_docs"]

    def test_template_dump_written(self, unseen_corpus, tmp_path):
        out = tmp_path / "out"
        run(_config(unseen_corpus, representation="events", model="oovd",
                    out_dir=out, dump_templates=True))
        assert any(out.glob("templates_*.csv"))


    @pytest.mark.parametrize("corpus", ["lines", "blocks"])
    def test_builds_no_row_records(self, unseen_corpus, hdfs_corpus, monkeypatch, corpus):
        # Records flow by column from load to represent.
        def no_rows(self, *args, **kwargs):
            raise AssertionError("a LogRecord was built")

        monkeypatch.setattr(LogRecord, "__init__", no_rows)
        if corpus == "lines":
            config = _config(unseen_corpus, sample_fraction=0.8)
        else:
            config = _hdfs_config(hdfs_corpus, representation="events", sample_fraction=0.8)
        report, _ = execute(config)
        assert 0.0 <= report.auc <= 1.0


class TestGrid:
    def test_cell_counts(self):
        assert len(grid_cells("unfiltered")) == 9
        assert len(grid_cells("normal_only")) == 12

    def test_grid_rows_and_reports(self, unseen_corpus, tmp_path):
        out = tmp_path / "grid"
        reports = run_grid(_config(unseen_corpus, scenario="unfiltered", out_dir=out))
        assert len(reports) == 9
        assert not any(r.meta["model"] == "oovd" for r in reports)
        with open(out / "grid.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 10  # header + 9 cells
        assert len(list(out.glob("report_*.json"))) == 9


def _capture_scores(monkeypatch) -> list:
    """Record every score vector the pipeline computes, in call order."""
    scores = []
    for name in ("oovd_score", "rm_score", "kmeans_score", "iforest_score"):
        def captured(*args, _score=getattr(pipeline, name)):
            out = _score(*args)
            scores.append(out)
            return out
        monkeypatch.setattr(pipeline, name, captured)
    return scores


def _without_timings(report) -> dict:
    d = report.to_dict()
    del d["timings"], d["model_time"]
    return d


class TestSharedStages:
    @pytest.mark.parametrize("corpus,scenario", [
        ("lines", "unfiltered"),
        ("lines", "normal_only"),
        ("blocks", "normal_only"),
        ("apps", "normal_only"),
    ])
    def test_grid_cells_equal_standalone_runs(
        self, unseen_corpus, hdfs_corpus, hadoop_corpus, monkeypatch, corpus, scenario
    ):
        if corpus == "lines":
            config = _config(unseen_corpus, scenario=scenario)
        elif corpus == "blocks":
            config = _hdfs_config(hdfs_corpus, scenario=scenario)
        else:
            config = _hadoop_config(hadoop_corpus, scenario=scenario)
        scores = _capture_scores(monkeypatch)
        reports = run_grid(config)
        grid_scores = list(scores)
        cells = grid_cells(scenario)
        assert len(reports) == len(grid_scores) == len(cells)
        for (rep, model), report, grid_s in zip(cells, reports, grid_scores):
            # The histogram holds every test unit once.
            docs = sum(normal + anomaly for _, _, normal, anomaly in report.histogram.bins)
            assert docs == report.meta["n_test_docs"] == len(grid_s)
            scores.clear()
            alone, _ = execute(replace(config, representation=rep, model=model))
            [alone_s] = scores
            assert alone_s.dtype == grid_s.dtype
            assert alone_s.tobytes() == grid_s.tobytes(), (rep, model)
            assert _without_timings(alone) == _without_timings(report), (rep, model)

    # Per representation: each side's units are counted once by
    # `vectorize.count_units`, the one counting routine; the train side
    # reaches it through `vectorize.fit_units`, the test side straight from
    # `pipeline`.  The vocabulary is read from the train counts, and the
    # train tf-idf that kmeans and iforest read and the test tf-idf are
    # weighted from the counts.  Load normalizes the lines as it reads them:
    # the corpus's 630 lines are one block.
    @pytest.mark.parametrize("entry,expected", [
        (run_grid, {"load": 1, "normalize_block": 1, "split": 1, "_represent": 3,
                    "count_units": 6, "tfidf_weighting": 6}),
        (run, {"load": 1, "normalize_block": 1, "split": 1, "_represent": 1,
               "count_units": 2, "tfidf_weighting": 1}),
    ])
    def test_shared_stages_run_once(self, unseen_corpus, monkeypatch, entry, expected):
        calls = Counter()
        hooks = [(pipeline, name) for name in (
            "load", "normalize_block", "split", "_represent", "tfidf_weighting", "count_units"
        )] + [(vectorize, "count_units")]
        for owner, name in hooks:
            def counted(*args, _fn=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(owner, name, counted)
        out = entry(_config(unseen_corpus, scenario="normal_only", model="rm"))
        assert calls == expected
        # One count per side and representation.
        assert calls["count_units"] == 2 * calls["_represent"]
        for report in out if entry is run_grid else [out]:
            assert report.timings["normalize"] > 0.0
            assert report.timings["load"] > 0.0

    def test_grid_timings_report_each_shared_stage_once_computed(self, unseen_corpus):
        reports = run_grid(_config(unseen_corpus, scenario="normal_only"))
        for stage in ("load", "normalize", "split", "filter"):
            assert len({r.timings[stage] for r in reports}) == 1
        by_rep = {}
        for r in reports:
            expected = {"load", "normalize", "split", "filter", "represent", "vectorize", "fit",
                        "score"}
            assert set(r.timings) == expected
            by_rep.setdefault(r.meta["representation"], {})[r.meta["model"]] = r.timings
        assert len(by_rep) == len(pipeline.REPRESENTATIONS)
        for cells in by_rep.values():
            # Representation and vectorization are timed once per representation.
            assert len({t["represent"] for t in cells.values()}) == 1
            assert len({t["vectorize"] for t in cells.values()}) == 1

    @pytest.mark.parametrize("entry", [run, run_grid])
    def test_stage_seconds_add_up_to_at_most_the_wall_time(self, unseen_corpus, entry):
        # The timed regions are disjoint: each shared stage counts once, represent
        # and vectorize once per representation, and fit and score per cell.
        t0 = time.perf_counter()
        out = entry(_config(unseen_corpus, scenario="normal_only"))
        wall = time.perf_counter() - t0
        reports = out if entry is run_grid else [out]
        shared = sum(reports[0].timings.get(stage, 0.0)
                     for stage in ("load", "normalize", "split", "filter", "sample"))
        per_rep = {(r.meta["representation"], stage): r.timings[stage]
                   for r in reports for stage in ("represent", "vectorize")}
        own = sum(r.timings.get("fit", 0.0) + r.timings["score"] for r in reports)
        assert 0.0 < shared + sum(per_rep.values()) + own <= wall

    @staticmethod
    def _matrices_kept(monkeypatch):
        """The (side, weighting) keys of the matrices a representation holds
        after each cell."""
        kept = []

        def run_cell(config, features, y, _run_cell=pipeline._run_cell):
            out = _run_cell(config, features, y)
            kept.append(set(features.matrices))
            return out

        monkeypatch.setattr(pipeline, "_run_cell", run_cell)
        return kept

    def test_single_rm_run_keeps_no_test_counts(self, unseen_corpus, monkeypatch):
        kept = self._matrices_kept(monkeypatch)
        execute(_config(unseen_corpus, scenario="normal_only", model="rm"))
        assert kept == [{("test", Weighting.TFIDF)}]

    @pytest.mark.parametrize("model,expected", [
        ("oovd", {("test", Weighting.COUNT)}),
        ("kmeans", {("train", Weighting.TFIDF), ("test", Weighting.TFIDF)}),
        ("iforest", {("train", Weighting.TFIDF), ("test", Weighting.TFIDF)}),
    ])
    def test_single_run_keeps_only_what_its_model_reads(self, unseen_corpus, monkeypatch,
                                                        model, expected):
        kept = self._matrices_kept(monkeypatch)
        execute(_config(unseen_corpus, scenario="normal_only", model=model, k=2))
        assert kept == [expected]

    def test_grid_keeps_the_test_counts_oovd_reads(self, unseen_corpus, monkeypatch):
        kept = self._matrices_kept(monkeypatch)
        run_grid(_config(unseen_corpus, scenario="normal_only"))
        assert len(kept) == len(grid_cells("normal_only"))
        assert all(names == {("train", Weighting.TFIDF), ("test", Weighting.COUNT),
                             ("test", Weighting.TFIDF)} for names in kept)

    def test_unfiltered_grid_keeps_no_test_counts(self, unseen_corpus, monkeypatch):
        # Without oovd no cell reads the test counts.
        kept = self._matrices_kept(monkeypatch)
        run_grid(_config(unseen_corpus, scenario="unfiltered"))
        assert len(kept) == len(grid_cells("unfiltered"))
        assert all(names == {("train", Weighting.TFIDF), ("test", Weighting.TFIDF)}
                   for names in kept)

    @pytest.mark.parametrize("scenario", pipeline.SCENARIOS)
    def test_every_cell_fits_and_scores(self, unseen_corpus, tmp_path, monkeypatch, scenario):
        # Each model fits and scores through the model table; oovd's model is
        # the train vocabulary, so its fit is timed too.
        fitted = []

        def run_cell(config, features, y, _run_cell=pipeline._run_cell):
            report, artifacts = _run_cell(config, features, y)
            fitted.append((config.model, artifacts))
            return report, artifacts

        monkeypatch.setattr(pipeline, "_run_cell", run_cell)
        reports = run_grid(_config(unseen_corpus, scenario=scenario, out_dir=tmp_path))
        assert len(reports) == len(fitted) == len(grid_cells(scenario))
        assert all({"fit", "score"} <= set(r.timings) for r in reports)
        for model, artifacts in fitted:
            assert artifacts.model is not None
            if model == "oovd":
                assert artifacts.model is artifacts.vocabulary
        with open(tmp_path / "grid.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(reports) and all(row["fit_s"] for row in rows)

    def test_timed_returns_the_result_and_stores_its_seconds(self):
        timings = {}
        assert pipeline._timed(timings, "load", max, 4, 2) == 4
        assert list(timings) == ["load"] and timings["load"] >= 0.0

class TestRepeats:
    def test_summary_statistics(self, unseen_corpus, tmp_path):
        out = tmp_path / "rep"
        reports, summary = run_repeats(_config(unseen_corpus, out_dir=out), repeats=3)
        assert len(reports) == 3
        assert [r.meta["seed"] for r in reports] == [1, 2, 3]
        for metric in ("auc", "f1", "model_time"):
            stats = summary[metric]
            assert stats["min"] <= stats["mean"] <= stats["max"]
        assert json.loads((out / "summary.json").read_text())["auc"] == summary["auc"]

    def test_each_seed_keeps_its_report(self, unseen_corpus, tmp_path):
        out = tmp_path / "rep"
        reports, _ = run_repeats(_config(unseen_corpus, out_dir=out), repeats=3)
        written = [json.loads(p.read_text()) for p in sorted(out.glob("report_*.json"))]
        assert [w["meta"]["seed"] for w in written] == [1, 2, 3]
        assert [w["auc"] for w in written] == [r.auc for r in reports]
        assert not (out / "report.json").exists()

    def test_bad_repeat_count(self, unseen_corpus):
        with pytest.raises(ConfigError):
            run_repeats(_config(unseen_corpus), repeats=0)

    @pytest.mark.parametrize("repeats", [True, 2.5, "3", None, np.float64(2.0)])
    def test_a_repeat_count_that_is_no_integer_is_refused_before_load(
        self, unseen_corpus, monkeypatch, repeats
    ):
        monkeypatch.setattr(pipeline, "load", lambda *a: pytest.fail("the input was opened"))
        with pytest.raises(ConfigError, match="repeats must be an integer"):
            run_repeats(_config(unseen_corpus), repeats)

    def test_the_input_is_loaded_once(self, unseen_corpus, monkeypatch):
        calls = Counter()
        for name in ("load", "normalize_block", "sample", "split", "filter_normal",
                     "_represent"):
            def counted(*args, _fn=getattr(pipeline, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(pipeline, name, counted)
        run_repeats(_config(unseen_corpus, sample_fraction=0.8), repeats=5)
        assert calls == {"load": 1, "normalize_block": 1, "sample": 5, "split": 5,
                         "filter_normal": 5, "_represent": 5}

    def test_load_and_normalize_are_timed_once_for_every_seed(self, unseen_corpus):
        reports, _ = run_repeats(_config(unseen_corpus, sample_fraction=0.8), repeats=3)
        for stage in ("load", "normalize"):
            assert len({r.timings[stage] for r in reports}) == 1, stage
        for r in reports:
            assert list(r.timings) == ["normalize", "load", "sample", "split", "filter",
                                       "represent", "vectorize", "fit", "score"]

    @pytest.mark.parametrize("corpus,model,sample_fraction", [
        ("lines", "rm", 1.0),
        ("lines", "iforest", 0.5),
        ("blocks", "kmeans", 0.8),
        ("apps", "oovd", 1.0),
    ])
    def test_each_seed_equals_a_standalone_run(self, unseen_corpus, hdfs_corpus,
                                               hadoop_corpus, monkeypatch, corpus, model,
                                               sample_fraction):
        make = {"lines": lambda **kw: _config(unseen_corpus, **kw),
                "blocks": lambda **kw: _hdfs_config(hdfs_corpus, **kw),
                "apps": lambda **kw: _hadoop_config(hadoop_corpus, **kw)}[corpus]
        config = make(model=model, sample_fraction=sample_fraction, k=2)
        scores = _capture_scores(monkeypatch)
        reports, _ = run_repeats(config, repeats=3)
        repeat_scores = list(scores)
        assert len(reports) == len(repeat_scores) == 3
        for i, (report, repeat_s) in enumerate(zip(reports, repeat_scores)):
            scores.clear()
            alone, _ = execute(replace(config, seed=config.seed + i))
            [alone_s] = scores
            assert alone_s.tobytes() == repeat_s.tobytes(), i
            assert _without_timings(alone) == _without_timings(report), i

    @pytest.mark.parametrize("entry,alive", [
        (lambda config: run_repeats(config, 3), [True, True, False]),
        (execute, [False]),
        (run_grid, [False, False, False]),
    ], ids=["run_repeats", "execute", "run_grid"])
    @pytest.mark.parametrize("sample_fraction", [1.0, 0.8])
    def test_the_loaded_set_is_released_after_the_last_split(
        self, unseen_corpus, monkeypatch, entry, alive, sample_fraction
    ):
        # The loaded set (and each seed's sample of it) must outlive the
        # splits that read it, and no more: from the last split on, a run
        # holds what a one-seed run holds.
        loaded, drawn, seen = [], [], []

        def load(*args, _load=pipeline.load):
            rs = _load(*args)
            loaded.append(weakref.ref(rs))
            return rs

        def sample(*args, _sample=pipeline.sample):
            rs = _sample(*args)
            drawn.append(weakref.ref(rs))
            return rs

        def represent(*args, _represent=pipeline._represent):
            seen.append((loaded[0]() is not None, [ref() is not None for ref in drawn]))
            return _represent(*args)

        monkeypatch.setattr(pipeline, "load", load)
        monkeypatch.setattr(pipeline, "sample", sample)
        monkeypatch.setattr(pipeline, "_represent", represent)
        entry(_config(unseen_corpus, sample_fraction=sample_fraction))
        assert [set_alive for set_alive, _ in seen] == alive
        if sample_fraction < 1.0:
            # Seed i's sample is alive while its cells run, unless it is the last.
            assert [samples[-1] for _, samples in seen] == alive
        else:
            assert drawn == []


def _mangle_test_lines(corpus: Path, out: Path, config: RunConfig) -> None:
    """Rewrite the messages of every test-side line, keeping labels and count."""
    rs = load(corpus, config.adapter)
    spec = SplitSpec(config.train_fraction, config.seed, SplitMode(config.split_mode))
    _, test_rs = split(rs, spec)
    test_line_nos = set(test_rs.line_nos.tolist())
    lines = corpus.read_text().splitlines()
    mangled = []
    for i, line in enumerate(lines):
        if i in test_line_nos:
            head = line.split(maxsplit=9)[:9]
            mangled.append(" ".join(head) + f" mangled payload qq{i} zz ww yy xx vv")
        else:
            mangled.append(line)
    out.write_text("\n".join(mangled) + "\n")


class TestLeakageCanary:
    @pytest.mark.parametrize("model,rep", [
        ("oovd", "words"),
        ("rm", "words"),
        ("kmeans", "words"),
        ("iforest", "words"),
        ("oovd", "events"),
    ])
    def test_fitted_artifacts_ignore_test_contents(self, unseen_corpus, tmp_path, model, rep):
        config = _config(unseen_corpus, model=model, representation=rep)
        mangled = tmp_path / "mangled.log"
        _mangle_test_lines(Path(unseen_corpus), mangled, config)

        _, base = execute(config)
        _, other = execute(_config(mangled, model=model, representation=rep))

        assert base.vocabulary.term_to_col == other.vocabulary.term_to_col
        assert np.array_equal(base.vocabulary.doc_freq, other.vocabulary.doc_freq)
        assert np.array_equal(base.vocabulary.term_total, other.vocabulary.term_total)
        if rep == "events":
            assert [(g.event_id, g.template, g.count) for g in base.drain.groups()] == [
                (g.event_id, g.template, g.count) for g in other.drain.groups()
            ]
        if model == "rm":
            assert np.array_equal(base.model.rarity, other.model.rarity)
        elif model == "kmeans":
            assert np.array_equal(base.model.centroids, other.model.centroids)
        elif model == "iforest":
            for field in fields(base.model):
                assert np.array_equal(getattr(base.model, field.name),
                                      getattr(other.model, field.name)), field.name


class TestCli:
    def test_gen_and_run(self, tmp_path, capsys):
        log = tmp_path / "syn.log"
        assert main(["gen", "--out", str(log), "--normal", "400", "--anomalies", "20",
                     "--templates", "8", "--seed", "4"]) == 0
        out = tmp_path / "results"
        code = main([
            "run", "--input", str(log), "--adapter", "bgl", "--rep", "words",
            "--model", "rm", "--scenario", "normal_only", "--train-frac", "0.2",
            "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr().out
        assert "auc=" in captured
        assert (out / "report.json").exists()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        log = gen_synthetic(tmp_path / "c.log", 400, 20, 8, "unseen_token", seed=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input": str(log), "adapter": "bgl", "model": "rm",
            "scenario": "normal_only", "train_fraction": 0.2, "seed": 1,
        }))
        assert main(["run", "--config", str(cfg), "--model", "oovd"]) == 0
        assert "model=oovd" in capsys.readouterr().out

    def test_config_file_paths_as_strings_match_the_flags(self, tmp_path, hdfs_corpus):
        # A config file's paths reach RunConfig as the strings it holds.
        log, labels = hdfs_corpus / "hdfs.log", hdfs_corpus / "labels.csv"
        assert main(["run", "--input", str(log), "--adapter", "hdfs", "--labels", str(labels),
                     "--scenario", "normal_only", "--train-frac", "0.2", "--seed", "1",
                     "--out", str(tmp_path / "flags")]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "input": str(log), "adapter": "hdfs", "labels": str(labels),
            "scenario": "normal_only", "train_fraction": 0.2, "seed": 1,
            "out_dir": str(tmp_path / "file"),
        }))
        assert main(["run", "--config", str(cfg)]) == 0
        reports = []
        for out in ("flags", "file"):
            report = json.loads((tmp_path / out / "report.json").read_text())
            del report["timings"], report["model_time"], report["meta"]["params"]["out_dir"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["meta"]["params"]["labels"] == str(labels)

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inptu": "x.log"}))
        assert main(["run", "--config", str(cfg)]) == 2

    def test_oovd_unfiltered_is_config_error(self, tmp_path):
        log = gen_synthetic(tmp_path / "d.log", 200, 10, 8, "unseen_token", seed=4)
        code = main(["run", "--input", str(log), "--adapter", "bgl",
                     "--model", "oovd", "--scenario", "unfiltered"])
        assert code == 2

    def test_grid_repeats_conflict(self, tmp_path):
        log = gen_synthetic(tmp_path / "e.log", 200, 10, 8, "unseen_token", seed=4)
        code = main(["run", "--input", str(log), "--adapter", "bgl",
                     "--grid", "--repeats", "3"])
        assert code == 2

    def test_gen_into_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.log"
        assert main(["gen", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_run_into_a_file_fails_before_reading_the_log(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("")
        code = main(["run", "--input", str(tmp_path / "missing.log"), "--adapter", "bgl",
                     "--out", str(tmp_path / "afile")])
        assert code == 2
        assert "is not a directory" in capsys.readouterr().err

    def test_missing_input(self):
        assert main(["run", "--model", "rm"]) == 2

    def test_missing_adapter_fails_before_reading_the_log(self, tmp_path, capsys):
        assert main(["run", "--input", str(tmp_path / "missing.log")]) == 2
        assert capsys.readouterr().err == (
            "error: an adapter is required (--adapter or config file)\n")

    def test_plain_adapter_fails_before_reading_the_log(self, tmp_path, capsys):
        assert main(["run", "--input", str(tmp_path / "missing.log"), "--adapter", "plain"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: plain input has no labels to evaluate")
        assert "cannot read" not in err

    def test_grid_prints_every_cell(self, tmp_path, capsys):
        log = gen_synthetic(tmp_path / "g.log", 200, 10, 8, "unseen_token", seed=4)
        code = main(["run", "--input", str(log), "--adapter", "bgl", "--scenario",
                     "normal_only", "--train-frac", "0.2", "--seed", "1", "--grid"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 12 and all(" auc=" in line for line in lines)
        assert len({tuple(line.split()[1:3]) for line in lines}) == 12

    def test_repeats_print_each_run_and_the_summary(self, tmp_path, capsys):
        log = gen_synthetic(tmp_path / "r.log", 200, 10, 8, "unseen_token", seed=4)
        code = main(["run", "--input", str(log), "--adapter", "bgl", "--scenario",
                     "normal_only", "--train-frac", "0.2", "--seed", "1", "--repeats", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        assert all(" auc=" in line for line in lines[:3])
        assert [line.split(":")[0] for line in lines[3:]] == ["auc", "f1", "model_time"]
        assert all(" min=" in line and " max=" in line for line in lines[3:])

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not_json"])
    def test_unreadable_config_file_rejected(self, tmp_path, capsys, content):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {cfg}: ")

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    def test_repeats_below_one_rejected(self, tmp_path, capsys, repeats):
        log = gen_synthetic(tmp_path / "f.log", 200, 10, 8, "unseen_token", seed=4)
        code = main(["run", "--input", str(log), "--adapter", "bgl", "--scenario",
                     "normal_only", "--train-frac", "0.2", "--repeats", repeats])
        assert code == 2
        captured = capsys.readouterr()
        assert "--repeats must be >= 1" in captured.err
        assert "auc=" not in captured.out

    @pytest.mark.parametrize("key,value,message", [
        ("k", "8", "k must be an integer, got '8'"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("f1_budget", True, "f1_budget must be an integer, got True"),
        ("train_fraction", "0.1", "train_fraction must be a number, got '0.1'"),
        ("sim_threshold", None, "sim_threshold must be a number, got None"),
    ], ids=["k", "seed", "f1_budget", "train_fraction", "sim_threshold"])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "missing.log"), "adapter": "bgl",
                                   key: value}))
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("content,message", [
        (5, "config file {cfg} must hold a JSON object, got 5"),
        (["input"], "config file {cfg} must hold a JSON object, got ['input']"),
        ({"input": 5}, "input must be a path, got 5"),
        ({"labels": 3}, "labels must be a path, got 3"),
        ({"adapter": ["bgl"]},
         "adapter must be one of ('bgl', 'thunderbird', 'hdfs', 'hadoop', 'plain')"),
        ({"representation": ["words"]},
         "representation must be one of ('words', 'trigrams', 'events')"),
        ({"model": ["rm"]}, "model must be one of ('oovd', 'rm', 'kmeans', 'iforest')"),
        ({"scenario": ["unfiltered"]}, "scenario must be one of ('unfiltered', 'normal_only')"),
        ({"split_mode": ["random"]}, "split_mode must be one of ('random', 'chronological')"),
        ({"dump_templates": "yes"}, "dump_templates must be true or false, got 'yes'"),
    ], ids=["int_file", "list_file", "input", "labels", "adapter", "representation", "model",
            "scenario", "split_mode", "dump_templates"])
    def test_malformed_config_file_rejected(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        if isinstance(content, dict):
            content = {"input": str(tmp_path / "missing.log"), "adapter": "bgl", **content}
        cfg.write_text(json.dumps(content))
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"

    def test_repeats_check_the_seed_before_deriving_seeds(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"input": str(tmp_path / "missing.log"), "adapter": "bgl",
                                   "seed": "1"}))
        assert main(["run", "--config", str(cfg), "--repeats", "2"]) == 2
        assert capsys.readouterr().err == "error: seed must be an integer, got '1'\n"

    def test_negative_seed_rejected(self, tmp_path, capsys):
        log = gen_synthetic(tmp_path / "s.log", 200, 10, 8, "unseen_token", seed=4)
        code = main(["run", "--input", str(log), "--adapter", "bgl", "--scenario",
                     "normal_only", "--train-frac", "0.2", "--seed", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "seed must be >= 0, got -1" in captured.err
        assert "auc=" not in captured.out
