"""The README names every public name, its module map names only names
that exist in the module each row lists, and its Python code runs."""

import importlib
import re
from pathlib import Path

import pytest

import logad
from logad.pipeline import RunConfig, execute
from logad.synth import gen_synthetic

TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text()
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, flags=re.S)
# Fenced code blocks are left out, so that their fences do not pair with
# inline backticks.
README = re.sub(r"```.*?```", "", TEXT, flags=re.S)
BACKTICKED = re.compile(r"`([^`]+)`")


def _module_map_rows():
    """(module name, names in backticks) for each row of the module map."""
    section = README.split("## Module map", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`logad."):
            rows.append((cells[0].strip("`"), BACKTICKED.findall(cells[1])))
    return rows


def test_every_public_name_is_in_the_readme():
    # A call such as `load(path, adapter, labels)` names `load`.
    named = {span.split("(", 1)[0] for span in BACKTICKED.findall(README)}
    assert sorted(set(logad.__all__) - named) == []


def test_module_map_names_resolve():
    rows = _module_map_rows()
    assert {module for module, _ in rows} >= {
        "logad.ingest", "logad.normalize", "logad.represent", "logad.vectorize",
        "logad.detect", "logad.evaluate", "logad.pipeline", "logad.synth", "logad.cli",
    }
    missing = []
    for module, names in rows:
        for name in names:
            # `rm_fit`/`rm_score` are two names; `RecordSet.unit_ids` is one.
            found = importlib.import_module(module)
            for part in name.split("."):
                found = getattr(found, part, None)
            if found is None:
                missing.append(f"{module}: {name}")
    assert missing == []


@pytest.fixture
def demo_log(tmp_path, monkeypatch):
    """The README's ``demo.log``, a small generated bgl corpus, in the working directory."""
    gen_synthetic(tmp_path / "demo.log", 2000, 40, seed=7)
    monkeypatch.chdir(tmp_path)


def _run_block(block):
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    return namespace


@pytest.mark.parametrize("block", PYTHON_BLOCKS,
                         ids=[f"block{i}" for i in range(len(PYTHON_BLOCKS))])
def test_python_blocks_run(demo_log, block, capsys):
    _run_block(block)
    assert capsys.readouterr().out


def test_layer_by_layer_example_is_the_pipeline_cell(demo_log):
    [block] = [block for block in PYTHON_BLOCKS if "fit_units" in block]
    table = _run_block(block)["table"]
    report, _ = execute(RunConfig(input="demo.log", adapter="bgl", scenario="normal_only",
                                  seed=1))
    assert repr(table.auc()) == repr(report.auc)
    assert table.best_f1() == (report.best_threshold, report.best_f1)
    assert table.histogram(50).bins == report.histogram.bins
