"""The README names every public name, and its module map names only names
that exist in the module each row lists."""

import importlib
import re
from pathlib import Path

import logad

# Fenced code blocks are left out, so that their fences do not pair with
# inline backticks.
README = re.sub(r"```.*?```", "", (Path(__file__).resolve().parents[1] / "README.md").read_text(),
                flags=re.S)
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
