"""logad runs on numpy alone: scipy is a test oracle, never imported by a run."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import logad


def test_run_and_grid_import_no_scipy(tmp_path):
    code = textwrap.dedent(f"""
        import sys

        import logad

        corpus = logad.gen_synthetic({str(tmp_path / "c.log")!r}, n_normal=300, n_anomalies=10,
                                     n_templates=5, anomaly_kind="unseen_token", seed=3)
        config = logad.RunConfig(input=corpus, adapter="bgl", scenario="normal_only",
                                 train_fraction=0.2, seed=1)
        logad.run(config)
        logad.run_grid(config)
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    src = str(Path(logad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
