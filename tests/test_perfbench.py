import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_ends_smoke_ok(tmp_path):
    # perfbench/ pins golden outputs and wraps named functions of src/: a change
    # that breaks a pin fails here. It runs on a copy, since the smoke run writes
    # its caches and op directories under perfbench/.work/ next to run.py.
    skip = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(REPO / "src", tmp_path / "src", ignore=skip)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=skip)
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # run.py sets its own
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "smoke ok"
