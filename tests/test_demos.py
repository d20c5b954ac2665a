"""The demos run to completion against the current public API, and the
metrics demo prints the same numbers whatever the string hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(name: str, hash_seed: str = "0") -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stdout + result.stderr


def test_demo_metrics_does_not_depend_on_hash_seed():
    one, two = run_demo("demo_metrics.py", "1"), run_demo("demo_metrics.py", "2")
    assert one.returncode == two.returncode == 0, one.stderr + two.stderr
    assert one.stdout == two.stdout
