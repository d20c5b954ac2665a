"""The benchmark's self-test passes: it traces fcrg functions by name
(``Tensor.accumulate_grad``, ``tensor.matmul``, ``model.backward``, ...), so a
rename or a new signature of a traced function fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert "selftest: ok" in result.stdout, result.stdout + result.stderr
    assert result.returncode == 0
