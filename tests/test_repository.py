"""Guards on the checkout itself: git tracks no file that .gitignore lists,
the package exports what its __all__ names, and the benchmark harness still
runs against the package's current names."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_tracked_file_is_ignored():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        ["git", "ls-files", "--cached", "--ignored", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    assert proc.stdout == ""


def test_public_names_resolve():
    import cepde

    missing = [name for name in cepde.__all__ if not hasattr(cepde, name)]
    assert missing == []
    namespace = {}
    exec("from cepde import *", namespace)
    assert set(cepde.__all__) <= set(namespace)


def test_benchmark_harness_smoke():
    # one traced highdim round: the tracer patches cepde functions by name,
    # so a renamed or removed target makes the run fail
    pytest.importorskip("sympy")
    pytest.importorskip("jsonschema")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "highdim", "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
