"""Guards on the checkout itself: git tracks no file that .gitignore lists,
the package exports what its __all__ names and keeps no unused private
helper, and the benchmark harness still runs against the package's current
names."""

import ast
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


def _defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def test_no_unreferenced_private_names():
    # a module-level _name that nothing in the package reads is dead code;
    # a function's references to itself do not count
    paths = sorted((ROOT / "src" / "cepde").glob("*.py"))
    assert paths
    defined, used = {}, set()
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined_names(node)
            for name in own:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.name
            for sub in ast.walk(node):
                ref = (sub.id if isinstance(sub, ast.Name)
                       and isinstance(sub.ctx, ast.Load)
                       else sub.attr if isinstance(sub, ast.Attribute) else None)
                if ref is not None and ref not in own:
                    used.add(ref)
    unused = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in used)
    assert unused == []


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
