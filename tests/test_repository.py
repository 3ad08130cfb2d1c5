"""Guards on the checkout itself: git tracks no file that .gitignore lists,
the package exports what its __all__ names and keeps no unused private
helper, the README's command lines run, and the benchmark harness still runs
against the package's current names."""

import ast
import json
import os
import re
import shlex
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


def _readme_cli_lines() -> list[list[str]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("cepde classify")
            or line.startswith("cepde corpus --file bundled.json")]


def test_readme_cli_examples_run(tmp_path):
    from cepde.cli import main

    lines = _readme_cli_lines()
    assert len(lines) == 4
    for k, argv in enumerate(lines):
        if "--out" in argv:
            argv = argv[:argv.index("--out")] + argv[argv.index("--out") + 2:]
        out = tmp_path / f"{k}.out"
        assert main([*argv, "--out", str(out)]) == 0, argv
        assert out.stat().st_size > 0


def test_tracer_counts_the_characteristic_stages():
    # the benchmark's tracer wraps cepde's public names, so it counts a
    # characteristic stage only when the pipeline runs it under that name
    import importlib.util

    import cepde.cli  # noqa: F401  (the tracer patches every cepde module)
    from cepde import report

    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        outcome = report.classify_pde("u11 - u22^3/3 - u22", 2)
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.drain().items()}
    samples = outcome.report["exceptionality"]["sample_count"]
    assert calls.get("charvar.characteristic_speeds", 0) >= samples > 0
    for stage in ("lax_residual", "strong_char_test", "hyperbolicity_scan"):
        assert calls.get(f"charvar.{stage}", 0) >= 1, stage
