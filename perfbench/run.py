#!/usr/bin/env python3
"""cepde benchmark: time to a verdict, verdict throughput, set-up time and
memory, with every verdict checked apart from cepde.

One operation is one user-level verdict,
``cepde.cli.main(["classify", "--pde", F, "--n", n, "--seed", s, "--out", path])``,
run in a closed loop by one caller in this process.  Before each operation
cepde's memo caches are cleared, so that every operation does the work of one
fresh CLI call after import.  Usage, from the root of a checkout:

    python3 perfbench/run.py --workload corpus-n2 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last stdout line reports the end-to-end metrics, their
times scaled to the machine's full speed by a reference loop (refloop.py);
with ``--trace 1`` it reports per-layer metrics from traced rounds, alternated
with untraced rounds to measure the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import refloop
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SCHEMA = SRC / "cepde" / "data" / "report_schema_v1.json"

SETUP_REPEATS = 7
SPEED_WINDOW = 3    # operations on each side in the local machine-speed median
PROBE_BATCHES = (1, 33, 64, 2000)
PROBE_ROWS = 4000   # rows per tape and batch size in the kernel probe
LAYERS = ("cli", "report", "expr", "backend", "symbol", "tensor", "ma", "charvar")

# Runs in a fresh interpreter: time the reference loop, then import cepde
# and parse the workload's inputs.
SETUP_CODE = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[3])
from refloop import reference_seconds
ref = statistics.median(reference_seconds() for _ in range(3))
cases = json.loads(sys.argv[2])
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cepde
for text, n in cases:
    cepde.parse(text, n)
print(time.perf_counter() - t0, ref)
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_cepde():
    """Import cepde from this checkout's sources, never from elsewhere."""
    package = SRC / "cepde"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: cepde sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import cepde

    if Path(cepde.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported cepde from {cepde.__file__}")
    return cepde


def memo_caches() -> list:
    """The functools caches of every cepde module.  Collected once, before
    the tracer replaces any module attribute with a wrapper."""
    found = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "cepde" or key.startswith("cepde.")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def measure_setup(cases) -> float:
    """Median over fresh interpreters of the time to import cepde and parse
    the workload's expressions, each scaled by that interpreter's reference
    loop time."""
    spec = json.dumps([[c.expression, c.n] for c in cases])
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), spec,
                               str(HERE)],
                              capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        seconds, ref = map(float, proc.stdout.split())
        times.append(seconds * refloop.NOMINAL_S / ref)
    return statistics.median(times)


class Op:
    __slots__ = ("case", "seed", "path", "code", "seconds", "ref_s")

    def __init__(self, case, seed, path):
        self.case, self.seed, self.path = case, seed, path


def run_round(cli, caches, cases, bench_seed: int, round_index: int,
              out_dir: Path, ops: list) -> None:
    """Run every case once, each with cepde's caches cleared first."""
    for case in cases:
        op = Op(case, case.cepde_seed(bench_seed, round_index),
                out_dir / f"{len(ops):05d}.json")
        argv = ["classify", "--pde", case.expression, "--n", str(case.n),
                "--seed", str(op.seed), "--out", str(op.path)]
        op.ref_s = refloop.reference_seconds()
        for cache in caches:
            cache.cache_clear()
        err = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                op.code = cli.main(argv)
        except SystemExit as exc:
            op.code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a dead run
            op.code = 1
            err.write(traceback.format_exc())
        op.seconds = perf_counter() - t0
        if op.code != 0 and not case.known_fault:
            print(f"[perfbench] {case.name} seed {op.seed}: exit {op.code}\n"
                  f"{err.getvalue()[-2000:]}", file=sys.stderr)
        ops.append(op)


def scaled_seconds(ops) -> list[float]:
    """Each operation's wall time scaled to the machine's full speed by the
    median reference-loop time of the operations around it.  The speed
    drifts over minutes; a local median follows the drift within a run,
    and one loop timing that jitters does not move it."""
    refs = [op.ref_s for op in ops]
    return [op.seconds * refloop.NOMINAL_S
            / statistics.median(refs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
            for i, op in enumerate(ops)]


def per_case_median(ops, seconds) -> float:
    """Median time of one operation, taken per equation and averaged over
    the workload's equations.  A median of all operations pooled would jump
    from one equation's times to another's as the number of whole rounds in
    a run changes."""
    by_case: dict[str, list[float]] = {}
    for op, t in zip(ops, seconds):
        by_case.setdefault(op.case.name, []).append(t)
    return statistics.fmean(statistics.median(t) for t in by_case.values())


def check_ops(ops, bench_seed: int) -> bool:
    """Check every successful operation's report, then show that the checker
    rejects corrupted reports.  An operation that exits non-zero is wrong
    unless its case has a known fault.  Returns True when everything holds."""
    from checks import CheckFailed, Checker, self_check

    checker = Checker(SCHEMA)
    rng = np.random.default_rng(bench_seed)
    correct = True
    sample = None
    for op in ops:
        if op.code != 0:
            if not op.case.known_fault:
                print(f"[perfbench] WRONG {op.case.name} seed {op.seed}: "
                      f"exit {op.code}", file=sys.stderr)
                correct = False
            continue
        try:
            report = json.loads(op.path.read_text(encoding="utf-8"))
            checker.check(op.case, op.seed, report, rng)
        except (CheckFailed, OSError, ValueError) as exc:
            print(f"[perfbench] WRONG {op.case.name} seed {op.seed}: {exc}",
                  file=sys.stderr)
            correct = False
            continue
        if sample is None and op.case.exceptional:
            sample = (op, report)
    if sample is None:
        print("[perfbench] no correct exceptional report to self-check with",
              file=sys.stderr)
        return False
    op, report = sample
    missed = self_check(checker, op.case, op.seed, report, rng)
    if missed:
        print(f"[perfbench] self-check: checker accepted {missed}", file=sys.stderr)
        return False
    return correct


def probe_rows_per_s(cepde, cases, rng) -> dict[str, float]:
    """Rows per second of backend.eval_batch on each case's tape of F, at
    fixed batch sizes, over uniform random rows in [-2, 2]."""
    from cepde import backend

    exprs = {(c.expression, c.n): cepde.parse(c.expression, c.n) for c in cases}
    out = {}
    for b in PROBE_BATCHES:
        rows = seconds = 0.0
        for (_, n), F in exprs.items():
            nvars = 2 * n + 1 + n * (n + 1) // 2
            mats = rng.uniform(-2.0, 2.0, size=(max(2, PROBE_ROWS // b), b, nvars))
            backend.eval_batch(F, n, mats[0])  # compile outside the timing
            t0 = perf_counter()
            for mat in mats:
                backend.eval_batch(F, n, mat)
            seconds += perf_counter() - t0
            rows += mats.shape[0] * b
        out[f"backend.rows_per_s.b{b}"] = rows / seconds
    return out


def _merge(totals: dict, drained: dict) -> None:
    for name, row in drained.items():
        acc = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for key, value in row.items():
            acc[key] += value


def layer_metrics(totals: dict, counts, n_ops: int) -> dict[str, tuple[float, str]]:
    def calls(*names):
        return sum(totals.get(nm, {}).get("calls", 0) for nm in names) / n_ops

    def secs(*names):
        return sum(totals.get(nm, {}).get("total_s", 0.0) for nm in names) / n_ops

    m = {
        "expr.parse_s": (secs("expr.parse"), "s/op"),
        "expr.parse_calls": (calls("expr.parse"), "calls/op"),
        "expr.differentiate_s": (secs("expr.differentiate"), "s/op"),
        "expr.differentiate_calls": (calls("expr.differentiate"), "calls/op"),
        "backend.compile_calls": (calls("backend.compile_expr"), "calls/op"),
        "backend.scalar_calls": (calls("backend.eval_vector",
                                       "backend.eval_vector_or_nan"), "calls/op"),
        "backend.scalar_s": (secs("backend.eval_vector",
                                  "backend.eval_vector_or_nan"), "s/op"),
        "backend.batch_calls": (calls("backend.eval_batch"), "calls/op"),
        "backend.batch_rows": (counts["backend.batch_rows"] / n_ops, "rows/op"),
        "backend.batch_error_rows": (counts["backend.batch_error_rows"] / n_ops,
                                     "rows/op"),
        "backend.batch_s": (secs("backend.eval_batch"), "s/op"),
        "symbol.sample_zero_locus_s": (secs("symbol.sample_zero_locus"), "s/op"),
        "symbol.locus_samples": (counts["symbol.locus_samples"] / n_ops,
                                 "samples/op"),
        "symbol.divisibility_s": (secs("symbol.exceptionality_at_point"), "s/op"),
        "symbol.divisibility_calls": (calls("symbol.exceptionality_at_point"),
                                      "calls/op"),
        "tensor.factor_quartic_s": (secs("tensor.factor_quartic"), "s/op"),
        "tensor.minor_evaluate_calls": (calls("tensor.MinorBasis.evaluate"), "calls/op"),
        "tensor.minor_evaluate_s": (secs("tensor.MinorBasis.evaluate"), "s/op"),
        "ma.classify_s": (secs("ma.classify"), "s/op"),
        "ma.fit_calls": (calls("ma.fit_minor_expansion"), "calls/op"),
        "charvar.speeds_calls": (calls("charvar.characteristic_speeds"), "calls/op"),
        "charvar.equivalence_s": (secs("charvar.equivalence_report"), "s/op"),
        "charvar.lax_s": (secs("charvar.lax_residual"), "s/op"),
        "charvar.strong_test_s": (secs("charvar.strong_char_test"), "s/op"),
        "charvar.hyperbolicity_scan_s": (secs("charvar.hyperbolicity_scan"), "s/op"),
        "report.classify_pde_s": (secs("report.classify_pde"), "s/op"),
        "report.canonical_json_s": (secs("report.canonical_json"), "s/op"),
        "report.json_bytes": (counts["report.json_bytes"] / n_ops, "bytes/op"),
    }
    for layer in LAYERS:
        self_s = sum(row["self_s"] for name, row in totals.items()
                     if name.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (self_s / n_ops, "s/op")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    cases = WORKLOADS[args.workload]
    cepde = import_cepde()
    from cepde import cli

    caches = memo_caches()
    print(f"[perfbench] workload {args.workload}, seed {args.seed}, "
          f"compiled kernel: {cepde.USING_COMPILED}", file=sys.stderr)
    setup_s = None if args.trace else measure_setup(cases)
    out_dir = OUT / f"run-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ops: list[Op] = []
    try:
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            totals: dict = {}
            traced_ops = 0
            t_start = perf_counter()
            r = 0
            while r < 2 or perf_counter() - t_start < args.seconds:
                tracer.install()
                try:
                    run_round(cli, caches, cases, args.seed, r, out_dir, ops)
                finally:
                    tracer.uninstall()
                _merge(totals, tracer.drain())
                traced_ops += len(cases)
                run_round(cli, caches, cases, args.seed, r, out_dir, ops)
                r += 1
            metrics = layer_metrics(totals, tracer.counts, traced_ops)
            # Rounds alternate traced, untraced on the same inputs.  The first
            # pair is left out: its traced round also pays one-time costs.
            m, scaled = len(cases), scaled_seconds(ops)
            traced = sum(sum(scaled[k * m:(k + 1) * m]) for k in range(2, 2 * r, 2))
            plain = sum(sum(scaled[k * m:(k + 1) * m]) for k in range(3, 2 * r, 2))
            metrics["trace.overhead_s"] = ((traced - plain) / ((r - 1) * m), "s/op")
            rng = np.random.default_rng(args.seed)
            for name, value in probe_rows_per_s(cepde, cases, rng).items():
                metrics[name] = (value, "rows/s")
            for name in sorted(totals):
                row = totals[name]
                print(f"[perfbench] {name:40s} {row['calls'] / traced_ops:12.1f} "
                      f"calls/op {row['total_s'] / traced_ops:10.5f} s/op total "
                      f"{row['self_s'] / traced_ops:10.5f} s/op self",
                      file=sys.stderr)
        else:
            t_start = perf_counter()
            r = 0
            while r < 1 or perf_counter() - t_start < args.seconds:
                run_round(cli, caches, cases, args.seed, r, out_dir, ops)
                r += 1
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wall, scaled = [op.seconds for op in ops], scaled_seconds(ops)
            # < 1 when the machine runs slower than at full speed
            speed = sum(scaled) / sum(wall)
            print(f"[perfbench] unscaled: classify_p50_s ="
                  f" {per_case_median(ops, wall):.6g} s, pdes_per_s ="
                  f" {len(ops) / sum(wall):.6g} 1/s; machine speed {speed:.3f}",
                  file=sys.stderr)
            metrics = {
                "setup_s": (setup_s, "s"),
                "classify_p50_s": (per_case_median(ops, scaled), "s"),
                "pdes_per_s": (len(ops) / sum(scaled), "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        correct = check_ops(ops, args.seed)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(1 for op in ops if op.code != 0)
    for name, (value, unit) in metrics.items():
        print(f"[perfbench] {name} = {value:.6g} {unit}", file=sys.stderr)
    print(f"[perfbench] {len(ops)} operations, {failed} failed, correct={correct}",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
