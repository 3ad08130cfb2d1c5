"""Both evaluator backends (Cython kernel and pure-Python fallback) must give
identical values, identical domain-error positions, and identical batch
results."""

import numpy as np
import pytest

from cepde import _evalpure
from cepde._tape import compile_expr
from cepde.expr import parse, variable_layout
from conftest import random_jetpoint

try:
    from cepde import _evalcore
except ImportError:
    _evalcore = None

BACKENDS = [("pure", _evalpure)] + ([("compiled", _evalcore)] if _evalcore else [])

EXPRS = [
    "u11*u22 - u12^2 - 1",
    "sin(x1)*u11 + u*(u11*u22 - u12^2)",
    "u11 - u22^3/3 - u22",
    "exp(u)*tanh(u1) + sqrt(1 + u2^2) - log(1 + x1^2)",
    "1/(u11 - u22)",
    "log(u)",
    "sqrt(u1)",
    "u^0 + u11^7",
    # rows that fail at the division or the sqrt must never reach log or
    # sin, where math.log(-inf) or math.log(nan) would be evaluated
    "log(-1/u11) + sin(sqrt(u1) - 1)",
    # a row that failed at sqrt or log keeps that instruction as its error
    # when a later check fails too
    "sqrt(u1)*log(u)/u11",
    "sin(exp(400*u11)) + cos(exp(u22^3)) + tanh(log(u))",
]


def _rows(rng, count=200):
    """Random jet points, with exact zeros and ties planted so that every
    domain check of the EXPRS tapes fails on some rows."""
    layout = variable_layout(2)
    mat = np.array([random_jetpoint(rng, 2).to_vector() for _ in range(count)])
    u11, u22, u = (layout.index(v) for v in ("u11", "u22", "u"))
    mat[:40, u11] = 0.0
    mat[20:60, u22] = mat[20:60, u11]
    mat[60:80, u] = 0.0
    mat[80:90, u11] = 1.9  # exp(400*u11) overflows
    return mat


def _same_bits(x, y) -> bool:
    nan = np.isnan(x)
    return (np.array_equal(nan, np.isnan(y))
            and np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64)))


def _scalar(impl, tape, vec):
    regs = np.empty(len(tape), dtype=np.float64)
    return impl.eval_scalar(tape.codes, tape.a, tape.b, tape.consts,
                            np.ascontiguousarray(vec), regs)


@pytest.mark.skipif(_evalcore is None, reason="compiled kernel unavailable")
class TestBackendAgreement:
    def test_values_and_errors_match(self, rng):
        for text in EXPRS:
            e = parse(text, 2)
            tape = compile_expr(e, 2)
            for _ in range(50):
                vec = random_jetpoint(rng, 2).to_vector()
                vp, ep = _scalar(_evalpure, tape, vec)
                vc, ec = _scalar(_evalcore, tape, vec)
                assert ep == ec, text
                if ep < 0:
                    assert vp == vc or (np.isnan(vp) and np.isnan(vc)), text

    def test_batch_matches(self, rng):
        e = parse("sin(x1)*u11 + u*(u11*u22 - u12^2) + 1/(u11 - u22)", 2)
        tape = compile_expr(e, 2)
        mat = np.array([random_jetpoint(rng, 2).to_vector() for _ in range(200)])
        outs, errs = [], []
        for impl in (_evalpure, _evalcore):
            out = np.empty(len(mat))
            err = np.empty(len(mat), dtype=np.int32)
            regs = np.empty(len(tape))
            impl.eval_batch(tape.codes, tape.a, tape.b, tape.consts,
                            np.ascontiguousarray(mat), out, err, regs)
            outs.append(out)
            errs.append(err)
        assert np.array_equal(errs[0], errs[1])
        ok = errs[0] < 0
        assert np.array_equal(outs[0][ok], outs[1][ok])
        assert np.all(np.isnan(outs[0][~ok]))


@pytest.mark.parametrize("text", EXPRS)
def test_column_batch_matches_scalar_rows(text, rng):
    # the pure column executor against the pure scalar path, row by row:
    # same bits of every value and the same first failing instruction
    tape = compile_expr(parse(text, 2), 2)
    mat = _rows(rng)
    out = np.empty(len(mat))
    errs = np.empty(len(mat), dtype=np.int32)
    _evalpure.eval_batch(tape.codes, tape.a, tape.b, tape.consts, mat, out,
                         errs, np.empty(len(tape)))
    scalar = [_scalar(_evalpure, tape, row) for row in mat]
    assert np.array_equal(errs, [err for _, err in scalar]), text
    assert _same_bits(out, np.array([value for value, _ in scalar])), text


@pytest.mark.parametrize("name,impl", BACKENDS)
class TestBackendSemantics:
    def test_domain_error_positions(self, name, impl):
        layout = variable_layout(2)
        tape = compile_expr(parse("log(u) + 1", 2), 2)
        vec = np.zeros(len(layout))
        value, err = _scalar(impl, tape, vec)
        assert err >= 0 and np.isnan(value)
        vec[layout.index("u")] = 2.0
        value, err = _scalar(impl, tape, vec)
        assert err == -1 and value == pytest.approx(np.log(2.0) + 1.0)

    def test_integer_power_semantics(self, name, impl):
        tape = compile_expr(parse("u^0", 2), 2)
        vec = np.zeros(len(variable_layout(2)))
        value, err = _scalar(impl, tape, vec)
        assert (value, err) == (1.0, -1)  # 0^0 = 1 by convention

    def test_batch_row_independence(self, name, impl, rng):
        # a domain error in one row must not poison later rows
        tape = compile_expr(parse("1/u11", 2), 2)
        layout = variable_layout(2)
        mat = np.tile(random_jetpoint(rng, 2).to_vector(), (3, 1))
        mat[1, layout.index("u11")] = 0.0
        mat[2, layout.index("u11")] = 4.0
        out = np.empty(3)
        err = np.empty(3, dtype=np.int32)
        regs = np.empty(len(tape))
        impl.eval_batch(tape.codes, tape.a, tape.b, tape.consts,
                        np.ascontiguousarray(mat), out, err, regs)
        assert err[1] >= 0 and np.isnan(out[1])
        assert err[0] == -1 and err[2] == -1
        assert out[2] == pytest.approx(0.25)


def test_subexpression_sharing_compiles_once():
    e = parse("(u11 + u22)^2 * (u11 + u22) + sin(u11 + u22)", 2)
    tape = compile_expr(e, 2)
    # u11 + u22 appears three times in the tree but once on the tape
    adds = [k for k, c in enumerate(tape.codes) if c == 9]
    assert len(adds) < 3 + 1


def test_pure_fallback_selected_by_env(tmp_path):
    import os
    import subprocess
    import sys

    import cepde

    # the child must import the same cepde as this process, whether it is
    # pip-installed or only on PYTHONPATH; cwd=tmp_path keeps the launch
    # directory off the child's import path
    src = os.path.dirname(os.path.dirname(cepde.__file__))
    env = dict(os.environ, CEPDE_PURE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import cepde, sys; "
            "sys.exit(0 if not cepde.USING_COMPILED else 1)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=tmp_path, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
