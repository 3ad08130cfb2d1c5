"""The tape evaluator: the scalar path and the column path give identical
values and identical first failing instructions, row by row."""

import numpy as np
import pytest

from cepde import backend
from cepde._tape import compile_expr
from cepde.expr import parse, variable_layout
from conftest import random_jetpoint

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


def _scalar(tape, vec):
    return backend._run(tape, vec.tolist())


@pytest.mark.parametrize("text", EXPRS)
def test_column_batch_matches_scalar_rows(text, rng):
    # the column path against the scalar path, row by row: same bits of
    # every value and the same first failing instruction
    e = parse(text, 2)
    tape = compile_expr(e, 2)
    mat = _rows(rng)
    out, errs = backend.eval_batch(e, 2, mat)
    scalar = [_scalar(tape, row) for row in mat]
    assert np.array_equal(errs, [err for _, err in scalar]), text
    assert _same_bits(out, np.array([value for value, _ in scalar])), text


class TestBackendSemantics:
    def test_domain_error_positions(self):
        layout = variable_layout(2)
        tape = compile_expr(parse("log(u) + 1", 2), 2)
        vec = np.zeros(len(layout))
        value, err = _scalar(tape, vec)
        assert err >= 0 and np.isnan(value)
        vec[layout.index("u")] = 2.0
        value, err = _scalar(tape, vec)
        assert err == -1 and value == pytest.approx(np.log(2.0) + 1.0)

    def test_integer_power_semantics(self):
        tape = compile_expr(parse("u^0", 2), 2)
        vec = np.zeros(len(variable_layout(2)))
        value, err = _scalar(tape, vec)
        assert (value, err) == (1.0, -1)  # 0^0 = 1 by convention

    def test_batch_row_independence(self, rng):
        # a domain error in one row must not poison later rows
        layout = variable_layout(2)
        mat = np.tile(random_jetpoint(rng, 2).to_vector(), (3, 1))
        mat[1, layout.index("u11")] = 0.0
        mat[2, layout.index("u11")] = 4.0
        out, err = backend.eval_batch(parse("1/u11", 2), 2, mat)
        assert err[1] >= 0 and np.isnan(out[1])
        assert err[0] == -1 and err[2] == -1
        assert out[2] == pytest.approx(0.25)

    def test_batch_values_are_a_fresh_array(self, rng):
        # the tape of a bare variable ends in a column of the input matrix
        mat = np.array([random_jetpoint(rng, 2).to_vector() for _ in range(3)])
        before = mat.copy()
        out, _ = backend.eval_batch(parse("u11", 2), 2, mat)
        out[:] = np.nan
        assert np.array_equal(mat, before)


def test_subexpression_sharing_compiles_once():
    e = parse("(u11 + u22)^2 * (u11 + u22) + sin(u11 + u22)", 2)
    tape = compile_expr(e, 2)
    # u11 + u22 appears three times in the tree but once on the tape
    adds = [k for k, c in enumerate(tape.codes) if c == 9]
    assert len(adds) < 3 + 1
