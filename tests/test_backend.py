"""The tape evaluator: a row's value and first failing instruction do not
depend on the other rows of its batch, bit for bit."""

import numpy as np
import pytest

from cepde import backend
from cepde.backend import compile_expr
from cepde.expr import EvaluationDomainError, parse, variable_layout
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


def _alone(e, vec):
    """One row evaluated as a batch of one, as the single-point functions
    evaluate."""
    values, errs = backend.eval_batch(e, 2, vec[None, :])
    return values[0], errs[0]


@pytest.mark.parametrize("text", EXPRS)
def test_column_batch_matches_scalar_rows(text, rng):
    # every row of a batch against the same row evaluated alone and in the
    # reversed batch: same bits of every value and the same first failing
    # instruction.  The zero-locus solver's output depends on this: it
    # batches rows of many candidates together.
    e = parse(text, 2)
    mat = _rows(rng)
    out, errs = backend.eval_batch(e, 2, mat)
    alone = [_alone(e, row) for row in mat]
    assert np.array_equal(errs, [err for _, err in alone]), text
    assert _same_bits(out, np.array([value for value, _ in alone])), text
    rev_out, rev_errs = backend.eval_batch(e, 2, mat[::-1].copy())
    assert np.array_equal(errs, rev_errs[::-1]), text
    assert _same_bits(out, rev_out[::-1]), text


class TestBackendSemantics:
    def test_domain_error_positions(self):
        layout = variable_layout(2)
        e = parse("log(u) + 1", 2)
        vec = np.zeros(len(layout))
        value, err = _alone(e, vec)
        assert err >= 0 and np.isnan(value)
        with pytest.raises(EvaluationDomainError,
                           match=r"^log of non-positive value in 'log\(u\)'$"):
            backend.eval_vector(e, 2, vec)
        vec[layout.index("u")] = 2.0
        value, err = _alone(e, vec)
        assert err == -1 and value == pytest.approx(np.log(2.0) + 1.0)

    def test_integer_power_semantics(self):
        vec = np.zeros(len(variable_layout(2)))
        value, err = _alone(parse("u^0", 2), vec)
        assert (value, err) == (1.0, -1)  # 0^0 = 1 by convention

    def test_exp_passes_nan_through(self):
        # inf - inf is nan, and exp(nan) must stay nan as in libm, so F is
        # undefined there instead of 1/inf + u12 = 0.5
        layout = variable_layout(2)
        vec = np.zeros(len(layout))
        vec[[layout.index("u11"), layout.index("u22")]] = 1.9
        vec[layout.index("u12")] = 0.5
        e = parse("1/exp(exp(400*u11) - exp(400*u22)) + u12", 2)
        value, err = _alone(e, vec)
        assert err == -1 and np.isnan(value)
        assert np.isnan(backend.eval_vector_or_nan(parse("exp(u11 - u22)", 2),
                                                   2, np.full(len(layout), np.inf)))

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
