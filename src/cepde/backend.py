"""The tape evaluator and its cached compile/eval entry points.

`eval_batch` is the one executor: it runs a tape column-wise, one numpy
array op per instruction over all rows, and a single point is a batch of
one row.  Rows never mix, so a row's value and error do not depend on the
other rows of its batch.  Only exact IEEE operations (+ - * / neg sqrt and
the square-and-multiply power loop) go through numpy; sin, cos, exp, log and
tanh call libm through `math` element by element, because numpy's own exp,
log and tanh may differ from libm in the last bit.  sin and cos of +-inf
give nan, as C's do, exp(v) is inf from v = 709 on, and exp(nan) is nan.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._tape import (ERROR_MESSAGES, OP_ADD, OP_CONST, OP_COS, OP_DIV, OP_EXP,
                    OP_LOG, OP_MUL, OP_NEG, OP_POWI, OP_SIN, OP_SQRT, OP_SUB,
                    OP_TANH, OP_VAR, Tape, compile_expr)
from .expr import EvaluationDomainError, Expr


def _sin(v: float) -> float:
    return math.nan if math.isinf(v) else math.sin(v)


def _cos(v: float) -> float:
    return math.nan if math.isinf(v) else math.cos(v)


def _exp(v: float) -> float:
    return math.inf if v >= 709.0 else math.exp(v)


# libm calls that have no domain check
_LIBM = {OP_SIN: _sin, OP_COS: _cos, OP_EXP: _exp, OP_TANH: math.tanh}


@lru_cache(maxsize=4096)
def compiled_tape(e: Expr, n: int) -> Tape:
    return compile_expr(e, n)


def domain_error(e: Expr, n: int, err: int) -> EvaluationDomainError:
    """The error of an eval_batch row of e that failed at instruction err."""
    tape = compiled_tape(e, n)
    return EvaluationDomainError(ERROR_MESSAGES.get(tape.codes[err], "domain error"),
                                 tape.nodes[err])


def eval_vector(e: Expr, n: int, vec: np.ndarray) -> float:
    """Evaluate at a raw variable vector in variable_layout(n) order."""
    values, errs = eval_batch(e, n, vec[None, :])
    if errs[0] >= 0:
        raise domain_error(e, n, int(errs[0]))
    return float(values[0])


def eval_vector_or_nan(e: Expr, n: int, vec: np.ndarray) -> float:
    """Like eval_vector but returns nan instead of raising on domain errors."""
    return float(eval_batch(e, n, vec[None, :])[0][0])


def eval_batch(e: Expr, n: int, varmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate at many variable vectors (rows of varmat).

    Returns (values, errs): values[i] is nan where errs[i] >= 0 (the failing
    instruction index); errs[i] == -1 on success.  Each register is a column
    over all rows.  A row's first failing instruction goes to errs; from then
    on the row is dead: its registers hold garbage that no later check or
    libm call looks at.
    """
    tape = compiled_tape(e, n)
    a, b, consts = tape.a, tape.b, tape.consts
    rows = varmat.shape[0]
    cols = []
    errs = np.full(rows, -1, dtype=np.int32)
    live = np.ones(rows, dtype=bool)
    with np.errstate(all="ignore"):
        for i, op in enumerate(tape.codes):
            if op == OP_CONST:
                col = np.full(rows, consts[a[i]])
            elif op == OP_VAR:
                col = varmat[:, a[i]]
            elif op == OP_ADD:
                col = cols[a[i]] + cols[b[i]]
            elif op == OP_SUB:
                col = cols[a[i]] - cols[b[i]]
            elif op == OP_MUL:
                col = cols[a[i]] * cols[b[i]]
            elif op == OP_NEG:
                col = -cols[a[i]]
            elif op == OP_DIV:
                den = cols[b[i]]
                _fail(live & (den == 0.0), i, live, errs)
                col = cols[a[i]] / den
            elif op == OP_LOG:
                v = cols[a[i]]
                _fail(live & (v <= 0.0), i, live, errs)
                col = _libm_column(math.log, v, live)
            elif op == OP_SQRT:
                v = cols[a[i]]
                _fail(live & (v < 0.0), i, live, errs)
                col = np.sqrt(v)
            elif op == OP_POWI:
                base = cols[a[i]]
                k = b[i]
                col = np.ones(rows)
                while k > 0:
                    if k & 1:
                        col = col * base
                    base = base * base
                    k >>= 1
            else:
                col = _libm_column(_LIBM[op], cols[a[i]], live)
            cols.append(col)
    # a fresh array: the last column may be a view of varmat
    return np.where(live, cols[-1], np.nan), errs


def _fail(bad, i, live, errs) -> None:
    """Marks the live rows in `bad` as failed at instruction i."""
    errs[bad] = i
    live &= ~bad


def _libm_column(fn, v, live):
    """fn applied to the live entries of column v; nan at dead rows."""
    if live.all():
        return np.array([fn(x) for x in v.tolist()], dtype=np.float64)
    col = np.full(len(v), np.nan)
    idx = np.flatnonzero(live)
    col[idx] = [fn(x) for x in v[idx].tolist()]
    return col
