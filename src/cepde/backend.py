"""The tape evaluator and its cached compile/eval entry points.

A tape runs two ways, bit for bit alike: `_run` executes it on one row in
Python floats, and `eval_batch` runs it column-wise, one numpy array op per
instruction over all rows.  Only exact IEEE operations (+ - * / neg sqrt and
the square-and-multiply power loop) go through numpy; sin, cos, exp, log and
tanh call libm through `math` element by element on both paths, because
numpy's own exp, log and tanh may differ from libm in the last bit.  sin and
cos of +-inf give nan, as C's do, and exp(v) is inf from v = 709 on.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._tape import (ERROR_MESSAGES, OP_ADD, OP_CONST, OP_COS, OP_DIV, OP_EXP,
                    OP_LOG, OP_MUL, OP_NEG, OP_POWI, OP_SIN, OP_SQRT, OP_SUB,
                    OP_TANH, OP_VAR, Tape, compile_expr)
from .expr import EvaluationDomainError, Expr, JetPoint


def _sin(v: float) -> float:
    return math.nan if math.isinf(v) else math.sin(v)


def _cos(v: float) -> float:
    return math.nan if math.isinf(v) else math.cos(v)


def _exp(v: float) -> float:
    return math.exp(v) if v < 709.0 else math.inf


# libm calls of the column path that have no domain check
_LIBM = {OP_SIN: _sin, OP_COS: _cos, OP_EXP: _exp, OP_TANH: math.tanh}


@lru_cache(maxsize=4096)
def compiled_tape(e: Expr, n: int) -> Tape:
    return compile_expr(e, n)


def _run(tape: Tape, xvars: list) -> tuple[float, int]:
    """Execute the tape on one row of Python floats.  Returns (value, -1), or
    (nan, i) when instruction i fails its domain check."""
    a, b, consts = tape.a, tape.b, tape.consts
    regs: list[float] = []
    for i, op in enumerate(tape.codes):
        if op == OP_CONST:
            v = consts[a[i]]
        elif op == OP_VAR:
            v = xvars[a[i]]
        elif op == OP_ADD:
            v = regs[a[i]] + regs[b[i]]
        elif op == OP_SUB:
            v = regs[a[i]] - regs[b[i]]
        elif op == OP_MUL:
            v = regs[a[i]] * regs[b[i]]
        elif op == OP_DIV:
            den = regs[b[i]]
            if den == 0.0:
                return math.nan, i
            v = regs[a[i]] / den
        elif op == OP_NEG:
            v = -regs[a[i]]
        elif op == OP_SIN:
            v = _sin(regs[a[i]])
        elif op == OP_COS:
            v = _cos(regs[a[i]])
        elif op == OP_EXP:
            v = _exp(regs[a[i]])
        elif op == OP_LOG:
            v = regs[a[i]]
            if v <= 0.0:
                return math.nan, i
            v = math.log(v)
        elif op == OP_SQRT:
            v = regs[a[i]]
            if v < 0.0:
                return math.nan, i
            v = math.sqrt(v)
        elif op == OP_TANH:
            v = math.tanh(regs[a[i]])
        else:  # OP_POWI
            base = regs[a[i]]
            k = b[i]
            v = 1.0
            while k > 0:
                if k & 1:
                    v *= base
                base *= base
                k >>= 1
        regs.append(v)
    return regs[-1], -1


def eval_vector(e: Expr, n: int, vec: np.ndarray) -> float:
    """Evaluate at a raw variable vector in variable_layout(n) order."""
    tape = compiled_tape(e, n)
    value, err = _run(tape, vec.tolist())
    if err >= 0:
        kind = ERROR_MESSAGES.get(tape.codes[err], "domain error")
        raise EvaluationDomainError(kind, tape.nodes[err])
    return value


def eval_vector_or_nan(e: Expr, n: int, vec: np.ndarray) -> float:
    """Like eval_vector but returns nan instead of raising on domain errors."""
    return _run(compiled_tape(e, n), vec.tolist())[0]


def eval_expr(e: Expr, pt: JetPoint) -> float:
    return eval_vector(e, pt.n, pt.to_vector())


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
