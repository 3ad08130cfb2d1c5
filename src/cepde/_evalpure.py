"""Pure-Python tape executor: the import-time fallback for `_evalcore`.

Semantics (including the integer-power loop) must match `_evalcore.pyx` bit
for bit, on both paths: `eval_scalar` runs the tape on one row in Python
floats, and `eval_batch` runs it column-wise, one numpy array op per
instruction over all rows.  Only exact IEEE operations (+ - * / neg sqrt and
the square-and-multiply power loop) go through numpy; sin, cos, exp, log and
tanh call libm through `math` element by element, because numpy's own exp,
log and tanh may differ from libm in the last bit.  sin and cos of +-inf give
nan, as C's do.
"""

from __future__ import annotations

import math

import numpy as np

from ._tape import (OP_ADD, OP_CONST, OP_COS, OP_DIV, OP_EXP, OP_LOG, OP_MUL,
                    OP_NEG, OP_POWI, OP_SIN, OP_SQRT, OP_SUB, OP_TANH, OP_VAR)

COMPILED = False


def _sin(v: float) -> float:
    return math.nan if math.isinf(v) else math.sin(v)


def _cos(v: float) -> float:
    return math.nan if math.isinf(v) else math.cos(v)


def _exp(v: float) -> float:
    return math.exp(v) if v < 709.0 else math.inf


# libm calls of the column executor that have no domain check
_LIBM = {OP_SIN: _sin, OP_COS: _cos, OP_EXP: _exp, OP_TANH: math.tanh}


def _run(codes, a, b, consts, xvars, regs) -> int:
    """Execute one tape; returns -1 on success or the failing instruction."""
    for i in range(len(codes)):
        op = codes[i]
        if op == OP_CONST:
            regs[i] = consts[a[i]]
        elif op == OP_VAR:
            regs[i] = xvars[a[i]]
        elif op == OP_ADD:
            regs[i] = regs[a[i]] + regs[b[i]]
        elif op == OP_SUB:
            regs[i] = regs[a[i]] - regs[b[i]]
        elif op == OP_MUL:
            regs[i] = regs[a[i]] * regs[b[i]]
        elif op == OP_DIV:
            den = regs[b[i]]
            if den == 0.0:
                return i
            regs[i] = regs[a[i]] / den
        elif op == OP_NEG:
            regs[i] = -regs[a[i]]
        elif op == OP_SIN:
            regs[i] = _sin(regs[a[i]])
        elif op == OP_COS:
            regs[i] = _cos(regs[a[i]])
        elif op == OP_EXP:
            regs[i] = _exp(regs[a[i]])
        elif op == OP_LOG:
            v = regs[a[i]]
            if v <= 0.0:
                return i
            regs[i] = math.log(v)
        elif op == OP_SQRT:
            v = regs[a[i]]
            if v < 0.0:
                return i
            regs[i] = math.sqrt(v)
        elif op == OP_TANH:
            regs[i] = math.tanh(regs[a[i]])
        else:  # OP_POWI
            base = regs[a[i]]
            k = b[i]
            acc = 1.0
            while k > 0:
                if k & 1:
                    acc *= base
                base *= base
                k >>= 1
            regs[i] = acc
    return -1


def eval_scalar(codes, a, b, consts, xvars, regs):
    """Returns (value, err_instruction); err < 0 means success."""
    err = _run(codes, a, b, consts, xvars, regs)
    if err >= 0:
        return (math.nan, err)
    return (regs[len(codes) - 1], -1)


def eval_batch(codes, a, b, consts, varmat, out, errs, regs):
    """Column-wise evaluation; fills out (nan on error) and errs (-1 ok).

    Each register is a column over all rows.  A row's first failing
    instruction goes to errs; from then on the row is dead: its registers
    hold garbage that no later check or libm call looks at.  `regs` is
    unused; it keeps the signature of the compiled kernel.
    """
    rows = varmat.shape[0]
    a, b = a.tolist(), b.tolist()
    cols = []
    errs[:] = -1
    live = np.ones(rows, dtype=bool)
    with np.errstate(all="ignore"):
        for i, op in enumerate(codes.tolist()):
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
    out[:] = cols[-1]
    out[~live] = np.nan


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
