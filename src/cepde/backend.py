"""Expressions compiled to flat instruction tapes, and the one evaluator
that runs them, with cached compile/eval entry points.

`compile_expr` turns an expression into a tape: each instruction writes one
register, and common subexpressions are merged, so a tape is usually much
smaller than its source tree.  A tape is plain tuples of Python ints and
floats.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .expr import (Binary, Const, EvaluationDomainError, Expr, Power, Unary,
                   Var, variable_layout)

OP_CONST = 0
OP_VAR = 1
OP_NEG = 2
OP_SIN = 3
OP_COS = 4
OP_EXP = 5
OP_LOG = 6
OP_SQRT = 7
OP_TANH = 8
OP_ADD = 9
OP_SUB = 10
OP_MUL = 11
OP_DIV = 12
OP_POWI = 13

_UNARY_OPS = {"neg": OP_NEG, "sin": OP_SIN, "cos": OP_COS, "exp": OP_EXP,
              "log": OP_LOG, "sqrt": OP_SQRT, "tanh": OP_TANH}
_BINARY_OPS = {"+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV}

# error kinds reported by the evaluator, keyed by failing opcode
ERROR_MESSAGES = {
    OP_DIV: "division by zero",
    OP_LOG: "log of non-positive value",
    OP_SQRT: "sqrt of negative value",
}


@dataclass
class Tape:
    n: int
    codes: tuple[int, ...]
    a: tuple[int, ...]  # input register / variable slot / const slot
    b: tuple[int, ...]  # second register / integer exponent
    consts: tuple[float, ...]
    nodes: tuple        # source subexpression per instruction (error reports)


def compile_expr(e: Expr, n: int) -> Tape:
    """Compile an expression for dimension n into a register tape."""
    layout = variable_layout(n)
    slot = {name: k for k, name in enumerate(layout)}

    codes: list[int] = []
    arg_a: list[int] = []
    arg_b: list[int] = []
    consts: list[float] = []
    nodes: list[Expr] = []
    reg_of: dict[Expr, int] = {}

    def emit(code: int, a: int, b: int, node: Expr) -> int:
        codes.append(code)
        arg_a.append(a)
        arg_b.append(b)
        nodes.append(node)
        return len(codes) - 1

    def visit(node: Expr) -> int:
        reg = reg_of.get(node)
        if reg is not None:
            return reg
        if isinstance(node, Const):
            consts.append(float(node.value))
            reg = emit(OP_CONST, len(consts) - 1, 0, node)
        elif isinstance(node, Var):
            if node.name not in slot:
                raise ValueError(f"variable {node.name!r} not in dimension-{n} layout")
            reg = emit(OP_VAR, slot[node.name], 0, node)
        elif isinstance(node, Unary):
            reg = emit(_UNARY_OPS[node.op], visit(node.arg), 0, node)
        elif isinstance(node, Power):
            reg = emit(OP_POWI, visit(node.base), node.exponent, node)
        else:
            assert isinstance(node, Binary)
            ra = visit(node.lhs)
            rb = visit(node.rhs)
            reg = emit(_BINARY_OPS[node.op], ra, rb, node)
        reg_of[node] = reg
        return reg

    visit(e)
    return Tape(
        n=n,
        codes=tuple(codes),
        a=tuple(arg_a),
        b=tuple(arg_b),
        consts=tuple(consts),
        nodes=tuple(nodes),
    )


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
