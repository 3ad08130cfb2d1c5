"""Flat instruction tapes: the compilation target of the evaluator in
`backend`.

Each instruction writes one register; common subexpressions are merged, so a
tape is usually much smaller than its source tree.  A tape is plain tuples of
Python ints and floats, which the evaluator indexes directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Binary, Const, Expr, Power, Unary, Var, variable_layout

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
