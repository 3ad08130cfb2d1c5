"""Expression trees over jet variables: parsing, printing, differentiation.

A PDE left-hand side F is an expression in the jet variables of one dependent
variable u and n independent variables: ``x1..xn``, ``u``, ``u1..un`` (first
derivatives) and ``uij`` with i <= j (second derivatives, canonical
upper-triangular naming; ``u21`` is rejected, not aliased).

Expr and JetPoint are immutable values; every function here is pure and safe
to call concurrently.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "tanh")
BINARY_OPS = ("+", "-", "*", "/")


class ExprError(Exception):
    """Base class for expression-layer errors."""


class ParseError(ExprError):
    """Syntax error; ``offset`` is the byte offset into the source text."""

    def __init__(self, message: str, offset: int, text: str = ""):
        self.offset = offset
        self.text = text
        super().__init__(f"{message} (at offset {offset})")


class UnknownVariableError(ParseError):
    """Identifier that is not a legal jet-variable name (e.g. ``u21``)."""


class ExprDimensionError(ParseError):
    """Legal-looking variable whose index exceeds the dimension n."""


class EvaluationDomainError(ExprError):
    """Domain error during numeric evaluation (log/sqrt/division)."""

    def __init__(self, message: str, subexpression: "Expr"):
        self.subexpression = subexpression
        super().__init__(f"{message} in '{to_text(subexpression)}'")


# ---------------------------------------------------------------------------
# Tree nodes


@dataclass(frozen=True)
class Expr:
    """Immutable expression node; concrete kinds are the subclasses below."""

    def __str__(self) -> str:
        return to_text(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "neg" or one of FUNCTIONS
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # one of BINARY_OPS
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Power(Expr):
    base: Expr
    exponent: int  # literal, >= 0


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, Unary):
        return (e.arg,)
    if isinstance(e, Binary):
        return (e.lhs, e.rhs)
    if isinstance(e, Power):
        return (e.base,)
    return ()


def variables_of(e: Expr) -> set[str]:
    """All variable names referenced by e."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.name)
        else:
            stack.extend(children(node))
    return out


# ---------------------------------------------------------------------------
# Variable naming

_NAME_RE = re.compile(r"^(?:u|x(\d+)|u(\d+)|u_(\d+)(?:_(\d+))?)$")


def parse_variable_name(name: str) -> tuple[str, int, int]:
    """Classify a variable name.

    Returns (kind, i, j) with kind in {"x", "u", "p", "h"}; indices are
    1-based (0 when unused).  Raises ValueError for malformed names and for
    non-canonical Hessian names such as ``u21``.
    """
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"not a jet variable name: {name!r}")
    if name == "u":
        return ("u", 0, 0)
    if m.group(1) is not None:
        return ("x", int(m.group(1)), 0)
    if m.group(2) is not None:
        digits = m.group(2)
        if len(digits) == 2:
            i, j = int(digits[0]), int(digits[1])
            if i == 0 or j == 0:
                raise ValueError(f"zero index in {name!r}")
            if i > j:
                raise ValueError(
                    f"non-canonical Hessian name {name!r}: write u{j}{i} (i <= j)"
                )
            return ("h", i, j)
        return ("p", int(digits), 0)
    # underscore form u_i or u_i_j (needed once n has two-digit indices)
    i = int(m.group(3))
    if m.group(4) is None:
        return ("p", i, 0)
    j = int(m.group(4))
    if i == 0 or j == 0:
        raise ValueError(f"zero index in {name!r}")
    if i > j:
        raise ValueError(f"non-canonical Hessian name {name!r}: use i <= j")
    return ("h", i, j)


def hessian_name(i: int, j: int, n: int) -> str:
    """Canonical name of the (i, j) Hessian entry, 1-based, i <= j."""
    if i > j:
        i, j = j, i
    if n <= 9:
        return f"u{i}{j}"
    return f"u_{i}_{j}"


def first_deriv_name(i: int, n: int) -> str:
    return f"u{i}" if n <= 9 else f"u_{i}"


def hessian_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Upper-triangular index pairs (1-based), row-major."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i, n + 1))


@lru_cache(maxsize=64)
def variable_layout(n: int) -> tuple[str, ...]:
    """Fixed variable ordering used by evaluation tapes and JetPoint vectors:
    x1..xn, u, u1..un, then Hessian entries in row-major upper order."""
    names = [f"x{i}" for i in range(1, n + 1)]
    names.append("u")
    names += [first_deriv_name(i, n) for i in range(1, n + 1)]
    names += [hessian_name(i, j, n) for i, j in hessian_pairs(n)]
    return tuple(names)


def check_variable(name: str, n: int) -> None:
    """Raise ValueError if ``name`` is not legal for dimension ``n``."""
    kind, i, j = parse_variable_name(name)
    if kind == "x" and not 1 <= i <= n:
        raise ValueError(f"variable {name!r}: index exceeds dimension {n}")
    if kind == "p" and not 1 <= i <= n:
        raise ValueError(f"variable {name!r}: index exceeds dimension {n}")
    if kind == "h" and j > n:
        raise ValueError(f"variable {name!r}: index exceeds dimension {n}")


# ---------------------------------------------------------------------------
# Jet points


@dataclass(frozen=True)
class JetPoint:
    """A point of M^(1) in Darboux coordinates.

    Fields: base coordinates x, value u, first derivatives p, and the
    symmetric Hessian stored as its upper triangle (row-major), mirrored on
    read.  All entries must be finite.
    """

    x: tuple[float, ...]
    u: float
    p: tuple[float, ...]
    h_upper: tuple[float, ...]

    def __post_init__(self):
        n = len(self.x)
        if len(self.p) != n:
            raise ValueError("p must have the same length as x")
        if len(self.h_upper) != n * (n + 1) // 2:
            raise ValueError("h_upper must have n(n+1)/2 entries")
        for v in (*self.x, self.u, *self.p, *self.h_upper):
            if not math.isfinite(v):
                raise ValueError("JetPoint entries must be finite")

    @property
    def n(self) -> int:
        return len(self.x)

    @staticmethod
    def make(x: Iterable[float], u: float, p: Iterable[float], H) -> "JetPoint":
        """Build from a full symmetric matrix H (upper triangle is stored)."""
        H = np.asarray(H, dtype=float)
        n = H.shape[0]
        if H.shape != (n, n):
            raise ValueError("H must be square")
        if not np.allclose(H, H.T, rtol=0.0, atol=1e-12):
            raise ValueError("H must be symmetric")
        upper = tuple(float(H[i - 1, j - 1]) for i, j in hessian_pairs(n))
        return JetPoint(tuple(float(v) for v in x), float(u),
                        tuple(float(v) for v in p), upper)

    def hessian(self) -> np.ndarray:
        """Full symmetric matrix (mirrored from the stored upper triangle)."""
        n = self.n
        H = np.zeros((n, n))
        for k, (i, j) in enumerate(hessian_pairs(n)):
            H[i - 1, j - 1] = self.h_upper[k]
            H[j - 1, i - 1] = self.h_upper[k]
        return H

    def hessian_entry(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return self.h_upper[hessian_pairs(self.n).index((i, j))]

    def value(self, name: str) -> float:
        kind, i, j = parse_variable_name(name)
        if kind == "u":
            return self.u
        if kind == "x":
            return self.x[i - 1]
        if kind == "p":
            return self.p[i - 1]
        return self.hessian_entry(i, j)

    def to_vector(self) -> np.ndarray:
        """Values in variable_layout(n) order."""
        return np.array([*self.x, self.u, *self.p, *self.h_upper], dtype=float)

    def with_hessian(self, H) -> "JetPoint":
        return JetPoint.make(self.x, self.u, self.p, H)


def jetpoint_from_vector(vec, n: int) -> JetPoint:
    vec = np.asarray(vec, dtype=float)
    m = n * (n + 1) // 2
    if vec.shape != (2 * n + 1 + m,):
        raise ValueError("vector length does not match dimension")
    return JetPoint(tuple(vec[:n]), float(vec[n]), tuple(vec[n + 1:2 * n + 1]),
                    tuple(vec[2 * n + 1:]))


# ---------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, message, offset=None, cls=ParseError):
        raise cls(message, self.pos if offset is None else offset, self.text)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def next_token(self):
        """Returns (kind, value, offset) or None at end of input."""
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m or m.start(m.lastgroup) != self.pos:  # type: ignore[arg-type]
            self.error(f"unexpected character {self.text[self.pos]!r}")
        start = self.pos
        self.pos = m.end()
        return (m.lastgroup, m.group(m.lastgroup), start)

    def expect_op(self, op: str):
        tok = self.next_token()
        if tok is None or tok[0] != "op" or tok[1] != op:
            self.error(f"expected {op!r}",
                       tok[2] if tok else len(self.text))

    def parse(self) -> Expr:
        e = self.parse_expr()
        self.skip_ws()
        if self.pos < len(self.text):
            self.error("trailing input")
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            e = _fold_binary(op, e, self.parse_term())
        return e

    def parse_term(self) -> Expr:
        e = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.pos += 1
            e = _fold_binary(op, e, self.parse_factor())
        return e

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            tok = self.next_token()
            if tok is None or tok[0] != "num" or not tok[1].isdigit():
                self.error("exponent must be a nonnegative integer",
                           tok[2] if tok else len(self.text))
            return _fold_power(base, int(tok[1]))
        return base

    def parse_base(self) -> Expr:
        self.skip_ws()
        tok = self.next_token()
        if tok is None:
            self.error("unexpected end of input", len(self.text))
        kind, value, start = tok
        if kind == "num":
            return Const(float(value))
        if kind == "op":
            if value == "-":
                return _fold_neg(self.parse_base())
            if value == "(":
                e = self.parse_expr()
                self.expect_op(")")
                return e
            self.error(f"unexpected {value!r}", start)
        # identifier: function call or variable
        if value in FUNCTIONS:
            self.expect_op("(")
            arg = self.parse_expr()
            self.expect_op(")")
            return _fold_fn(value, arg)
        try:
            check_variable(value, self.n)
        except ValueError as exc:
            msg = str(exc)
            cls = (ExprDimensionError if "exceeds dimension" in msg
                   else UnknownVariableError)
            self.error(msg, start, cls)
        return Var(value)


def parse(text: str, n: int) -> Expr:
    """Parse ``text`` into an expression tree over dimension-n jet variables.

    Printing the result with to_text() and re-parsing yields a structurally
    identical tree.  Constant subtrees made only of literals are folded.
    """
    if n < 2:
        raise ValueError("dimension n must be >= 2")
    return _Parser(text, n).parse()


# Constant folding of all-literal nodes (parse- and build-time).  Folding is
# skipped when it would raise or produce a non-finite value.

def _fold_binary(op: str, a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            if op == "+":
                v = a.value + b.value
            elif op == "-":
                v = a.value - b.value
            elif op == "*":
                v = a.value * b.value
            else:
                v = a.value / b.value
        except ZeroDivisionError:
            return Binary(op, a, b)
        if math.isfinite(v):
            return Const(v)
    return Binary(op, a, b)


def _fold_neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    return Unary("neg", a)


def _fold_fn(op: str, a: Expr) -> Expr:
    if isinstance(a, Const):
        try:
            v = getattr(math, op)(a.value)
        except (ValueError, OverflowError):
            return Unary(op, a)
        if math.isfinite(v):
            return Const(v)
    return Unary(op, a)


def _fold_power(base: Expr, k: int) -> Expr:
    if k < 0:
        raise ValueError("integer exponents must be >= 0")
    if isinstance(base, Const):
        v = _powi(base.value, k)
        if math.isfinite(v):
            return Const(v)
    return Power(base, k)


def _powi(x: float, k: int) -> float:
    """Binary exponentiation; 0^0 = 1.  Matches the tape evaluator exactly."""
    acc = 1.0
    while k > 0:
        if k & 1:
            acc *= x
        x *= x
        k >>= 1
    return acc


# ---------------------------------------------------------------------------
# Printer

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _fmt_const(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_text(e: Expr) -> str:
    """Canonical text form; parse(to_text(e), n) reproduces e structurally."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Unary):
        if e.op == "neg":
            inner = to_text(e.arg)
            # '-' prefixes a whole base, so -x^2 reparses as (-x)^2: both
            # Binary and Power children need parens under neg.
            if isinstance(e.arg, (Binary, Power)):
                return f"-({inner})"
            return f"-{inner}"
        return f"{e.op}({to_text(e.arg)})"
    if isinstance(e, Power):
        inner = to_text(e.base)
        if isinstance(e.base, (Binary, Power)):
            inner = f"({inner})"
        return f"{inner}^{e.exponent}"
    assert isinstance(e, Binary)
    op = e.op
    lhs = to_text(e.lhs)
    if isinstance(e.lhs, Binary) and _PREC[e.lhs.op] < _PREC[op]:
        lhs = f"({lhs})"
    rhs = to_text(e.rhs)
    # right side: the grammar is left-associative, so equal precedence on
    # the right needs parens to round-trip (a - (b - c), a / (b * c), ...)
    if isinstance(e.rhs, Binary) and _PREC[e.rhs.op] <= _PREC[op]:
        rhs = f"({rhs})"
    return f"{lhs} {op} {rhs}"


# ---------------------------------------------------------------------------
# Differentiation

# Builders used for derivative trees: constant folding plus the neutral/zero
# identities, so iterated derivatives stay compact.


def _is_const(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Const) and (v is None or e.value == v)


def _dadd(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return _fold_binary("+", a, b)


def _dneg(a: Expr) -> Expr:
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return _fold_neg(a)


def _dsub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _dneg(b)
    return _fold_binary("-", a, b)


def _dmul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return _fold_binary("*", a, b)


def _ddiv(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return _fold_binary("/", a, b)


def _dpow(a: Expr, k: int) -> Expr:
    if k == 0:
        return Const(1.0)
    if k == 1:
        return a
    return _fold_power(a, k)


@lru_cache(maxsize=16384)
def _diff(e: Expr, var: str) -> Expr:
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0) if e.name == var else Const(0.0)
    if isinstance(e, Unary):
        da = _diff(e.arg, var)
        if e.op == "neg":
            return _dneg(da)
        if e.op == "sin":
            return _dmul(Unary("cos", e.arg), da)
        if e.op == "cos":
            return _dneg(_dmul(Unary("sin", e.arg), da))
        if e.op == "exp":
            return _dmul(e, da)
        if e.op == "log":
            return _ddiv(da, e.arg)
        if e.op == "sqrt":
            return _ddiv(da, _dmul(Const(2.0), e))
        if e.op == "tanh":
            return _dmul(_dsub(Const(1.0), _dpow(Unary("tanh", e.arg), 2)), da)
        raise ValueError(f"unknown unary op {e.op!r}")
    if isinstance(e, Power):
        if e.exponent == 0:
            return Const(0.0)
        db = _diff(e.base, var)
        return _dmul(_dmul(Const(float(e.exponent)), _dpow(e.base, e.exponent - 1)), db)
    assert isinstance(e, Binary)
    dl, dr = _diff(e.lhs, var), _diff(e.rhs, var)
    if e.op == "+":
        return _dadd(dl, dr)
    if e.op == "-":
        return _dsub(dl, dr)
    if e.op == "*":
        return _dadd(_dmul(dl, e.rhs), _dmul(e.lhs, dr))
    # quotient rule
    return _ddiv(_dsub(_dmul(dl, e.rhs), _dmul(e.lhs, dr)), _dpow(e.rhs, 2))


def differentiate(e: Expr, var: str) -> Expr:
    """Exact symbolic partial derivative of e with respect to ``var``.

    The derivative with respect to a variable absent from e is the zero
    constant.  ``var`` must be a well-formed jet variable name.
    """
    parse_variable_name(var)  # raises on malformed / non-canonical names
    return _diff(e, var)


def rename_variables(e: Expr, mapping: dict[str, str]) -> Expr:
    """Structurally replace variable names (used for the x<->y coordinate swap)."""
    if isinstance(e, Var):
        return Var(mapping.get(e.name, e.name))
    if isinstance(e, Unary):
        return Unary(e.op, rename_variables(e.arg, mapping))
    if isinstance(e, Binary):
        return Binary(e.op, rename_variables(e.lhs, mapping),
                      rename_variables(e.rhs, mapping))
    if isinstance(e, Power):
        return Power(rename_variables(e.base, mapping), e.exponent)
    return e


def swap_xy(e: Expr) -> Expr:
    """Swap the two independent variables of an n=2 expression
    (x1<->x2, u1<->u2, u11<->u22; u12 is fixed)."""
    return rename_variables(e, {"x1": "x2", "x2": "x1", "u1": "u2",
                                "u2": "u1", "u11": "u22", "u22": "u11"})


# ---------------------------------------------------------------------------
# Evaluation (delegates to the tape evaluator in backend)


def evaluate(e: Expr, pt: JetPoint) -> float:
    """IEEE-double evaluation of e at a jet point.

    Raises EvaluationDomainError (log of non-positive, sqrt of negative,
    division by zero) naming the offending subexpression.
    """
    from . import backend

    return backend.eval_vector(e, pt.n, pt.to_vector())
