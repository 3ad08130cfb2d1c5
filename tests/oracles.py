"""Independent test oracles.

Each oracle recomputes a quantity through a route the production code never
takes: a direct tree-walk evaluator, central finite differences, order-2
Taylor (jet) arithmetic for rank-one directional derivatives, exact
multivariate long division, and coefficient recovery from sampled values.
"""

from __future__ import annotations

import math

import numpy as np

from cepde.expr import Const, Expr, JetPoint, Power, Unary, Var
from cepde.tensor import QuadraticForm, QuarticForm, quadratic_pairs, quartic_combos

# ---------------------------------------------------------------------------
# Direct tree-walk evaluation (independent of the tape backends)

_FNS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
        "sqrt": math.sqrt, "tanh": math.tanh}


def tree_eval(e: Expr, values: dict) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return values[e.name]
    if isinstance(e, Unary):
        v = tree_eval(e.arg, values)
        return -v if e.op == "neg" else _FNS[e.op](v)
    if isinstance(e, Power):
        return tree_eval(e.base, values) ** e.exponent
    v1, v2 = tree_eval(e.lhs, values), tree_eval(e.rhs, values)
    if e.op == "+":
        return v1 + v2
    if e.op == "-":
        return v1 - v2
    if e.op == "*":
        return v1 * v2
    return v1 / v2


def point_values(pt: JetPoint) -> dict:
    from cepde.expr import variable_layout

    return dict(zip(variable_layout(pt.n), pt.to_vector()))


# ---------------------------------------------------------------------------
# Central finite differences


def central_fd(e: Expr, var: str, pt: JetPoint, h: float = 1e-5) -> float:
    vals = point_values(pt)
    up, dn = dict(vals), dict(vals)
    up[var] = vals[var] + h
    dn[var] = vals[var] - h
    return (tree_eval(e, up) - tree_eval(e, dn)) / (2.0 * h)


# ---------------------------------------------------------------------------
# Order-2 Taylor arithmetic in one parameter t: triples (f, f', f'')


class Jet2:
    __slots__ = ("f", "d", "dd")

    def __init__(self, f, d=0.0, dd=0.0):
        self.f, self.d, self.dd = float(f), float(d), float(dd)

    def __add__(self, o):
        return Jet2(self.f + o.f, self.d + o.d, self.dd + o.dd)

    def __sub__(self, o):
        return Jet2(self.f - o.f, self.d - o.d, self.dd - o.dd)

    def __neg__(self):
        return Jet2(-self.f, -self.d, -self.dd)

    def __mul__(self, o):
        return Jet2(self.f * o.f,
                    self.d * o.f + self.f * o.d,
                    self.dd * o.f + 2.0 * self.d * o.d + self.f * o.dd)

    def __truediv__(self, o):
        f = self.f / o.f
        d = (self.d - f * o.d) / o.f
        dd = (self.dd - 2.0 * d * o.d - f * o.dd) / o.f
        return Jet2(f, d, dd)

    def powi(self, k: int) -> "Jet2":
        out = Jet2(1.0)
        for _ in range(k):
            out = out * self
        return out


def _jet_fn(op: str, a: Jet2) -> Jet2:
    if op == "sin":
        s, c = math.sin(a.f), math.cos(a.f)
        return Jet2(s, c * a.d, -s * a.d * a.d + c * a.dd)
    if op == "cos":
        s, c = math.sin(a.f), math.cos(a.f)
        return Jet2(c, -s * a.d, -c * a.d * a.d - s * a.dd)
    if op == "exp":
        v = math.exp(a.f)
        return Jet2(v, v * a.d, v * (a.d * a.d + a.dd))
    if op == "log":
        return Jet2(math.log(a.f), a.d / a.f, a.dd / a.f - (a.d / a.f) ** 2)
    if op == "sqrt":
        r = math.sqrt(a.f)
        return Jet2(r, a.d / (2.0 * r), a.dd / (2.0 * r) - a.d * a.d / (4.0 * r ** 3))
    assert op == "tanh"
    v = math.tanh(a.f)
    sech2 = 1.0 - v * v
    return Jet2(v, sech2 * a.d, sech2 * a.dd - 2.0 * v * sech2 * a.d * a.d)


def jet_eval(e: Expr, base: dict, direction: dict) -> Jet2:
    """Evaluate e along t -> base + t*direction as an order-2 Taylor jet."""
    if isinstance(e, Const):
        return Jet2(e.value)
    if isinstance(e, Var):
        return Jet2(base[e.name], direction.get(e.name, 0.0), 0.0)
    if isinstance(e, Unary):
        a = jet_eval(e.arg, base, direction)
        return -a if e.op == "neg" else _jet_fn(e.op, a)
    if isinstance(e, Power):
        return jet_eval(e.base, base, direction).powi(e.exponent)
    a = jet_eval(e.lhs, base, direction)
    b = jet_eval(e.rhs, base, direction)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[e.op]


def rank_one_derivatives(e: Expr, pt: JetPoint, xi) -> tuple[float, float]:
    """(d/dt, d2/dt2) of F(pt with H + t*xi*xi^T) at t = 0, via Taylor jets."""
    from cepde.expr import hessian_name, hessian_pairs

    base = point_values(pt)
    direction = {hessian_name(i, j, pt.n): xi[i - 1] * xi[j - 1]
                 for i, j in hessian_pairs(pt.n)}
    jet = jet_eval(e, base, direction)
    return jet.d, jet.dd


def form_from_direction_values(n: int, degree: int, evaluator) -> np.ndarray:
    """Recover dense form coefficients from directional values alone.

    ``evaluator(xi) -> float`` is sampled on a fixed set of directions and the
    monomial Vandermonde system is solved; returns coefficients in
    quadratic_pairs / quartic_combos order.
    """
    if degree == 2:
        monos = [lambda xi, i=i, j=j: xi[i] * xi[j] for i, j in quadratic_pairs(n)]
    else:
        monos = [lambda xi, c=c: xi[c[0]] * xi[c[1]] * xi[c[2]] * xi[c[3]]
                 for c in quartic_combos(n)]
    rng = np.random.default_rng(1234)
    dirs = rng.uniform(-1.5, 1.5, size=(3 * len(monos), n))
    V = np.array([[m(xi) for m in monos] for xi in dirs])
    vals = np.array([evaluator(xi) for xi in dirs])
    coeffs, *_ = np.linalg.lstsq(V, vals, rcond=None)
    return coeffs


# ---------------------------------------------------------------------------
# Exact multivariate long division (divisibility oracle)


def _poly_dict(form) -> dict:
    if isinstance(form, QuadraticForm):
        out = {}
        for c, (i, j) in zip(form.coeffs, quadratic_pairs(form.n)):
            exp = [0] * form.n
            exp[i] += 1
            exp[j] += 1
            out[tuple(exp)] = out.get(tuple(exp), 0.0) + c
        return {k: v for k, v in out.items() if v != 0.0}
    assert isinstance(form, QuarticForm)
    out = {}
    for c, combo in zip(form.coeffs, quartic_combos(form.n)):
        exp = [0] * form.n
        for i in combo:
            exp[i] += 1
        out[tuple(exp)] = out.get(tuple(exp), 0.0) + c
    return {k: v for k, v in out.items() if v != 0.0}


def long_division_remainder(q: QuarticForm, s: QuadraticForm) -> float:
    """Norm of the remainder of dividing q by s (graded-lex leading terms)."""
    num = _poly_dict(q)
    den = _poly_dict(s)
    if not den:
        return math.sqrt(sum(v * v for v in num.values()))
    lead = max(den)  # lex order on exponent tuples (single divisor: Groebner)
    lead_c = den[lead]
    remainder: dict = {}
    while num:
        term = max(num)
        coef = num.pop(term)
        diff = tuple(a - b for a, b in zip(term, lead))
        if min(diff) < 0:
            remainder[term] = remainder.get(term, 0.0) + coef
            continue
        # the leading term cancels exactly; fold the tail of s into num
        factor = coef / lead_c
        for mono, c in den.items():
            if mono == lead:
                continue
            tgt = tuple(a + b for a, b in zip(diff, mono))
            val = num.get(tgt, 0.0) - factor * c
            if val == 0.0:
                num.pop(tgt, None)
            else:
                num[tgt] = val
    return math.sqrt(sum(v * v for v in remainder.values()))


# ---------------------------------------------------------------------------
# Zero-locus sampling one candidate and one point at a time


def _scalar_solve_pivot(F, n, vec, pivot_slot, dF_pivot, lo, hi):
    """F(vec | pivot = h) = 0 for h in [lo, hi]: grid bracketing, then
    bisection and Newton polish one scalar evaluation at a time.  Returns
    the root or None."""
    from cepde import backend

    grid = np.linspace(lo, hi, 33)
    mat = np.tile(vec, (33, 1))
    mat[:, pivot_slot] = grid
    vals, errs = backend.eval_batch(F, n, mat)
    ok = (errs < 0) & np.isfinite(vals)
    if not np.any(ok):
        return None
    scale = float(np.max(np.abs(vals[ok])))
    target = 1e-10 * (1.0 + scale)

    def at(e, h):
        w = vec.copy()
        w[pivot_slot] = h
        return backend.eval_vector_or_nan(e, n, w)

    for g, v, good in zip(grid, vals, ok):
        if good and abs(v) <= 1e-14 * (1.0 + scale):
            return float(g)
    bracket = None
    for k in range(32):
        if ok[k] and ok[k + 1] and vals[k] * vals[k + 1] < 0.0:
            bracket = (float(grid[k]), float(grid[k + 1]), float(vals[k]))
            break
    if bracket is None:
        return None
    a, b, fa = bracket
    for _ in range(40):
        mid = 0.5 * (a + b)
        fm = at(F, mid)
        if not np.isfinite(fm):
            return None
        if abs(fm) <= target:
            a = b = mid
            break
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    root = 0.5 * (a + b)
    for _ in range(6):
        fr = at(F, root)
        if not np.isfinite(fr) or abs(fr) <= 1e-13 * (1.0 + scale):
            break
        d = at(dF_pivot, root)
        if not np.isfinite(d) or d == 0.0:
            break
        step = fr / d
        if not np.isfinite(step) or not lo <= root - step <= hi:
            break
        root -= step
    fr = at(F, root)
    if np.isfinite(fr) and abs(fr) <= 1e-10 * (1.0 + scale):
        return float(root)
    return None


def scalar_zero_locus(F: Expr, n: int, box=(-2.0, 2.0), count: int = 64,
                      seed: int = 0) -> list[JetPoint] | None:
    """sample_zero_locus drawn one candidate at a time: up to 50 draws per
    sample, the pivot Hessian entry cycling with the draw.  None where
    sample_zero_locus must raise SamplingError."""
    from cepde.expr import (differentiate, hessian_name, hessian_pairs,
                            jetpoint_from_vector, variable_layout)

    lo, hi = box
    rng = np.random.default_rng(seed)
    layout = variable_layout(n)
    names = [hessian_name(i, j, n) for i, j in hessian_pairs(n)]
    points, attempt = [], 0
    with np.errstate(all="ignore"):
        for _ in range(count):
            for _ in range(50):
                pivot = attempt % len(names)
                attempt += 1
                vec = rng.uniform(lo, hi, size=len(layout))
                slot = layout.index(names[pivot])
                root = _scalar_solve_pivot(F, n, vec, slot,
                                           differentiate(F, names[pivot]), lo, hi)
                if root is not None:
                    vec[slot] = root
                    points.append(jetpoint_from_vector(vec, n))
                    break
    return points if len(points) >= count / 2 else None
