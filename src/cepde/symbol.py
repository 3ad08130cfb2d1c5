"""Principal symbol S, second symbol S2, zero-locus sampling, and the
complete-exceptionality (divisibility) test.

S at a jet point is the quadratic form with coefficients dF/du_ij; S2 is the
quartic obtained by applying the same construction to each coefficient
function (equivalently the second rank-one directional derivative of F in
Hessian directions).  A PDE is completely exceptional when S2 is divisible
by S at every point of the zero locus {F = 0}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import backend
from .expr import (EvaluationDomainError, Expr, JetPoint, differentiate,
                   hessian_name, hessian_pairs, jetpoint_from_vector,
                   variable_layout)
from .tensor import (QuadraticForm, QuarticForm, _quartic_index, factor_quartic,
                     quadratic_pairs, quartic_combos)

# A symbol with coefficient 2-norm at or below this is treated as the zero
# form (degenerate: it divides only the zero quartic).
DEGENERATE_SYMBOL_TOL = 1e-12

DEFAULT_BOX = (-2.0, 2.0)
DEFAULT_COUNT = 64
DEFAULT_TOL = 1e-7

_BRACKET_GRID = 33
_MAX_ATTEMPTS = 50


class SamplingError(Exception):
    """The zero locus yielded too few samples inside the box."""


@lru_cache(maxsize=1024)
def _first_partials(F: Expr, n: int) -> tuple[Expr, ...]:
    """dF/du_ij in hessian_pairs(n) order."""
    return tuple(differentiate(F, hessian_name(i, j, n))
                 for i, j in hessian_pairs(n))


@lru_cache(maxsize=1024)
def _second_partials(F: Expr, n: int) -> tuple[tuple[int, int, Expr], ...]:
    """Distinct d2F/du_ij du_kl as (pair_index_1, pair_index_2, expr),
    pair indices into hessian_pairs(n), index_1 <= index_2."""
    firsts = _first_partials(F, n)
    names = [hessian_name(i, j, n) for i, j in hessian_pairs(n)]
    out = []
    for p1 in range(len(names)):
        for p2 in range(p1, len(names)):
            out.append((p1, p2, differentiate(firsts[p1], names[p2])))
    return tuple(out)


def _finite(value: float, d: Expr) -> float:
    if not np.isfinite(value):
        raise EvaluationDomainError("non-finite symbol coefficient", d)
    return value


def principal_symbol(F: Expr, pt: JetPoint) -> QuadraticForm:
    """S(xi) = sum_{i<=j} (dF/du_ij)(pt) xi_i xi_j, the derivative at t = 0
    of t -> F(pt with H + t xi xi^T)."""
    n = pt.n
    vec = pt.to_vector()
    coeffs = [_finite(backend.eval_vector(d, n, vec), d)
              for d in _first_partials(F, n)]
    return QuadraticForm(n, coeffs)


def second_symbol(F: Expr, pt: JetPoint) -> QuarticForm:
    """S2(xi) = d2/dt2 F(pt with H + t xi xi^T) at t = 0; identical to
    contracting the symbols of the coefficient functions dF/du_ij."""
    n = pt.n
    vec = pt.to_vector()
    pairs = quadratic_pairs(n)  # 0-based twin of hessian_pairs
    index = _quartic_index(n)
    out = np.zeros(len(quartic_combos(n)))
    for p1, p2, dd in _second_partials(F, n):
        val = _finite(backend.eval_vector(dd, n, vec), dd)
        if val == 0.0:
            continue
        i, j = pairs[p1]
        k, l = pairs[p2]
        combo = tuple(sorted((i, j, k, l)))
        # distinct unordered pairs occur twice in the symmetric double sum
        out[index[combo]] += val if p1 == p2 else 2.0 * val
    return QuarticForm(n, out)


# ---------------------------------------------------------------------------
# Zero-locus sampling


def _solve_pivot(F: Expr, n: int, vec: np.ndarray, pivot_slot: int,
                 dF_pivot: Expr, lo: float, hi: float) -> tuple[float, float] | None:
    """Find h in [lo, hi] with F(vec | pivot=h) = 0 by grid bracketing,
    bisection, and Newton polish.  Returns (root, local_scale) or None."""
    grid = np.linspace(lo, hi, _BRACKET_GRID)
    mat = np.tile(vec, (_BRACKET_GRID, 1))
    mat[:, pivot_slot] = grid
    vals, errs = backend.eval_batch(F, n, mat)
    ok = (errs < 0) & np.isfinite(vals)
    if not np.any(ok):
        return None
    scale = float(np.max(np.abs(vals[ok])))
    target = 1e-10 * (1.0 + scale)

    def f(h: float) -> float:
        w = vec.copy()
        w[pivot_slot] = h
        return backend.eval_vector_or_nan(F, n, w)

    # exact hits on the grid
    for g, v, good in zip(grid, vals, ok):
        if good and abs(v) <= 1e-14 * (1.0 + scale):
            return float(g), scale
    # first sign change between adjacent valid grid points
    bracket = None
    for k in range(_BRACKET_GRID - 1):
        if ok[k] and ok[k + 1] and vals[k] * vals[k + 1] < 0.0:
            bracket = (float(grid[k]), float(grid[k + 1]), float(vals[k]))
            break
    if bracket is None:
        return None
    a, b, fa = bracket
    for _ in range(40):
        mid = 0.5 * (a + b)
        fm = f(mid)
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
    # Newton polish (stays inside the box or is discarded)
    for _ in range(6):
        fr = f(root)
        if not np.isfinite(fr) or abs(fr) <= 1e-13 * (1.0 + scale):
            break
        w = vec.copy()
        w[pivot_slot] = root
        d = backend.eval_vector_or_nan(dF_pivot, n, w)
        if not np.isfinite(d) or d == 0.0:
            break
        step = fr / d
        if not np.isfinite(step) or not lo <= root - step <= hi:
            break
        root -= step
    fr = f(root)
    if np.isfinite(fr) and abs(fr) <= 1e-10 * (1.0 + scale):
        return float(root), scale
    return None


def sample_zero_locus(F: Expr, n: int, box=DEFAULT_BOX, count: int = DEFAULT_COUNT,
                      seed: int = 0) -> list[JetPoint]:
    """Draw up to ``count`` jet points on {F = 0} inside the box.

    All coordinates are uniform in the box except one pivot Hessian entry
    (cycled across attempts), which is solved for by bracketing plus Newton
    refinement; failed draws are retried up to 50 times per sample.
    Deterministic for a given seed.  Raises SamplingError when fewer than
    count/2 samples are found.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = float(box[0]), float(box[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError("box bounds must be finite with lo < hi")
    rng = np.random.default_rng(seed)
    layout = variable_layout(n)
    nvars = len(layout)
    pair_names = [hessian_name(i, j, n) for i, j in hessian_pairs(n)]
    pivot_slots = [layout.index(name) for name in pair_names]
    dF = {name: differentiate(F, name) for name in pair_names}

    points: list[JetPoint] = []
    attempt = 0
    for _ in range(count):
        found = None
        for _ in range(_MAX_ATTEMPTS):
            pivot_idx = attempt % len(pivot_slots)
            attempt += 1
            vec = rng.uniform(lo, hi, size=nvars)
            slot = pivot_slots[pivot_idx]
            sol = _solve_pivot(F, n, vec, slot, dF[pair_names[pivot_idx]], lo, hi)
            if sol is not None:
                vec[slot] = sol[0]
                found = jetpoint_from_vector(vec, n)
                break
        if found is not None:
            points.append(found)
    if len(points) < count / 2:
        raise SamplingError(
            f"found only {len(points)} of {count} requested zero-locus samples; "
            "F may have no accessible zero locus in the box")
    return points


# ---------------------------------------------------------------------------
# Exceptionality test


@dataclass(frozen=True)
class SampleRecord:
    point: JetPoint
    residual: float
    passed: bool
    degenerate: bool  # symbol S vanished at this sample
    factor: QuadraticForm | None


@dataclass(frozen=True)
class ExceptionalityVerdict:
    """Aggregate divisibility verdict over the sampled zero locus.

    "exceptional" iff every sample passed; "not-exceptional" iff at least one
    sample failed with residual > 10*tol; "inconclusive" otherwise.
    """

    verdict: str
    samples: tuple[SampleRecord, ...]
    tolerance: float

    @property
    def sample_count(self) -> int:
        return len(self.samples)


def exceptionality_at_point(F: Expr, pt: JetPoint, tol: float = DEFAULT_TOL
                            ) -> SampleRecord:
    """Divisibility test S2 = g * S at one (on-locus) jet point.

    When S is degenerate (zero form), the point passes iff S2 vanishes too;
    the reported residual is then the coefficient norm of S2.
    """
    s = principal_symbol(F, pt)
    s2 = second_symbol(F, pt)
    if s.norm() <= DEGENERATE_SYMBOL_TOL:
        residual = s2.norm()
        passed = residual <= tol
        factor = QuadraticForm.zero(pt.n) if passed else None
        return SampleRecord(pt, residual, passed, True, factor)
    factor, residual = factor_quartic(s2, s, tol)
    return SampleRecord(pt, residual, factor is not None, False, factor)


def is_completely_exceptional(F: Expr, n: int, box=DEFAULT_BOX,
                              count: int = DEFAULT_COUNT, seed: int = 0,
                              tol: float = DEFAULT_TOL) -> ExceptionalityVerdict:
    """Run the divisibility test over a sampled zero locus and aggregate.

    A sample where a symbol coefficient fails to evaluate or overflows, or
    where the divisibility residual overflows, cannot be tested and is
    dropped like a failed draw; SamplingError is raised when fewer than
    count/2 testable samples remain.
    """
    points = sample_zero_locus(F, n, box=box, count=count, seed=seed)
    records = []
    for pt in points:
        try:
            record = exceptionality_at_point(F, pt, tol)
        except EvaluationDomainError:
            continue
        if np.isfinite(record.residual):
            records.append(record)
    if len(records) < count / 2:
        raise SamplingError(
            f"only {len(records)} of {len(points)} zero-locus samples give "
            "finite symbols and residuals; too few to test divisibility")
    records = tuple(records)
    if all(r.passed for r in records):
        verdict = "exceptional"
    elif any(not r.passed and r.residual > 10.0 * tol for r in records):
        verdict = "not-exceptional"
    else:
        verdict = "inconclusive"
    return ExceptionalityVerdict(verdict, records, tol)
