"""Principal symbol S, second symbol S2, zero-locus sampling, and the
complete-exceptionality (divisibility) test.

S at a jet point is the quadratic form with coefficients dF/du_ij; S2 is the
quartic obtained by applying the same construction to each coefficient
function (equivalently the second rank-one directional derivative of F in
Hessian directions).  A PDE is completely exceptional when S2 is divisible
by S at every point of the zero locus {F = 0}.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import backend
from .expr import (EvaluationDomainError, Expr, JetPoint, differentiate,
                   hessian_name, hessian_pairs, jetpoint_from_vector,
                   variable_layout)
from .tensor import (QuadraticForm, QuarticForm, _product_index, factor_quartic,
                     quartic_combos)

# A symbol with coefficient 2-norm at or below this is treated as the zero
# form (degenerate: it divides only the zero quartic).
DEGENERATE_SYMBOL_TOL = 1e-12

DEFAULT_BOX = (-2.0, 2.0)
DEFAULT_COUNT = 64
DEFAULT_TOL = 1e-7

_BRACKET_GRID = 33
_MAX_ATTEMPTS = 50
# candidates in the first block, and per bracket-grid batch (64 * 33 rows);
# a later block is sized by the yield so far, at most _BLOCK * _MAX_ATTEMPTS
_BLOCK = 64


class SamplingError(Exception):
    """The zero locus yielded too few samples inside the box."""


@lru_cache(maxsize=1024)
def _first_partials(F: Expr, n: int) -> tuple[Expr, ...]:
    """dF/du_ij in hessian_pairs(n) order."""
    return tuple(differentiate(F, hessian_name(i, j))
                 for i, j in hessian_pairs(n))


@lru_cache(maxsize=1024)
def _second_partials(F: Expr, n: int) -> tuple[Expr, ...]:
    """Distinct d2F/du_ij du_kl: the pair-index pairs p1 <= p2 into
    hessian_pairs(n), row-major (the order of np.triu_indices)."""
    firsts = _first_partials(F, n)
    names = [hessian_name(i, j) for i, j in hessian_pairs(n)]
    return tuple(differentiate(firsts[p1], names[p2])
                 for p1 in range(len(names)) for p2 in range(p1, len(names)))


def _partials(exprs, n: int, varmat: np.ndarray):
    """Values of exprs at the rows of varmat, one batch per expression, and
    per row None or the error of its first failing expression: a failed
    evaluation or a non-finite value."""
    vals = np.empty((len(varmat), len(exprs)))
    errors: list = [None] * len(varmat)
    for k, d in enumerate(exprs):
        vals[:, k], errs = backend.eval_batch(d, n, varmat)
        for r in np.flatnonzero((errs >= 0) | ~np.isfinite(vals[:, k])):
            if errors[r] is None:
                errors[r] = (EvaluationDomainError("non-finite symbol coefficient", d)
                             if errs[r] < 0 else backend.domain_error(d, n, errs[r]))
    return vals, errors


def _checked(result):
    """result, raised instead when it is an evaluation error."""
    if isinstance(result, EvaluationDomainError):
        raise result
    return result


def _point_partials(exprs, pt: JetPoint) -> np.ndarray:
    """The values of exprs at one point; raises its first error."""
    vals, errors = _partials(exprs, pt.n, pt.to_vector()[None, :])
    _checked(errors[0])
    return vals[0]


def _second_symbol_rows(second: np.ndarray, n: int) -> np.ndarray:
    """S2 coefficients per row of the _second_partials values second."""
    slot = _product_index(n)
    out = np.zeros((len(second), len(quartic_combos(n))))
    for k, (p1, p2) in enumerate(zip(*np.triu_indices(len(slot)))):
        # distinct unordered pairs occur twice in the symmetric double sum;
        # adding a zero leaves a sum that started at +0.0 unchanged
        out[:, slot[p1, p2]] += second[:, k] if p1 == p2 else 2.0 * second[:, k]
    return out


def principal_symbol(F: Expr, pt: JetPoint) -> QuadraticForm:
    """S(xi) = sum_{i<=j} (dF/du_ij)(pt) xi_i xi_j, the derivative at t = 0
    of t -> F(pt with H + t xi xi^T)."""
    return QuadraticForm(pt.n, _point_partials(_first_partials(F, pt.n), pt))


def second_symbol(F: Expr, pt: JetPoint) -> QuarticForm:
    """S2(xi) = d2/dt2 F(pt with H + t xi xi^T) at t = 0; identical to
    contracting the symbols of the coefficient functions dF/du_ij."""
    second = _point_partials(_second_partials(F, pt.n), pt)
    return QuarticForm(pt.n, _second_symbol_rows(second[None, :], pt.n)[0])


# ---------------------------------------------------------------------------
# Zero-locus sampling


def _solve_block(F: Expr, n: int, cand, pivots, lo: float, hi: float) -> np.ndarray:
    """Solve F = 0 for Hessian entry pivots[r] of each candidate row r in
    [lo, hi] by grid bracketing, bisection and Newton polish.  The grid is
    evaluated in batches of _BLOCK candidates, each reduced at once to its
    bracket; bisection and Newton then take one batch per step over every
    row of the block in play.  Writes the roots into cand; returns flags."""
    k = len(cand)
    cols = 2 * n + 1 + pivots  # the Hessian entries end variable_layout(n)

    def at(e: Expr, rows, h) -> np.ndarray:  # nan where e is undefined
        mat = cand[rows]
        mat[np.arange(len(rows)), cols[rows]] = h
        return backend.eval_batch(e, n, mat)[0]
    grid = np.linspace(lo, hi, _BRACKET_GRID)
    # F is constant along a pivot its tape never reads: there one row stands
    # for the whole grid, bit for bit
    tape = backend.compiled_tape(F, n)
    read = np.zeros(cand.shape[1], dtype=bool)
    read[[a for op, a in zip(tape.codes, tape.a) if op == backend.OP_VAR]] = True
    read = read[cols]
    scale, root, a, b, fa = (np.empty(k) for _ in range(5))
    exact, has_bracket = np.empty(k, dtype=bool), np.empty(k, dtype=bool)
    for c in range(0, k, _BLOCK):
        rows = np.arange(c, min(c + _BLOCK, k))
        # rows of flat: the grid for a read pivot, its first point otherwise
        reps = np.where(read[rows], _BRACKET_GRID, 1)
        starts = np.cumsum(reps) - reps
        flat = at(F, rows.repeat(reps), grid[np.arange(reps.sum()) - starts.repeat(reps)])
        vals = flat[starts[:, None] + read[rows, None] * np.arange(_BRACKET_GRID)]
        ok = np.isfinite(vals)
        scale[rows] = np.max(np.abs(np.where(ok, vals, 0.0)), axis=1)
        # exact hits on the grid
        hit = ok & (np.abs(vals) <= 1e-14 * (1.0 + scale[rows])[:, None])
        exact[rows] = hit.any(axis=1)
        root[rows] = grid[np.argmax(hit, axis=1)]
        # first sign change between adjacent valid grid points
        change = ok[:, :-1] & ok[:, 1:] & (vals[:, :-1] * vals[:, 1:] < 0.0)
        first = np.argmax(change, axis=1)
        a[rows], b[rows] = grid[first], grid[first + 1]
        fa[rows] = vals[np.arange(len(rows)), first]
        has_bracket[rows] = change.any(axis=1)
    bracketed = idx = np.flatnonzero(~exact & has_bracket)
    failed = np.zeros(k, dtype=bool)
    for _ in range(40):
        if not idx.size:
            break
        mid = 0.5 * (a[idx] + b[idx])
        fm = at(F, idx, mid)
        bad = ~np.isfinite(fm)
        done = ~bad & (np.abs(fm) <= 1e-10 * (1.0 + scale[idx]))
        # a converged row gets a = b = mid; a failed row is dropped
        right = ~done & (fa[idx] * fm < 0.0)
        a[idx] = np.where(right, a[idx], mid)
        b[idx] = np.where(right | done, mid, b[idx])
        fa[idx] = np.where(right, fa[idx], fm)
        failed[idx[bad]] = True
        idx = idx[~bad & ~done]
    idx = bracketed[~failed[bracketed]]
    root[idx] = 0.5 * (a[idx] + b[idx])
    # Newton polish (stays inside the box or stops); the 7th evaluation is
    # the residual at the root of a row that took all 6 steps
    fr = np.full(k, np.nan)
    for step in range(7):
        if not idx.size:
            break
        fr[idx] = at(F, idx, root[idx])
        if step == 6:
            break
        idx = idx[np.isfinite(fr[idx])
                  & ~(np.abs(fr[idx]) <= 1e-13 * (1.0 + scale[idx]))]
        d = np.empty(len(idx))
        for p, dF in enumerate(_first_partials(F, n)):
            sel = pivots[idx] == p
            if sel.any():
                d[sel] = at(dF, idx[sel], root[idx[sel]])
        newton = fr[idx] / d
        moved = root[idx] - newton
        go = (np.isfinite(d) & (d != 0.0) & np.isfinite(newton)
              & (lo <= moved) & (moved <= hi))
        idx = idx[go]
        root[idx] = moved[go]
    solved = exact | (np.isfinite(fr) & (np.abs(fr) <= 1e-10 * (1.0 + scale)))
    cand[solved, cols[solved]] = root[solved]
    return solved


def sample_zero_locus(F: Expr, n: int, box=DEFAULT_BOX, count: int = DEFAULT_COUNT,
                      seed: int = 0) -> list[JetPoint]:
    """Draw up to ``count`` jet points on {F = 0} inside the box.

    All coordinates are uniform in the box except one pivot Hessian entry
    (cycled across attempts), which is solved for by bracketing plus Newton
    refinement; failed draws are retried up to 50 times per sample.
    Candidates are solved together in blocks: the first holds _BLOCK, each
    later one enough to fill the open slots at the yield seen so far, at
    most _BLOCK * _MAX_ATTEMPTS and never more than the open slots may still
    try.  The outcomes are replayed in draw order, so the samples do not
    depend on the block sizes.  Deterministic for a given seed.  Raises
    SamplingError when fewer than count/2 samples are found.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = float(box[0]), float(box[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError("box bounds must be finite with lo < hi")
    rng = np.random.default_rng(seed)
    nvars, npivots = len(variable_layout(n)), len(hessian_pairs(n))
    points: list[JetPoint] = []
    slot = tries = drawn = 0
    size = _BLOCK
    while slot < count:
        # bit for bit the draws of `size` calls of size nvars
        cand = rng.uniform(lo, hi, size=(size, nvars))
        pivots = (drawn + np.arange(size)) % npivots
        drawn += size
        with np.errstate(all="ignore"):
            solved = _solve_block(F, n, cand, pivots, lo, hi)
        for row, ok in zip(cand, solved):
            tries += 1
            if ok:
                points.append(jetpoint_from_vector(row, n))
            if ok or tries == _MAX_ATTEMPTS:
                slot, tries = slot + 1, 0
            if slot == count:
                break
        # enough draws to fill the open slots at the yield so far (rounded
        # up), but no more than they may still try
        open_slots = count - slot
        size = min(max(_BLOCK, -(-open_slots * drawn // max(len(points), 1))),
                   open_slots * _MAX_ATTEMPTS - tries, _BLOCK * _MAX_ATTEMPTS)
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
    # the values of _first_partials and _second_partials, for other criteria
    first: np.ndarray | None = field(default=None, compare=False, repr=False)
    second: np.ndarray | None = field(default=None, compare=False, repr=False)


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


def exceptionality_records(F: Expr, n: int, points, tol: float = DEFAULT_TOL
                           ) -> list[SampleRecord | EvaluationDomainError]:
    """Divisibility test S2 = g * S at each (on-locus) point, from one batch
    per Hessian partial; a point where a partial fails to evaluate or is
    non-finite gets that error instead.  When S is degenerate (zero form),
    the point passes iff S2 vanishes too, with residual the norm of S2."""
    firsts = _first_partials(F, n)
    vals, errors = _partials(firsts + _second_partials(F, n), n,
                             np.array([pt.to_vector() for pt in points]))
    first, second = vals[:, :len(firsts)], vals[:, len(firsts):]
    out: list = []
    # overflowing symbols give inf or nan residuals, which the callers drop
    with np.errstate(over="ignore", invalid="ignore"):
        quartics = _second_symbol_rows(second, n)
        for r, pt in enumerate(points):
            if errors[r] is not None:
                out.append(errors[r])
                continue
            s = QuadraticForm(n, first[r])
            s2 = QuarticForm(n, quartics[r])
            degenerate = s.norm() <= DEGENERATE_SYMBOL_TOL
            if degenerate:
                residual = s2.norm()
                factor = QuadraticForm.zero(n) if residual <= tol else None
            else:
                factor, residual = factor_quartic(s2, s, tol)
            out.append(SampleRecord(pt, residual, factor is not None, degenerate,
                                    factor, first[r], second[r]))
    return out


def exceptionality_at_point(F: Expr, pt: JetPoint, tol: float = DEFAULT_TOL
                            ) -> SampleRecord:
    """exceptionality_records at one (on-locus) jet point, raising its error."""
    return _checked(exceptionality_records(F, pt.n, [pt], tol)[0])


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
    records = [r for r in exceptionality_records(F, n, points, tol)
               if isinstance(r, SampleRecord) and np.isfinite(r.residual)]
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
