"""Monge-Ampere detection: is F (pointwise in the base variables) an affine
combination of Hessian minors, and if so with which coefficients B0..Bn?

Every class is decided by one kind of test, a validated fit: draw jet
vectors with a slice of the variables free, fit F by least squares against
a design matrix of those rows, and gate the verdict on the residuals at an
equally sized held-out set (least squares alone always "fits").  The minor
fit frees the Hessian at a fixed base point; the linear fit frees (u, p, H)
at a fixed x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .expr import (EvaluationDomainError, Expr, symmetric_from_upper,
                   variable_layout)
from .tensor import minor_basis

HESSIAN_BOX = (-2.0, 2.0)  # training/validation draws of the free variables
OVERSAMPLE = 4             # draws per design column
DEFAULT_TOL = 1e-7
_MAX_REDRAWS = 50


@dataclass(frozen=True)
class BasePoint:
    """Values of the base variables (x, u, first derivatives p)."""

    x: tuple[float, ...]
    u: float
    p: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class MACoefficients:
    """Least-squares coefficients of F at a base point, one per design
    column (for the minor fit: minor_basis(n) order, B0; B1 entries; ...;
    Bn), plus fit diagnostics."""

    base: BasePoint
    coefficients: tuple[float, ...]
    fit_residual: float
    validation_residual: float
    validation_scale: float  # max |F| over the validation draws

    def accepted(self, tol: float) -> bool:
        return self.validation_residual <= tol * (1.0 + self.validation_scale)


def _draw(F: Expr, n: int, vec: np.ndarray, free: int, rng, m: int
          ) -> tuple[np.ndarray, np.ndarray]:
    """m copies of vec with the slots from `free` on drawn uniform in
    HESSIAN_BOX, and their finite F values; domain-error draws are
    replaced, up to 50 redraw rounds."""
    k = len(vec) - free
    rows = np.tile(vec, (m, 1))
    rows[:, free:] = rng.uniform(*HESSIAN_BOX, size=(m, k))
    vals, errs = backend.eval_batch(F, n, rows)
    for _ in range(_MAX_REDRAWS):
        bad = (errs >= 0) | ~np.isfinite(vals)
        if not np.any(bad):
            return rows, vals
        rows[bad, free:] = rng.uniform(*HESSIAN_BOX, size=(int(np.sum(bad)), k))
        vals[bad], errs[bad] = backend.eval_batch(F, n, rows[bad])
    err = int(errs[np.argmax((errs >= 0) | ~np.isfinite(vals))])
    if err >= 0:
        raise backend.domain_error(F, n, err)
    raise EvaluationDomainError("evaluation kept failing", F)


def _validated_fit(F: Expr, base: BasePoint, free: int, columns: int, design,
                   seed: int) -> MACoefficients:
    """Least-squares fit of F against design(free values), a matrix with
    `columns` columns, over jet vectors at `base` whose slots from `free` on
    are drawn; validated on an equally sized held-out set."""
    n = base.n
    m = OVERSAMPLE * columns
    rng = np.random.default_rng(seed)
    vec = np.zeros(len(variable_layout(n)))
    vec[:2 * n + 1] = (*base.x, base.u, *base.p)
    train, f_train = _draw(F, n, vec, free, rng, m)
    val, f_val = _draw(F, n, vec, free, rng, m)
    rows = design(np.concatenate([train, val])[:, free:])
    coeffs, *_ = np.linalg.lstsq(rows[:m], f_train, rcond=None)
    fit_residual = float(np.max(np.abs(rows[:m] @ coeffs - f_train)))
    validation_residual = float(np.max(np.abs(rows[m:] @ coeffs - f_val)))
    validation_scale = float(np.max(np.abs(f_val)))
    return MACoefficients(base, tuple(float(c) for c in coeffs),
                          fit_residual, validation_residual, validation_scale)


def fit_minor_expansion(F: Expr, base: BasePoint, seed: int = 0) -> MACoefficients:
    """Least-squares fit of F against the minor basis at random Hessians at
    a fixed base point, with an equally sized held-out validation set.
    Always returns the fit; MACoefficients.accepted(tol) gives the verdict."""
    n = base.n
    basis = minor_basis(n)
    return _validated_fit(F, base, 2 * n + 1, len(basis),
                          lambda h: basis.evaluate(symmetric_from_upper(h, n)),
                          seed)


def _fit_affine_in_jet(F: Expr, base: BasePoint, seed: int) -> MACoefficients:
    """Least-squares fit of F against [1, u, p, h_ij] at random (u, p, H) at
    the x of base."""
    n = base.n
    return _validated_fit(F, base, n, len(variable_layout(n)) - n + 1,
                          lambda v: np.column_stack([np.ones(len(v)), v]), seed)


@dataclass(frozen=True)
class MAClassification:
    """Verdict with per-base-point diagnostics.

    classification: "linear" | "quasi-linear" | "monge-ampere" | "non-ma"
    (each class contains the previous ones; the most specific label wins).
    """

    classification: str
    fits: tuple[MACoefficients, ...]
    tolerance: float


def classify(F: Expr, n: int, box=(-2.0, 2.0), count: int = 16, seed: int = 0,
             tol: float = DEFAULT_TOL) -> MAClassification:
    """Classify F as linear / quasi-linear / monge-ampere / non-ma.

    Runs fit_minor_expansion at ``count`` random base points: any fit that
    MACoefficients.accepted(tol) rejects means non-ma.  All-accepted refines
    to quasi-linear when every degree >= 2 coefficient is below tol at every
    base point.  A quasi-linear F is affine in H with coefficients in
    (x, u, p), so it is linear exactly when it is affine in (u, p, H)
    jointly: when the fit against [1, u, p, h_ij] at the x of each of the
    first four base points is accepted too.
    """
    rng = np.random.default_rng(seed)
    lo, hi = float(box[0]), float(box[1])
    bases = [BasePoint(tuple(rng.uniform(lo, hi, size=n)),
                       float(rng.uniform(lo, hi)),
                       tuple(rng.uniform(lo, hi, size=n)))
             for _ in range(count)]
    fits = tuple(fit_minor_expansion(F, base, seed=int(rng.integers(2 ** 31)))
                 for base in bases)
    if not all(f.accepted(tol) for f in fits):
        return MAClassification("non-ma", fits, tol)
    high = [k for k, d in enumerate(minor_basis(n).descriptors) if d.k >= 2]
    if max(abs(f.coefficients[k]) for f in fits for k in high) > tol:
        return MAClassification("monge-ampere", fits, tol)
    if all(_fit_affine_in_jet(F, base, int(rng.integers(2 ** 31))).accepted(tol)
           for base in bases[:4]):
        return MAClassification("linear", fits, tol)
    return MAClassification("quasi-linear", fits, tol)
