"""Monge-Ampere detection: is F (pointwise in the base variables) an affine
combination of Hessian minors, and if so with which coefficients B0..Bn?

Membership is tested by sampled interpolation: fit F against the minor basis
on random Hessians at a fixed base point, then gate the verdict on held-out
validation residuals (least squares alone always "fits").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .expr import (EvaluationDomainError, Expr, hessian_pairs, variable_layout)
from .tensor import minor_basis

HESSIAN_BOX = (-2.0, 2.0)  # training/validation Hessian draws
OVERSAMPLE = 4             # draws per basis element
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
    """Minor-basis expansion coefficients of F at a base point, aligned with
    minor_basis(n) order (B0; B1 entries; ...; Bn), plus fit diagnostics."""

    base: BasePoint
    coefficients: tuple[float, ...]
    fit_residual: float
    validation_residual: float
    validation_scale: float  # max |F| over the validation draws

    def accepted(self, tol: float) -> bool:
        return self.validation_residual <= tol * (1.0 + self.validation_scale)


def _base_vector(base: BasePoint, n: int) -> np.ndarray:
    vec = np.zeros(len(variable_layout(n)))
    vec[:n] = base.x
    vec[n] = base.u
    vec[n + 1:2 * n + 1] = base.p
    return vec


def _draw_hessian_values(F: Expr, base: BasePoint, rng, m: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """m Hessians (upper-triangle rows) with finite F values at the fixed
    base point; domain-error draws are replaced, up to 50 redraw rounds."""
    n = base.n
    nh = len(hessian_pairs(n))
    vec = _base_vector(base, n)
    hmat = rng.uniform(*HESSIAN_BOX, size=(m, nh))
    varmat = np.tile(vec, (m, 1))
    varmat[:, 2 * n + 1:] = hmat
    vals, errs = backend.eval_batch(F, n, varmat)
    for _ in range(_MAX_REDRAWS):
        bad = (errs >= 0) | ~np.isfinite(vals)
        if not np.any(bad):
            return hmat, vals
        k = int(np.sum(bad))
        hmat[bad] = rng.uniform(*HESSIAN_BOX, size=(k, nh))
        varmat[bad, 2 * n + 1:] = hmat[bad]
        vals[bad], errs[bad] = backend.eval_batch(F, n, varmat[bad])
    err = int(errs[np.argmax((errs >= 0) | ~np.isfinite(vals))])
    if err >= 0:
        raise backend.domain_error(F, n, err)
    raise EvaluationDomainError("evaluation kept failing", F)


def _design_matrix(hmat: np.ndarray, n: int) -> np.ndarray:
    """Minor-basis rows of the symmetric Hessians whose upper triangles are
    the rows of hmat."""
    pairs = hessian_pairs(n)
    i = [p[0] - 1 for p in pairs]
    j = [p[1] - 1 for p in pairs]
    H = np.zeros((len(hmat), n, n))
    # each upper-triangle entry goes to (i, j) and to (j, i)
    H[:, i + j, j + i] = np.concatenate([hmat, hmat], axis=1)
    return minor_basis(n).evaluate(H)


def fit_minor_expansion(F: Expr, base: BasePoint, seed: int = 0) -> MACoefficients:
    """Least-squares fit of F against the minor basis at a fixed base point,
    with an equally sized held-out validation set.  Always returns the fit;
    MACoefficients.accepted(tol) gives the verdict."""
    n = base.n
    m = OVERSAMPLE * len(minor_basis(n))
    rng = np.random.default_rng(seed)
    h_train, f_train = _draw_hessian_values(F, base, rng, m)
    h_val, f_val = _draw_hessian_values(F, base, rng, m)
    design = _design_matrix(np.concatenate([h_train, h_val]), n)
    coeffs, *_ = np.linalg.lstsq(design[:m], f_train, rcond=None)
    fit_residual = float(np.max(np.abs(design[:m] @ coeffs - f_train)))
    val_pred = design[m:] @ coeffs
    validation_residual = float(np.max(np.abs(val_pred - f_val)))
    validation_scale = float(np.max(np.abs(f_val)))
    return MACoefficients(base, tuple(float(c) for c in coeffs),
                          fit_residual, validation_residual, validation_scale)


@dataclass(frozen=True)
class MAClassification:
    """Verdict with per-base-point diagnostics.

    classification: "linear" | "quasi-linear" | "monge-ampere" | "non-ma"
    (each class contains the previous ones; the most specific label wins).
    """

    classification: str
    fits: tuple[MACoefficients, ...]
    tolerance: float


def _high_order_slice(n: int) -> np.ndarray:
    """Indices of minor-basis entries of degree >= 2."""
    basis = minor_basis(n)
    return np.array([k for k, d in enumerate(basis.descriptors) if d.k >= 2])


def _affine_in_base(F: Expr, bases: list[BasePoint], rng, tol: float) -> bool:
    """Randomized second-difference test: is F affine in (u, p) at fixed x
    and Hessian?"""
    n = bases[0].n
    nh = len(hessian_pairs(n))
    delta = 0.5
    for base in bases:
        vec = _base_vector(base, n)
        for _ in range(3):
            vec_h = vec.copy()
            vec_h[2 * n + 1:] = rng.uniform(*HESSIAN_BOX, size=nh)
            d = rng.normal(size=n + 1)
            d /= np.linalg.norm(d)
            rows = np.tile(vec_h, (3, 1))
            for s, row in zip((-delta, 0.0, delta), rows):
                row[n:2 * n + 1] += s * d
            vals, errs = backend.eval_batch(F, n, rows)
            if np.any(errs >= 0) or not np.all(np.isfinite(vals)):
                return False
            scale = float(np.max(np.abs(vals)))
            if abs(vals[0] - 2.0 * vals[1] + vals[2]) > tol * (1.0 + scale):
                return False
    return True


def _coefficients_constant_in_up(F: Expr, bases: list[BasePoint], rng,
                                 tol: float) -> bool:
    """Do the degree >= 1 minor coefficients stay put when (u, p) moves at
    fixed x?  (x-only coefficients are what separates linear from
    quasi-linear.)"""
    n = bases[0].n
    for base in bases:
        ref = None
        for k in range(3):
            draw = BasePoint(base.x, float(rng.uniform(*HESSIAN_BOX)),
                             tuple(rng.uniform(*HESSIAN_BOX, size=n)))
            fit = fit_minor_expansion(F, draw, seed=int(rng.integers(2 ** 31)))
            coeffs = np.asarray(fit.coefficients)[1:]  # drop B0
            if ref is None:
                ref = coeffs
                scale = 1.0 + float(np.max(np.abs(coeffs)))
            elif np.max(np.abs(coeffs - ref)) > tol * scale:
                return False
    return True


def classify(F: Expr, n: int, box=(-2.0, 2.0), count: int = 16, seed: int = 0,
             tol: float = DEFAULT_TOL) -> MAClassification:
    """Classify F as linear / quasi-linear / monge-ampere / non-ma.

    Runs fit_minor_expansion at ``count`` random base points: any fit that
    MACoefficients.accepted(tol) rejects means non-ma.  All-accepted refines
    to quasi-linear when every degree >= 2 coefficient is below tol at every
    base point, and further to linear when F is affine in (u, p) with
    coefficients that do not move across (u, p) draws at fixed x.
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
    hi_idx = _high_order_slice(n)
    hi_coeffs = np.array([[f.coefficients[k] for k in hi_idx] for f in fits])
    if np.max(np.abs(hi_coeffs)) > tol:
        return MAClassification("monge-ampere", fits, tol)
    probe = bases[:min(4, len(bases))]
    if (_affine_in_base(F, probe, rng, tol)
            and _coefficients_constant_in_up(F, probe, rng, tol)):
        return MAClassification("linear", fits, tol)
    return MAClassification("quasi-linear", fits, tol)
