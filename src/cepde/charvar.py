"""n=2 characteristics: hyperbolicity typing, characteristic speeds, the
speed-gradient (Lax) residual, strong-characteristic containment, and the
three-way equivalence report.

A covector (xi, eta) is characteristic at a jet point when
a*xi^2 + b*xi*eta + c*eta^2 = 0 with (a, b, c) = (F_u11, F_u12, F_u22); with
lambda = eta/xi this is a + b*lambda + c*lambda^2 = 0, and lambda is the
characteristic speed.  The root at infinity (c = 0) is handled through the
coordinate swap x <-> y, under which lambda maps to 1/lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .expr import Expr, JetPoint, hessian_pairs, swap_xy, variable_layout
from .symbol import (DEGENERATE_SYMBOL_TOL, _first_partials, _second_partials,
                     exceptionality_at_point, sample_zero_locus)

HYPERBOLIC_TYPE_TOL = 1e-9   # |b^2-4ac| <= tol*(a^2+b^2+c^2) is parabolic
NEAR_PARABOLIC_TOL = 1e-7    # relative floor for the b + 2c*lambda denominator
DEFAULT_T_GRID_SIZE = 21
DEFAULT_LAX_TOL = 1e-6
DEFAULT_STRONG_TOL = 1e-8


class TotallyDegenerateError(Exception):
    """All three symbol coefficients vanish: no characteristic structure."""


class NearParabolicError(Exception):
    """Speed gradient undefined: b + 2c*lambda too close to zero."""


@dataclass(frozen=True)
class ProjectiveRoot:
    """Characteristic direction (xi : eta), normalized to xi = 1 when finite
    and (0, 1) at infinity."""

    xi: float
    eta: float

    @property
    def is_infinite(self) -> bool:
        return self.xi == 0.0

    @property
    def affine(self) -> float | None:
        """The speed lambda = eta/xi, or None for the root at infinity."""
        return None if self.xi == 0.0 else self.eta / self.xi


@dataclass(frozen=True)
class CharSpeeds:
    """Characteristic roots and the discriminant type at one jet point.

    kind: "hyperbolic" (two distinct real roots), "parabolic" (double root),
    or "elliptic" (no real roots).  Roots are sorted by affine speed
    ascending, infinite root last.
    """

    kind: str
    discriminant: float
    coeffs: tuple[float, float, float]
    roots: tuple[ProjectiveRoot, ...]

    @property
    def speeds(self) -> tuple[float | None, ...]:
        return tuple(r.affine for r in self.roots)


def char_poly_coeffs(F: Expr, pt: JetPoint) -> tuple[float, float, float]:
    """(a, b, c) = (dF/du11, dF/du12, dF/du22) at pt; these are exactly the
    principal-symbol coefficients."""
    if pt.n != 2:
        raise ValueError("characteristics are implemented for n = 2 only")
    vec = pt.to_vector()
    d11, d12, d22 = _first_partials(F, 2)
    return (backend.eval_vector(d11, 2, vec),
            backend.eval_vector(d12, 2, vec),
            backend.eval_vector(d22, 2, vec))


def _sorted_roots(roots: list[ProjectiveRoot]) -> tuple[ProjectiveRoot, ...]:
    return tuple(sorted(roots, key=lambda r: (r.is_infinite,
                                              r.affine if r.affine is not None else 0.0)))


def characteristic_speeds(F: Expr, pt: JetPoint,
                          type_tol: float = HYPERBOLIC_TYPE_TOL) -> CharSpeeds:
    """Projective roots of a*xi^2 + b*xi*eta + c*eta^2 = 0 with discriminant
    typing.  Raises TotallyDegenerateError when (a, b, c) vanishes."""
    a, b, c = char_poly_coeffs(F, pt)
    scale2 = a * a + b * b + c * c
    if math.sqrt(scale2) <= DEGENERATE_SYMBOL_TOL:
        raise TotallyDegenerateError(
            "all symbol coefficients vanish at this point")
    disc = b * b - 4.0 * a * c
    if disc > type_tol * scale2:
        sq = math.sqrt(disc)
        if c == 0.0:
            # one branch escapes to infinity; the finite root solves a + b*l = 0
            roots = [ProjectiveRoot(1.0, -a / b), ProjectiveRoot(0.0, 1.0)]
        else:
            q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
            roots = [ProjectiveRoot(1.0, q / c), ProjectiveRoot(1.0, a / q)]
        return CharSpeeds("hyperbolic", disc, (a, b, c), _sorted_roots(roots))
    if disc < -type_tol * scale2:
        return CharSpeeds("elliptic", disc, (a, b, c), ())
    if c != 0.0:
        double = [ProjectiveRoot(1.0, -0.5 * b / c)]
    elif b != 0.0:
        # |b| tiny relative to a: the nearly coincident pair sits at infinity
        double = [ProjectiveRoot(0.0, 1.0)]
    else:
        double = [ProjectiveRoot(0.0, 1.0)]
    return CharSpeeds("parabolic", disc, (a, b, c), tuple(double))


def _second_partial_matrix(F: Expr, pt: JetPoint) -> np.ndarray:
    """3x3 symmetric matrix of d2F/du_ab du_cd over (u11, u12, u22)."""
    vec = pt.to_vector()
    D = np.zeros((3, 3))
    for p1, p2, dd in _second_partials(F, 2):
        v = backend.eval_vector(dd, 2, vec)
        D[p1, p2] = D[p2, p1] = v
    return D


def speed_gradient(F: Expr, pt: JetPoint, branch: int
                   ) -> tuple[float, float, float]:
    """(d lambda/du11, d lambda/du12, d lambda/du22) for a finite hyperbolic
    root, by implicit differentiation of a + b*lambda + c*lambda^2 = 0."""
    speeds = characteristic_speeds(F, pt)
    if speeds.kind != "hyperbolic":
        raise ValueError(f"speed gradient needs a hyperbolic point, got {speeds.kind}")
    root = speeds.roots[branch]
    if root.is_infinite:
        raise ValueError("speed gradient of the root at infinity: "
                         "use the coordinate-swapped expression")
    lam = root.affine
    a, b, c = speeds.coeffs
    denom = b + 2.0 * c * lam
    if abs(denom) <= NEAR_PARABOLIC_TOL * (1.0 + math.sqrt(a * a + b * b + c * c)):
        raise NearParabolicError(f"|b + 2c*lambda| = {abs(denom):.3e} too small")
    D = _second_partial_matrix(F, pt)
    grads = [-(D[0, t] + D[1, t] * lam + D[2, t] * lam * lam) / denom
             for t in range(3)]
    return (grads[0], grads[1], grads[2])


def _swap_point(pt: JetPoint) -> JetPoint:
    H = pt.hessian()
    return JetPoint.make((pt.x[1], pt.x[0]), pt.u, (pt.p[1], pt.p[0]),
                         np.array([[H[1, 1], H[0, 1]], [H[0, 1], H[0, 0]]]))


def lax_residual(F: Expr, pt: JetPoint, branch: int) -> float:
    """Lax's complete-exceptionality residual for one branch:
    lambda_u11 + lambda*lambda_u12 + lambda^2*lambda_u22.

    The root at infinity is evaluated in the coordinate-swapped chart, where
    it becomes the finite root lambda' = 0 of the swapped expression.
    """
    speeds = characteristic_speeds(F, pt)
    if speeds.kind != "hyperbolic":
        raise ValueError(f"Lax residual needs a hyperbolic point, got {speeds.kind}")
    root = speeds.roots[branch]
    if not root.is_infinite:
        lam = root.affine
        g = speed_gradient(F, pt, branch)
        return g[0] + lam * g[1] + lam * lam * g[2]
    F_sw = swap_xy(F)
    pt_sw = _swap_point(pt)
    speeds_sw = characteristic_speeds(F_sw, pt_sw)
    # image of the infinite root is the finite swapped root closest to 0
    finite = [(abs(r.affine), k) for k, r in enumerate(speeds_sw.roots)
              if not r.is_infinite]
    if not finite:
        raise NearParabolicError("no finite root in the swapped chart")
    _, k = min(finite)
    lam = speeds_sw.roots[k].affine
    g = speed_gradient(F_sw, pt_sw, k)
    return g[0] + lam * g[1] + lam * lam * g[2]


@dataclass(frozen=True)
class StrongCharResult:
    passed: bool
    max_deviation: float
    scale: float  # local F scale used for the threshold
    t_range: tuple[float, float]


def _deformation_direction(root: ProjectiveRoot) -> np.ndarray:
    if root.is_infinite:
        return np.array([0.0, 1.0])
    return np.array([1.0, root.affine])


def strong_char_test(F: Expr, pt: JetPoint, branch: int, t_grid=None,
                     tol: float = DEFAULT_STRONG_TOL, box=None) -> StrongCharResult:
    """Containment test of the rank-one curve H + t*v*v^T inside {F = 0}.

    v = (1, lambda) for a finite branch, (0, 1) at infinity.  The default
    grid is 21 points over [-1, 1], clipped so deformed Hessian entries stay
    inside ``box`` when given.  The pass threshold is tol * scale where scale
    is 1 plus the largest symbol-term magnitude sum_{i<=j} |F_u_ij * v_i v_j|
    along the line (the size of the first-order term a non-characteristic
    direction would produce).  Grid points outside F's domain are skipped;
    EvaluationDomainError is raised only when F is defined at none of them.
    """
    speeds = characteristic_speeds(F, pt)
    if speeds.kind != "hyperbolic":
        raise ValueError(f"strong-characteristic test needs a hyperbolic point, "
                         f"got {speeds.kind}")
    v = _deformation_direction(speeds.roots[branch])
    H = pt.hessian()
    t_lo, t_hi = -1.0, 1.0
    if box is not None:
        lo, hi = float(box[0]), float(box[1])
        for i, j in ((0, 0), (0, 1), (1, 1)):
            w = v[i] * v[j]
            if w == 0.0:
                continue
            bounds = sorted(((lo - H[i, j]) / w, (hi - H[i, j]) / w))
            t_lo = max(t_lo, bounds[0])
            t_hi = min(t_hi, bounds[1])
        t_lo, t_hi = min(t_lo, 0.0), max(t_hi, 0.0)
    if t_grid is None:
        t_grid = np.linspace(t_lo, t_hi, DEFAULT_T_GRID_SIZE)
    else:
        t_grid = np.asarray(t_grid, dtype=float)

    layout = variable_layout(2)
    vec = pt.to_vector()
    varmat = np.tile(vec, (len(t_grid), 1))
    h_slots = [layout.index(f"u{i}{j}") for i, j in hessian_pairs(2)]
    weights = [v[i - 1] * v[j - 1] for i, j in hessian_pairs(2)]
    for slot, w in zip(h_slots, weights):
        varmat[:, slot] = vec[slot] + t_grid * w
    vals, errs = backend.eval_batch(F, 2, varmat)
    # containment is judged where F is defined along the line
    defined = errs < 0
    if not np.any(defined):
        backend.eval_vector(F, 2, varmat[0])  # raises with the subexpression
    max_dev = float(np.max(np.abs(vals[defined])))
    symbol_term = np.zeros(len(t_grid))
    for d, w in zip(_first_partials(F, 2), weights):
        if w == 0.0:
            continue
        dv, derr = backend.eval_batch(d, 2, varmat)
        dv[derr >= 0] = 0.0
        symbol_term += np.abs(dv * w)
    scale = 1.0 + float(np.max(symbol_term))
    return StrongCharResult(max_dev <= tol * scale, max_dev, scale,
                            (float(t_grid[0]), float(t_grid[-1])))


# ---------------------------------------------------------------------------
# Scans and the three-way equivalence report


@dataclass(frozen=True)
class HyperbolicityScan:
    kinds: tuple[str, ...]
    fractions: dict

    @property
    def fraction_hyperbolic(self) -> float:
        return self.fractions.get("hyperbolic", 0.0)


def hyperbolicity_scan(F: Expr, samples) -> HyperbolicityScan:
    """Discriminant type of each sample plus summary fractions."""
    kinds = []
    for pt in samples:
        try:
            kinds.append(characteristic_speeds(F, pt).kind)
        except TotallyDegenerateError:
            kinds.append("totally-degenerate")
    fractions = {k: kinds.count(k) / len(kinds) for k in sorted(set(kinds))} \
        if kinds else {}
    return HyperbolicityScan(tuple(kinds), fractions)


@dataclass(frozen=True)
class EquivalenceSample:
    point: JetPoint
    divisibility_pass: bool
    divisibility_residual: float
    lax_pass: bool
    lax_residuals: tuple[float, float]
    strong_pass: bool
    strong_deviations: tuple[float, float]

    @property
    def agreeing(self) -> bool:
        return self.divisibility_pass == self.lax_pass == self.strong_pass


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-sample comparison of the three exceptionality criteria on
    hyperbolic on-locus samples: (i) S2 divisible by S, (ii) both-branch Lax
    residuals below tol, (iii) both-branch strong-characteristic containment.
    Non-hyperbolic samples are skipped with a counted reason."""

    samples: tuple[EquivalenceSample, ...]
    skipped: dict
    matrix: dict  # "PFP"-style (div, lax, strong) combo -> count
    tolerances: dict

    @property
    def disagreements(self) -> tuple[EquivalenceSample, ...]:
        return tuple(s for s in self.samples if not s.agreeing)

    @property
    def all_agree(self) -> bool:
        return all(s.agreeing for s in self.samples)


def equivalence_report(F: Expr, box=(-2.0, 2.0), count: int = 64, seed: int = 0,
                       tol_div: float = 1e-7, tol_lax: float = DEFAULT_LAX_TOL,
                       tol_strong: float = DEFAULT_STRONG_TOL,
                       samples=None) -> EquivalenceReport:
    """Cross-validate the three criteria on sampled hyperbolic locus points.

    ``samples`` may supply pre-drawn on-locus points; otherwise count points
    are sampled with the given box/seed.
    """
    if samples is None:
        samples = sample_zero_locus(F, 2, box=box, count=count, seed=seed)
    out = []
    skipped: dict[str, int] = {}
    for pt in samples:
        try:
            speeds = characteristic_speeds(F, pt)
        except TotallyDegenerateError:
            skipped["totally-degenerate"] = skipped.get("totally-degenerate", 0) + 1
            continue
        if speeds.kind != "hyperbolic":
            skipped[speeds.kind] = skipped.get(speeds.kind, 0) + 1
            continue
        try:
            lax = tuple(lax_residual(F, pt, k) for k in range(2))
        except NearParabolicError:
            skipped["near-parabolic"] = skipped.get("near-parabolic", 0) + 1
            continue
        rec = exceptionality_at_point(F, pt, tol_div)
        strong = tuple(strong_char_test(F, pt, k, tol=tol_strong, box=box)
                       for k in range(2))
        out.append(EquivalenceSample(
            point=pt,
            divisibility_pass=rec.passed,
            divisibility_residual=rec.residual,
            lax_pass=all(abs(r) <= tol_lax for r in lax),
            lax_residuals=(float(lax[0]), float(lax[1])),
            strong_pass=all(s.passed for s in strong),
            strong_deviations=(strong[0].max_deviation, strong[1].max_deviation),
        ))
    matrix: dict[str, int] = {}
    for s in out:
        key = "".join("P" if flag else "F"
                      for flag in (s.divisibility_pass, s.lax_pass, s.strong_pass))
        matrix[key] = matrix.get(key, 0) + 1
    return EquivalenceReport(tuple(out), skipped, matrix,
                             {"divisibility": tol_div, "lax": tol_lax,
                              "strong": tol_strong})
