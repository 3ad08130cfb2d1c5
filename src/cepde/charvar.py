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
from .expr import EvaluationDomainError, Expr, JetPoint
from .symbol import (DEFAULT_TOL, DEGENERATE_SYMBOL_TOL, SampleRecord, _checked,
                     _first_partials, _point_partials, _second_partial_matrix,
                     _second_partials, exceptionality_records, sample_zero_locus)

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
    "elliptic" (no real roots) or, inside charvar only, "totally-degenerate".
    Roots are sorted by affine speed ascending, infinite root last.
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
    return tuple(_point_partials(_first_partials(F, 2), pt, finite=False).tolist())


def _sorted_roots(roots: list[ProjectiveRoot]) -> tuple[ProjectiveRoot, ...]:
    return tuple(sorted(roots, key=lambda r: (r.is_infinite,
                                              r.affine if r.affine is not None else 0.0)))


def characteristic_speeds(F: Expr, pt: JetPoint,
                          type_tol: float = HYPERBOLIC_TYPE_TOL) -> CharSpeeds:
    """Projective roots of a*xi^2 + b*xi*eta + c*eta^2 = 0 with discriminant
    typing.  Raises TotallyDegenerateError when (a, b, c) vanishes."""
    speeds = _speeds(*char_poly_coeffs(F, pt), type_tol)
    if speeds.kind == "totally-degenerate":
        raise TotallyDegenerateError("all symbol coefficients vanish at this point")
    return speeds


def _speeds(a: float, b: float, c: float,
            type_tol: float = HYPERBOLIC_TYPE_TOL) -> CharSpeeds:
    """characteristic_speeds from (a, b, c), or kind "totally-degenerate"."""
    scale2 = a * a + b * b + c * c
    if math.sqrt(scale2) <= DEGENERATE_SYMBOL_TOL:
        return CharSpeeds("totally-degenerate", 0.0, (a, b, c), ())
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


def speed_gradient(F: Expr, pt: JetPoint, branch: int
                   ) -> tuple[float, float, float]:
    """(d lambda/du11, d lambda/du12, d lambda/du22) for a finite hyperbolic
    root, by implicit differentiation of a + b*lambda + c*lambda^2 = 0."""
    second = _point_partials(_second_partials(F, 2), pt, finite=False)
    D = _second_partial_matrix(second, 2)
    return _gradient(characteristic_speeds(F, pt), D, branch)


def _gradient(speeds: CharSpeeds, D: np.ndarray, branch: int
              ) -> tuple[float, float, float]:
    """speed_gradient from the speeds and the second-partial matrix."""
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
    grads = [-(D[0, t] + D[1, t] * lam + D[2, t] * lam * lam) / denom
             for t in range(3)]
    return (grads[0], grads[1], grads[2])


def lax_residual(F: Expr, pt: JetPoint, branch: int) -> float:
    """Lax's complete-exceptionality residual for one branch:
    lambda_u11 + lambda*lambda_u12 + lambda^2*lambda_u22.

    The root at infinity is evaluated in the coordinate-swapped chart, where
    it becomes the finite root lambda' = 0 of the swapped expression.
    """
    second = _point_partials(_second_partials(F, 2), pt, finite=False)
    D = _second_partial_matrix(second, 2)
    return _lax(characteristic_speeds(F, pt), D, branch)


def _lax(speeds: CharSpeeds, D: np.ndarray, branch: int) -> float:
    """lax_residual from the speeds and the second-partial matrix."""
    if speeds.kind != "hyperbolic":
        raise ValueError(f"Lax residual needs a hyperbolic point, got {speeds.kind}")
    if speeds.roots[branch].is_infinite:
        # x <-> y swaps u11 and u22: that chart's jet is (c, b, a) with D
        # reversed, and the infinite root maps to its finite root nearest 0
        a, b, c = speeds.coeffs
        speeds, D = _speeds(c, b, a), D[::-1, ::-1]
        finite = [(abs(r.affine), k) for k, r in enumerate(speeds.roots)
                  if not r.is_infinite]
        if not finite:
            raise NearParabolicError("no finite root in the swapped chart")
        _, branch = min(finite)
    lam = speeds.roots[branch].affine
    g = _gradient(speeds, D, branch)
    return g[0] + lam * g[1] + lam * lam * g[2]


@dataclass(frozen=True)
class StrongCharResult:
    passed: bool
    max_deviation: float
    scale: float  # local F scale used for the threshold
    t_range: tuple[float, float]


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
    return _checked(_strong_tests(F, [(pt, speeds.roots[branch])], t_grid, tol, box)[0])


def _strong_tests(F: Expr, lines, t_grid, tol: float, box
                  ) -> list[StrongCharResult | EvaluationDomainError]:
    """strong_char_test on each (point, root) line, one batch per expression
    over all lines; a line where F is defined nowhere gets its error."""
    if not lines:
        return []
    grids, weights = [], []
    for pt, root in lines:
        v = np.array([0.0, 1.0] if root.is_infinite else [1.0, root.affine])
        weights.append([v[0] * v[0], v[0] * v[1], v[1] * v[1]])  # u11, u12, u22
        t_lo, t_hi = -1.0, 1.0
        if box is not None:
            lo, hi = float(box[0]), float(box[1])
            for h, w in zip(pt.h_upper, weights[-1]):
                if w != 0.0:
                    bounds = sorted(((lo - h) / w, (hi - h) / w))
                    t_lo, t_hi = max(t_lo, bounds[0]), min(t_hi, bounds[1])
            t_lo, t_hi = min(t_lo, 0.0), max(t_hi, 0.0)
        grids.append(np.linspace(t_lo, t_hi, DEFAULT_T_GRID_SIZE) if t_grid is None
                     else np.asarray(t_grid, dtype=float))
    grids, weights = np.array(grids), np.array(weights)
    # rows (line, t): the point with its Hessian moved to H + t*v*v^T
    rows = np.stack([np.tile(pt.to_vector(), (grids.shape[1], 1)) for pt, _ in lines])
    rows[:, :, 5:] += grids[:, :, None] * weights[:, None, :]  # u11, u12, u22
    vals, errs = backend.eval_batch(F, 2, rows.reshape(-1, rows.shape[2]))
    vals, errs = vals.reshape(grids.shape), errs.reshape(grids.shape)
    symbol_term = np.zeros(grids.shape)
    for k, d in enumerate(_first_partials(F, 2)):
        on = weights[:, k] != 0.0
        if on.any():
            sub = rows if on.all() else rows[on]
            dv, derr = backend.eval_batch(d, 2, sub.reshape(-1, rows.shape[2]))
            dv[derr >= 0] = 0.0
            symbol_term[on] += np.abs(dv.reshape(len(sub), -1) * weights[on, k, None])
    # containment is judged where F is defined along the line
    max_dev = np.max(np.where(errs < 0, np.abs(vals), -np.inf), axis=1)
    scale = 1.0 + np.max(symbol_term, axis=1)
    return [backend.domain_error(F, 2, int(e[0])) if np.all(e >= 0) else
            StrongCharResult(bool(d <= tol * s), float(d), float(s),
                             (float(g[0]), float(g[-1])))
            for d, s, e, g in zip(max_dev, scale, errs, grids)]


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
    """Discriminant type per sample (jet point or SampleRecord), with fractions."""
    return _scan([_speeds(*r.first.tolist()) for r in _records(F, samples, DEFAULT_TOL)])


def _records(F: Expr, samples, tol: float) -> list[SampleRecord]:
    """The samples as SampleRecords; jet points are tested at tol here."""
    if all(isinstance(s, SampleRecord) for s in samples):
        return list(samples)
    return [_checked(r) for r in exceptionality_records(F, 2, samples, tol)]


def _scan(speeds) -> HyperbolicityScan:
    kinds = [sp.kind for sp in speeds]
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
    Non-hyperbolic samples and non-finite residuals are skipped with a
    counted reason.  scan is the discriminant type of every sample."""

    samples: tuple[EquivalenceSample, ...]
    skipped: dict
    matrix: dict  # "PFP"-style (div, lax, strong) combo -> count
    tolerances: dict
    scan: HyperbolicityScan

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

    ``samples`` may supply pre-drawn on-locus points, or the SampleRecords
    of is_completely_exceptional, whose jets and residuals are reused;
    otherwise count points are sampled with the given box/seed.  Each
    sample's jet and speeds serve all three criteria.
    """
    if samples is None:
        samples = sample_zero_locus(F, 2, box=box, count=count, seed=seed)
    records = _records(F, samples, tol_div)
    speeds = [_speeds(*r.first.tolist()) for r in records]
    skipped: dict[str, int] = {}
    tested, lines = [], []
    # overflowing symbols give inf and nan here, which the skip below catches
    with np.errstate(all="ignore"):
        for rec, sp in zip(records, speeds):
            if sp.kind != "hyperbolic":
                skipped[sp.kind] = skipped.get(sp.kind, 0) + 1
                continue
            D = _second_partial_matrix(rec.second, 2)
            try:
                lax = tuple(_lax(sp, D, k) for k in range(2))
            except NearParabolicError:
                skipped["near-parabolic"] = skipped.get("near-parabolic", 0) + 1
                continue
            tested.append((rec, lax))
            lines += [(rec.point, root) for root in sp.roots]
        strong_results = _strong_tests(F, lines, None, tol_strong, box)
    out = []
    for k, (rec, lax) in enumerate(tested):
        strong = [_checked(r) for r in strong_results[2 * k:2 * k + 2]]
        deviations = (strong[0].max_deviation, strong[1].max_deviation)
        if not np.all(np.isfinite(lax + deviations)):
            skipped["non-finite"] = skipped.get("non-finite", 0) + 1
            continue
        out.append(EquivalenceSample(
            point=rec.point,
            # the divisibility test's pass rule at tol_div
            divisibility_pass=rec.residual <= tol_div,
            divisibility_residual=rec.residual,
            lax_pass=all(abs(r) <= tol_lax for r in lax),
            lax_residuals=(float(lax[0]), float(lax[1])),
            strong_pass=all(s.passed for s in strong),
            strong_deviations=deviations,
        ))
    matrix: dict[str, int] = {}
    for s in out:
        key = "".join("P" if flag else "F"
                      for flag in (s.divisibility_pass, s.lax_pass, s.strong_pass))
        matrix[key] = matrix.get(key, 0) + 1
    return EquivalenceReport(tuple(out), skipped, matrix,
                             {"divisibility": tol_div, "lax": tol_lax,
                              "strong": tol_strong}, _scan(speeds))
