"""Symmetric-form algebra and symmetric-matrix minor machinery.

Quadratic/quartic forms in n covector variables use dense coefficient
storage; compound matrices, adjugates, the Hessian minor basis and the
projective (Pluecker-type) embedding of symmetric matrices all share one
fixed lexicographic indexing convention, documented on each class.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

import numpy as np

_EPS = float(np.finfo(np.float64).eps)
# dimensions the minor basis (and so the Monge-Ampere fit) covers
MIN_N, MAX_N = 2, 4


@lru_cache(maxsize=32)
def quadratic_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """0-based (i, j) with i <= j, row-major: the monomial order xi_i*xi_j."""
    return tuple((i, j) for i in range(n) for j in range(i, n))


@lru_cache(maxsize=32)
def quartic_combos(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Sorted 4-index combos; combo (i,j,k,l) is the monomial xi_i*xi_j*xi_k*xi_l."""
    return tuple(combinations_with_replacement(range(n), 4))


@lru_cache(maxsize=32)
def _quartic_index(n: int) -> dict:
    return {c: k for k, c in enumerate(quartic_combos(n))}


def _combo_exponents(combo, n: int) -> tuple[int, ...]:
    exp = [0] * n
    for i in combo:
        exp[i] += 1
    return tuple(exp)


class QuadraticForm:
    """Homogeneous degree-2 polynomial q(xi) = sum_{i<=j} c_ij xi_i xi_j.

    Coefficients are stored densely in quadratic_pairs(n) order.
    """

    degree = 2

    def __init__(self, n: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n * (n + 1) // 2,):
            raise ValueError("coefficient vector has wrong length")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.n = n
        self.coeffs = coeffs
        self.coeffs.flags.writeable = False

    @classmethod
    def zero(cls, n: int) -> "QuadraticForm":
        return cls(n, np.zeros(n * (n + 1) // 2))

    @classmethod
    def from_matrix(cls, A) -> "QuadraticForm":
        """Form xi^T A xi of a symmetric matrix (off-diagonal entries doubled)."""
        A = np.asarray(A, dtype=float)
        n = A.shape[0]
        return cls(n, [A[i, i] if i == j else 2.0 * A[i, j]
                       for i, j in quadratic_pairs(n)])

    def coeff(self, i: int, j: int) -> float:
        if i > j:
            i, j = j, i
        return float(self.coeffs[quadratic_pairs(self.n).index((i, j))])

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        return float(sum(c * xi[i] * xi[j]
                         for c, (i, j) in zip(self.coeffs, quadratic_pairs(self.n))))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))

    def scaled(self, c: float) -> "QuadraticForm":
        return QuadraticForm(self.n, c * self.coeffs)

    def allclose(self, other: "QuadraticForm", rtol=1e-9, atol=0.0) -> bool:
        return self.n == other.n and np.allclose(self.coeffs, other.coeffs,
                                                 rtol=rtol, atol=atol)

    def __eq__(self, other):
        return (isinstance(other, QuadraticForm) and self.n == other.n
                and np.array_equal(self.coeffs, other.coeffs))

    def monomials(self) -> dict[str, float]:
        """Exponent-vector keys like "2,0" -> coefficient (dense)."""
        out = {}
        for c, (i, j) in zip(self.coeffs, quadratic_pairs(self.n)):
            exp = [0] * self.n
            exp[i] += 1
            exp[j] += 1
            out[",".join(map(str, exp))] = float(c)
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "degree": 2, "coefficients": self.monomials()}

    def __repr__(self):
        return f"QuadraticForm(n={self.n}, {self.monomials()})"


class QuarticForm:
    """Homogeneous degree-4 polynomial, dense coefficients in
    quartic_combos(n) order (one slot per monomial)."""

    degree = 4

    def __init__(self, n: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(quartic_combos(n)),):
            raise ValueError("coefficient vector has wrong length")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.n = n
        self.coeffs = coeffs
        self.coeffs.flags.writeable = False

    @classmethod
    def zero(cls, n: int) -> "QuarticForm":
        return cls(n, np.zeros(len(quartic_combos(n))))

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        total = 0.0
        for c, combo in zip(self.coeffs, quartic_combos(self.n)):
            total += c * xi[combo[0]] * xi[combo[1]] * xi[combo[2]] * xi[combo[3]]
        return float(total)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))

    def scaled(self, c: float) -> "QuarticForm":
        return QuarticForm(self.n, c * self.coeffs)

    def allclose(self, other: "QuarticForm", rtol=1e-9, atol=0.0) -> bool:
        return self.n == other.n and np.allclose(self.coeffs, other.coeffs,
                                                 rtol=rtol, atol=atol)

    def __eq__(self, other):
        return (isinstance(other, QuarticForm) and self.n == other.n
                and np.array_equal(self.coeffs, other.coeffs))

    def monomials(self) -> dict[str, float]:
        return {",".join(map(str, _combo_exponents(combo, self.n))): float(c)
                for c, combo in zip(self.coeffs, quartic_combos(self.n))}

    def to_json(self) -> dict:
        return {"n": self.n, "degree": 4, "coefficients": self.monomials()}

    def __repr__(self):
        return f"QuarticForm(n={self.n}, {self.monomials()})"


def multiply_quadratics(a: QuadraticForm, b: QuadraticForm) -> QuarticForm:
    """Plain polynomial product of two quadratic forms."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    index = _quartic_index(n)
    out = np.zeros(len(quartic_combos(n)))
    pairs = quadratic_pairs(n)
    for ca, (i, j) in zip(a.coeffs, pairs):
        if ca == 0.0:
            continue
        for cb, (k, l) in zip(b.coeffs, pairs):
            if cb == 0.0:
                continue
            out[index[tuple(sorted((i, j, k, l)))]] += ca * cb
    return QuarticForm(n, out)


@lru_cache(maxsize=32)
def _product_index(n: int) -> np.ndarray:
    """Entry [a, b]: the quartic_combos slot of the product of the monomials
    of quadratic pairs a and b."""
    index = _quartic_index(n)
    pairs = quadratic_pairs(n)
    return np.array([[index[tuple(sorted(p + q))] for q in pairs] for p in pairs])


def factor_quartic(q: QuarticForm, s: QuadraticForm, tol: float
                   ) -> tuple[QuadraticForm | None, float]:
    """Divisibility test q ?= g * s, solved as linear least squares over the
    coefficients of the degree-2 factor g.

    Returns (g, residual) when the relative residual
    ||q - g*s|| / max(||q||, eps_machine) is <= tol, else (None, residual).
    The Euclidean norm is taken on dense quartic coefficients.  A zero s
    divides only the zero quartic (with g = 0).
    """
    if q.n != s.n:
        raise ValueError(f"dimension mismatch: {q.n} vs {s.n}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = q.n
    # column c holds the coefficients of (unit form c) * s; +0.0 turns -0.0
    # into 0.0, as multiply_quadratics leaves zero coefficients
    npairs = len(quadratic_pairs(n))
    M = np.zeros((len(quartic_combos(n)), npairs))
    M[_product_index(n), np.arange(npairs)[:, None]] = s.coeffs + 0.0
    g, *_ = np.linalg.lstsq(M, q.coeffs, rcond=None)
    # symbols near the overflow threshold give an inf or nan residual, which
    # the callers drop; it needs no warning
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(M @ g - q.coeffs)
                         / max(np.linalg.norm(q.coeffs), _EPS))
    if residual <= tol:
        return QuadraticForm(n, g), residual
    return None, residual


# ---------------------------------------------------------------------------
# Compound matrices, adjugate, minors


def compound(A, k: int) -> np.ndarray:
    """k-th compound: entry (I, J) is det A[I, J], with k-subsets of rows and
    columns in lexicographic order.  compound(A, 0) = [[1]], compound(A, 1) = A,
    compound(A, n) = [[det A]].  Symmetric input gives symmetric output."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if not 0 <= k <= n:
        raise ValueError(f"compound order k={k} out of range 0..{n}")
    subsets = list(combinations(range(n), k))
    out = np.empty((len(subsets), len(subsets)))
    for r, I in enumerate(subsets):
        for c, J in enumerate(subsets):
            out[r, c] = _det(A[np.ix_(I, J)])
    return out


def _det(M: np.ndarray) -> float:
    m = M.shape[0]
    if m == 0:
        return 1.0
    if m == 1:
        return float(M[0, 0])
    if m == 2:
        return float(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    return float(np.linalg.det(M))


def adjugate(A) -> np.ndarray:
    """Classical adjugate; satisfies A @ adj(A) = det(A) * I."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or n < 1:
        raise ValueError("A must be square, n >= 1")
    if n == 1:
        return np.array([[1.0]])
    adj = np.empty((n, n))
    rows = list(range(n))
    for i in range(n):
        for j in range(n):
            minor = A[np.ix_([r for r in rows if r != i],
                             [c for c in rows if c != j])]
            adj[j, i] = (-1.0) ** (i + j) * _det(minor)
    return adj


@dataclass(frozen=True)
class MinorDescriptor:
    """One deduplicated minor of a symmetric matrix: det A[I, J] of order k,
    with I <= J lexicographically (0-based index tuples)."""

    k: int
    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def label(self) -> str:
        if self.k == 0:
            return "1"
        fmt = lambda t: "".join(str(i + 1) for i in t)
        return f"m{self.k}[{fmt(self.rows)}|{fmt(self.cols)}]"


class MinorBasis:
    """All deduplicated minors of an n x n symmetric matrix, grouped by order
    k = 0..n; within each k the (I, J) pairs are lexicographic with I <= J.
    The first entry is the constant 1, the last the full determinant.  This
    order matches pluecker_embed coordinate for coordinate."""

    def __init__(self, n: int):
        if not MIN_N <= n <= MAX_N:
            raise ValueError(f"minor basis supports {MIN_N} <= n <= {MAX_N}")
        self.n = n
        descriptors = []
        # per order k >= 1: the basis slice and the (g, k, 1) row and (g, 1, k)
        # column index arrays that gather all g k x k submatrices at once
        self._orders = []
        for k in range(n + 1):
            subsets = list(combinations(range(n), k))
            start = len(descriptors)
            for r, I in enumerate(subsets):
                for J in subsets[r:]:
                    descriptors.append(MinorDescriptor(k, I, J))
            if k:
                group = descriptors[start:]
                self._orders.append(
                    (k, slice(start, len(descriptors)),
                     np.array([d.rows for d in group])[:, :, None],
                     np.array([d.cols for d in group])[:, None, :]))
        self.descriptors: tuple[MinorDescriptor, ...] = tuple(descriptors)

    def __len__(self) -> int:
        return len(self.descriptors)

    def labels(self) -> tuple[str, ...]:
        return tuple(d.label() for d in self.descriptors)

    def evaluate(self, A) -> np.ndarray:
        """Minors of A, or of each matrix of a stack A of shape (..., n, n);
        the basis runs along the last axis of the result.  Order 2 uses the
        closed form of _det and orders >= 3 one stacked np.linalg.det, so
        each value equals _det of the submatrix bit for bit."""
        A = np.asarray(A, dtype=float)
        if A.shape[-2:] != (self.n, self.n):
            raise ValueError("matrix dimension mismatch")
        out = np.empty(A.shape[:-2] + (len(self),))
        out[..., 0] = 1.0
        for k, where, rows, cols in self._orders:
            sub = A[..., rows, cols]  # (..., g, k, k)
            if k == 1:
                out[..., where] = sub[..., 0, 0]
            elif k == 2:
                out[..., where] = (sub[..., 0, 0] * sub[..., 1, 1]
                                   - sub[..., 0, 1] * sub[..., 1, 0])
            else:
                out[..., where] = np.linalg.det(sub)
        return out


@lru_cache(maxsize=8)
def minor_basis(n: int) -> MinorBasis:
    return MinorBasis(n)


def pluecker_embed(A) -> np.ndarray:
    """Projective coordinates [(A^(0), A^(1), ..., A^(n))]: the concatenated
    upper-triangular entries (row-major) of every compound, leading
    coordinate 1.  These are the minor_basis(n) minors of A."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if not MIN_N <= n <= MAX_N:
        raise ValueError(f"pluecker_embed supports {MIN_N} <= n <= {MAX_N}")
    return minor_basis(n).evaluate(A)


def lie_quadric_residual(z) -> float:
    """Defining quadric of the n=2 embedding image: z0*z3 - (z11*z22 - z12^2)
    for coordinates (z0, z11, z12, z22, z3); zero exactly on the image."""
    z = np.asarray(z, dtype=float)
    if z.shape != (5,):
        raise ValueError("expected a 5-vector")
    return float(z[0] * z[4] - (z[1] * z[3] - z[2] ** 2))


def rank_one_deform(A, v, t: float) -> np.ndarray:
    """A + t * v v^T: the line of symmetric matrices through A with rank-one
    direction v (for n=2 and v=(1, lambda) this is the curve whose velocity
    is d/du11 + lambda d/du12 + lambda^2 d/du22)."""
    A = np.asarray(A, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.any(v != 0.0):
        raise ValueError("deformation direction v must be nonzero")
    return A + t * np.outer(v, v)
