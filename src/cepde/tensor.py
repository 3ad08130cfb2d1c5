"""The geometry the criteria read: symbol forms and Hessian minors.

QuadraticForm (the principal symbol S) and QuarticForm (the second symbol
S2) are dense forms in n covector variables; factor_quartic tests S2 for
divisibility by S.  minor_basis(n) lists the minors of a symmetric n x n
matrix A: the Pluecker coordinates of its graph in LG(n, 2n).  Forms and
minors use fixed lexicographic index orders, documented where they are
defined.
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


def _combo_exponents(combo, n: int) -> tuple[int, ...]:
    exp = [0] * n
    for i in combo:
        exp[i] += 1
    return tuple(exp)


class _Form:
    """Homogeneous polynomial of ``degree`` in n covector variables, with
    dense coefficients: slot k multiplies the product of xi_i over the k-th
    index tuple of the subclass's monomial order."""

    # subclasses set degree and monomial_order: n -> one index tuple per slot

    def __init__(self, n: int, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (len(self.monomial_order(n)),):
            raise ValueError("coefficient vector has wrong length")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        self.n = n
        self.coeffs = coeffs
        self.coeffs.flags.writeable = False

    @classmethod
    def zero(cls, n: int):
        return cls(n, np.zeros(len(cls.monomial_order(n))))

    def __call__(self, xi) -> float:
        xi = np.asarray(xi, dtype=float)
        total = 0.0
        for c, combo in zip(self.coeffs, self.monomial_order(self.n)):
            term = c
            for i in combo:
                term = term * xi[i]
            total += term
        return float(total)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_zero(self) -> bool:
        return bool(np.all(self.coeffs == 0.0))

    def allclose(self, other: "_Form", rtol=1e-9, atol=0.0) -> bool:
        return self.n == other.n and np.allclose(self.coeffs, other.coeffs,
                                                 rtol=rtol, atol=atol)

    def __eq__(self, other):
        return (isinstance(other, type(self)) and self.n == other.n
                and np.array_equal(self.coeffs, other.coeffs))

    def monomials(self) -> dict[str, float]:
        """Exponent-vector keys like "2,0" -> coefficient (dense)."""
        return {",".join(map(str, _combo_exponents(combo, self.n))): float(c)
                for c, combo in zip(self.coeffs, self.monomial_order(self.n))}

    def to_json(self) -> dict:
        return {"n": self.n, "degree": self.degree,
                "coefficients": self.monomials()}

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, {self.monomials()})"


class QuadraticForm(_Form):
    """q(xi) = sum_{i<=j} c_ij xi_i xi_j, in quadratic_pairs(n) order."""

    degree = 2
    monomial_order = staticmethod(quadratic_pairs)


class QuarticForm(_Form):
    """Degree-4 form, one slot per monomial in quartic_combos(n) order."""

    degree = 4
    monomial_order = staticmethod(quartic_combos)


def multiply_quadratics(a: QuadraticForm, b: QuadraticForm) -> QuarticForm:
    """Plain polynomial product of two quadratic forms."""
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    out = np.zeros(len(quartic_combos(a.n)))
    np.add.at(out, _product_index(a.n), np.outer(a.coeffs, b.coeffs))
    return QuarticForm(a.n, out)


@lru_cache(maxsize=32)
def _product_index(n: int) -> np.ndarray:
    """Entry [a, b]: the quartic_combos slot of the product of the monomials
    of quadratic pairs a and b."""
    index = {c: k for k, c in enumerate(quartic_combos(n))}
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
# Hessian minors


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
    The first entry is the constant 1, the last the full determinant, so
    evaluate(A) gives the Pluecker coordinates of the graph of A in LG(n, 2n)
    with leading coordinate 1."""

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
        the basis runs along the last axis of the result.  Order 1 takes the
        entry, order 2 the closed form a*d - b*c and orders >= 3 one stacked
        np.linalg.det over all submatrices of that order."""
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
