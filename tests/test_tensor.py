import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cepde.tensor import (QuadraticForm, QuarticForm, factor_quartic,
                          minor_basis, multiply_quadratics)
from oracles import _det, adjugate, compound, long_division_remainder


def rand_sym(rng, n, scale=2.0):
    A = rng.uniform(-scale, scale, size=(n, n))
    return (A + A.T) / 2.0


class TestMultiplyQuadratics:
    def test_difference_of_squares(self):
        a = QuadraticForm(2, [1.0, 0.0, 1.0])   # xi1^2 + xi2^2
        b = QuadraticForm(2, [1.0, 0.0, -1.0])  # xi1^2 - xi2^2
        q = multiply_quadratics(a, b)
        assert q.monomials() == {"4,0": 1.0, "3,1": 0.0, "2,2": 0.0,
                                 "1,3": 0.0, "0,4": -1.0}

    def test_zero_times_anything(self):
        b = QuadraticForm(2, [3.0, -1.0, 2.0])
        assert multiply_quadratics(QuadraticForm.zero(2), b).is_zero()

    def test_cross_term_square(self):
        c = QuadraticForm(2, [0.0, 1.0, 0.0])  # xi1*xi2
        q = multiply_quadratics(c, c)
        assert q.monomials()["2,2"] == 1.0
        assert q.norm() == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            multiply_quadratics(QuadraticForm.zero(2), QuadraticForm.zero(3))

    def test_values_agree_pointwise(self, rng):
        for n in (2, 3):
            a = QuadraticForm(n, rng.normal(size=n * (n + 1) // 2))
            b = QuadraticForm(n, rng.normal(size=n * (n + 1) // 2))
            q = multiply_quadratics(a, b)
            for _ in range(10):
                xi = rng.normal(size=n)
                assert q(xi) == pytest.approx(a(xi) * b(xi), rel=1e-12)


class TestFactorQuartic:
    def test_constructed_product(self):
        s = QuadraticForm(2, [1.0, 0.0, 1.0])
        g_true = QuadraticForm(2, [1.0, 0.0, -1.0])
        q = multiply_quadratics(g_true, s)
        g, residual = factor_quartic(q, s, 1e-9)
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert g is not None and g.allclose(g_true, atol=1e-12)

    def test_nondivisible_rejected(self):
        # 2*xi1^4 is not divisible by 2*xi1^2 - xi2^2: exact long division
        # leaves remainder xi2^4/2
        q = QuarticForm(2, [2.0, 0.0, 0.0, 0.0, 0.0])
        s = QuadraticForm(2, [2.0, 0.0, -1.0])
        assert long_division_remainder(q, s) == pytest.approx(0.5)
        g, residual = factor_quartic(q, s, 1e-9)
        assert g is None
        assert residual > 0.1  # measured 0.2182...

    def test_zero_quartic(self):
        g, residual = factor_quartic(QuarticForm.zero(2),
                                     QuadraticForm(2, [1.0, 0.0, 0.0]), 1e-9)
        assert g is not None and g.is_zero() and residual == 0.0

    def test_zero_divisor(self):
        g, residual = factor_quartic(QuarticForm.zero(2),
                                     QuadraticForm.zero(2), 1e-9)
        assert g is not None and g.is_zero() and residual == 0.0
        g, residual = factor_quartic(QuarticForm(2, [1.0, 0, 0, 0, 0]),
                                     QuadraticForm.zero(2), 1e-9)
        assert g is None and residual == pytest.approx(1.0)

    def test_exact_recovery_property(self, rng):
        for n in (2, 3):
            m = n * (n + 1) // 2
            for _ in range(25):
                g_true = QuadraticForm(n, rng.uniform(-3, 3, size=m))
                s = QuadraticForm(n, rng.uniform(-3, 3, size=m))
                if s.norm() == 0.0:
                    continue
                q = multiply_quadratics(g_true, s)
                g, residual = factor_quartic(q, s, 1e-9)
                assert g is not None
                assert residual <= 1e-9
                assert np.max(np.abs(g.coeffs - g_true.coeffs)) \
                    <= 1e-9 * (1.0 + np.max(np.abs(g_true.coeffs)))

    def test_matches_long_division_verdict(self, rng):
        # lstsq verdict == exact-division verdict on a mixed bag
        for _ in range(25):
            s = QuadraticForm(2, rng.integers(-3, 4, size=3).astype(float))
            if s.norm() == 0.0:
                continue
            if rng.random() < 0.5:
                q = multiply_quadratics(QuadraticForm(2, rng.integers(-3, 4, size=3).astype(float)), s)
            else:
                q = QuarticForm(2, rng.integers(-3, 4, size=5).astype(float))
            g, residual = factor_quartic(q, s, 1e-8)
            exact = long_division_remainder(q, s) <= 1e-8 * max(q.norm(), 1.0)
            assert (g is not None) == exact


class TestCompound:
    def test_two_by_two_determinant(self):
        assert compound(np.diag([2.0, 3.0]), 2) == pytest.approx(np.array([[6.0]]))

    def test_diag_minors(self):
        C = compound(np.diag([1.0, 2.0, 3.0]), 2)
        assert C == pytest.approx(np.diag([2.0, 3.0, 6.0]))

    def test_identity(self):
        from math import comb

        for n in (2, 3, 4):
            for k in range(n + 1):
                assert compound(np.eye(n), k) == pytest.approx(np.eye(comb(n, k)))

    def test_edge_orders(self, rng):
        A = rand_sym(rng, 3)
        assert compound(A, 0) == pytest.approx(np.array([[1.0]]))
        assert compound(A, 1) == pytest.approx(A)
        assert compound(A, 3) == pytest.approx(np.array([[np.linalg.det(A)]]))

    def test_symmetric_output(self, rng):
        for n in (3, 4):
            A = rand_sym(rng, n)
            for k in range(n + 1):
                C = compound(A, k)
                assert np.allclose(C, C.T, atol=1e-12)

    def test_diagonal_multiplicativity(self, rng):
        from itertools import combinations

        for n in (2, 3, 4):
            d = rng.uniform(-2, 2, size=n)
            for k in range(n + 1):
                C = compound(np.diag(d), k)
                expected = [np.prod(d[list(I)]) for I in combinations(range(n), k)]
                assert C == pytest.approx(np.diag(expected))


class TestAdjugate:
    def test_diag(self):
        assert adjugate(np.diag([2.0, 3.0])) == pytest.approx(np.diag([3.0, 2.0]))
        assert adjugate(np.diag([1.0, 2.0, 3.0])) == pytest.approx(np.diag([6.0, 3.0, 2.0]))

    def test_cofactor_example(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert adjugate(A) == pytest.approx(np.array([[3.0, -1.0], [-1.0, 2.0]]))

    def test_fundamental_identity(self, rng):
        for n in (1, 2, 3, 4):
            A = rand_sym(rng, n) if n > 1 else np.array([[rng.uniform(-2, 2)]])
            assert A @ adjugate(A) == pytest.approx(np.linalg.det(A) * np.eye(n),
                                                    abs=1e-10)

    def test_matches_compound_with_signs(self, rng):
        # adj(A)[j, i] = (-1)^(i+j) * compound(A, n-1)[n-1-i, n-1-j]:
        # lex (n-1)-subsets map to the complementary single index reversed,
        # with the alternating cofactor sign
        for n in (2, 3, 4):
            for _ in range(100):
                A = rand_sym(rng, n)
                C = compound(A, n - 1)
                adj = adjugate(A)
                scale = np.max(np.abs(adj)) + 1.0
                for i in range(n):
                    for j in range(n):
                        lhs = adj[j, i]
                        rhs = (-1.0) ** (i + j) * C[n - 1 - i, n - 1 - j]
                        assert abs(lhs - rhs) <= 1e-10 * scale


class TestMinorBasis:
    def test_counts(self):
        assert len(minor_basis(2)) == 5
        assert len(minor_basis(3)) == 14
        assert len(minor_basis(4)) == 43  # 1 + 10 + 21 + 10 + 1

    def test_n2_structure(self):
        basis = minor_basis(2)
        assert basis.labels() == ("1", "m1[1|1]", "m1[1|2]", "m1[2|2]", "m2[12|12]")
        first, last = basis.descriptors[0], basis.descriptors[-1]
        assert first.k == 0 and last.k == 2

    def test_n2_evaluation(self):
        H = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert minor_basis(2).evaluate(H) == pytest.approx([1.0, 2.0, 1.0, 3.0, 5.0])

    def test_unsupported_n(self):
        with pytest.raises(ValueError):
            minor_basis(5)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_stacked_evaluation_is_bitwise_per_minor(self, rng, n):
        # a (5, 4, n, n) stack against _det of each np.ix_ submatrix
        basis = minor_basis(n)
        stack = np.array([[rand_sym(rng, n) for _ in range(4)] for _ in range(5)])
        got = basis.evaluate(stack)
        assert got.shape == (5, 4, len(basis))
        for idx in np.ndindex(5, 4):
            A = stack[idx]
            want = [_det(A[np.ix_(d.rows, d.cols)]) for d in basis.descriptors]
            assert np.array_equal(got[idx], want)
            assert np.array_equal(basis.evaluate(A), want)

    def test_evaluate_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            minor_basis(3).evaluate(np.eye(2))

    def test_degree_group_sizes(self):
        from math import comb

        for n in (2, 3, 4):
            ks = [d.k for d in minor_basis(n).descriptors]
            for k in range(n + 1):
                assert ks.count(k) == (comb(n, k) ** 2 + comb(n, k)) // 2


class TestPlueckerEmbed:
    # the Pluecker coordinates of the graph of A are minor_basis(n).evaluate(A)
    def test_diag_example(self):
        assert minor_basis(2).evaluate(np.diag([2.0, 3.0])) == pytest.approx([1, 2, 0, 3, 6])

    def test_zero_matrix(self):
        assert minor_basis(2).evaluate(np.zeros((2, 2))) == pytest.approx([1, 0, 0, 0, 0])

    def test_offdiag(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert minor_basis(2).evaluate(A) == pytest.approx([1, 0, 1, 0, -1])

    def test_matches_compound_upper_triangles(self, rng):
        # bit for bit the concatenated upper triangles of every compound
        for n in (2, 3, 4):
            for _ in range(50):
                A = rand_sym(rng, n)
                want = [C[r, c] for k in range(n + 1) for C in [compound(A, k)]
                        for r in range(len(C)) for c in range(r, len(C))]
                assert np.array_equal(minor_basis(n).evaluate(A), want)

    def test_rejects_unsupported_shapes(self):
        with pytest.raises(ValueError):
            minor_basis(5)
        for A in (np.ones((2, 3)), np.ones(4)):
            with pytest.raises(ValueError):
                minor_basis(2).evaluate(A)


class TestRankOneDeform:
    def test_determinant_frozen_along_characteristic(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        for t in np.linspace(-2, 2, 9):
            out = A + t * np.outer([1.0, 0.0], [1.0, 0.0])
            assert np.linalg.det(out) == pytest.approx(-1.0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_factor_quartic_matches_product_columns(rng, n):
    # the solve is bit for bit the one on columns (unit form) * s built by
    # multiply_quadratics, also when s has zero and -0.0 coefficients
    m = n * (n + 1) // 2
    for _ in range(20):
        c = rng.uniform(-2, 2, size=m)
        c[rng.random(m) < 0.3] = 0.0
        c[rng.random(m) < 0.2] = -0.0
        s = QuadraticForm(n, c)
        q = QuarticForm(n, rng.uniform(-1, 1, size=len(QuarticForm.zero(n).coeffs)))
        cols = [multiply_quadratics(QuadraticForm(n, np.eye(m)[k]), s).coeffs
                for k in range(m)]
        M = np.column_stack(cols)
        g, *_ = np.linalg.lstsq(M, q.coeffs, rcond=None)
        residual = np.linalg.norm(M @ g - q.coeffs) / np.linalg.norm(q.coeffs)
        got, got_residual = factor_quartic(q, s, 10.0)
        assert np.array_equal(got.coeffs, g) and got_residual == residual


@given(st.integers(2, 3), st.data())
@settings(max_examples=50, deadline=None)
def test_factor_quartic_roundtrip_property(n, data):
    m = n * (n + 1) // 2
    finite = st.floats(-5, 5, allow_nan=False, width=32)
    g = QuadraticForm(n, [data.draw(finite) for _ in range(m)])
    s = QuadraticForm(n, [data.draw(finite) for _ in range(m)])
    q = multiply_quadratics(g, s)
    got, residual = factor_quartic(q, s, 1e-9)
    if s.norm() == 0.0:
        assert (got is not None) == q.is_zero()
    else:
        assert got is not None and residual <= 1e-9


def test_serialization_shape():
    s = QuadraticForm(2, [1.0, -2.0, 0.5])
    js = s.to_json()
    assert js == {"n": 2, "degree": 2,
                  "coefficients": {"2,0": 1.0, "1,1": -2.0, "0,2": 0.5}}
    q = QuarticForm.zero(2)
    assert set(q.to_json()["coefficients"]) == {"4,0", "3,1", "2,2", "1,3", "0,4"}
