import numpy as np
import pytest

from cepde import backend, symbol
from cepde.expr import Binary, JetPoint, parse
from cepde.symbol import (SamplingError, exceptionality_at_point,
                          is_completely_exceptional, principal_symbol,
                          sample_zero_locus, second_symbol)
from conftest import random_jetpoint
from oracles import (adjugate, form_from_direction_values, hessian,
                     rank_one_derivatives, scalar_zero_locus)

MULTIPLIERS = ["2", "1 + u1^2", "exp(u)"]


def pt2(h11, h12, h22, x=(0.1, -0.2), u=0.3, p=(0.4, 0.5)):
    return JetPoint(tuple(x), u, tuple(p), (h11, h12, h22))


class TestPrincipalSymbol:
    def test_laplace(self, rng):
        s = principal_symbol(parse("u11+u22", 2), random_jetpoint(rng, 2))
        assert s.coeffs == pytest.approx([1.0, 0.0, 1.0])

    def test_determinant_gives_adjugate_form(self):
        pt = pt2(2.0, 1.0, 3.0)
        s = principal_symbol(parse("u11*u22-u12^2", 2), pt)
        assert s.coeffs == pytest.approx([3.0, -2.0, 2.0])
        adj = adjugate(hessian(pt))
        for xi in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.7, -1.3]):
            assert s(xi) == pytest.approx(np.asarray(xi) @ adj @ np.asarray(xi))

    def test_cross_derivative(self, rng):
        s = principal_symbol(parse("u12", 2), random_jetpoint(rng, 2))
        assert s.coeffs == pytest.approx([0.0, 1.0, 0.0])

    def test_n3(self, rng):
        pt = random_jetpoint(rng, 3)
        s = principal_symbol(parse("u11+u22+u33", 3), pt)
        assert s.coeffs == pytest.approx([1, 0, 0, 1, 0, 1])


class TestSecondSymbol:
    def test_homogeneous_ma_vanishes(self, rng):
        F = parse("u11*u22-u12^2", 2)
        for _ in range(20):
            assert second_symbol(F, random_jetpoint(rng, 2)).is_zero()

    def test_affine_in_hessian_vanishes_exactly(self, rng):
        F = parse("sin(x1)*u11 + u*u12 + u1*u22 + exp(u2)", 2)
        for _ in range(10):
            assert second_symbol(F, random_jetpoint(rng, 2)).is_zero()

    def test_square_term(self, rng):
        F = parse("u11^2 - u22", 2)
        for _ in range(5):
            q = second_symbol(F, random_jetpoint(rng, 2))
            assert q.monomials() == {"4,0": 2.0, "3,1": 0.0, "2,2": 0.0,
                                     "1,3": 0.0, "0,4": 0.0}


class TestDualDefinitionAgreement:
    """The symbolic partial-derivative route must agree coefficientwise with
    the rank-one directional-derivative route (order-2 Taylor oracle plus
    monomial recovery)."""

    def test_corpus(self, rng, corpus_exprs):
        for name, (F, n) in corpus_exprs.items():
            for _ in range(20):
                pt = random_jetpoint(rng, n)
                s = principal_symbol(F, pt)
                s2 = second_symbol(F, pt)
                got_s = form_from_direction_values(
                    n, 2, lambda xi: rank_one_derivatives(F, pt, xi)[0])
                got_s2 = form_from_direction_values(
                    n, 4, lambda xi: rank_one_derivatives(F, pt, xi)[1])
                scale_s = 1.0 + np.max(np.abs(s.coeffs))
                scale_s2 = 1.0 + np.max(np.abs(s2.coeffs))
                assert np.max(np.abs(got_s - s.coeffs)) <= 1e-9 * scale_s, name
                assert np.max(np.abs(got_s2 - s2.coeffs)) <= 1e-9 * scale_s2, name


class TestSampleZeroLocus:
    def test_linear_locus(self):
        pts = sample_zero_locus(parse("u11+u22", 2), 2, count=10, seed=1)
        assert len(pts) == 10
        for pt in pts:
            H = hessian(pt)
            assert H[0, 0] == pytest.approx(-H[1, 1], abs=1e-9)

    def test_shifted_determinant(self):
        F = parse("u11*u22-u12^2+1", 2)
        pts = sample_zero_locus(F, 2, count=20, seed=3)
        assert len(pts) == 20
        for pt in pts:
            assert np.linalg.det(hessian(pt)) == pytest.approx(-1.0, abs=1e-9)

    def test_empty_locus_raises(self):
        with pytest.raises(SamplingError):
            sample_zero_locus(parse("u11^2+u22^2+1", 2), 2, count=16, seed=0)

    def test_deterministic(self):
        F = parse("u11*u22-u12^2-1", 2)
        a = sample_zero_locus(F, 2, count=12, seed=99)
        b = sample_zero_locus(F, 2, count=12, seed=99)
        assert a == b
        c = sample_zero_locus(F, 2, count=12, seed=100)
        assert a != c

    def test_respects_box(self):
        pts = sample_zero_locus(parse("u11-u22", 2), 2, box=(0.5, 1.5),
                                count=8, seed=5)
        for pt in pts:
            assert np.all(pt.to_vector() >= 0.5 - 1e-12)
            assert np.all(pt.to_vector() <= 1.5 + 1e-12)

    def test_on_locus_tolerance(self, corpus_exprs):
        from cepde.expr import evaluate

        for name, (F, n) in corpus_exprs.items():
            pts = sample_zero_locus(F, n, count=16, seed=11)
            for pt in pts:
                assert abs(evaluate(F, pt)) <= 1e-8, name

    DET3 = ("u11*(u22*u33 - u23^2) - u12*(u12*u33 - u13*u23)"
            " + u13*(u12*u23 - u13*u22) - 1")

    @pytest.mark.parametrize("text, n", [
        ("u11*u22 - u12^2 - 3", 2),
        ("u11*u22 - u12^2 - 3.5", 2),  # some samples run out of draws
        ("u11^2 + u22^2 - 0.01", 2),
        ("sqrt(u11) - 1", 2),
        ("sin(exp(400*u11)) + u22", 2),
        (DET3, 3),
        ("u11^2 + u22^2 + 1", 2),  # empty: blocks of the largest size
        ("log(exp(u1)) - u1", 2),  # F reads no pivot
    ])
    def test_matches_one_candidate_at_a_time(self, text, n):
        # the block solver picks the very samples of the scalar loop, at
        # every count and so every sequence of block sizes
        F = parse(text, n)
        runs = self.RUNS.get(text, [(64, seed) for seed in range(3)])
        for count, seed in runs:
            want = scalar_zero_locus(F, n, count=count, seed=seed)
            if want is None:
                with pytest.raises(SamplingError):
                    sample_zero_locus(F, n, count=count, seed=seed)
                continue
            got = sample_zero_locus(F, n, count=count, seed=seed)
            assert np.array_equal([p.to_vector() for p in got],
                                  [p.to_vector() for p in want]), (text, count, seed)

    # (count, seed) runs other than count 64 at seeds 0-2: thin loci from
    # one sample to several blocks, and an empty locus whose blocks reach
    # _BLOCK * _MAX_ATTEMPTS
    THIN_RUNS = [(count, seed) for count in (1, 16, 64) for seed in range(3)] + [(200, 0)]
    RUNS = {"u11*u22 - u12^2 - 3": THIN_RUNS, "u11^2 + u22^2 - 0.01": THIN_RUNS,
            "u11^2 + u22^2 + 1": [(100, 0)]}

    def test_thin_locus_takes_few_small_batches(self, monkeypatch):
        sizes = []
        eval_batch = backend.eval_batch

        def counted(e, n, varmat):
            sizes.append(len(varmat))
            return eval_batch(e, n, varmat)
        monkeypatch.setattr(backend, "eval_batch", counted)
        sample_zero_locus(parse("u11^2 + u22^2 - 0.01", 2), 2, seed=0)
        assert len(sizes) <= 250  # 644 with fixed blocks of 64 candidates
        assert max(sizes) <= 64 * 33  # one bracket grid of 64 candidates

    def test_block_size_is_capped(self, monkeypatch):
        class Stop(Exception):
            pass
        sizes = []
        solve_block = symbol._solve_block

        def recorded(F, n, cand, *args):
            sizes.append(len(cand))
            if len(sizes) == 3:
                raise Stop
            return solve_block(F, n, cand, *args)
        monkeypatch.setattr(symbol, "_solve_block", recorded)
        with pytest.raises(Stop):
            sample_zero_locus(parse("u11^2 + u22^2 - 0.01", 2), 2, count=10**6)
        assert sizes[0] == 64 and max(sizes) <= 64 * 50


class TestExceptionalityAtPoint:
    def test_shifted_ma_passes_with_zero_factor(self):
        F = parse("u11*u22-u12^2-1", 2)
        pt = sample_zero_locus(F, 2, count=1, seed=2)[0]
        rec = exceptionality_at_point(F, pt)
        assert rec.passed and not rec.degenerate
        assert rec.residual == pytest.approx(0.0, abs=1e-12)
        assert rec.factor is not None and rec.factor.is_zero()

    def test_square_fails(self):
        F = parse("u11^2-u22", 2)
        pt = pt2(1.0, 0.0, 1.0)  # on locus: 1^2 - 1 = 0
        rec = exceptionality_at_point(F, pt)
        assert not rec.passed
        assert rec.residual > 1e-2
        # S = 2 xi1^2 - xi2^2, S2 = 2 xi1^4: polynomial division leaves a
        # remainder (cross-checked by the exact long-division oracle)
        from oracles import long_division_remainder

        s = principal_symbol(F, pt)
        s2 = second_symbol(F, pt)
        assert s.coeffs == pytest.approx([2.0, 0.0, -1.0])
        assert long_division_remainder(s2, s) > 0.4

    def test_linear_passes(self):
        F = parse("u11", 2)
        rec = exceptionality_at_point(F, pt2(0.0, 0.7, -0.4))
        assert rec.passed and rec.factor.is_zero()

    def test_degenerate_symbol_path(self):
        # F = u11^2 at u11 = 0: S vanishes but S2 = 2 xi1^4 does not -> fail
        rec = exceptionality_at_point(parse("u11^2", 2), pt2(0.0, 0.3, 0.8))
        assert rec.degenerate and not rec.passed
        assert rec.residual == pytest.approx(2.0)
        # F = u11^3 at u11 = 0: S and S2 both vanish -> degenerate pass
        rec2 = exceptionality_at_point(parse("u11^3", 2), pt2(0.0, 0.3, 0.8))
        assert rec2.degenerate and rec2.passed


class TestIsCompletelyExceptional:
    def test_shifted_ma(self):
        v = is_completely_exceptional(parse("u11*u22-u12^2-1", 2), 2, seed=42)
        assert v.verdict == "exceptional"
        assert v.sample_count == 64

    def test_square_not_exceptional(self):
        v = is_completely_exceptional(parse("u11^2-u22", 2), 2, seed=42)
        assert v.verdict == "not-exceptional"

    def test_quasilinear(self):
        F = parse("u11 + sin(x1)*u22 + u*u1", 2)
        v = is_completely_exceptional(F, 2, seed=42)
        assert v.verdict == "exceptional"
        assert all(r.residual == 0.0 for r in v.samples)  # S2 vanishes exactly

    def test_inconclusive_band(self):
        # with tol chosen so the failing residual sits in (tol, 10*tol], the
        # aggregate must refuse to call it
        F = parse("u11^2-u22", 2)
        probe = is_completely_exceptional(F, 2, count=1, seed=7)
        residual = probe.samples[0].residual
        v = is_completely_exceptional(F, 2, count=1, seed=7, tol=residual / 5.0)
        assert v.verdict == "inconclusive"

    def test_determinism(self):
        F = parse("u11*u22-u12^2+1", 2)
        a = is_completely_exceptional(F, 2, seed=5)
        b = is_completely_exceptional(F, 2, seed=5)
        assert a == b


class TestRepresentativeInvariance:
    def test_verdicts_match_scaled_representatives(self, corpus_exprs):
        for name, (F, n) in corpus_exprs.items():
            base = is_completely_exceptional(F, n, count=32, seed=13)
            for g_text in MULTIPLIERS:
                gF = Binary("*", parse(g_text, n), F)
                scaled = is_completely_exceptional(gF, n, count=32, seed=13)
                assert scaled.verdict == base.verdict, (name, g_text)

    def test_symbol_scales_pointwise(self, corpus_exprs):
        from cepde.expr import evaluate

        for name, (F, n) in corpus_exprs.items():
            pts = sample_zero_locus(F, n, count=8, seed=21)
            for g_text in MULTIPLIERS:
                g = parse(g_text, n)
                gF = Binary("*", g, F)
                for pt in pts:
                    gval = evaluate(g, pt)
                    s = principal_symbol(F, pt)
                    sg = principal_symbol(gF, pt)
                    scale = 1.0 + np.max(np.abs(gval * s.coeffs))
                    assert np.max(np.abs(sg.coeffs - gval * s.coeffs)) \
                        <= 1e-9 * scale, (name, g_text)
