import math

import numpy as np
import pytest

from cepde.charvar import (NearParabolicError, ProjectiveRoot,
                           char_poly_coeffs, characteristic_speeds,
                           equivalence_report, hyperbolicity_scan,
                           lax_residual, speed_gradient, strong_char_test)
from cepde.expr import (Binary, EvaluationDomainError, JetPoint, parse,
                        symmetric_from_upper)
from cepde.symbol import (DEFAULT_BOX, exceptionality_at_point,
                          is_completely_exceptional, principal_symbol,
                          sample_zero_locus)
from oracles import hessian, make_jetpoint

SQ2 = math.sqrt(2.0)


def pt2(h11, h12, h22, x=(0.1, -0.2), u=0.3, p=(0.4, 0.5)):
    return JetPoint(tuple(x), u, tuple(p), (h11, h12, h22))


def speeds_at(F, pt):
    return characteristic_speeds(*char_poly_coeffs(F, pt))


def at_point(F, pt):
    """The inputs of the later stages at one jet point: its speeds, and the
    matrix D of second partials over (u11, u12, u22) from its divisibility
    record."""
    D = symmetric_from_upper(exceptionality_at_point(F, pt).second, 3)
    return speeds_at(F, pt), D


def strong_at(F, pt, branch, box=DEFAULT_BOX):
    """strong_char_test on the line through one root at one jet point."""
    return strong_char_test(F, [(pt, speeds_at(F, pt).roots[branch])], box)[0]


def verdict_report(F, **kw):
    """equivalence_report on the divisibility verdict of F."""
    return equivalence_report(F, is_completely_exceptional(F, 2, **kw), DEFAULT_BOX)


def hyperbolic_locus_points(F, count, seed, minimum=5):
    pts = [pt for pt in sample_zero_locus(F, 2, count=count, seed=seed)
           if speeds_at(F, pt).kind == "hyperbolic"]
    assert len(pts) >= minimum
    return pts


class TestCharPolyCoeffs:
    def test_wave(self):
        assert char_poly_coeffs(parse("u11-u22", 2), pt2(0, 0, 0)) == (1.0, 0.0, -1.0)

    def test_ma_at_antidiagonal(self):
        coeffs = char_poly_coeffs(parse("u11*u22-u12^2+1", 2), pt2(0.0, 1.0, 0.0))
        assert coeffs == (0.0, -2.0, 0.0)

    def test_cubic(self):
        coeffs = char_poly_coeffs(parse("u11 - u22^3/3 - u22", 2),
                                  pt2(4.0 / 3.0, 0.0, 1.0))
        assert coeffs == pytest.approx((1.0, 0.0, -2.0))

    def test_consistent_with_principal_symbol(self, rng):
        from conftest import random_jetpoint

        F = parse("sin(x1)*u11 + u*(u11*u22 - u12^2)", 2)
        for _ in range(10):
            pt = random_jetpoint(rng, 2)
            assert char_poly_coeffs(F, pt) == pytest.approx(
                tuple(principal_symbol(F, pt).coeffs))

    def test_non_finite_coefficient_raises(self):
        # dF/du11 = 1000*exp(1000*u11) overflows at u11 = 1
        with pytest.raises(EvaluationDomainError, match="non-finite"):
            char_poly_coeffs(parse("exp(1000*u11) + u22", 2), pt2(1.0, 0.0, 0.0))

    def test_requires_n2(self, rng):
        from conftest import random_jetpoint

        with pytest.raises(ValueError):
            char_poly_coeffs(parse("u11+u22+u33", 3), random_jetpoint(rng, 3))


class TestCharacteristicSpeeds:
    def test_wave_speeds(self):
        sp = speeds_at(parse("u11-u22", 2), pt2(0, 0, 0))
        assert sp.kind == "hyperbolic"
        assert sp.speeds == pytest.approx((-1.0, 1.0))

    def test_laplace_elliptic(self):
        sp = speeds_at(parse("u11+u22", 2), pt2(0, 0, 0))
        assert sp.kind == "elliptic" and sp.roots == ()

    def test_cubic_speeds(self):
        sp = speeds_at(parse("u11 - u22^3/3 - u22", 2), pt2(4.0 / 3.0, 0.0, 1.0))
        assert sp.kind == "hyperbolic"
        assert sp.speeds == pytest.approx((-1.0 / SQ2, 1.0 / SQ2))
        assert sp.speeds[1] == pytest.approx(0.7071068, abs=1e-7)

    def test_infinite_root(self):
        sp = speeds_at(parse("u12", 2), pt2(0.5, 0.0, -0.3))
        assert sp.kind == "hyperbolic"
        assert sp.roots[0].affine == 0.0
        assert sp.roots[1].is_infinite and sp.speeds[1] is None

    def test_parabolic_single_root(self):
        sp = speeds_at(parse("u11 + 2*u12 + u22", 2), pt2(0, 0, 0))
        assert sp.kind == "parabolic"
        assert len(sp.roots) == 1
        assert sp.roots[0].affine == pytest.approx(-1.0)

    def test_parabolic_at_infinity(self):
        sp = speeds_at(parse("u11", 2), pt2(0, 0, 0))
        assert sp.kind == "parabolic" and sp.roots[0].is_infinite

    def test_totally_degenerate(self):
        sp = speeds_at(parse("u11^2", 2), pt2(0.0, 0.5, 0.5))
        assert sp.kind == "totally-degenerate" and sp.roots == ()

    def test_roots_sorted(self, rng):
        F = parse("u11*u22 - u12^2 + 1", 2)
        for pt in hyperbolic_locus_points(F, 16, seed=31):
            sp = speeds_at(F, pt)
            finite = [r.affine for r in sp.roots if not r.is_infinite]
            assert finite == sorted(finite)

    def test_roots_annihilate_symbol(self):
        F = parse("u11*u22 - u12^2 + 1", 2)
        for pt in hyperbolic_locus_points(F, 16, seed=32):
            s = principal_symbol(F, pt)
            for r in speeds_at(F, pt).roots:
                val = s([r.xi, r.eta])
                assert abs(val) <= 1e-9 * (1.0 + s.norm())


def fd_speed_gradient(F, pt, branch, h=1e-5):
    """Central finite differences of the characteristic root itself."""
    lam0 = speeds_at(F, pt).roots[branch].affine
    grads = []
    for name in ("u11", "u12", "u22"):
        shifted = []
        for sign in (+1.0, -1.0):
            H = hessian(pt)
            i, j = int(name[1]) - 1, int(name[2]) - 1
            H[i, j] += sign * h
            H[j, i] = H[i, j]
            sp = speeds_at(F, make_jetpoint(pt.x, pt.u, pt.p, H))
            lams = [r.affine for r in sp.roots if not r.is_infinite]
            shifted.append(min(lams, key=lambda v: abs(v - lam0)))
        grads.append((shifted[0] - shifted[1]) / (2.0 * h))
    return tuple(grads)


class TestSpeedGradient:
    def test_wave_constant_speeds(self):
        for branch in (0, 1):
            g = speed_gradient(*at_point(parse("u11-u22", 2), pt2(0, 0, 0)), branch)
            assert g == (0.0, 0.0, 0.0)

    def test_cubic_value(self):
        g = speed_gradient(*at_point(parse("u11 - u22^3/3 - u22", 2),
                                     pt2(4.0 / 3.0, 0.0, 1.0)), branch=1)
        assert g[0] == pytest.approx(0.0, abs=1e-12)
        assert g[1] == pytest.approx(0.0, abs=1e-12)
        assert g[2] == pytest.approx(-(2.0 ** -1.5), abs=1e-12)
        assert g[2] == pytest.approx(-0.3535534, abs=1e-7)

    def test_matches_finite_differences(self):
        F = parse("u11*u22 - u12^2 + 1", 2)
        for pt in hyperbolic_locus_points(F, 12, seed=41):
            for branch, root in enumerate(speeds_at(F, pt).roots):
                if root.is_infinite:
                    continue
                sym = speed_gradient(*at_point(F, pt), branch)
                fd = fd_speed_gradient(F, pt, branch)
                err = max(abs(a - b) for a, b in zip(sym, fd))
                assert err <= 1e-5 * (1.0 + max(abs(v) for v in sym))

    def test_infinite_root_rejected(self):
        with pytest.raises(ValueError, match="infinity"):
            speed_gradient(*at_point(parse("u12", 2), pt2(0.5, 0.0, -0.3)), branch=1)

    def test_near_parabolic_guard(self):
        # a hyperbolic-typed but almost-vanishing symbol trips the guard
        F = parse("(u11 - u22)/100000000", 2)
        with pytest.raises(NearParabolicError):
            speed_gradient(*at_point(F, pt2(0.4, 0.0, 0.4)), branch=0)


class TestLaxResidual:
    def test_wave_zero(self):
        for branch in (0, 1):
            res = lax_residual(*at_point(parse("u11-u22", 2), pt2(0, 0, 0)), branch)
            assert res == 0.0

    def test_cubic_value(self):
        res = lax_residual(*at_point(parse("u11 - u22^3/3 - u22", 2),
                                     pt2(4.0 / 3.0, 0.0, 1.0)), branch=1)
        assert res == pytest.approx(0.5 * -(2.0 ** -1.5), abs=1e-12)
        assert res == pytest.approx(-0.1767767, abs=1e-7)

    def test_ma_small_on_locus(self):
        F = parse("u11*u22 - u12^2 + 1", 2)
        for pt in hyperbolic_locus_points(F, 16, seed=51):
            for branch in (0, 1):
                assert abs(lax_residual(*at_point(F, pt), branch)) <= 1e-7

    def test_infinite_branch_through_swap(self):
        F = parse("u12", 2)
        pt = pt2(0.5, 0.0, -0.3)
        assert speeds_at(F, pt).roots[1].is_infinite
        assert lax_residual(*at_point(F, pt), 1) == pytest.approx(0.0, abs=1e-12)

    def test_infinite_branch_nontrivial(self):
        # F with c = 0 but genuinely varying speeds: u12 + u22^2/2 has
        # (a, b, c) = (0, 1, u22) -- at u22 = 0 one root is at infinity
        F = parse("u12 + u22^2/2", 2)
        pt = pt2(0.7, 0.0, 0.0)
        sp = speeds_at(F, pt)
        assert sp.roots[1].is_infinite
        res = lax_residual(*at_point(F, pt), 1)
        # swapped expression u12 + u11^2/2: lambda' = -u11 exactly, so the
        # residual is d lambda'/du11 = -1 (the PDE is not Monge-Ampere)
        assert res == pytest.approx(-1.0, abs=1e-12)


class TestStrongCharTest:
    def test_ma_contained_both_branches(self):
        F = parse("u11*u22 - u12^2 + 1", 2)
        pt = pt2(0.0, 1.0, 0.0)
        for branch in (0, 1):
            res = strong_at(F, pt, branch)
            assert res.passed
            assert res.max_deviation == pytest.approx(0.0, abs=1e-14)

    def test_square_fails_with_unit_deviation(self):
        F = parse("u11^2 - u22", 2)
        pt = pt2(1.0, 0.0, 1.0)
        sp = speeds_at(F, pt)
        assert sp.speeds[1] == pytest.approx(SQ2)
        res = strong_at(F, pt, branch=1)
        assert not res.passed
        assert res.max_deviation == pytest.approx(1.0, abs=1e-12)  # t^2 at t=1

    def test_wave_passes_anywhere(self):
        F = parse("u11 - u22", 2)
        res = strong_at(F, pt2(0.8, 0.2, 0.8), branch=0)
        assert res.passed and res.max_deviation == 0.0

    def test_box_clipping(self):
        F = parse("u11 - u22", 2)
        pt = pt2(1.9, 0.0, 1.9)
        res = strong_at(F, pt, branch=1, box=(-2.0, 2.0))
        lo, hi = res.t_range
        assert -1.0 <= lo <= 0.0 and 0.0 <= hi <= 0.12

    def test_line_leaving_the_domain(self):
        # sqrt(u11 + 1) is undefined for u11 < -1: the grid points with
        # t < -0.5 leave F's domain and are skipped, the rest are judged
        from cepde.expr import evaluate

        F = parse("sqrt(u11 + 1) - u22", 2)
        pt = pt2(-0.5, 0.0, math.sqrt(0.5))
        for branch in (0, 1):
            res = strong_at(F, pt, branch)
            v = np.array([1.0, speeds_at(F, pt).roots[branch].affine])
            devs = [abs(evaluate(F, make_jetpoint(
                        pt.x, pt.u, pt.p, hessian(pt) + t * np.outer(v, v))))
                    for t in np.linspace(-0.5, 1.0, 16)]
            assert not res.passed
            assert res.max_deviation == pytest.approx(max(devs), rel=1e-12)
        # sqrt(u11 - 3) is defined nowhere in the box: the line gets its error
        G = parse("sqrt(u11 - 3) + u22", 2)
        [res] = strong_char_test(G, [(pt, ProjectiveRoot(1.0, 1.0))], DEFAULT_BOX)
        assert isinstance(res, EvaluationDomainError)

    def test_tangency_is_second_order(self):
        # characteristic <=> first-order tangency: |F(t)| = O(t^2), with C
        # estimated from t = 0.1
        from cepde.expr import evaluate

        for text, seed in (("u11^2 - u22", 61), ("u11 - u22^3/3 - u22", 62)):
            F = parse(text, 2)
            for pt in hyperbolic_locus_points(F, 24, seed=seed)[:8]:
                sp = speeds_at(F, pt)
                for root in sp.roots:
                    if root.is_infinite:
                        continue
                    v = np.array([1.0, root.affine])

                    def F_at(t):
                        return evaluate(F, make_jetpoint(
                            pt.x, pt.u, pt.p, hessian(pt) + t * np.outer(v, v)))

                    C = abs(F_at(0.1)) / 0.01 + 1e-6
                    for t in (1e-2, -1e-2, 1e-3, -1e-3):
                        assert abs(F_at(t)) <= 2.0 * C * t * t + 1e-12


class TestHyperbolicityScan:
    def test_wave_all_hyperbolic(self):
        F = parse("u11 - u22", 2)
        scan = hyperbolicity_scan([speeds_at(F, pt) for pt in
                                   sample_zero_locus(F, 2, count=32, seed=7)])
        assert scan.fractions == {"hyperbolic": 1.0}

    def test_laplace_all_elliptic(self):
        F = parse("u11 + u22", 2)
        scan = hyperbolicity_scan([speeds_at(F, pt) for pt in
                                   sample_zero_locus(F, 2, count=32, seed=7)])
        assert scan.fractions == {"elliptic": 1.0}

    def test_ma_plus_one_all_hyperbolic(self):
        F = parse("u11*u22 - u12^2 + 1", 2)
        scan = hyperbolicity_scan([speeds_at(F, pt) for pt in
                                   sample_zero_locus(F, 2, count=32, seed=7)])
        assert scan.fractions == {"hyperbolic": 1.0}  # det H = -1 < 0 on the locus

    def test_homogeneous_ma_all_parabolic(self):
        F = parse("u11*u22 - u12^2", 2)
        scan = hyperbolicity_scan([speeds_at(F, pt) for pt in
                                   sample_zero_locus(F, 2, count=32, seed=7)])
        assert scan.fractions.get("parabolic", 0.0) == 1.0


class TestEquivalenceReport:
    def test_ma_all_pass(self):
        rep = verdict_report(parse("u11*u22 - u12^2 + 1", 2), seed=42)
        assert rep.all_agree
        assert set(rep.matrix) == {"PPP"}
        assert rep.matrix["PPP"] == len(rep.samples) > 0

    def test_square_all_fail(self):
        rep = verdict_report(parse("u11^2 - u22", 2), seed=42)
        assert rep.all_agree
        assert set(rep.matrix) == {"FFF"}
        assert rep.skipped.get("elliptic", 0) > 0

    def test_wave_all_pass(self):
        rep = verdict_report(parse("u11 - u22", 2), seed=42)
        assert rep.all_agree and set(rep.matrix) == {"PPP"}

    def test_skip_reasons_counted(self):
        rep = verdict_report(parse("u11 + u22", 2), seed=42)
        assert len(rep.samples) == 0
        assert rep.skipped.get("elliptic", 0) > 0
        assert rep.all_agree  # vacuously

    def test_reuses_supplied_samples(self):
        F = parse("u11*u22 - u12^2 + 1", 2)
        verdict = is_completely_exceptional(F, 2, count=8, seed=3, tol=1e-9)
        rep = equivalence_report(F, verdict, DEFAULT_BOX)
        assert len(rep.samples) + sum(rep.skipped.values()) == 8
        assert len(rep.scan.kinds) == verdict.sample_count
        assert rep.tolerances["divisibility"] == 1e-9


class TestProjectiveInvariance:
    def test_scaled_representatives_same_roots(self, corpus_exprs):
        for name, (F, n) in corpus_exprs.items():
            if n != 2:
                continue
            pts = sample_zero_locus(F, 2, count=8, seed=71)
            for g_text in ("2", "1 + u1^2", "exp(u)"):
                gF = Binary("*", parse(g_text, 2), F)
                for pt in pts:
                    sp = speeds_at(F, pt)
                    sp_g = speeds_at(gF, pt)
                    assert sp.kind == sp_g.kind, (name, g_text)
                    for r, rg in zip(sp.roots, sp_g.roots):
                        assert r.is_infinite == rg.is_infinite
                        if not r.is_infinite:
                            assert rg.affine == pytest.approx(
                                r.affine, rel=1e-9, abs=1e-9), (name, g_text)
