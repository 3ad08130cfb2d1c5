import math

import pytest

from cepde.expr import parse
from cepde.ma import BasePoint, classify, fit_minor_expansion
from cepde.symbol import is_completely_exceptional

MA_FAMILY = ("linear", "quasi-linear", "monge-ampere")


def base2(x=(0.3, -0.7), u=0.2, p=(0.5, -0.1)):
    return BasePoint(tuple(x), u, tuple(p))


class TestMinorExpansion:
    def test_constructed_combination(self):
        # F = 3 + 2*u11 - 5*det in the basis [1, u11, u12, u22, det]
        F = parse("3 + 2*u11 - 5*(u11*u22 - u12^2)", 2)
        fit = fit_minor_expansion(F, base2(), seed=0)
        assert fit.accepted(1e-7)
        assert fit.coefficients == pytest.approx([3.0, 2.0, 0.0, 0.0, -5.0],
                                                 abs=1e-9)
        assert fit.fit_residual <= 1e-10
        assert fit.validation_residual <= 1e-10

    def test_square_rejected_with_residual(self):
        F = parse("u11^2 - u22", 2)
        fit = fit_minor_expansion(F, base2(), seed=0)
        assert not fit.accepted(1e-7)
        assert fit.validation_residual > 1e-2  # far outside the minor span

    def test_base_variable_coefficients(self):
        F = parse("sin(x1)*u11 + u*(u11*u22 - u12^2)", 2)
        base = base2(x=(math.pi / 2.0, 0.4), u=1.0)
        fit = fit_minor_expansion(F, base, seed=1)
        assert fit.accepted(1e-7)
        assert fit.coefficients[1] == pytest.approx(1.0, abs=1e-9)  # B1^{11}
        assert fit.coefficients[4] == pytest.approx(1.0, abs=1e-9)  # B_det
        assert fit.coefficients[0] == pytest.approx(0.0, abs=1e-9)

    def test_fit_exactness_for_smooth_coefficient_combos(self, rng):
        # any affine combination of minors with base-variable coefficients
        # must validate essentially exactly at every base point
        F = parse("sin(x1) + u*u11 + exp(x2/4)*u12 + u1*u22"
                  " + (1 + u2^2)*(u11*u22 - u12^2)", 2)
        for k in range(6):
            base = BasePoint(tuple(rng.uniform(-2, 2, size=2)),
                             float(rng.uniform(-2, 2)),
                             tuple(rng.uniform(-2, 2, size=2)))
            fit = fit_minor_expansion(F, base, seed=k)
            assert fit.validation_residual <= 1e-9 * (1.0 + fit.validation_scale)

    def test_domain_error_after_redraws(self):
        F = parse("log(u)", 2)  # undefined at u = -1 for every Hessian
        with pytest.raises(Exception, match="log|failing"):
            fit_minor_expansion(F, base2(u=-1.0), seed=0)


class TestClassify:
    def test_linear(self):
        assert classify(parse("u11+u22", 2), 2, seed=3).classification == "linear"

    def test_quasi_linear(self):
        got = classify(parse("u12 + u1*u11", 2), 2, seed=3)
        assert got.classification == "quasi-linear"

    def test_monge_ampere(self):
        got = classify(parse("u11*u22 - u12^2 - 1", 2), 2, seed=3)
        assert got.classification == "monge-ampere"

    def test_non_ma(self):
        got = classify(parse("u11^2 - u22", 2), 2, seed=3)
        assert got.classification == "non-ma"
        assert not all(fit.accepted(got.tolerance) for fit in got.fits)

    def test_linear_with_x_coefficients(self):
        got = classify(parse("sin(x1)*u11 + exp(x2/4)*u22 + x1*u + u1 - 1", 2),
                       2, seed=3)
        assert got.classification == "linear"

    def test_u_coefficient_is_quasilinear(self):
        got = classify(parse("u*u11 + u22", 2), 2, seed=3)
        assert got.classification == "quasi-linear"

    def test_nonlinear_lower_order_is_quasilinear(self):
        # affine in the Hessian but quadratic in u1
        got = classify(parse("u11 + u22 + u1^2", 2), 2, seed=3)
        assert got.classification == "quasi-linear"

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("expression, n, expected", [
        ("u11 + u22 + u33 + x1*u", 3, "linear"),
        ("exp(x1)*u11 + u22 + u33 + u44", 4, "linear"),
        ("u*u11 + u22 + u33", 3, "quasi-linear"),   # affine in u and in H apart
        ("u11 + u22 + u*u1", 2, "quasi-linear"),    # a (u, p) cross term
    ])
    def test_linear_step(self, expression, n, expected, seed):
        got = classify(parse(expression, n), n, seed=seed)
        assert got.classification == expected

    def test_corpus_expectations(self, corpus_entries, corpus_exprs):
        for entry in corpus_entries:
            F, n = corpus_exprs[entry["name"]]
            got = classify(F, n, seed=17)
            assert got.classification == entry["expected_classification"], \
                entry["name"]

    def test_classifier_matches_divisibility_on_corpus(self, corpus_entries,
                                                       corpus_exprs):
        # MA-family classification <=> exceptional divisibility verdict
        for entry in corpus_entries:
            F, n = corpus_exprs[entry["name"]]
            cls = classify(F, n, seed=29)
            exc = is_completely_exceptional(F, n, seed=29)
            assert (cls.classification in MA_FAMILY) \
                == (exc.verdict == "exceptional"), entry["name"]

    def test_stable_across_seeds(self, corpus_entries, corpus_exprs):
        for entry in corpus_entries:
            F, n = corpus_exprs[entry["name"]]
            got = {classify(F, n, seed=s).classification for s in (101, 202, 303)}
            assert len(got) == 1, entry["name"]

    def test_diagnostics_attached(self):
        got = classify(parse("u11*u22-u12^2-1", 2), 2, count=6, seed=3)
        assert len(got.fits) == 6
        for fit in got.fits:
            assert fit.accepted(got.tolerance)
            assert fit.coefficients[4] == pytest.approx(1.0, abs=1e-8)
