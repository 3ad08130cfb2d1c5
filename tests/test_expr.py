import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cepde.expr import (Binary, Const, EvaluationDomainError,
                        ExprDimensionError, JetPoint, ParseError, Power,
                        Unary, UnknownVariableError, Var, differentiate,
                        evaluate, parse, swap_xy, to_text)
from conftest import random_jetpoint
from oracles import (central_fd, hessian, make_jetpoint, point_values, tree_eval,
                     variables_of)


def pt2(h11, h12, h22, x=(0.1, -0.2), u=0.3, p=(0.4, 0.5)):
    return JetPoint(tuple(x), u, tuple(p), (h11, h12, h22))


class TestParse:
    def test_monge_ampere_tree(self):
        e = parse("u11*u22 - u12^2", 2)
        assert e == Binary("-", Binary("*", Var("u11"), Var("u22")),
                           Power(Var("u12"), 2))
        assert variables_of(e) == {"u11", "u12", "u22"}

    def test_u21_rejected(self):
        with pytest.raises(UnknownVariableError):
            parse("u21", 2)

    def test_index_beyond_dimension(self):
        with pytest.raises(ExprDimensionError):
            parse("u13", 2)
        with pytest.raises(ExprDimensionError):
            parse("x3 + u", 2)
        parse("u13", 3)  # fine one dimension up

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("u11+*u22", 2)
        assert err.value.offset == 4

    def test_cubic_root_fixture(self):
        # brute-force the root of u11 - u22^3/3 - u22 = 0 at u22 = 1
        e = parse("u11 - (1/3)*u22^3 - u22", 2)
        grid = np.linspace(-2, 2, 400001)
        vals = np.abs([tree_eval(e, {"u11": g, "u22": 1.0}) for g in grid])
        root = grid[int(np.argmin(vals))]
        assert root == pytest.approx(4.0 / 3.0, abs=1e-5)
        assert evaluate(e, pt2(4.0 / 3.0, 0.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_whitespace_insensitive(self):
        assert parse(" u11 +  u22 ", 2) == parse("u11+u22", 2)

    def test_literal_folding(self):
        assert parse("(1/3)", 2) == Const(1.0 / 3.0)
        assert parse("2^3 + u", 2) == Binary("+", Const(8.0), Var("u"))

    def test_unary_minus_binds_before_power(self):
        # grammar: factor := base ('^' uint)?, base := '-' base | ...
        e = parse("-u^2", 2)
        assert e == Power(Unary("neg", Var("u")), 2)

    def test_functions(self):
        e = parse("sin(x1)*tanh(u2) + sqrt(u) - log(exp(u1))", 2)
        assert variables_of(e) == {"x1", "u2", "u", "u1"}

    def test_dimension_precondition(self):
        with pytest.raises(ValueError):
            parse("u", 1)
        with pytest.raises(ValueError):  # x10 or u10 could not be written
            parse("u", 10)


class TestPrintRoundTrip:
    CASES = [
        "u11*u22 - u12^2 - 1",
        "-(u11 + u22)^3 / (1 + u1^2)",
        "sin(x1)*u11 + u*(u11*u22 - u12^2)",
        "u11 - (1/3)*u22^3 - u22",
        "1 - 2*u - -u1",
        "u11 - (u22 - u12) - u22/(u11/u12)",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_explicit_cases(self, text):
        e = parse(text, 2)
        assert parse(to_text(e), 2) == e

    def test_corpus_round_trip(self, corpus_exprs):
        for e, n in corpus_exprs.values():
            assert parse(to_text(e), n) == e

    @given(st.recursive(
        st.one_of(
            st.sampled_from([Var(v) for v in
                             ("u", "x1", "x2", "u1", "u2", "u11", "u12", "u22")]),
            st.floats(-10, 10, allow_nan=False).map(lambda v: Const(float(v))),
        ),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from("+-*/"), inner, inner).map(
                lambda t: Binary(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(("neg", "sin", "cos", "exp", "tanh")),
                      inner).map(lambda t: Unary(t[0], t[1])),
            st.tuples(inner, st.integers(0, 4)).map(lambda t: Power(t[0], t[1])),
        ),
        max_leaves=25,
    ))
    @example(Unary("exp", Power(Const(6.0), 4)))  # exp(1296) overflows
    @settings(max_examples=200, deadline=None)
    def test_round_trip_generated(self, e):
        # constant folding means arbitrary trees normalize on first parse;
        # round-trip must then be the identity
        normalized = parse(to_text(e), 2)
        assert parse(to_text(normalized), 2) == normalized


class TestEvaluate:
    def test_trace(self):
        assert evaluate(parse("u11+u22", 2), pt2(1.0, 0.0, 2.0)) == 3.0

    def test_determinant(self):
        assert evaluate(parse("u11*u22-u12^2", 2), pt2(2.0, 1.0, 3.0)) == 5.0

    def test_log_domain_error(self):
        with pytest.raises(EvaluationDomainError, match="log"):
            evaluate(parse("log(u)", 2), pt2(0.0, 0.0, 0.0, u=0.0))

    def test_sqrt_and_division_errors(self):
        with pytest.raises(EvaluationDomainError, match="sqrt"):
            evaluate(parse("sqrt(u1)", 2), pt2(0, 0, 0, p=(-1.0, 0.0)))
        with pytest.raises(EvaluationDomainError, match="division") as err:
            evaluate(parse("1/(u11-u22)", 2), pt2(1.0, 0.0, 1.0))
        assert "u11 - u22" in str(err.value)

    def test_deterministic(self, rng):
        e = parse("sin(x1)*u11 + exp(u)*u12 - tanh(u2)^3", 2)
        pt = random_jetpoint(rng, 2)
        assert evaluate(e, pt) == evaluate(e, pt)

    def test_matches_tree_walk(self, rng, corpus_exprs):
        for e, n in corpus_exprs.values():
            for _ in range(10):
                pt = random_jetpoint(rng, n)
                assert evaluate(e, pt) == pytest.approx(
                    tree_eval(e, point_values(pt)), rel=1e-14, abs=1e-300)


def random_expr(rng, n, depth):
    """Random expression over safe functions (log/sqrt via 1 + (.)^2 guards)."""
    names = ["u", *[f"x{i}" for i in range(1, n + 1)],
             *[f"u{i}" for i in range(1, n + 1)],
             *[f"u{i}{j}" for i in range(1, n + 1) for j in range(i, n + 1)]]
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return Const(float(rng.uniform(-3, 3)))
        return Var(names[int(rng.integers(len(names)))])
    kind = rng.random()
    if kind < 0.45:
        op = "+-*/"[int(rng.integers(4))]
        return Binary(op, random_expr(rng, n, depth - 1), random_expr(rng, n, depth - 1))
    if kind < 0.65:
        op = ("neg", "sin", "cos", "exp", "tanh")[int(rng.integers(5))]
        return Unary(op, random_expr(rng, n, depth - 1))
    if kind < 0.8:
        guarded = Binary("+", Const(1.0), Power(random_expr(rng, n, depth - 1), 2))
        return Unary(("log", "sqrt")[int(rng.integers(2))], guarded)
    return Power(random_expr(rng, n, depth - 1), int(rng.integers(0, 5)))


def fd_pairs(rng, count=100, n=2, depth=5):
    """(expr, var, point) triples with stable values for FD comparison."""
    out = []
    guard = 0
    while len(out) < count and guard < 20 * count:
        guard += 1
        e = random_expr(rng, n, depth)
        pt = random_jetpoint(rng, n, -1.5, 1.5)
        names = sorted(variables_of(e))
        if not names:
            continue
        var = names[int(rng.integers(len(names)))]
        try:
            v = evaluate(e, pt)
            d = evaluate(differentiate(e, var), pt)
        except EvaluationDomainError:
            continue
        if not (math.isfinite(v) and math.isfinite(d)):
            continue
        if abs(v) > 1e4 or abs(d) > 1e4:
            continue
        out.append((e, var, pt))
    assert len(out) == count
    return out


class TestDifferentiate:
    def test_power_rule(self, rng):
        d = differentiate(parse("u11*u22-u12^2", 2), "u12")
        for _ in range(5):
            pt = random_jetpoint(rng, 2)
            assert evaluate(d, pt) == pytest.approx(-2.0 * hessian(pt)[0, 1])

    def test_square(self):
        d = differentiate(parse("u11^2-u22", 2), "u11")
        assert evaluate(d, pt2(3.0, 0.0, 0.0)) == 6.0

    def test_chain_rule_value(self):
        # d(sin(u1)*u22)/du1 at u1 = 0.3, u22 = 2
        e = parse("sin(u1)*u22", 2)
        pt = pt2(0.0, 0.0, 2.0, p=(0.3, 0.0))
        d = evaluate(differentiate(e, "u1"), pt)
        assert d == pytest.approx(2.0 * math.cos(0.3), abs=1e-12)
        assert d == pytest.approx(1.910673, abs=1e-6)
        assert d == pytest.approx(central_fd(e, "u1", pt, h=1e-6), abs=1e-8)

    def test_absent_variable_gives_zero(self):
        assert differentiate(parse("u11+u22", 2), "u12") == Const(0.0)

    def test_malformed_variable_rejected(self):
        with pytest.raises(ValueError):
            differentiate(parse("u11", 2), "u21")

    def test_against_finite_differences(self, rng):
        for e, var, pt in fd_pairs(rng, count=100):
            sym = evaluate(differentiate(e, var), pt)
            fd = central_fd(e, var, pt, h=1e-5)
            assert abs(sym - fd) <= 1e-5 * (1.0 + abs(sym)), to_text(e)

    def test_mixed_partials_commute(self, rng):
        exprs = ["u11^3*u22 - sin(u12)*u11", "exp(u11*u22) + u12^2*u22",
                 "tanh(u11)*log(1+u22^2)"]
        for text in exprs:
            e = parse(text, 2)
            for a, b in (("u11", "u22"), ("u11", "u12"), ("u12", "u22")):
                dab = differentiate(differentiate(e, a), b)
                dba = differentiate(differentiate(e, b), a)
                for _ in range(5):
                    pt = random_jetpoint(rng, 2)
                    assert evaluate(dab, pt) == pytest.approx(
                        evaluate(dba, pt), rel=1e-10, abs=1e-10)


class TestJetPoint:
    def test_symmetry_mirrored(self):
        pt = make_jetpoint([0, 0], 0, [0, 0], np.array([[1.0, 2.0], [2.0, 3.0]]))
        H = hessian(pt)
        assert H[0, 1] == H[1, 0] == 2.0
        assert pt.h_upper == (1.0, 2.0, 3.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            make_jetpoint([0, 0], 0, [0, 0], np.array([[1.0, 2.0], [2.5, 3.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            JetPoint((0.0, 0.0), math.inf, (0.0, 0.0), (0.0, 0.0, 0.0))

    def test_vector_round_trip(self, rng):
        pt = random_jetpoint(rng, 3)
        from cepde.expr import jetpoint_from_vector

        assert jetpoint_from_vector(pt.to_vector(), 3) == pt

    def test_value_lookup(self):
        # to_vector follows variable_layout, so names look values up
        pt = pt2(1.0, 2.0, 3.0, x=(9.0, 8.0), u=7.0, p=(6.0, 5.0))
        values = point_values(pt)
        assert values["x2"] == 8.0
        assert values["u"] == 7.0
        assert values["u1"] == 6.0
        assert values["u12"] == 2.0


def test_swap_xy_round_trip():
    e = parse("u11 - u22^3/3 - u22 + x1*u1", 2)
    assert swap_xy(swap_xy(e)) == e
    swapped = swap_xy(e)
    assert variables_of(swapped) == {"u22", "u11", "x2", "u2"}
