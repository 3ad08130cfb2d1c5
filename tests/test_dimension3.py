"""Dimension-generic paths at n = 3: the determinant and single-minor PDEs
must classify as Monge-Ampere through both criteria, with symbols checked
against the rank-one Taylor oracle."""

import json

import numpy as np
import pytest

from cepde.expr import parse
from cepde.ma import classify
from cepde.symbol import (is_completely_exceptional, principal_symbol,
                          second_symbol)
from conftest import random_jetpoint
from oracles import (adjugate, form_from_direction_values, hessian,
                     rank_one_derivatives)

DET3 = ("u11*(u22*u33 - u23^2) - u12*(u12*u33 - u13*u23)"
        " + u13*(u12*u23 - u13*u22)")


@pytest.mark.parametrize("text,expected_exceptional,expected_class", [
    (DET3 + " - 1", True, "monge-ampere"),
    ("u11*u22 - u12^2 + u13 - 2", True, "monge-ampere"),
    ("u11 + u22 + u33", True, "linear"),
    ("u11^2 - u22 + u33", False, "non-ma"),
])
def test_n3_classification(text, expected_exceptional, expected_class):
    F = parse(text, 3)
    v = is_completely_exceptional(F, 3, seed=42)
    assert (v.verdict == "exceptional") == expected_exceptional
    assert classify(F, 3, seed=42).classification == expected_class


def test_n3_determinant_symbol_is_adjugate(rng):
    F = parse(DET3, 3)
    for _ in range(5):
        pt = random_jetpoint(rng, 3)
        s = principal_symbol(F, pt)
        adj = adjugate(hessian(pt))
        for _ in range(5):
            xi = rng.normal(size=3)
            assert s(xi) == pytest.approx(xi @ adj @ xi, rel=1e-10, abs=1e-10)


def test_n3_dual_definition_agreement(rng):
    for text in (DET3, "u11*u23^2 - exp(u33)*u12 + u2*u13^3"):
        F = parse(text, 3)
        for _ in range(5):
            pt = random_jetpoint(rng, 3)
            s = principal_symbol(F, pt)
            s2 = second_symbol(F, pt)
            got_s = form_from_direction_values(
                3, 2, lambda xi: rank_one_derivatives(F, pt, xi)[0])
            got_s2 = form_from_direction_values(
                3, 4, lambda xi: rank_one_derivatives(F, pt, xi)[1])
            assert np.max(np.abs(got_s - s.coeffs)) \
                <= 1e-9 * (1.0 + np.max(np.abs(s.coeffs)))
            assert np.max(np.abs(got_s2 - s2.coeffs)) \
                <= 1e-9 * (1.0 + np.max(np.abs(s2.coeffs)))


def test_n3_cli_report_validates(tmp_path):
    from pathlib import Path

    import jsonschema

    from cepde import bundled_corpus_path
    from cepde.cli import main

    out = tmp_path / "n3.json"
    code = main(["classify", "--pde", DET3 + " - 1", "--n", "3",
                 "--seed", "5", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["hyperbolicity"] is None and report["equivalence"] is None
    schema_path = Path(bundled_corpus_path()).parent / "report_schema_v1.json"
    jsonschema.validate(report, json.loads(schema_path.read_text()))
