"""Checks on cepde's classification reports, computed apart from cepde.

F is parsed and evaluated with sympy (lambdified over Python's math module),
Hessian minors are numpy determinants, and the report's structure is
validated with jsonschema against the shipped report schema.  Nothing here
calls into cepde.
"""

from __future__ import annotations

import copy
import json
import math
import re

import jsonschema
import numpy as np
import sympy
from sympy.parsing.sympy_parser import parse_expr, standard_transformations

OVERALL_EXCEPTIONAL = "completely exceptional (Monge–Ampère)"
OVERALL_NOT = "not exceptional"
LOCUS_RTOL = 1e-8      # |F| at a reported zero-locus sample, relative to its terms
MINOR_RTOL = 1e-6      # minor expansion against F at fresh Hessians
FRESH_HESSIANS = 3     # per accepted base point
HESSIAN_BOX = (-2.0, 2.0)

_MINOR_LABEL = re.compile(r"m(\d)\[(\d+)\|(\d+)\]$")


class CheckFailed(Exception):
    """A report disagrees with the independent computation."""


def _hessian_pairs(n: int) -> list[tuple[int, int]]:
    """1-based (i, j), i <= j, row-major: the order of JetPoint.h_upper."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


class _Equation:
    """F(x, u, p, H) built by sympy from the expression text."""

    def __init__(self, text: str, n: int):
        names = ([f"x{i}" for i in range(1, n + 1)] + ["u"]
                 + [f"u{i}" for i in range(1, n + 1)]
                 + [f"u{i}{j}" for i, j in _hessian_pairs(n)])
        symbols = [sympy.Symbol(name) for name in names]
        expr = parse_expr(text.replace("^", "**"),
                          local_dict=dict(zip(names, symbols)),
                          transformations=standard_transformations)
        terms = expr.args if expr.is_Add else (expr,)
        self.n = n
        self.value = sympy.lambdify(symbols, expr, modules="math")
        self.terms = sympy.lambdify(symbols, list(terms), modules="math")

    def at(self, x, u, p, h_upper) -> tuple[float, float]:
        """(F, sum of |top-level terms|) at one jet point."""
        args = [*x, u, *p, *h_upper]
        return (float(self.value(*args)),
                float(sum(abs(t) for t in self.terms(*args))))


def _minor(H: np.ndarray, label: str) -> float:
    if label == "1":
        return 1.0
    m = _MINOR_LABEL.match(label)
    if m is None:
        raise CheckFailed(f"unknown minor label {label!r}")
    k = int(m.group(1))
    rows = [int(c) - 1 for c in m.group(2)]
    cols = [int(c) - 1 for c in m.group(3)]
    if len(rows) != k or len(cols) != k:
        raise CheckFailed(f"minor label {label!r} has the wrong order")
    return float(np.linalg.det(H[np.ix_(rows, cols)]))


class Checker:
    def __init__(self, schema_path):
        with open(schema_path, encoding="utf-8") as f:
            schema = json.load(f)
        cls = jsonschema.validators.validator_for(schema)
        cls.check_schema(schema)
        self.validator = cls(schema)
        self._equations: dict[tuple[str, int], _Equation] = {}

    def equation(self, text: str, n: int) -> _Equation:
        key = (text, n)
        if key not in self._equations:
            self._equations[key] = _Equation(text, n)
        return self._equations[key]

    def check(self, case, cepde_seed: int, report: dict, rng) -> None:
        """Raise CheckFailed unless the report of a successful operation is
        right.  ``rng`` draws the fresh Hessians of the minor check."""
        errors = sorted(self.validator.iter_errors(report), key=str)
        if errors:
            raise CheckFailed(f"schema: {errors[0].message}")
        inp = report["input"]
        if (inp["expression"], inp["n"], inp["seed"]) != (case.expression, case.n,
                                                           cepde_seed):
            raise CheckFailed(f"input echo {inp} does not match the operation")
        self._check_verdict(case, report)
        eq = self.equation(case.expression, case.n)
        self._check_locus(eq, report["exceptionality"]["samples"])
        self._check_minors(eq, report["monge_ampere"], rng)

    @staticmethod
    def _check_verdict(case, report) -> None:
        cls = report["monge_ampere"]["classification"]
        if cls not in case.classes:
            raise CheckFailed(f"class {cls!r}, expected one of {case.classes}")
        exc = report["exceptionality"]["verdict"]
        if exc != ("exceptional" if case.exceptional else "not-exceptional"):
            raise CheckFailed(f"exceptionality {exc!r}, expected "
                              f"exceptional={case.exceptional}")
        overall = report["overall_verdict"]
        if overall != (OVERALL_EXCEPTIONAL if case.exceptional else OVERALL_NOT):
            raise CheckFailed(f"overall verdict {overall!r}")

    @staticmethod
    def _check_locus(eq: _Equation, samples) -> None:
        if not samples:
            raise CheckFailed("no zero-locus samples reported")
        for k, s in enumerate(samples):
            pt = s["point"]
            value, size = eq.at(pt["x"], pt["u"], pt["p"], pt["h_upper"])
            if not abs(value) <= LOCUS_RTOL * (1.0 + size):
                raise CheckFailed(f"locus sample {k}: F = {value:.3e}")

    @staticmethod
    def _check_minors(eq: _Equation, section, rng) -> None:
        labels = section["minor_labels"]
        pairs = _hessian_pairs(eq.n)
        for k, base in enumerate(section["base_points"]):
            if not base["accepted"]:
                continue
            coeffs = base["coefficients"]
            if len(coeffs) != len(labels):
                raise CheckFailed(f"base point {k}: {len(coeffs)} coefficients "
                                  f"for {len(labels)} minors")
            checked = 0
            for _ in range(20 * FRESH_HESSIANS):
                h_upper = rng.uniform(*HESSIAN_BOX, size=len(pairs))
                try:
                    value, _ = eq.at(base["x"], base["u"], base["p"], h_upper)
                except (ValueError, ZeroDivisionError):
                    continue  # F undefined at this Hessian; draw another
                H = np.zeros((eq.n, eq.n))
                for (i, j), h in zip(pairs, h_upper):
                    H[i - 1, j - 1] = H[j - 1, i - 1] = h
                terms = [c * _minor(H, lab) for c, lab in zip(coeffs, labels)]
                predicted = math.fsum(terms)
                scale = 1.0 + abs(value) + sum(abs(t) for t in terms)
                if not abs(predicted - value) <= MINOR_RTOL * scale:
                    raise CheckFailed(
                        f"base point {k}: minor expansion gives {predicted:.6e}, "
                        f"F = {value:.6e}")
                checked += 1
                if checked == FRESH_HESSIANS:
                    break
            else:
                raise CheckFailed(f"base point {k}: F undefined at fresh Hessians")


def self_check(checker: Checker, case, cepde_seed: int, report: dict, rng
               ) -> list[str]:
    """Corrupt a correct report three ways and return the names of the
    corruptions the checker failed to reject (empty when all were caught)."""
    eq = checker.equation(case.expression, case.n)
    corrupted = {}

    wrong = copy.deepcopy(report)
    wrong["overall_verdict"] = (OVERALL_NOT if case.exceptional
                                else OVERALL_EXCEPTIONAL)
    corrupted["wrong verdict"] = wrong

    off_locus = copy.deepcopy(report)
    pt = off_locus["exceptionality"]["samples"][0]["point"]
    for delta in (0.5, -0.5, 1.0, -1.0):
        h = [pt["h_upper"][0] + delta, *pt["h_upper"][1:]]
        value, size = eq.at(pt["x"], pt["u"], pt["p"], h)
        if abs(value) > 1e-3 * (1.0 + size):
            pt["h_upper"] = h
            corrupted["off-locus sample"] = off_locus
            break

    accepted = [b for b in report["monge_ampere"]["base_points"] if b["accepted"]]
    if accepted:
        bad_fit = copy.deepcopy(report)
        base = next(b for b in bad_fit["monge_ampere"]["base_points"]
                    if b["accepted"])
        base["coefficients"][0] += 1e-3  # the constant term B0
        corrupted["shifted minor coefficient"] = bad_fit

    missed = []
    for name, bad in corrupted.items():
        try:
            checker.check(case, cepde_seed, bad, rng)
        except CheckFailed:
            continue
        missed.append(name)
    if len(corrupted) < 3:
        missed.append("not every corruption could be built")
    return missed
