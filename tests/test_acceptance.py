"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria are pinned to their stated tolerances and runtime budgets; nothing
here is calibrated after the fact.
"""

import json
import time

import numpy as np

import cepde
from cepde.charvar import NearParabolicError, equivalence_report, speed_gradient
from cepde.expr import Binary, JetPoint, parse, to_text
from cepde.ma import classify
from cepde.symbol import (DEFAULT_BOX, is_completely_exceptional,
                          sample_zero_locus, second_symbol)
from cepde.tensor import minor_basis
from conftest import random_jetpoint
from oracles import adjugate, compound
from test_charvar import at_point, fd_speed_gradient, speeds_at
from test_expr import fd_pairs

MA_FAMILY = ("linear", "quasi-linear", "monge-ampere")


class _Timer:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _verdict(num, label, ok, timer):
    status = "PASS" if ok and timer.elapsed < timer.budget else "FAIL"
    print(f"ACCEPTANCE {num} ({label}): {status} "
          f"[{timer.elapsed:.2f}s / budget {timer.budget:.0f}s]")
    assert ok, f"criterion {num} ({label}) failed"
    assert timer.elapsed < timer.budget, \
        f"criterion {num} exceeded {timer.budget}s ({timer.elapsed:.2f}s)"


def test_criterion_1_homogeneous_ma_second_symbol():
    rng = np.random.default_rng(1)
    F = parse("u11*u22 - u12^2", 2)
    with _Timer(1.0) as t:
        ok = True
        for _ in range(100):
            q = second_symbol(F, random_jetpoint(rng, 2))
            ok = ok and np.max(np.abs(q.coeffs)) <= 1e-12
    _verdict(1, "homogeneous MA second symbol vanishes", ok, t)


def test_criterion_2_three_way_equivalence(corpus_entries):
    with _Timer(30.0) as t:
        ok = True
        for entry in corpus_entries:
            F = parse(entry["expression"], entry["n"])
            samples = sample_zero_locus(F, entry["n"], count=64, seed=42)
            if len(samples) < 50:
                ok = False
                print(f"  {entry['name']}: only {len(samples)} locus samples")
            exc = is_completely_exceptional(F, entry["n"], seed=42, tol=1e-7)
            rep = equivalence_report(F, exc, DEFAULT_BOX)
            ok = ok and rep.tolerances == {"divisibility": 1e-7, "lax": 1e-6,
                                           "strong": 1e-8}
            if not rep.all_agree:
                ok = False
                print(f"  {entry['name']}: {len(rep.disagreements)} disagreements")
            cls = classify(F, entry["n"], seed=42)
            if (cls.classification in MA_FAMILY) != (exc.verdict == "exceptional"):
                ok = False
                print(f"  {entry['name']}: classifier/exceptionality mismatch")
    _verdict(2, "three-way criterion agreement on corpus", ok, t)


def test_criterion_3_lie_quadric_and_adjugate():
    rng = np.random.default_rng(3)
    with _Timer(2.0) as t:
        ok = True
        for _ in range(1000):
            A = rng.uniform(-3, 3, size=(2, 2))
            A = (A + A.T) / 2.0
            z = minor_basis(2).evaluate(A)
            r = z[0] * z[4] - (z[1] * z[3] - z[2] ** 2)
            ok = ok and abs(r) <= 1e-10 * (1.0 + np.linalg.norm(A) ** 4)
        for n in (2, 3, 4):
            for _ in range(100):
                A = rng.uniform(-2, 2, size=(n, n))
                A = (A + A.T) / 2.0
                C = compound(A, n - 1)
                adj = adjugate(A)
                scale = np.max(np.abs(adj)) + 1.0
                for i in range(n):
                    for j in range(n):
                        rhs = (-1.0) ** (i + j) * C[n - 1 - i, n - 1 - j]
                        ok = ok and abs(adj[j, i] - rhs) <= 1e-10 * scale
    _verdict(3, "Lie quadric and adjugate-compound identities", ok, t)


def test_criterion_4_embedded_lines_straight():
    rng = np.random.default_rng(4)
    with _Timer(1.0) as t:
        ok = True
        done = 0
        while done < 200:
            A = rng.uniform(-2, 2, size=(2, 2))
            A = (A + A.T) / 2.0
            v = rng.uniform(-2, 2, size=2)
            if np.linalg.norm(v) < 1e-6:
                continue
            done += 1
            zs = [minor_basis(2).evaluate(A + t_ * np.outer(v, v)) for t_ in (0.0, 1.0, 2.0)]
            resid = np.linalg.norm(zs[0] - 2.0 * zs[1] + zs[2])
            ok = ok and resid <= 1e-9 * (1.0 + max(np.linalg.norm(z) for z in zs))
    _verdict(4, "rank-one deformations embed as straight lines", ok, t)


def test_criterion_5_speed_gradient_oracle(corpus_entries):
    with _Timer(5.0) as t:
        ok = True
        for entry in corpus_entries:
            F = parse(entry["expression"], entry["n"])
            try:
                pts = sample_zero_locus(F, 2, count=256, seed=42)
            except cepde.SamplingError:
                continue
            hyp = [p for p in pts if speeds_at(F, p).kind == "hyperbolic"]
            if len(hyp) < 50:
                continue  # no 50 hyperbolic points exist on this locus
            for pt in hyp[:50]:
                for b, root in enumerate(speeds_at(F, pt).roots):
                    if root.is_infinite:
                        continue
                    try:
                        sym = speed_gradient(*at_point(F, pt), b)
                    except NearParabolicError:
                        continue
                    fd = fd_speed_gradient(F, pt, b, h=1e-5)
                    rel = max(abs(a - c) for a, c in zip(fd, sym)) \
                        / (1.0 + max(abs(v) for v in sym))
                    if rel > 1e-5:
                        ok = False
                        print(f"  {entry['name']}: FD mismatch {rel:.2e}")
        # pinned value: F = u11 - u22^3/3 - u22 at u22 = 1, branch +
        g = speed_gradient(*at_point(parse("u11 - u22^3/3 - u22", 2),
                                     JetPoint((0.0, 0.0), 0.0, (0.0, 0.0),
                                              (4.0 / 3.0, 0.0, 1.0))), branch=1)
        ok = ok and abs(g[2] - (-(2.0 ** -1.5))) <= 1e-6
    _verdict(5, "speed gradients match finite differences", ok, t)


def test_criterion_6_representative_invariance(corpus_entries):
    with _Timer(20.0) as t:
        ok = True
        for entry in corpus_entries:
            F = parse(entry["expression"], entry["n"])
            base = is_completely_exceptional(F, entry["n"], count=48, seed=42)
            pts = sample_zero_locus(F, entry["n"], count=16, seed=7)
            for g_text in ("2", "1 + u1^2", "exp(u)"):
                gF = Binary("*", parse(g_text, entry["n"]), F)
                scaled = is_completely_exceptional(gF, entry["n"], count=48, seed=42)
                if scaled.verdict != base.verdict:
                    ok = False
                    print(f"  {entry['name']} * {g_text}: verdict "
                          f"{scaled.verdict} != {base.verdict}")
                for pt in pts:
                    sp = speeds_at(F, pt)
                    sp_g = speeds_at(gF, pt)
                    if sp.kind != sp_g.kind:
                        ok = False
                        continue
                    for r, rg in zip(sp.roots, sp_g.roots):
                        if r.is_infinite != rg.is_infinite:
                            ok = False
                        elif not r.is_infinite and \
                                abs(r.affine - rg.affine) > 1e-9 * (1.0 + abs(r.affine)):
                            ok = False
                            print(f"  {entry['name']} * {g_text}: root drift")
    _verdict(6, "representative invariance under nonvanishing multipliers", ok, t)


def test_criterion_7_parser_and_derivatives(corpus_entries):
    rng = np.random.default_rng(7)
    with _Timer(2.0) as t:
        ok = True
        for entry in corpus_entries:
            e = parse(entry["expression"], entry["n"])
            ok = ok and parse(to_text(e), entry["n"]) == e
        from cepde.expr import differentiate, evaluate
        from oracles import central_fd

        for e, var, pt in fd_pairs(rng, count=100):
            sym = evaluate(differentiate(e, var), pt)
            fd = central_fd(e, var, pt, h=1e-5)
            if abs(sym - fd) > 1e-5 * (1.0 + abs(sym)):
                ok = False
                print(f"  FD mismatch on {to_text(e)} d/d{var}")
    _verdict(7, "parser round-trip and derivative oracle", ok, t)


def test_criterion_8_cli_byte_identical(tmp_path):
    from cepde.cli import main

    with _Timer(60.0) as t:
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        code_a = main(["corpus", "--file", "bundled.json", "--seed", "42",
                       "--out", str(a)])
        code_b = main(["corpus", "--file", "bundled.json", "--seed", "42",
                       "--out", str(b)])
        ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
        ok = ok and json.loads(a.read_text())["all_match"] is True
    _verdict(8, "CLI corpus regression, byte-identical JSON", ok, t)
