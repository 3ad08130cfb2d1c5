import json
import os
import subprocess
import sys
import warnings
import shutil
from pathlib import Path

import jsonschema
import pytest

from cepde import bundled_corpus_path
from cepde.cli import main, resolve_corpus_path, validate_corpus
from cepde.expr import Const, Unary, parse, to_text
from cepde.report import canonical_json, classify_pde

SCHEMA_PATH = Path(bundled_corpus_path()).parent / "report_schema_v1.json"


def run(argv):
    return main(argv)


class TestClassifyCommand:
    def test_ma_example(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        code = run(["classify", "--pde", "u11*u22-u12^2-1", "--n", "2",
                    "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["overall_verdict"] == "completely exceptional (Monge–Ampère)"
        assert report["exceptionality"]["verdict"] == "exceptional"
        assert report["monge_ampere"]["classification"] == "monge-ampere"

    def test_non_exceptional_example(self, capsys):
        code = run(["classify", "--pde", "u11^2-u22", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["overall_verdict"] == "not exceptional"

    def test_syntax_error_caret(self, capsys):
        code = run(["classify", "--pde", "u11+*u22", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.err.splitlines()
        assert "offset 4" in lines[0]
        assert lines[1].strip() == "u11+*u22"
        assert lines[2].index("^") - 2 == 4  # caret under the offending byte

    def test_unknown_variable_exit(self, capsys):
        # every index is one digit: u_i and u_i_j are not jet variables
        for pde in ("u21", "u_1_1 + u22", "u_1 + u11"):
            assert run(["classify", "--pde", pde, "--n", "2"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and pde.split()[0] in err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--pde", "u11"])  # missing --n
        assert exc.value.code == 1

    def test_empty_locus_is_inconclusive_exit(self, capsys):
        code = run(["classify", "--pde", "u11^2+u22^2+1", "--n", "2"])
        assert code == 2
        assert "zero locus" in capsys.readouterr().err

    def test_overflowing_constant_is_inconclusive_exit(self, capsys):
        # exp(710) overflows a double: the parser must leave it unfolded
        # rather than crash, and the equation has no zero locus in the box
        code = run(["classify", "--pde", "exp(710) + u11", "--n", "2"])
        assert code == 2
        assert "zero locus" in capsys.readouterr().err
        e = parse("exp(1296)", 2)
        assert e == Unary("exp", Const(1296.0))
        assert parse(to_text(e), 2) == e

    def test_sin_of_overflowing_exp_has_exit_code(self, capsys, tmp_path):
        # exp(400*u11) is inf for u11 >= 1.7725, and sin(inf) is nan as in
        # C; the 2-jet of F overflows at some locus samples, which are then
        # dropped.  Seed 1 ends in a criterion disagreement (exit 3).  The
        # overflow must not print numpy RuntimeWarnings either.
        schema = json.loads(SCHEMA_PATH.read_text())
        for seed in ("0", "1"):
            out = tmp_path / f"r{seed}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run(["classify", "--pde", "sin(exp(400*u11)) + u22",
                            "--n", "2", "--seed", seed, "--out", str(out)])
            assert code in (0, 1, 2, 3, 4)
            if code != 2:
                jsonschema.validate(json.loads(out.read_text()), schema)
        assert "Traceback" not in capsys.readouterr().err

    def test_non_finite_characteristics_are_skipped(self, capsys, tmp_path):
        # exp(300*u11) and exp(300*u22) overflow along the characteristic
        # lines, and some Lax residuals overflow to -inf; such a sample is
        # skipped and counted, never serialized, and prints no warning
        schema = json.loads(SCHEMA_PATH.read_text())
        for seed in range(8):
            out = tmp_path / f"r{seed}.json"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = run(["classify", "--pde",
                            "exp(300*u11) + u12*exp(300*u22) + u22", "--n", "2",
                            "--seed", str(seed), "--out", str(out)])
            assert code in (0, 1, 2, 3, 4)
            if out.exists():
                jsonschema.validate(json.loads(out.read_text()), schema)
        assert "Traceback" not in capsys.readouterr().err

    def test_characteristic_line_leaving_the_domain(self, capsys):
        # the strong test's rank-one line runs into u11 < -1, where the
        # sqrt is undefined; the points on it where F is defined decide
        code = run(["classify", "--pde", "sqrt(u11 + 1) - u22", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["overall_verdict"] == "not exceptional"
        assert "Traceback" not in captured.err

    def test_undefined_at_base_point_is_inconclusive_exit(self, capsys):
        # log(u + 1) is undefined at base points with u <= -1, so the minor
        # fit cannot evaluate F there whatever Hessians it draws
        code = run(["classify", "--pde", "log(u + 1)*u11 + u22", "--n", "2"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: log of non-positive value in 'log(u + 1)'"]

    def test_unsupported_n_rejected_up_front(self, capsys):
        for n in ("1", "5"):
            code = run(["classify", "--pde", "u11 + u22", "--n", n])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: dimension n must be in 2..4, got {n}"]

    def test_pretty_output(self, capsys):
        code = run(["classify", "--pde", "u11-u22", "--n", "2", "--pretty"])
        captured = capsys.readouterr()
        assert code == 0
        assert "overall: completely exceptional" in captured.out
        assert "hyperbolicity" in captured.out

    def test_box_flag_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--pde", "u11", "--n", "2", "--box", "3:1"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("option", [
        ["--samples", "0"], ["--samples", "-3"], ["--tol", "0"], ["--tol", "-1"],
        ["--tol", "nan"], ["--box=-inf:2"], ["--seed", "-1"]], ids=" ".join)
    def test_out_of_range_option_is_usage_error(self, capsys, option):
        with pytest.raises(SystemExit) as exc:
            run(["classify", "--pde", "u11*u22 - u12^2 - 1", "--n", "2", *option])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    def test_python_dash_m(self, tmp_path):
        import cepde

        src = str(Path(cepde.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in (["--version"], ["classify", "--pde", "u11 - u22", "--n", "2"]):
            proc = subprocess.run([sys.executable, "-m", "cepde", *argv],
                                  cwd=tmp_path, env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["overall_verdict"].startswith("completely")

    def test_report_schema_valid(self, tmp_path):
        out = tmp_path / "r.json"
        run(["classify", "--pde", "u11*u22-u12^2+1", "--n", "2",
             "--seed", "9", "--out", str(out)])
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(json.loads(out.read_text()), schema)


class TestOneEvaluationPath:
    SIGMA2_N4 = ("u11*u22 - u12^2 + u11*u33 - u13^2 + u11*u44 - u14^2"
                 " + u22*u33 - u23^2 + u22*u44 - u24^2 + u33*u44 - u34^2 - 1")

    def test_pipeline_makes_no_single_point_calls(self, corpus_entries,
                                                  monkeypatch, capsys):
        # every stage evaluates in batches: with the single-point entry
        # points refusing to run, every report and error stays the same
        from cepde import backend

        cases = [(e["expression"], e["n"]) for e in corpus_entries]
        cases.append((self.SIGMA2_N4, 4))
        undefined = ["classify", "--pde", "log(u + 1)*u11 + u22", "--n", "2"]

        def outputs():
            reports = [canonical_json(classify_pde(text, n).report)
                       for text, n in cases]
            code = run(undefined)
            return reports, code, capsys.readouterr().err.splitlines()[0]

        want = outputs()

        def refuse(*args):
            raise AssertionError("single-point evaluation in the pipeline")

        monkeypatch.setattr(backend, "eval_vector", refuse)
        monkeypatch.setattr(backend, "eval_vector_or_nan", refuse)
        assert outputs() == want
        assert want[1:] == (2, "error: log of non-positive value in 'log(u + 1)'")


class TestCorpusCommand:
    def test_bundled_corpus_matches(self, capsys, tmp_path):
        out = tmp_path / "agg.json"
        code = run(["corpus", "--file", "bundled.json", "--seed", "42",
                    "--out", str(out)])
        assert code == 0
        agg = json.loads(out.read_text())
        assert agg["all_match"] is True
        assert agg["entry_count"] == 10 and agg["matched"] == 10

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["corpus", "--file", "bundled.json", "--seed", "42", "--out", str(a)])
        run(["corpus", "--file", "bundled.json", "--seed", "42", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_every_entry_report_validates(self, tmp_path):
        out = tmp_path / "agg.json"
        run(["corpus", "--file", "bundled.json", "--seed", "1", "--out", str(out)])
        schema = json.loads(SCHEMA_PATH.read_text())
        for entry in json.loads(out.read_text())["entries"]:
            jsonschema.validate(entry["report"], schema)

    def test_wrong_expectation_exit4(self, capsys, tmp_path):
        entries = json.loads(Path(bundled_corpus_path()).read_text())
        entries[0]["expected_classification"] = "non-ma"
        entries[0]["expected_exceptional"] = False
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(entries))
        code = run(["corpus", "--file", str(f), "--seed", "42"])
        captured = capsys.readouterr()
        assert code == 4
        assert "mismatch: laplace" in captured.err

    def test_empty_corpus_exit1(self, capsys, tmp_path):
        f = tmp_path / "empty.json"
        f.write_text("[]")
        assert run(["corpus", "--file", str(f)]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_missing_file_exit1(self, capsys):
        assert run(["corpus", "--file", "/nonexistent/c.json"]) == 1

    def test_duplicate_names_rejected(self, capsys, tmp_path):
        entries = json.loads(Path(bundled_corpus_path()).read_text())
        entries[1]["name"] = entries[0]["name"]
        f = tmp_path / "dup.json"
        f.write_text(json.dumps(entries))
        assert run(["corpus", "--file", str(f)]) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_unparseable_expression_rejected(self, tmp_path, capsys):
        f = tmp_path / "bad_expr.json"
        for expression in ("u11 +", "u_1_1 + u22"):
            f.write_text(json.dumps([{
                "name": "broken", "n": 2, "expression": expression,
                "expected_classification": "linear", "expected_exceptional": True,
            }]))
            assert run(["corpus", "--file", str(f)]) == 1
            assert "does not parse" in capsys.readouterr().err

    def test_entry_without_zero_locus_is_inconclusive(self, capsys, tmp_path):
        entries = json.loads(Path(bundled_corpus_path()).read_text())[:1]
        entries.insert(0, {"name": "no-locus", "n": 2, "expression": "u11^2 + 1",
                           "expected_classification": "non-ma",
                           "expected_exceptional": False})
        f = tmp_path / "no_locus.json"
        f.write_text(json.dumps(entries))
        out = tmp_path / "agg.json"
        code = run(["corpus", "--file", str(f), "--out", str(out)])
        assert code == 4
        assert "mismatch: no-locus: inconclusive" in capsys.readouterr().err
        agg = json.loads(out.read_text())
        assert agg["entry_count"] == 2 and agg["matched"] == 1
        first, second = agg["entries"]
        assert first["report"] is None and first["match"] is False
        assert first["actual"]["overall_verdict"] == "inconclusive"
        assert second["match"] is True  # the run went on past the first entry

    def test_entry_undefined_at_base_point_is_inconclusive(self, capsys,
                                                           tmp_path):
        entries = [{"name": "log-base", "n": 2,
                    "expression": "log(u + 1)*u11 + u22",
                    "expected_classification": "linear",
                    "expected_exceptional": True}]
        f = tmp_path / "log_base.json"
        f.write_text(json.dumps(entries))
        out = tmp_path / "agg.json"
        code = run(["corpus", "--file", str(f), "--out", str(out)])
        assert code == 4
        assert "mismatch: log-base: inconclusive: log of non-positive" \
            in capsys.readouterr().err
        (entry,) = json.loads(out.read_text())["entries"]
        assert entry["report"] is None and entry["match"] is False
        assert entry["actual"]["overall_verdict"] == "inconclusive"

    def test_resolve_prefers_real_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        shutil.copy(bundled_corpus_path(), tmp_path / "bundled.json")
        assert resolve_corpus_path("bundled.json") == Path("bundled.json")
        (tmp_path / "bundled.json").unlink()
        assert resolve_corpus_path("bundled.json") == Path(bundled_corpus_path())


def _not_utf8_corpus(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'[{"name": "caf\xe9"}]')
    return ["corpus", "--file", str(path)]


FILE_ERRORS = {
    "classify-out-in-missing-dir": lambda tmp: [
        "classify", "--pde", "u11+u22", "--n", "2",
        "--out", str(tmp / "missing" / "r.json")],
    "corpus-out-in-missing-dir": lambda tmp: [
        "corpus", "--file", "bundled.json", "--out", str(tmp / "missing" / "a.json")],
    "corpus-file-is-directory": lambda tmp: ["corpus", "--file", str(tmp)],
    "corpus-file-not-utf8": _not_utf8_corpus,
}


@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_file_error_is_usage_error(capsys, tmp_path, case):
    assert run(FILE_ERRORS[case](tmp_path)) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


class TestValidateCorpus:
    def test_accepts_bundled(self):
        entries = json.loads(Path(bundled_corpus_path()).read_text())
        assert validate_corpus(entries) == []

    def test_rejects_non_list(self):
        assert validate_corpus({"name": "x"})
        assert validate_corpus([])

    @pytest.mark.parametrize("n", [1, 5, 2.0])
    def test_rejects_unsupported_n(self, n):
        entry = {"name": "e", "n": n, "expression": "u11 + u22",
                 "expected_classification": "linear",
                 "expected_exceptional": True}
        assert validate_corpus([entry]) == [
            "entry 'e': 'n' must be an integer in 2..4"]


class TestVerdictCombination:
    def test_disagreement_is_hard_error(self, monkeypatch):
        # force the two modules apart to check the exit-3 path end to end
        import cepde.report as report_mod

        class FakeCls:
            classification = "non-ma"
            fits = ()
            tolerance = 1e-7

        monkeypatch.setattr(report_mod.ma, "classify",
                            lambda *a, **k: FakeCls())
        outcome = classify_pde("u11*u22-u12^2-1", 2, seed=4)
        assert outcome.exit_code == 3
        assert outcome.report["overall_verdict"] == "criterion disagreement"

    def test_inconclusive_exit(self):
        from cepde.symbol import is_completely_exceptional
        from cepde.expr import parse as p

        # one sample whose residual lands in (tol, 10*tol]: the aggregate
        # refuses to call it and the CLI reports inconclusive
        probe = is_completely_exceptional(p("u11^2-u22", 2), 2, count=1, seed=0)
        residual = probe.samples[0].residual
        outcome = classify_pde("u11^2-u22", 2, seed=0, samples=1,
                               tol=residual / 5.0)
        assert outcome.exit_code == 2
        assert outcome.report["overall_verdict"] == "inconclusive"


class TestCanonicalJson:
    def test_float_formatting(self):
        assert canonical_json(0.1) == "0.10000000000000001"
        assert canonical_json(2.0) == "2"
        assert canonical_json(float(1e-7)) == "9.9999999999999995e-08"

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_structures(self):
        text = canonical_json({"b": [1, 2.5, None, True], "a": "x–y"})
        parsed = json.loads(text)
        assert parsed == {"b": [1, 2.5, None, True], "a": "x–y"}
        assert list(parsed) == ["b", "a"]  # insertion order preserved
        assert "\\u2013" in text  # ascii-escaped
