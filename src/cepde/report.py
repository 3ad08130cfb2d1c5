"""Classification reports: running the full pipeline on one PDE and
serializing the result as canonical JSON.

Canonical form: fixed key order (build order), floats with 17 significant
digits, ASCII-escaped strings — byte-identical for identical inputs and
seed.  Wall-clock timings are deliberately not part of the JSON (they go to
stderr in the CLI) so repeated runs stay byte-identical.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

from . import __version__ as _version
from . import charvar, ma, symbol
from .expr import JetPoint, parse

OVERALL_EXCEPTIONAL = "completely exceptional (Monge–Ampère)"
OVERALL_NOT = "not exceptional"
OVERALL_INCONCLUSIVE = "inconclusive"
OVERALL_DISAGREEMENT = "criterion disagreement"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_DISAGREEMENT = 3
EXIT_CORPUS_MISMATCH = 4


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits, ASCII escapes.  Rejects non-finite floats."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("non-finite float in report")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f"{pad}  {json.dumps(str(k), ensure_ascii=True)}: "
            f"{canonical_json(v, indent + 2)}" for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = ",\n".join(f"{pad}  {canonical_json(v, indent + 2)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _jetpoint_dict(pt: JetPoint) -> dict:
    return {"x": [float(v) for v in pt.x], "u": float(pt.u),
            "p": [float(v) for v in pt.p],
            "h_upper": [float(v) for v in pt.h_upper]}


def _exceptionality_dict(v: symbol.ExceptionalityVerdict) -> dict:
    return {
        "verdict": v.verdict,
        "sample_count": v.sample_count,
        "tolerance": float(v.tolerance),
        "samples": [
            {"point": _jetpoint_dict(r.point), "residual": float(r.residual),
             "passed": r.passed, "degenerate": r.degenerate,
             "factor": r.factor.to_json() if r.factor is not None else None}
            for r in v.samples
        ],
    }


def _ma_dict(c: ma.MAClassification, n: int) -> dict:
    from .tensor import minor_basis

    return {
        "classification": c.classification,
        "tolerance": float(c.tolerance),
        "minor_labels": list(minor_basis(n).labels()),
        "base_points": [
            {"x": [float(v) for v in f.base.x], "u": float(f.base.u),
             "p": [float(v) for v in f.base.p],
             "coefficients": [float(v) for v in f.coefficients],
             "fit_residual": float(f.fit_residual),
             "validation_residual": float(f.validation_residual),
             "accepted": f.accepted(c.tolerance)}
            for f in c.fits
        ],
    }


def _equivalence_dict(rep: charvar.EquivalenceReport) -> dict:
    return {
        "hyperbolic_samples": len(rep.samples),
        "skipped": {k: rep.skipped[k] for k in sorted(rep.skipped)},
        "matrix": {k: rep.matrix[k] for k in sorted(rep.matrix)},
        "all_agree": rep.all_agree,
        "tolerances": {k: float(v) for k, v in rep.tolerances.items()},
        "disagreements": [
            {"point": _jetpoint_dict(s.point),
             "divisibility_pass": s.divisibility_pass,
             "divisibility_residual": float(s.divisibility_residual),
             "lax_pass": s.lax_pass,
             "lax_residuals": [float(v) for v in s.lax_residuals],
             "strong_pass": s.strong_pass,
             "strong_deviations": [float(v) for v in s.strong_deviations]}
            for s in rep.disagreements
        ],
    }


MA_FAMILY = ("linear", "quasi-linear", "monge-ampere")


@dataclass
class ClassificationOutcome:
    report: dict
    exit_code: int
    duration: float  # seconds; reported on stderr, never in the JSON


def classify_pde(expression: str, n: int, seed: int = 0, samples: int = 64,
                 box=(-2.0, 2.0), tol: float = 1e-7) -> ClassificationOutcome:
    """Run all modules on one PDE and cross-check their verdicts.

    The overall verdict is "completely exceptional (Monge-Ampere)" iff the
    divisibility verdict is exceptional AND the minor-expansion class is in
    the MA family; a disagreement between the two is a hard error (exit 3),
    never silently resolved.
    """
    import time

    t0 = time.perf_counter()
    F = parse(expression, n)
    exc = symbol.is_completely_exceptional(F, n, box=box, count=samples,
                                           seed=seed, tol=tol)
    ma_cls = ma.classify(F, n, box=box, count=max(8, samples // 4),
                         seed=seed + 1, tol=tol)
    hyp = None
    equiv = None
    if n == 2:
        equiv = charvar.equivalence_report(F, exc, box)
        hyp = {"fractions": {k: float(v) for k, v in equiv.scan.fractions.items()},
               "kinds": list(equiv.scan.kinds)}

    is_exc = exc.verdict == "exceptional"
    is_ma = ma_cls.classification in MA_FAMILY
    if exc.verdict == "inconclusive":
        overall, code = OVERALL_INCONCLUSIVE, EXIT_INCONCLUSIVE
    elif is_exc != is_ma:
        overall, code = OVERALL_DISAGREEMENT, EXIT_DISAGREEMENT
    elif equiv is not None and not equiv.all_agree:
        overall, code = OVERALL_DISAGREEMENT, EXIT_DISAGREEMENT
    elif is_exc:
        overall, code = OVERALL_EXCEPTIONAL, EXIT_OK
    else:
        overall, code = OVERALL_NOT, EXIT_OK

    report = {
        "tool": "cepde",
        "version": _version,
        "input": {
            "expression": expression,
            "n": n,
            "seed": seed,
            "samples": samples,
            "box": [float(box[0]), float(box[1])],
            "tolerance": float(tol),
        },
        "exceptionality": _exceptionality_dict(exc),
        "monge_ampere": _ma_dict(ma_cls, n),
        "hyperbolicity": hyp,
        "equivalence": _equivalence_dict(equiv) if equiv is not None else None,
        "overall_verdict": overall,
    }
    return ClassificationOutcome(report, code, time.perf_counter() - t0)


def entry_seed(global_seed: int, name: str) -> int:
    """Per-corpus-entry seed derived from (global seed, entry name)."""
    return (global_seed * 1000003 + zlib.crc32(name.encode())) & 0x7FFFFFFF


def pretty_report(report: dict) -> str:
    """Human-readable summary of a classification report."""
    lines = [f"cepde {report['version']}"]
    inp = report["input"]
    lines.append(f"PDE: {inp['expression']}   (n={inp['n']}, seed={inp['seed']}, "
                 f"samples={inp['samples']}, box=[{inp['box'][0]}, {inp['box'][1]}])")
    exc = report["exceptionality"]
    lines.append(f"exceptionality: {exc['verdict']} over {exc['sample_count']} "
                 f"locus samples (tol {exc['tolerance']:g})")
    mac = report["monge_ampere"]
    lines.append(f"minor expansion: {mac['classification']} "
                 f"({len(mac['base_points'])} base points)")
    if report["hyperbolicity"] is not None:
        fr = ", ".join(f"{k}: {v:.0%}"
                       for k, v in report["hyperbolicity"]["fractions"].items())
        lines.append(f"hyperbolicity: {fr}")
    if report["equivalence"] is not None:
        eq = report["equivalence"]
        lines.append(f"equivalence: {eq['hyperbolic_samples']} hyperbolic samples, "
                     f"matrix {eq['matrix']}, skipped {eq['skipped']}, "
                     f"agree={eq['all_agree']}")
    lines.append(f"overall: {report['overall_verdict']}")
    return "\n".join(lines)
