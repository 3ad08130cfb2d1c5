"""Command-line frontend.

    cepde classify --pde "u11*u22-u12^2-1" --n 2 [--seed S] [--samples K]
                   [--box lo:hi] [--tol T] [--json|--pretty] [--out PATH]
    cepde corpus --file corpus.json [--seed S] [--out PATH]

Exit codes: 0 classified consistently / corpus matches, 1 usage or parse
error (and corpus schema violations, n outside 2..4, a --file that cannot be
read or an --out that cannot be written), 2 inconclusive, 3 internal
criterion disagreement, 4 corpus expectation mismatch (a corpus entry
without a verdict is recorded as inconclusive and counts as one).
No verdict means no reachable zero locus or F undefined where a criterion
must evaluate it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .expr import EvaluationDomainError, ParseError, parse
from .report import (EXIT_CORPUS_MISMATCH, EXIT_INCONCLUSIVE, EXIT_USAGE,
                     MA_FAMILY, OVERALL_EXCEPTIONAL, OVERALL_INCONCLUSIVE,
                     canonical_json, classify_pde, entry_seed, pretty_report)
from .symbol import SamplingError
from .tensor import MAX_N, MIN_N

CLASSIFICATION_TOKENS = ("linear", "quasi-linear", "monge-ampere", "non-ma")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _in_range(convert, ok, rule: str):
    """argparse type: convert the text, then require ok(value)."""
    def parse_value(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}")
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    return parse_value


def _parse_box(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"box must be lo:hi, got {text!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("box bounds must be finite")
    if not lo < hi:
        raise argparse.ArgumentTypeError("box needs lo < hi")
    return (lo, hi)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cepde",
                     description="Classify scalar 2nd-order PDEs: completely "
                                 "exceptional / Monge-Ampere or not.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    cls = sub.add_parser("classify", help="classify a single PDE")
    cls.add_argument("--pde", required=True, help="expression F in jet variables")
    cls.add_argument("--n", type=int, required=True, help="number of independent variables")
    cls.add_argument("--seed", type=_in_range(int, lambda v: v >= 0, ">= 0"),
                     default=0)
    cls.add_argument("--samples", type=_in_range(int, lambda v: v >= 1, ">= 1"),
                     default=64)
    cls.add_argument("--box", type=_parse_box, default=(-2.0, 2.0),
                     metavar="LO:HI", help="coordinate box (default -2:2); "
                     "a negative LO needs the = form, e.g. --box=-1:1")
    cls.add_argument("--tol", default=1e-7, type=_in_range(
        float, lambda v: math.isfinite(v) and v > 0, "finite and > 0"))
    fmt = cls.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON report (default)")
    fmt.add_argument("--pretty", action="store_true", help="human-readable report")
    cls.add_argument("--out", type=Path, help="write the report here instead of stdout")

    cor = sub.add_parser("corpus", help="run a corpus file and check expectations")
    cor.add_argument("--file", required=True, help="corpus JSON (or 'bundled.json')")
    cor.add_argument("--seed", type=int, default=0)
    cor.add_argument("--out", type=Path, help="write the aggregate report here")
    return parser


def _emit(text: str, out: Path | None) -> bool:
    """Write text to stdout or to out; False, after an error line, when out
    cannot be written."""
    if out is None:
        sys.stdout.write(text + "\n")
        return True
    try:
        out.write_text(text + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc.strerror}", file=sys.stderr)
        return False
    return True


def _caret_message(exc: ParseError) -> str:
    lines = [f"error: {exc}"]
    if exc.text:
        lines.append(f"  {exc.text}")
        lines.append("  " + " " * exc.offset + "^")
    return "\n".join(lines)


def run_classify(args) -> int:
    if not MIN_N <= args.n <= MAX_N:
        print(f"error: dimension n must be in {MIN_N}..{MAX_N}, got {args.n}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        parse(args.pde, args.n)
    except ParseError as exc:
        print(_caret_message(exc), file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        outcome = classify_pde(args.pde, args.n, seed=args.seed,
                               samples=args.samples, box=args.box, tol=args.tol)
    except (SamplingError, EvaluationDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    text = (pretty_report(outcome.report) if args.pretty
            else canonical_json(outcome.report))
    if not _emit(text, args.out):
        return EXIT_USAGE
    print(f"[cepde] classified in {outcome.duration:.2f}s "
          f"-> {outcome.report['overall_verdict']}", file=sys.stderr)
    return outcome.exit_code


def resolve_corpus_path(spec: str) -> Path:
    """A real path wins; otherwise 'bundled.json'/'bundled' means the
    packaged corpus."""
    p = Path(spec)
    if p.exists():
        return p
    if spec in ("bundled.json", "bundled"):
        from . import bundled_corpus_path

        return Path(bundled_corpus_path())
    return p


def validate_corpus(entries) -> list[str]:
    """Schema check; returns a list of violations (empty = valid)."""
    problems = []
    if not isinstance(entries, list) or not entries:
        return ["corpus must be a non-empty JSON array of entry objects"]
    seen = set()
    for k, entry in enumerate(entries):
        where = f"entry {k}"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            problems.append(f"{where}: missing or empty 'name'")
        elif name in seen:
            problems.append(f"{where}: duplicate name {name!r}")
        else:
            seen.add(name)
            where = f"entry {name!r}"
        n = entry.get("n")
        if not isinstance(n, int) or not MIN_N <= n <= MAX_N:
            problems.append(f"{where}: 'n' must be an integer in {MIN_N}..{MAX_N}")
            continue
        expression = entry.get("expression")
        if not isinstance(expression, str):
            problems.append(f"{where}: missing 'expression'")
            continue
        try:
            parse(expression, n)
        except (ParseError, ValueError) as exc:
            problems.append(f"{where}: expression does not parse: {exc}")
        if entry.get("expected_classification") not in CLASSIFICATION_TOKENS:
            problems.append(f"{where}: 'expected_classification' must be one of "
                            f"{CLASSIFICATION_TOKENS}")
        if not isinstance(entry.get("expected_exceptional"), bool):
            problems.append(f"{where}: 'expected_exceptional' must be a boolean")
    return problems


def run_corpus(args) -> int:
    import json

    path = resolve_corpus_path(args.file)
    try:
        entries = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:  # missing, a directory, or unreadable
        print(f"error: cannot read corpus file {args.file}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: corpus file is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_USAGE
    problems = validate_corpus(entries)
    if problems:
        for p in problems:
            print(f"schema violation: {p}", file=sys.stderr)
        return EXIT_USAGE

    results = []
    mismatches = []
    total_time = 0.0
    for entry in entries:
        seed = entry_seed(args.seed, entry["name"])
        try:
            outcome = classify_pde(entry["expression"], entry["n"], seed=seed)
        except (SamplingError, EvaluationDomainError) as exc:
            # no verdict: the entry is inconclusive and cannot match
            report, ok = None, False
            actual = {"classification": None, "exceptional": None,
                      "overall_verdict": OVERALL_INCONCLUSIVE}
            mismatches.append(f"{entry['name']}: inconclusive: {exc}")
        else:
            total_time += outcome.duration
            report = outcome.report
            actual_cls = report["monge_ampere"]["classification"]
            actual_exc = report["exceptionality"]["verdict"] == "exceptional"
            actual = {"classification": actual_cls, "exceptional": actual_exc,
                      "overall_verdict": report["overall_verdict"]}
            ok = (actual_cls == entry["expected_classification"]
                  and actual_exc == entry["expected_exceptional"]
                  and (report["overall_verdict"] == OVERALL_EXCEPTIONAL)
                  == (actual_cls in MA_FAMILY))
            if not ok:
                mismatches.append(
                    f"{entry['name']}: expected "
                    f"({entry['expected_classification']}, "
                    f"exceptional={entry['expected_exceptional']}) got "
                    f"({actual_cls}, exceptional={actual_exc}, "
                    f"verdict={report['overall_verdict']!r})")
        results.append({
            "name": entry["name"],
            "expected": {"classification": entry["expected_classification"],
                         "exceptional": entry["expected_exceptional"]},
            "actual": actual,
            "match": ok,
            "seed": seed,
            "report": report,
        })
    aggregate = {
        "tool": "cepde",
        "version": __version__,
        "seed": args.seed,
        "corpus": str(args.file),
        "entry_count": len(results),
        "matched": sum(1 for r in results if r["match"]),
        "all_match": not mismatches,
        "entries": results,
    }
    if not _emit(canonical_json(aggregate), args.out):
        return EXIT_USAGE
    print(f"[cepde] corpus of {len(results)} entries in {total_time:.2f}s, "
          f"{aggregate['matched']} matched", file=sys.stderr)
    if mismatches:
        for m in mismatches:
            print(f"mismatch: {m}", file=sys.stderr)
        return EXIT_CORPUS_MISMATCH
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "classify":
        return run_classify(args)
    return run_corpus(args)


if __name__ == "__main__":
    raise SystemExit(main())
