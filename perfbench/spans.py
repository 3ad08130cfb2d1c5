"""A span and counter tracer that wraps cepde's public functions from outside.

``Tracer.install()`` replaces each target function, in every cepde module
that binds it, with a wrapper that records a span (name, start, end, parent)
and, for some targets, counts taken from the arguments or the result.
``Tracer.uninstall()`` puts the originals back.  Spans stay in memory until
``Tracer.drain()`` folds them into per-name totals.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans of its module.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _count_batch(counts, args, result):
    counts["backend.batch_rows"] += len(args[2])
    counts["backend.batch_error_rows"] += int(np.count_nonzero(result[1] >= 0))


def _count_locus(counts, args, result):
    counts["symbol.locus_samples"] += len(result)


def _count_json(counts, args, result):
    counts["report.json_bytes"] += len(result.encode("utf-8"))


# (module, attribute path, record nested calls of the same name, counter)
# Targets are the public functions the classify pipeline goes through.
TARGETS = (
    ("cli", "main", True, None),
    ("report", "classify_pde", True, None),
    ("report", "canonical_json", False, _count_json),  # recursive: top level only
    ("expr", "parse", True, None),
    ("expr", "differentiate", True, None),
    ("expr", "swap_xy", True, None),
    ("backend", "compile_expr", True, None),
    ("backend", "eval_vector", True, None),
    ("backend", "eval_vector_or_nan", True, None),
    ("backend", "eval_batch", True, _count_batch),
    ("symbol", "principal_symbol", True, None),
    ("symbol", "second_symbol", True, None),
    ("symbol", "sample_zero_locus", True, _count_locus),
    ("symbol", "exceptionality_at_point", True, None),
    ("symbol", "is_completely_exceptional", True, None),
    ("tensor", "factor_quartic", True, None),
    ("tensor", "multiply_quadratics", True, None),
    ("tensor", "MinorBasis.evaluate", True, None),
    ("ma", "classify", True, None),
    ("ma", "fit_minor_expansion", True, None),
    ("charvar", "char_poly_coeffs", True, None),
    ("charvar", "characteristic_speeds", True, None),
    ("charvar", "speed_gradient", True, None),
    ("charvar", "lax_residual", True, None),
    ("charvar", "strong_char_test", True, None),
    ("charvar", "hyperbolicity_scan", True, None),
    ("charvar", "equivalence_report", True, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, nested: bool, count):
        spans, stack, open_names, counts = (self.spans, self._stack, self._open,
                                            self.counts)

        def traced(*args, **kwargs):
            if not nested and open_names[name]:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_names[name] -= 1
                stack.pop()
                span[2] = perf_counter()
            if count is not None:
                count(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "cepde" or key.startswith("cepde."))]
        for module_name, path, nested, count in TARGETS:
            owner = sys.modules[f"cepde.{module_name}"]
            name = f"{module_name}.{path}"
            if "." in path:  # a method: patch the class attribute
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, nested, count))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, nested, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def drain(self) -> dict[str, dict[str, float]]:
        """Fold the recorded spans into {name: {"calls", "total_s", "self_s"}}
        and forget them.  total_s counts only the outermost span of a name
        (a function reached again below itself is not counted twice)."""
        spans = self.spans
        if self._stack:
            raise RuntimeError("drain() called with spans still open")
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for k, (name, start, end, parent) in enumerate(spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[k]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["total_s"] += end - start
        spans.clear()
        return out
