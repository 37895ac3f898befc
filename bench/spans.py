"""Spans around the public functions of each peterschub layer.

The tracer wraps functions from outside the package: each wrapper replaces
the name in every loaded ``peterschub`` module that holds it, because
``cli``, ``peterson`` and ``billey`` bind names with ``from .x import``.
A span records name, start, end, parent span and the phase it ran in
(``setup`` for building the root systems before the first operation,
``op`` for the measured operations, ``check`` for the benchmark's own
answer checks).  Spans stay in memory; ``summary`` folds them into
per-layer totals at the end of a run.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable

# (module, attribute, span name).  ``_build_cached`` sits behind
# ``build_root_system`` and only its cache misses do work; ``_class_eval``
# is the cached evaluation that ``class_eval`` and the solver call.
TARGETS = (
    ("rootsys", "_build_cached", "rootsys.build"),
    ("weyl", "longest_element_word", "weyl.longest"),
    ("weyl", "is_reduced", "weyl.validate"),
    ("weyl", "element_matrix", "weyl.validate"),
    ("weyl", "inversion_roots", "weyl.inversions"),
    ("weyl", "reduced_words", "weyl.reduced_words"),
    ("billey", "billey_eval_dp", "billey.dp"),
    ("billey", "billey_eval_bruteforce", "billey.oracle"),
    ("peterson", "monk_structure_constants", "peterson.solve"),
    ("peterson", "expansion_residuals", "peterson.residual"),
    ("peterson", "monk_eval", "peterson.monk_eval"),
    ("peterson", "_class_eval", "peterson.class_eval"),
    ("cli", "main", "cli.main"),
)

# lru caches whose hit ratios are reported, by (module, attribute).
CACHES = {
    "billey.pattern_cache": ("billey", "_patterns"),
    "peterson.class_cache": ("peterson", "_class_eval"),
}

WORD_CAP_MARK = "reduced words"


def package_module(short: str) -> Any:
    return sys.modules.get(f"peterschub.{short}")


def cache_counts(originals: dict[str, Any] | None = None) -> dict[str, tuple[int, int]]:
    """(hits, misses) of each reported cache, read from the unwrapped objects."""
    out = {}
    for label, (mod_name, attr) in CACHES.items():
        obj = (originals or {}).get(f"{mod_name}.{attr}")
        if obj is None:
            mod = package_module(mod_name)
            obj = getattr(mod, attr, None) if mod is not None else None
        info = obj.cache_info() if hasattr(obj, "cache_info") else None
        out[label] = (info.hits, info.misses) if info else (0, 0)
    return out


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        # name, start_ns, end_ns, parent index (-1 at top level), phase
        self.spans: list[tuple[str, int, int, int, str]] = []
        self.stack: list[int] = []
        self.phase = "op"
        self.counts: dict[str, int] = {}
        self.originals: dict[str, Any] = {}
        self.word_counts: dict[tuple[str, tuple[int, ...]], int] = {}

    def count(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def install(self) -> None:
        """Wrap every target that the loaded package defines."""
        for mod_name, attr, span in TARGETS:
            mod = package_module(mod_name)
            if mod is None or not hasattr(mod, attr):
                continue
            original = getattr(mod, attr)
            self.originals[f"{mod_name}.{attr}"] = original
            wrapper = self._wrap(span, original)
            for name, other in list(sys.modules.items()):
                if name == "peterschub" or name.startswith("peterschub."):
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)

    def _wrap(self, span: str, fn: Callable) -> Callable:
        tracer = self
        after = {
            "rootsys.build": self._after_build,
            "weyl.reduced_words": self._after_reduced_words,
            "billey.dp": self._after_dp,
        }.get(span)
        is_build = span == "rootsys.build"

        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses if is_build else 0
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append((span, 0, 0, parent, tracer.phase))
            tracer.stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if (span == "weyl.reduced_words" and tracer.phase == "op"
                        and WORD_CAP_MARK in str(exc)):
                    tracer.count("weyl.rejects")
                raise
            finally:
                end = time.perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[index] = (span, start, end, parent, tracer.phase)
            if after is not None:
                after(index, args, result, misses)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _after_build(self, index: int, args: tuple, result: Any, misses: int) -> None:
        # A cache hit does no work: relabel its span so it is not counted.
        fn = self.originals["rootsys._build_cached"]
        if fn.cache_info().misses == misses:
            name, start, end, parent, phase = self.spans[index]
            self.spans[index] = ("rootsys.build_hit", start, end, parent, phase)
        elif self.phase != "check":
            self.count("rootsys.build_calls")

    def _after_reduced_words(self, index: int, args: tuple, result: Any, misses: int) -> None:
        rs, word = args[0], tuple(args[1])
        self.word_counts[(str(rs.label), word)] = len(result)
        if self.phase == "op":
            self.count("weyl.reduced_words_out", len(result))

    def _after_dp(self, index: int, args: tuple, result: Any, misses: int) -> None:
        if self.phase != "op":
            return
        rs, v, w = args[0], tuple(args[1]), tuple(args[2])
        self.count("billey.dp_calls")
        patterns = self.word_counts.get((str(rs.label), v))
        if patterns is None:
            self.count("billey.dp_unsized")
        else:
            self.count("billey.dp_cells", patterns * len(w))

    def inclusive_ns(self, names: set[str], phases: tuple[str, ...] = ("op",)) -> int:
        """Wall time inside any of ``names``, not counting nested repeats."""
        total = 0
        for name, start, end, parent, phase in self.spans:
            if name in names and phase in phases and not self._inside(parent, names):
                total += end - start
        return total

    def self_ns(self, name: str) -> int:
        """Time in ``name`` spans minus the time of their direct child spans."""
        child_time: dict[int, int] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0) + end - start
        return sum(
            end - start - child_time.get(i, 0)
            for i, (span, start, end, _, phase) in enumerate(self.spans)
            if span == name and phase == "op"
        )

    def _inside(self, parent: int, names: set[str]) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def summary(self) -> dict[str, float]:
        """Per-layer totals of this process: times in ms, counts as numbers."""
        ms = 1e-6
        out = {
            "rootsys.build_ms": self.inclusive_ns({"rootsys.build"}, ("op", "setup")) * ms,
            "weyl.longest_ms": self.inclusive_ns({"weyl.longest"}) * ms,
            "weyl.validate_ms": self.inclusive_ns({"weyl.validate"}) * ms,
            "weyl.inversions_ms": self.inclusive_ns({"weyl.inversions"}) * ms,
            "weyl.reduced_words_ms": self.inclusive_ns({"weyl.reduced_words"}) * ms,
            "billey.dp_ms": self.inclusive_ns({"billey.dp"}) * ms,
            "billey.oracle_ms": self.inclusive_ns({"billey.oracle"}, ("op", "check")) * ms,
            "peterson.solve_ms": self.self_ns("peterson.solve") * ms,
            "peterson.residual_ms": self.inclusive_ns({"peterson.residual"}) * ms,
            "peterson.monk_eval_ms": self.inclusive_ns({"peterson.monk_eval"}) * ms,
            "peterson.class_eval_ms": self.inclusive_ns({"peterson.class_eval"}) * ms,
            "cli.self_ms": self.self_ns("cli.main") * ms,
        }
        for name in ("rootsys.build_calls", "weyl.reduced_words_out", "weyl.rejects",
                     "billey.dp_calls", "billey.dp_cells", "billey.dp_unsized"):
            out[name] = self.counts.get(name, 0)
        return out
