"""Traced runs: spans recorded around posetmat's layer boundaries, from outside the package.

Each entry of CALL_SITES wraps the name through which one module calls
another, so each span marks a crossing into a layer.  Modules are reached
through `sys.modules`: the package re-exports the `compose` function, so
`import posetmat.compose` would bind the function, not the module.  A call
site that no longer exists is skipped and its layer reports zero calls.

Spans are kept in memory as (name, start, end, parent index).  A span's self
time is its duration minus its children's, so each second is counted once,
in the layer that spent it.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import time

# (module, attribute, span name).  A span name is "<layer>.<function>".
CALL_SITES = (
    # entry points the benchmark itself calls
    ("posetmat", "enumerate_oracle", "enumeration.enumerate_oracle"),
    ("posetmat", "composition_closure", "enumeration.composition_closure"),
    ("posetmat", "emit_catalog", "enumeration.emit_catalog"),
    ("posetmat", "parse_matrix", "io.parse_matrix"),
    ("posetmat", "serialize_matrix", "io.serialize_matrix"),
    ("posetmat", "parse_recipe", "io.parse_recipe"),
    ("posetmat", "eval_recipe", "io.eval_recipe"),
    ("posetmat", "canonical_form", "canon.canonical_form"),
    ("posetmat", "are_isomorphic", "canon.are_isomorphic"),
    ("posetmat", "compose", "compose.compose"),
    # calls between the package's own modules
    ("posetmat.enumeration", "packed_from_masks", "canon.packed_from_masks"),
    ("posetmat.enumeration", "canonical_form", "canon.canonical_form"),
    ("posetmat.enumeration", "compose", "compose.compose"),
    ("posetmat.enumeration", "is_connected", "core.is_connected"),
    ("posetmat.enumeration", "parse_recipe", "io.parse_recipe"),
    ("posetmat.enumeration", "eval_recipe", "io.eval_recipe"),
    ("posetmat.enumeration", "serialize_matrix", "io.serialize_matrix"),
    ("posetmat.canon", "canonical_form", "canon.canonical_form"),
    ("posetmat.compose", "validate_axioms", "core.validate_axioms"),
    ("posetmat.core", "validate_axioms", "core.validate_axioms"),
    ("posetmat.io", "compose", "compose.compose"),
    ("posetmat.io", "validate_axioms", "core.validate_axioms"),
)

CANON_FORMS = ("canon.canonical_form", "canon.packed_from_masks")
GENERATION = ("enumeration.enumerate_oracle", "enumeration.composition_closure")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.seen: set = set()
        self.canon_repeats = 0
        self.compose_invalid = 0
        self.classes = 0
        self.emit_files = 0
        self.emit_bytes = 0

    def install(self) -> None:
        observers = {
            "canon.canonical_form": self._seen_matrix,
            "canon.packed_from_masks": self._seen_masks,
            "compose.compose": self._composed,
            "enumeration.enumerate_oracle": self._enumerated,
            "enumeration.emit_catalog": self._emitted,
        }
        for module_name, attr, name in CALL_SITES:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None)
            if callable(original):
                setattr(module, attr, self._wrap(original, name, observers.get(name)))

    def _wrap(self, original, name, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _seen_matrix(self, args, result) -> None:
        self._note(args[0].rel)

    def _seen_masks(self, args, result) -> None:
        self._note((args[0], tuple(args[1])))

    def _note(self, key) -> None:
        if key in self.seen:
            self.canon_repeats += 1
        else:
            self.seen.add(key)

    def _composed(self, args, result) -> None:
        if not result.valid:
            self.compose_invalid += 1

    def _enumerated(self, args, result) -> None:
        self.classes += result.total

    def _emitted(self, args, result) -> None:
        for entry in os.scandir(args[1]):
            self.emit_files += 1
            self.emit_bytes += entry.stat().st_size

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        canon_ms = []
        candidates = 0
        for index, (name, start, end, parent) in enumerate(spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[index]
            calls[name] = calls.get(name, 0) + 1
            if name in CANON_FORMS:
                canon_ms.append((end - start) * 1000)
                if self._under(index, "enumeration.enumerate_oracle"):
                    candidates += 1

        def busy(*names):
            return sum(self_time.get(n, 0.0) for n in names)

        def layer_busy(layer):
            return sum(t for n, t in self_time.items() if n.startswith(layer + "."))

        canon_calls = sum(calls.get(n, 0) for n in CANON_FORMS)
        compose_calls = calls.get("compose.compose", 0)
        return {
            "enumeration.candidates": candidates,
            "enumeration.classes": self.classes,
            "enumeration.class_yield": self.classes / candidates if candidates else 0.0,
            "enumeration.self_s": busy(*GENERATION),
            "enumeration.emit_busy_s": busy("enumeration.emit_catalog"),
            "enumeration.emit_files": self.emit_files,
            "enumeration.emit_bytes": self.emit_bytes,
            "canon.calls": canon_calls,
            "canon.busy_s": layer_busy("canon"),
            "canon.repeat_share": self.canon_repeats / canon_calls if canon_calls else 0.0,
            "canon.call_p99_ms": percentile(canon_ms, 0.99),
            "compose.calls": compose_calls,
            "compose.busy_s": layer_busy("compose"),
            "compose.invalid": self.compose_invalid,
            "compose.valid_ratio": (
                (compose_calls - self.compose_invalid) / compose_calls if compose_calls else 0.0
            ),
            "core.validate_calls": calls.get("core.validate_axioms", 0),
            "core.validate_busy_s": busy("core.validate_axioms"),
            "core.connected_busy_s": busy("core.is_connected"),
            "io.replay_calls": calls.get("io.eval_recipe", 0),
            "io.replay_busy_s": busy("io.parse_recipe", "io.eval_recipe"),
            "io.parse_busy_s": busy("io.parse_matrix"),
            "io.serialize_busy_s": busy("io.serialize_matrix"),
        }

    def _under(self, index: int, ancestor: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False
