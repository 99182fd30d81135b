"""Span tracing of dstc's public functions, installed from outside the package.

Each traced function is replaced, for the duration of a ``Tracer`` context,
at every module attribute of ``dstc`` that refers to it (its definition site
and every ``from ... import`` site), so calls that go through any of those
names are recorded.  A span is ``(name, start, end, parent)`` where
``parent`` is the index of the enclosing span or -1.  Spans stay in memory;
``write`` dumps them once the run is over.

``numpy.linalg.svd`` is counted, not spanned: it is called inside the traced
functions often enough that a span per call would cost more than the call.
Both the public name and numpy's own module global are wrapped, so SVDs made
inside ``pinv``, ``cond`` and ``matrix_rank`` are counted too.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# "<module>.<function>" relative to the dstc package.
TRACED = (
    "configio.load_config",
    "dimming.build_dimming_matrix",
    "dimming.transmit_block",
    "dimming.validate_dimming_matrix",
    "channel.draw_channel",
    "channel.propagate",
    "channel.unfold",
    "csk.block_with_reference",
    "csk.demodulate",
    "csk.payload_bits",
    "linalg.leading_singular_triplet",
    "linalg.pseudoinverse",
    "linalg.kruskal_rank",
    "receivers.zf_estimate_channel",
    "receivers.zf_detect",
    "receivers.krf_detect",
    "receivers.plain_csk_baseline",
    "identifiability.check_uniqueness",
    "experiments.run_trial",
    "experiments.run_point",
    "experiments.check_scenario_identifiability",
    "experiments.audit_power_color",
    "experiments.write_curves_csv",
)


class Tracer:
    """Context manager that installs span-recording wrappers and removes them."""

    def __init__(self):
        self.spans: list = []
        self.svd_calls = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def _count_svd(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.svd_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        import numpy.linalg

        originals = {}
        self.absent = []
        for name in TRACED:
            module_name, _, fn_name = name.partition(".")
            try:
                module = importlib.import_module(f"dstc.{module_name}")
            except ImportError:
                module = None
            fn = getattr(module, fn_name, None)
            if callable(fn):
                originals[id(fn)] = (fn, self._span(name, fn))
            else:
                self.absent.append(name)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "dstc" or module_name.startswith("dstc.")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        svd = numpy.linalg.svd
        counted = self._count_svd(svd)
        self._patch(numpy.linalg, "svd", counted)
        internal = getattr(numpy.linalg, "_linalg", None)
        if internal is not None and getattr(internal, "svd", None) is svd:
            self._patch(internal, "svd", counted)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per name: call count, total (inclusive) seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; names that were never called are absent from the result.
        """
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["total_s"] += end - start
            t["self_s"] += end - start - child[idx]
        return out

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def write(self, path) -> None:
        """One JSON object per line: name, start, end (seconds) and parent index."""
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
