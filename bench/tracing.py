"""Tracing from outside the package.

The tracer replaces module-namespace names that the layers call through
(for example ``counting.enumerate_delta_near`` or ``harness.classify_counts``)
with wrappers that record one span per call: name, start, end, the span that
caused it, the item (cell, point or table) being processed and, for some
probes, a work count read off the call's result.  Spans stay in memory and
are written out once the pass has ended.  The original functions are
restored when the ``with`` block exits.

``summary()`` reduces the spans to what the per-layer metrics need: calls,
inclusive and self seconds per span name (self = a span's duration minus
the time its direct children cover), summed work counts, and the cell and
search-point durations.
"""

import functools
import json
import time

from cuspnorm import bounds, conjugation, counting, cusps, harness, hecke

from workloads import gap_outcome


def _one_if_none(res) -> int:
    return int(res is None)


def _one_if_searched(res) -> int:
    return int(gap_outcome(res) != "construction")


# (module, attribute, span name, work count of the result or None)
PROBES = (
    (harness, "_run_cell", "harness.cell", _one_if_none),
    (harness, "sample_point_in_g", "harness.sample", None),
    (harness, "classify_counts", "counting.classify", None),
    (harness, "amplified_count_sum", "counting.amplified", None),
    (harness, "bound_rhs_ampl", "bounds.bound_rhs", None),
    (counting, "enumerate_delta_near", "counting.enumerate", len),
    (conjugation, "gap_reduce", "conjugation.gap_reduce", _one_if_searched),
    (conjugation, "fd_reduce", "modgroup.fd_reduce", None),
    (conjugation, "width_one_conjugate", "conjugation.width_one", None),
    (conjugation, "local_profile", "cusps.local_profile", None),
    (conjugation, "mobius_act", "modgroup.mobius_act", None),
    (conjugation, "verify_gap_certificate", "conjugation.lattice_target", None),
    (conjugation, "verify_gap_provable", "conjugation.lattice_provable", None),
    (conjugation, "_first_column_candidates", "conjugation.candidates", len),
    (hecke, "coset_reps_delta", "hecke.coset_reps", lambda t: t.count),
    (hecke, "coset_count_invariance", "hecke.count_invariance", None),
    (hecke, "conjugation_invariance", "hecke.conjugation_invariance",
     lambda r: r.checked),
    (cusps, "enumerate_cusps", "cusps.enumerate_cusps", None),
    (bounds, "theorem_pipeline", "bounds.pipeline", None),
)


class Tracer:
    """Records spans for the probed calls while active (a context manager)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, item, work]
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a span without a parent starts an item; its index names the item
            parent, item = (stack[-1], stack[0]) if stack else (-1, len(spans))
            record = [name, clock(), 0.0, parent, item, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                res = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if work is not None:
                record[5] = work(res)
            return res

        return traced

    def __enter__(self):
        for module, attr, name, work in PROBES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, work))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    def summary(self) -> dict:
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        work: dict[str, int] = {}
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _item, _work in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        cells, searched = [], []
        for idx, (name, start, end, _parent, _item, count) in enumerate(self.spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - covered[idx]
            if count is not None:
                work[name] = work.get(name, 0) + count
            if name == "harness.cell":
                cells.append(dur)
            elif name == "conjugation.gap_reduce" and count:
                searched.append(dur)
        return {
            "calls": calls,
            "total": total,
            "self": self_s,
            "work": work,
            "cells": cells,
            "searched": searched,
        }

