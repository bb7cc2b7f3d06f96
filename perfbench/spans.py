"""Span tracer for the benchmark's traced run.

The tracer wraps public methods on live engine objects from outside the
engine: each wrapper records a span (name, parent span, start, end) into flat
integer arrays, so tracing itself adds no objects the garbage collector has to
track.  Garbage-collector pauses are recorded through `gc.callbacks` and
attributed to the root span (the update or read) they landed in.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Callable

import numpy as np

UPDATE_SPAN = "pipeline.handle_update"


class Tracer:
    """In-memory span recorder; `attach` wraps a pipeline, `detach` unwraps it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # Sum of `measure(result)` per span name (rows returned, effective calls).
        self.measured: dict[str, int] = {}
        self.gc_gen = array("b")
        self.gc_start = array("q")
        self.gc_end = array("q")
        self.gc_root = array("q")
        self._stack: list[int] = []
        self._gc_t0 = 0
        self._wrapped: list[tuple[object, str]] = []

    # -- recording -------------------------------------------------------

    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        measure: Callable[[object], int] | None = None,
    ) -> None:
        """Shadow `obj.attr` with a wrapper that records one span per call."""
        fn = getattr(obj, attr)
        if name not in self.names:
            self.names.append(name)
            self.measured[name] = 0
        nid = self.names.index(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        measured = self.measured
        clock = time.perf_counter_ns

        def traced(*args):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args)
            finally:
                ends[sid] = clock()
                stack.pop()
            if measure is not None:
                measured[name] += measure(result)
            return result

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))

    def attach(self, pipe) -> None:
        """Wrap every layer boundary of `pipe` and start recording gc pauses."""
        self.wrap(pipe.inst, "admit_edge", "core.admit_edge")
        self.wrap(pipe.inst, "retire_edge", "core.retire_edge")
        self.wrap(pipe.base, "apply_insert", "rgmm.base.apply_insert")
        self.wrap(pipe.base, "apply_delete", "rgmm.base.apply_delete")
        self.wrap(pipe.base, "neighbors_above", "rgmm.base.neighbors_above", len)
        for ls in pipe.levels.values():
            self.wrap(ls.state, "apply_insert", "rgmm.level.apply_insert")
            self.wrap(ls.state, "apply_delete", "rgmm.level.apply_delete")
        self.wrap(pipe, "update_roles", "pipeline.update_roles")
        self.wrap(pipe, "rebuild_memberships", "pipeline.rebuild_memberships")
        self.wrap(pipe.union, "add", "finalmatch.add", bool)
        self.wrap(pipe.union, "remove", "finalmatch.remove", bool)
        self.wrap(pipe.union, "matching", "finalmatch.matching")
        self.wrap(pipe, "handle_update", UPDATE_SPAN)
        gc.callbacks.append(self._on_gc)

    def detach(self) -> None:
        """Stop recording gc pauses and restore the wrapped methods."""
        gc.callbacks.remove(self._on_gc)
        for obj, attr in self._wrapped:
            delattr(obj, attr)

    def _on_gc(self, phase: str, info: dict) -> None:
        now = time.perf_counter_ns()
        if phase == "start":
            self._gc_t0 = now
            return
        self.gc_gen.append(info["generation"])
        self.gc_start.append(self._gc_t0)
        self.gc_end.append(now)
        self.gc_root.append(self._stack[0] if self._stack else -1)

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        fields = ("span_name", "span_parent", "span_start", "span_end",
                  "gc_gen", "gc_start", "gc_end", "gc_root")
        return {f: np.array(getattr(self, f)) for f in fields}

    def summary(self) -> dict[str, tuple[float, str]]:
        """Per-span calls and self time and the gc figures, as (value, unit).

        Self time is a span's duration minus the durations of its direct
        children (children nest inside their parent on one thread).
        """
        a = self.arrays()
        name, parent = a["span_name"], a["span_parent"]
        dur = (a["span_end"] - a["span_start"]).astype(np.float64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_total = np.bincount(name, weights=self_ns, minlength=len(self.names))
        out: dict[str, tuple[float, str]] = {}
        for nid, span in enumerate(self.names):
            out[f"{span}.calls"] = (int(calls[nid]), "count")
            out[f"{span}.self_ms"] = (float(self_total[nid]) / 1e6, "ms")
        out["rgmm.base.neighbors_above.rows"] = (
            self.measured["rgmm.base.neighbors_above"], "count")
        effective = self.measured["finalmatch.add"] + self.measured["finalmatch.remove"]
        union_calls = int(calls[self.names.index("finalmatch.add")]
                          + calls[self.names.index("finalmatch.remove")])
        out["finalmatch.effective_share"] = (
            effective / union_calls if union_calls else 0.0, "ratio")

        gen, root = a["gc_gen"], a["gc_root"]
        pause_ms = (a["gc_end"] - a["gc_start"]) / 1e6
        for g in range(3):
            out[f"gc.collections.gen{g}"] = (int(np.count_nonzero(gen == g)), "count")
            out[f"gc.pause_ms.gen{g}"] = (float(pause_ms[gen == g].sum()), "ms")
        out["gc.pause_max_ms"] = (float(pause_ms.max()) if len(pause_ms) else 0.0, "ms")
        update = self.names.index(UPDATE_SPAN)
        root_name = np.where(root >= 0, name[np.maximum(root, 0)], -1)
        out["gc.pauses_in_updates"] = (int(np.count_nonzero(root_name == update)), "count")
        return out

    def rebuild_level_inserts(self) -> int:
        """Level-graph inserts made inside `rebuild_memberships` (the probe yield's numerator)."""
        name = np.array(self.span_name)
        parent = np.array(self.span_parent)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        rebuild = self.names.index("pipeline.rebuild_memberships")
        level_ins = self.names.index("rgmm.level.apply_insert")
        return int(np.count_nonzero((name == level_ins) & (parent_name == rebuild)))

    def write(self, path) -> None:
        """Write the raw spans and gc pauses (with their root span) as .npz."""
        np.savez(path, names=np.array(self.names), **self.arrays())
