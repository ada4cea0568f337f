"""Outside-in span tracing for the traced benchmark pass.

Nothing in ``src/`` knows about this: :func:`install` replaces the public
entry points of each layer (see :func:`targets`) with timing wrappers for
the duration of a ``with`` block and puts the original objects back
afterwards. Spans stay in memory as parallel lists (one list per column)
and are turned into arrays once, by :meth:`Tracer.table`.

A span records its name, start, end, the span that was open when it
started (its parent) and the engine step it ran in. A layer's *self*
time is its span's duration minus the durations of its direct children,
so the self times of all spans under one root partition that root's wall
time exactly.
"""

from __future__ import annotations

import copy
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Span name of the root the pass driver opens around one traced pass.
ROOT = "pass"


class Tracer:
    """Columnar in-memory span recorder."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.step: list[int] = []
        #: One free number per span (rows of an ``execute`` call, tokens a
        #: placement matched) and one free label (plan shape, request id).
        self.x: list[float] = []
        self.tag: list[str | tuple | None] = []
        self._stack: list[int] = []
        self._steps = 0
        self._current_step = -1

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.step.append(self._current_step)
        self.x.append(0.0)
        self.tag.append(None)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        """Record a span from the benchmark's own code (the pass root,
        the load generator's sleep)."""
        index = self._open(self._name_id(label))
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        label: str,
        fn: Callable,
        note: Callable | None = None,
        is_step: bool = False,
    ) -> Callable:
        """*fn* with a span around every call.

        *note*, when given, is called as ``note(result, *args, **kwargs)``
        after a call that returned, once its span is closed (so the span
        times the program, not the tracer), and yields the span's
        ``(x, tag)``. *is_step* marks the engine-step entry point: every
        span opened inside it carries that step's index.
        """
        name_id = self._name_id(label)

        def wrapper(*args, **kwargs):
            if is_step:
                self._current_step = self._steps
                self._steps += 1
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                if is_step:
                    self._current_step = -1
            # A call nested in one of its own name (a routing policy that
            # falls back on another) is noted once, by the outer call: a
            # note taken here would be timed by the outer span.
            nested = self._stack and self.name[self._stack[-1]] == name_id
            if note is not None and not nested:
                self.x[index], self.tag[index] = note(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def table(self) -> "SpanTable":
        return SpanTable(
            names=list(self.names),
            name=np.array(self.name, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            step=np.array(self.step, dtype=np.int64),
            x=np.array(self.x, dtype=np.float64),
            tag=list(self.tag),
        )


@dataclass
class SpanTable:
    """The recorded spans as arrays, plus the derived self times."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    step: np.ndarray
    x: np.ndarray
    tag: list

    def __post_init__(self) -> None:
        self.duration = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent],
            weights=self.duration[has_parent],
            minlength=self.name.size,
        )
        self.self_time = self.duration - covered

    def mask(self, *labels: str) -> np.ndarray:
        ids = [self.names.index(l) for l in labels if l in self.names]
        return np.isin(self.name, ids)

    def under(self, *labels: str) -> np.ndarray:
        """Spans with an ancestor (or themselves) named one of *labels*."""
        inside = self.mask(*labels)
        # A parent is always recorded before its children, so one pass in
        # index order sees every parent's answer before it is needed.
        for i in np.flatnonzero(self.parent >= 0):
            if inside[self.parent[i]]:
                inside[i] = True
        return inside

    @classmethod
    def from_json(cls, path) -> "SpanTable":
        """The spans of a trace file written by :meth:`to_json`."""
        with open(path) as fh:
            payload = json.load(fh)
        spans = payload["spans"]
        return cls(
            names=payload["names"],
            tag=spans["tag"],
            **{
                column: np.array(spans[column], dtype=dtype)
                for column, dtype in (
                    ("name", np.int64), ("start", np.float64),
                    ("end", np.float64), ("parent", np.int64),
                    ("step", np.int64), ("x", np.float64),
                )
            },
        )

    def to_json(self, path, workload: str, requests: list[dict]) -> None:
        """Write the trace file (see bench/README.md, "Reading a trace")."""
        payload = {
            "workload": workload,
            "clock": "time.perf_counter seconds",
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "step": self.step.tolist(),
                "x": self.x.tolist(),
                "tag": self.tag,
            },
            "requests": requests,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _note_execute(_result, _backend, plan, config, activations, _table=None):
    """Rows and plan shape of one ``backend.execute`` call — what the
    computed MAC and byte counts in ``bench.metrics`` are derived from."""
    return float(len(activations)), (plan.n, plan.kdim, plan.bits, config.k)


def _note_place(worker, _policy, request, context):
    """Tokens of the placed prompt the chosen worker's shadow index
    covered when it was chosen (the router records the prompt only after
    ``place`` returns). ``match`` re-touches what it matches, so it is
    asked of a copy: the traced run places exactly as the untraced one."""
    shadow = copy.deepcopy(context.shadows[worker])
    return float(shadow.match(request.prompt)), request.request_id


def targets() -> list[tuple[object, str, str, Callable | None, bool]]:
    """``(owner, attribute, span name, note, is_step)`` for every wrapped
    entry point. Owners are the classes and modules where the product
    code looks the callable up, so a wrapper there is seen by every call.
    """
    import repro.lut.mpgemm as mpgemm
    import repro.runtime.model as model
    import repro.runtime.paging as paging
    from repro.kernels import available_backends, get_backend
    from repro.runtime import (
        DecoderModel,
        InlineWorkerHandle,
        PagedLayerCache,
        QuantizedLinear,
        ServingEngine,
    )
    from repro.runtime.routing import ROUTING_POLICIES
    from repro.runtime.scheduler import PREEMPTION_POLICIES, SCHEDULERS

    out = [
        (ServingEngine, "step", "engine.step", None, True),
        (DecoderModel, "prefill", "model.prefill", None, False),
        (DecoderModel, "decode_batch", "model.decode_batch", None, False),
        (DecoderModel, "verify_batch", "model.verify_batch", None, False),
        (QuantizedLinear, "__call__", "linear.call", None, False),
        (mpgemm, "precompute_tables", "table.precompute", None, False),
        (paging, "precompute_tables", "table.precompute", None, False),
        (model, "batched_decode_append", "paging.append", None, False),
        (PagedLayerCache, "append", "paging.append", None, False),
        (model, "fused_paged_decode_attention", "paging.attention", None, False),
        (model, "fused_paged_verify_attention", "paging.attention", None, False),
        (InlineWorkerHandle, "pump", "cluster.pump", None, False),
    ]
    for registry, attr, label, note in (
        (SCHEDULERS, "select", "scheduler.select", None),
        (PREEMPTION_POLICIES, "select_victims", "scheduler.victims", None),
        (ROUTING_POLICIES, "place", "routing.place", _note_place),
    ):
        out += [(cls, attr, label, note, False) for cls in registry.values()]
    out += [
        (type(get_backend(name)), "execute", "kernel.execute", _note_execute, False)
        for name in available_backends()
    ]
    return out


def _defining_owner(owner, attr: str):
    """The object whose own namespace holds *attr* (a base class when the
    attribute is inherited)."""
    for candidate in getattr(owner, "__mro__", (owner,)):
        if attr in vars(candidate):
            return candidate
    raise AttributeError(f"{owner!r} has no attribute {attr!r}")


@contextmanager
def install(tracer: Tracer):
    """Wrap every target for the duration of the block; always restore.

    Yields the ``(owner, attribute, original)`` triples it replaced, so a
    caller can check afterwards that each is back in place.
    """
    replaced: list[tuple[object, str, object]] = []
    seen: set[tuple[int, str]] = set()
    try:
        for owner, attr, label, note, is_step in targets():
            owner = _defining_owner(owner, attr)
            if (id(owner), attr) in seen:
                continue
            seen.add((id(owner), attr))
            original = vars(owner)[attr]
            replaced.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(label, original, note, is_step))
        yield replaced
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
