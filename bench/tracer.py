"""Span tracer that wraps cdasim's public functions from outside the package.

Each wrapped call records one span: its name, start and end, and the span
that was open when it began. Spans stay in memory until the run ends, when
``write`` saves them and ``summary`` turns them into per-layer metrics.
A layer's self time is its spans' duration minus the part covered by
their child spans, so the wrappers' own cost lands in the caller's self
time, mostly ``kernel.run``'s.

The ``preferences`` and ``rng`` modules are not wrapped: they are cheap and
count inside their callers' self time. ``PriceGrid.to_value`` is not wrapped
either; it is a single multiplication that the spline loop calls once per
candidate tick, where a wrapper would cost more than the call.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

import numpy as np

# (span name, module, class or None for a module function, attribute)
TARGETS = (
    ("cli.build_config", "cdasim.cli", None, "build_config"),
    ("cli.emit_outputs", "cdasim.cli", None, "emit_outputs"),
    ("kernel.run", "cdasim.kernel", None, "run"),
    ("kernel.schedule_arrivals", "cdasim.kernel", None, "schedule_arrivals"),
    ("kernel.mark_observation", "cdasim.kernel", None, "mark_observation"),
    ("fundamental.value_at", "cdasim.fundamental", "DmrFundamental", "value_at"),
    ("fundamental.value_at", "cdasim.fundamental", "OuFundamental", "value_at"),
    ("fundamental.value_at", "cdasim.fundamental", "MegashockFundamental", "value_at"),
    ("fundamental.value_at", "cdasim.fundamental", "FileFundamental", "value_at"),
    ("estimator.advance", "cdasim.estimator", None, "advance"),
    ("estimator.observe", "cdasim.estimator", None, "observe"),
    ("estimator.project_final", "cdasim.estimator", None, "project_final"),
    ("agents.zi_decide", "cdasim.agents", None, "zi_decide"),
    ("agents.hbl_memory", "cdasim.agents", "OrderHistory", "memory"),
    ("agents.hbl_candidates", "cdasim.agents", None, "hbl_candidate_grid"),
    ("agents.hbl_decide", "cdasim.agents", None, "hbl_decide"),
    ("orderbook.place_limit", "cdasim.orderbook", "OrderBook", "place_limit"),
    ("orderbook.cancel", "cdasim.orderbook", "OrderBook", "cancel"),
    ("prices.to_ticks", "cdasim.prices", "PriceGrid", "to_ticks"),
    ("prices.to_ticks_down", "cdasim.prices", "PriceGrid", "to_ticks_down"),
    ("prices.to_ticks_up", "cdasim.prices", "PriceGrid", "to_ticks_up"),
    ("prices.format", "cdasim.prices", "PriceGrid", "format"),
)

# Counts taken from a call's result: span name -> (counter, function of result).
RESULT_COUNTS = {
    "agents.hbl_memory": ("agents.hbl_memory.rows", len),
    "agents.hbl_candidates": ("agents.hbl_candidates.prices", len),
    "orderbook.cancel": ("orderbook.cancel.hits", lambda event: event is not None),
}


class Tracer:
    """Spans of every call to the TARGETS, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("B")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts = {counter: 0 for counter, _ in RESULT_COUNTS.values()}
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Replace every target with a wrapper that records a span per call."""
        for name, module_name, owner, attr in TARGETS:
            holder = importlib.import_module(module_name)
            if owner is not None:
                holder = getattr(holder, owner)
            original = holder.__dict__[attr]
            self._restore.append((holder, attr, original))
            setattr(holder, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        """Put every original function back."""
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        name_id = self._ids[name]
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter
        counted = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counted is not None:
                self.counts[counted[0]] += counted[1](result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as parallel arrays, in the order their calls began."""
        name = np.frombuffer(self._name, dtype=np.uint8).astype(np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        duration = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(name))
        return {"name": name, "parent": parent, "start": start, "end": end,
                "self": duration - child, "wake": self._wake_ids(name, parent, start, end)}

    def _wake_ids(self, name, parent, start, end) -> np.ndarray:
        """Wake number of each span, 0 outside the kernel's wake loop.

        Each wake makes exactly one ``kernel.mark_observation`` call. The
        ``fundamental.value_at`` call just before it, in the same loop
        iteration, opens the wake; the wake runs until the next one opens.
        The first ``value_at`` after the last wake is the final settlement
        and belongs to no wake.
        """
        wake = np.zeros(len(name), dtype=np.int64)
        marks = np.flatnonzero(name == self._ids["kernel.mark_observation"])
        if len(marks) == 0:
            return wake
        run = parent[marks[0]]
        top = np.flatnonzero(parent == run)  # the kernel's direct calls, in order
        mark_pos = np.searchsorted(top, marks)
        opens = np.zeros(len(top), dtype=np.int64)
        opens[mark_pos - 1] = 1
        top_wake = np.cumsum(opens)
        tail = mark_pos[-1] + 1
        settle = np.flatnonzero(name[top[tail:]] == self._ids["fundamental.value_at"])
        if len(settle):
            top_wake[tail + settle[0]:] = 0
        # Spans begin in index order, so the run's descendants are one index range.
        first, last = run + 1, int(np.searchsorted(start, end[run], side="right"))
        owner = np.searchsorted(top, np.arange(first, last), side="right") - 1
        wake[first:last] = np.where(owner >= 0, top_wake[owner], 0)
        return wake

    def write(self, path: str, spans: dict[str, np.ndarray]) -> None:
        """Save every span, with span names, as an uncompressed .npz file."""
        np.savez(path, names=np.array(json.dumps(self.names)), **spans)

    def summary(self, spans: dict[str, np.ndarray]) -> dict[str, float]:
        """Per-layer self times, call counts and latency percentiles."""
        name, self_s = spans["name"], spans["self"]
        duration = spans["end"] - spans["start"]
        by_name = {n: name == i for n, i in self._ids.items()}  # every target's name

        def self_time(*names: str) -> float:
            return float(sum(self_s[by_name[n]].sum() for n in names))

        def calls(*names: str) -> int:
            return int(sum(by_name[n].sum() for n in names))

        def percentile_us(n: str, q: float) -> float:
            if not by_name[n].any():
                return 0.0
            return float(np.percentile(duration[by_name[n]], q) * 1e6)

        m: dict[str, float] = {}
        for layer in ("agents.hbl_memory", "agents.hbl_decide"):
            m[f"{layer}.self_s"] = self_time(layer)
            m[f"{layer}.calls"] = calls(layer)
            m[f"{layer}.p50_us"] = percentile_us(layer, 50)
            m[f"{layer}.p99_us"] = percentile_us(layer, 99)
        m["agents.hbl_memory.rows"] = self.counts["agents.hbl_memory.rows"]
        m["agents.hbl_candidates.self_s"] = self_time("agents.hbl_candidates")
        m["agents.hbl_candidates.prices"] = self.counts["agents.hbl_candidates.prices"]
        # An uninformed HBL wake falls back to zi_decide; an informed one never calls it.
        decide = np.flatnonzero(by_name["agents.hbl_decide"])
        fallback = spans["parent"][by_name["agents.zi_decide"]]
        m["agents.hbl_decide.informed"] = (
            1.0 - np.isin(decide, fallback).sum() / len(decide) if len(decide) else 0.0)
        m["agents.zi_decide.self_s"] = self_time("agents.zi_decide")
        m["agents.zi_decide.calls"] = calls("agents.zi_decide")
        rounding = ("prices.to_ticks", "prices.to_ticks_down", "prices.to_ticks_up")
        m["prices.self_s"] = self_time(*rounding, "prices.format")
        m["prices.to_ticks.calls"] = calls(*rounding)
        m["prices.format.calls"] = calls("prices.format")
        m["orderbook.place_limit.self_s"] = self_time("orderbook.place_limit")
        m["orderbook.cancel.self_s"] = self_time("orderbook.cancel")
        attempts = calls("orderbook.cancel")
        m["orderbook.cancel.attempts"] = attempts
        m["orderbook.cancel.hits"] = self.counts["orderbook.cancel.hits"]
        m["orderbook.cancel.hit_ratio"] = (
            m["orderbook.cancel.hits"] / attempts if attempts else 0.0)
        m["fundamental.value_at.self_s"] = self_time("fundamental.value_at")
        m["fundamental.value_at.calls"] = calls("fundamental.value_at")
        m["estimator.self_s"] = self_time("estimator.advance", "estimator.observe",
                                          "estimator.project_final")
        m["kernel.mark_observation.self_s"] = self_time("kernel.mark_observation")
        m["kernel.run.self_s"] = self_time("kernel.run")
        m["kernel.schedule_arrivals.self_s"] = self_time("kernel.schedule_arrivals")
        m["kernel.wakes"] = calls("kernel.mark_observation")
        m["cli.emit_outputs.self_s"] = self_time("cli.emit_outputs")
        m["cli.build_config.self_s"] = self_time("cli.build_config")
        m["trace.spans"] = len(name)
        return m
