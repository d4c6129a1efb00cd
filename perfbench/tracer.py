"""Span recorder that traces clawtrace from outside, without editing it.

Each probe names one function of one clawtrace module.  Installing the
recorder replaces that function by a wrapper at every import site: a
``from .x import f`` copies the name into each consumer module, so every
module under ``clawtrace`` whose attribute is the original function gets the
wrapper.  (``import clawtrace.verify`` yields the ``verify`` function, not
the module, so modules are reached through ``sys.modules``.)

A timed probe records one span per call: its name, start, end and parent
span, kept in flat in-memory arrays and written out once at the end.  The
self time of a span is its duration minus the time its child spans cover;
since the traced program runs in one thread, child spans are disjoint and
nested, so that is the duration minus the sum of the child durations.  An
untimed probe only counts calls.  Probes may also tally their arguments or
result into named counters.
"""
from __future__ import annotations

import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ROOT_SPAN = -1


@dataclass(frozen=True)
class Probe:
    module: str
    attr: str
    span: str
    timed: bool = True
    # tally(counters, args, result) adds to the recorder's counters
    tally: Optional[Callable[[dict, tuple, object], None]] = None


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._stack = [ROOT_SPAN]
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self, probes: list[Probe]) -> None:
        for probe in probes:
            original = getattr(sys.modules[probe.module], probe.attr)
            wrapper = self._wrap(original, probe)
            sites = 0
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "clawtrace" or name.startswith("clawtrace.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
                        sites += 1
            if sites == 0:
                raise RuntimeError(f"probe {probe.module}.{probe.attr} found no import site")

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def _wrap(self, fn, probe: Probe):
        span = probe.span
        self.calls.setdefault(span, 0)
        tally = probe.tally
        counters = self.counters
        calls = self.calls
        if not probe.timed:
            def counted(*args, **kwargs):
                calls[span] += 1
                result = fn(*args, **kwargs)
                if tally is not None:
                    tally(counters, args, result)
                return result

            return counted

        nid = self._name_ids.setdefault(span, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(span)
        stack = self._stack
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def timed(*args, **kwargs):
            calls[span] += 1
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if tally is not None:
                tally(counters, args, result)
            return result

        return timed

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time, in seconds, of every span name."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        covered = np.zeros_like(dur)
        nested = parent != ROOT_SPAN
        np.add.at(covered, parent[nested], dur[nested])
        own = dur - covered
        totals = np.bincount(names, weights=own, minlength=len(self.names))
        return {name: float(totals[i]) for i, name in enumerate(self.names)}

    def count_children(self, child: str, parent: str) -> int:
        """How many spans named child were opened directly inside a span
        named parent."""
        if child not in self._name_ids or parent not in self._name_ids:
            return 0
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        is_child = names == self._name_ids[child]
        nested = is_child & (parents != ROOT_SPAN)
        return int(np.count_nonzero(names[parents[nested]] == self._name_ids[parent]))

    def write(self, path: str) -> None:
        """Write every span to an .npz file: name ids, span names, parent
        index (-1 for top-level spans), start and end in seconds."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
