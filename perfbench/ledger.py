"""Per-layer host-time ledger: spans at the simulator's layer boundaries.

The simulator keeps no timers of its own, so the benchmark times calls
into each layer from outside: :meth:`Ledger.install` replaces a layer's
entry point, at class level, with a wrapper that records a span (name,
start, duration) and accumulates per-layer call counts, total time and
self time (span minus the spans nested inside it).  Class level matters:
``MemoryHierarchy`` uses ``__slots__`` and the hot loops bind objects
into locals, so only a class attribute reached before ``System`` is
built is seen by every call.  :meth:`Ledger.uninstall` restores the
originals.

Spans stay in memory and are written out once, at the end, as
Chrome trace-event JSON (the format ``repro trace`` writes, so both
open in chrome://tracing or ui.perfetto.dev).  Coarse spans (build,
run, cells, cache I/O) are always kept; the hot ones (TLB slow path,
walks, hierarchy and DRAM accesses, prefault faults) are kept up to
``hot_span_cap`` and only counted beyond it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Layer boundaries: (span name, module, class or None for a module
#: function, attribute, hot).  Hot boundaries run per simulated event.
#: ``DramModel.drain_write_fast`` (posted write-backs) is timed as DRAM
#: too, so the DRAM layer's self time covers every device call.
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], str, bool], ...] = (
    ("workloads.gen", "repro.workloads.base", "Workload",
     "stream_chunks", False),
    ("vm.prefault", "repro.vm.os_model", "OSMemoryManager",
     "ensure_mapped", True),
    ("sim.build", "repro.sim.system", "System", "__init__", False),
    ("sim.run", "repro.sim.system", "System", "run", False),
    ("sim.collect", "repro.sim.runner", None, "collect", False),
    ("mmu.slow", "repro.mmu.mmu", "Mmu", "_translate_slow", True),
    ("mmu.walk", "repro.mmu.walker", "PageTableWalker",
     "walk_from_plan", True),
    ("mem.hierarchy", "repro.mem.hierarchy", "MemoryHierarchy",
     "access_fast", True),
    ("mem.dram", "repro.mem.dram", "DramModel", "access_fast", True),
    ("mem.dram", "repro.mem.dram", "DramModel", "drain_write_fast",
     True),
    ("sweep.cell", "repro.sim.backends.serial", "SerialBackend",
     "dispatch", False),
    ("cache.store", "repro.analysis.cache", "ResultCache", "store",
     False),
    ("cache.load", "repro.analysis.cache", "ResultCache", "load",
     False),
)

#: The boundaries an untraced run times: two spans per simulated cell,
#: so a sweep can report its set-up and run walls at no measurable cost.
CELL_TIMERS = ("sim.build", "sim.run")

#: Generator-returning entry points: the span is each ``next``.
_ITERATORS = {"workloads.gen"}


class LayerStats:
    """Calls, total time and self time of one layer."""

    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Ledger:
    """Spans and per-layer counters for one traced process."""

    def __init__(self, hot_span_cap: int = 50_000,
                 clock=time.perf_counter):
        self.hot_span_cap = hot_span_cap
        self.clock = clock
        self.layers: Dict[str, LayerStats] = {}
        self.spans: List[Tuple[str, float, float]] = []
        self.hot_spans = 0
        self.dropped = 0
        # Child-time accumulators of the open spans; the bottom slot
        # absorbs top-level spans.
        self._stack: List[float] = [0.0]
        self._patched: List[Tuple[object, str, object]] = []

    # -- counters ------------------------------------------------------

    def stats(self, name: str) -> LayerStats:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = LayerStats()
        return layer

    def reset_counters(self) -> None:
        """Zero every layer's counters (spans are kept)."""
        for layer in self.layers.values():
            layer.calls = 0
            layer.total = 0.0
            layer.self_time = 0.0

    def snapshot(self) -> Dict[str, Tuple[int, float, float]]:
        return {name: (s.calls, s.total, s.self_time)
                for name, s in self.layers.items()}

    # -- wrappers ------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool = False):
        """``fn`` with a span around every call."""
        clock = self.clock
        stack = self._stack
        layer = self.stats(name)
        spans = self.spans
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stack[-1] += duration
                layer.calls += 1
                layer.total += duration
                layer.self_time += duration - children
                if not hot:
                    spans.append((name, start, duration))
                elif ledger.hot_spans < ledger.hot_span_cap:
                    ledger.hot_spans += 1
                    spans.append((name, start, duration))
                else:
                    ledger.dropped += 1

        return traced

    def wrap_iterator_factory(self, name: str, factory):
        """``factory`` returning iterators whose every ``next`` is a
        span (the chunk generator's work happens inside ``next``)."""
        clock = self.clock
        stack = self._stack
        layer = self.stats(name)
        spans = self.spans

        def timed(iterator):
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    item = timed
                finally:
                    duration = clock() - start
                    children = stack.pop()
                    stack[-1] += duration
                    layer.calls += 1
                    layer.total += duration
                    layer.self_time += duration - children
                    spans.append((name, start, duration))
                if item is timed:
                    return
                yield item

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return timed(iter(factory(*args, **kwargs)))

        return traced

    def install(self, names: Optional[Sequence[str]] = None) -> None:
        """Wrap the named boundaries (all of them by default)."""
        if self._patched:
            raise RuntimeError("ledger already installed")
        for name, module_name, class_name, attr, hot in BOUNDARIES:
            if names is not None and name not in names:
                continue
            module = importlib.import_module(module_name)
            owner = (module if class_name is None
                     else getattr(module, class_name))
            original = owner.__dict__[attr]
            if name in _ITERATORS:
                wrapper = self.wrap_iterator_factory(name, original)
            else:
                wrapper = self.wrap(name, original, hot=hot)
            setattr(owner, attr, wrapper)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------

    def write_chrome_trace(self, path: Path, stamp: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "tid": 1, "args": {"name": "perfbench"}}]
        for name, start, duration in self.spans:
            events.append({
                "name": name, "cat": name.split(".", 1)[0],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
            })
        other = dict(stamp)
        other["hot_spans_dropped"] = self.dropped
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"traceEvents": events,
                                   "displayTimeUnit": "ms",
                                   "otherData": other}))
        tmp.replace(path)


def wrapper_call_cost(calls: int = 200_000) -> float:
    """Seconds one traced call adds over a plain call, measured on an
    empty function (median of five rounds)."""
    def empty(a, b, c):
        return None

    ledger = Ledger(hot_span_cap=0)
    traced = ledger.wrap("calibration", empty, hot=True)
    clock = time.perf_counter
    costs = []
    for _ in range(5):
        start = clock()
        for _ in range(calls):
            empty(1, 2, 3)
        plain = clock() - start
        start = clock()
        for _ in range(calls):
            traced(1, 2, 3)
        costs.append((clock() - start - plain) / calls)
    costs.sort()
    return costs[len(costs) // 2]
