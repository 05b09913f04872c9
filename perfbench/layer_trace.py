"""The benchmark's own host-time spans around each layer's public calls.

The program is not instrumented. Instead, while a ``LayerTracer`` is
installed, the public functions and methods listed in ``HOOKS`` are
replaced by wrappers that record a span (name, layer, start, end, parent
span, and the id of the app-run or traffic run it belongs to) and are
restored afterwards. Spans are kept in memory and written out once, at
the end of the run.

Calls made tens of thousands of times per run (the observability stack's
``Tracer``/``MetricsRegistry`` methods inside the serving event loop) are
recorded as *aggregated leaf spans*: their duration is subtracted from the
enclosing span and summed per name, but no record is kept per call, so
the trace stays small and cheap.

A span's self time is its duration minus the time its child spans cover;
spans nest strictly (one thread, synchronous calls), so the self times of
all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name, layer, aggregated leaf?)
HOOKS: Tuple[Tuple[str, str, str, str, bool], ...] = (
    ("repro.frontend", "build", "frontend.stage", "frontend", False),
    ("repro.pipeline", "compile_program", "pipeline.compile", "pipeline",
     False),
    ("repro.serve.cache", "compile_program", "pipeline.compile", "pipeline",
     False),
    ("repro.pipeline", "CompiledProgram.prepare_inputs",
     "pipeline.prepare_inputs", "pipeline", False),
    ("repro.backend.vectorize", "plan_program", "backend.plan", "backend",
     False),
    ("repro.backend", "run_program_numpy", "backend.run", "backend", False),
    ("repro.backend", "NumpyInterp.eval_program", "backend.eval", "backend",
     False),
    ("repro.serve.scheduler", "capture_run", "runtime.capture", "runtime",
     False),
    ("repro.runtime.executor", "Simulator.price", "runtime.price", "runtime",
     False),
    ("repro.serve.cache", "ProgramCache.get", "serve.cache", "serve", False),
    ("repro.serve.batching", "payload_digest", "serve.batching.digest",
     "serve", False),
    ("repro.serve.scheduler", "ProgramServer.run", "serve.scheduler.run",
     "serve", False),
    ("repro.obs.export", "chrome_trace_events", "obs.export", "obs", False),
    ("repro.obs.spans", "Tracer.begin_run", "obs.tracer", "obs", True),
    ("repro.obs.spans", "Span.child", "obs.tracer", "obs", True),
    ("repro.obs.metrics", "MetricsRegistry.inc", "obs.metrics", "obs", True),
    ("repro.obs.metrics", "MetricsRegistry.gauge", "obs.metrics", "obs",
     True),
    ("repro.obs.metrics", "MetricsRegistry.observe", "obs.metrics", "obs",
     True),
)

LAYERS = ("frontend", "pipeline", "backend", "runtime", "serve", "obs",
          "bench")

_NAME, _LAYER, _T0, _T1, _PARENT, _KEY, _CHILD = range(7)


def _resolve(module: str, path: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


class LayerTracer:
    """In-memory span recorder plus the hook installer."""

    def __init__(self) -> None:
        #: span records: [name, layer, t0, t1, parent index, key, child s]
        self.spans: List[list] = []
        #: aggregated leaf spans: (name, key) -> [layer, calls, seconds]
        self.leaves: Dict[Tuple[str, str], list] = {}
        self._stack: List[int] = []
        #: (owner, attribute, original, owner defined it itself)
        self._saved: List[Tuple[Any, str, Any, bool]] = []
        self.key: str = ""

    # -- recording ----------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent,
                           self.key, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        rec = self.spans[idx]
        rec[_T1] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"layer span {rec[_NAME]!r} closed out of "
                               f"order")
        if rec[_PARENT] >= 0:
            self.spans[rec[_PARENT]][_CHILD] += rec[_T1] - rec[_T0]

    def span(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span (the benchmark's own call sites)."""
        idx = self.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def _leaf(self, name: str, layer: str, seconds: float) -> None:
        agg = self.leaves.get((name, self.key))
        if agg is None:
            agg = self.leaves[(name, self.key)] = [layer, 0, 0.0]
        agg[1] += 1
        agg[2] += seconds
        if self._stack:
            self.spans[self._stack[-1]][_CHILD] += seconds

    # -- hooks --------------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str,
              leaf: bool) -> Callable:
        if leaf:
            clock, record = time.perf_counter, self._leaf

            def leaf_wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record(name, layer, clock() - t0)
            return leaf_wrapper

        def wrapper(*args, **kwargs):
            return self.span(name, layer, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer hooks are already installed")
        for module, path, name, layer, leaf in HOOKS:
            owner, attr = _resolve(module, path)
            orig = getattr(owner, attr)
            own = not isinstance(owner, type) or attr in owner.__dict__
            self._saved.append((owner, attr, orig, own))
            setattr(owner, attr, self._wrap(orig, name, layer, leaf))

    def uninstall(self) -> None:
        for owner, attr, orig, own in reversed(self._saved):
            if own:
                setattr(owner, attr, orig)
            else:  # an inherited method: drop the override again
                delattr(owner, attr)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def self_seconds(self, key_prefix: str) -> Dict[str, float]:
        """Self time per layer of the spans and leaves whose key starts
        with ``key_prefix``."""
        out: Dict[str, float] = defaultdict(float)
        for rec in self.spans:
            if rec[_KEY].startswith(key_prefix):
                out[rec[_LAYER]] += (rec[_T1] - rec[_T0]) - rec[_CHILD]
        for (_name, key), (layer, _calls, secs) in self.leaves.items():
            if key.startswith(key_prefix):
                out[layer] += secs
        return out

    def durations(self, name: str, key_prefix: Optional[str] = None
                  ) -> List[Tuple[str, float]]:
        """``(key, seconds)`` of every span called ``name``."""
        return [(r[_KEY], r[_T1] - r[_T0]) for r in self.spans
                if r[_NAME] == name
                and (key_prefix is None or r[_KEY].startswith(key_prefix))]

    def self_of(self, name: str) -> List[Tuple[str, float]]:
        """``(key, self seconds)`` of every span called ``name``."""
        return [(r[_KEY], (r[_T1] - r[_T0]) - r[_CHILD])
                for r in self.spans if r[_NAME] == name]


    def write(self, path: str) -> None:
        """One JSON object per span, then one per aggregated leaf name."""
        with open(path, "w") as f:
            for i, r in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": r[_NAME], "layer": r[_LAYER],
                    "start_s": r[_T0], "end_s": r[_T1],
                    "parent": None if r[_PARENT] < 0 else r[_PARENT],
                    "key": r[_KEY],
                    "self_s": (r[_T1] - r[_T0]) - r[_CHILD]}) + "\n")
            for (name, key), (layer, calls, secs) in sorted(
                    self.leaves.items()):
                f.write(json.dumps({"leaf": name, "layer": layer, "key": key,
                                    "calls": calls, "total_s": secs}) + "\n")
