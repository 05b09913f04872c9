"""Compiled-program cache: compile once, serve every later request.

The serving layer's first premise (ROADMAP open item 1) is that the
expensive part of a request is the *pipeline*, not the execution — so
the cache compiles each ``(app, variant)`` at most once and keys the
resulting entry by ``(app, DecisionLedger.digest())``. The digest is the
same stable fingerprint the regression observatory tracks: two compiles
that made identical decisions share an entry, and a request pinned to a
digest (``lookup``) can only ever be served by the exact plan it was
admitted against — a digest drift surfaces as a cache miss, never as a
silently different program.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from ..core.ir import Program
from ..obs.provenance import DecisionLedger, ledger_scope
from ..pipeline import CompiledProgram, compile_program

#: variant name -> (compile target, extra compile_program kwargs); the
#: same three variants the benchmark bundles build
VARIANTS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "opt": ("distributed", {}),
    "plain": ("distributed", {"apply_nested_transforms": False}),
    "gpu": ("gpu", {}),
}


@dataclass
class CompiledEntry:
    """One cached compile and its identity."""

    app: str
    variant: str
    compiled: CompiledProgram
    #: DecisionLedger.digest() of this compile — the cache key's second
    #: half and the serving layer's provenance anchor
    digest: str
    #: host seconds the compile took (what a cache hit saves)
    compile_s: float
    hits: int = 0


class ProgramCache:
    """In-process cache of compiled programs, keyed by app × digest.

    ``factories`` maps app name to a zero-argument staged-``Program``
    factory (the same callables the benchmark bundles own). Compiles run
    under a *fresh* ledger scope so each entry's digest covers exactly
    its own pipeline decisions, even when an outer explain scope is
    active.
    """

    def __init__(self, factories: Dict[str, Callable[[], Program]],
                 metrics: Optional[Any] = None):
        self.factories = dict(factories)
        self.metrics = metrics
        self._entries: Dict[Tuple[str, str], CompiledEntry] = {}
        self._by_digest: Dict[Tuple[str, str], CompiledEntry] = {}
        self.hits = 0
        self.misses = 0

    def get(self, app: str, variant: str = "opt") -> CompiledEntry:
        key = (app, variant)
        entry = self._entries.get(key)
        if entry is not None:
            entry.hits += 1
            self.hits += 1
            if self.metrics is not None:
                self.metrics.inc("serve.cache.program.hits", app=app)
            return entry
        if app not in self.factories:
            raise KeyError(f"unknown app {app!r}; served apps: "
                           f"{sorted(self.factories)}")
        if variant not in VARIANTS:
            raise KeyError(f"unknown variant {variant!r}; expected one of "
                           f"{sorted(VARIANTS)}")
        target, kwargs = VARIANTS[variant]
        t0 = time.perf_counter()
        with ledger_scope(DecisionLedger()):
            compiled = compile_program(self.factories[app](), target,
                                       **kwargs)
        compile_s = time.perf_counter() - t0
        digest = compiled.provenance.digest() if compiled.provenance else ""
        entry = CompiledEntry(app, variant, compiled, digest, compile_s)
        self._entries[key] = entry
        self._by_digest[(app, digest)] = entry
        self.misses += 1
        if self.metrics is not None:
            self.metrics.inc("serve.cache.program.misses", app=app)
            self.metrics.observe("serve.cache.compile_s", compile_s, app=app)
        return entry

    def invalidate(self, app: Optional[str] = None) -> int:
        """Drop cached compiles for ``app`` (or every app when ``None``
        / ``"*"``) and return how many entries were evicted. The next
        ``get`` recompiles and counts a miss — this is the hook the
        fault plan's ``cache`` events use."""
        n = len(self._entries)
        self._entries = {k: e for k, e in self._entries.items()
                         if app not in (None, "*", k[0])}
        self._by_digest = {k: e for k, e in self._by_digest.items()
                           if app not in (None, "*", k[0])}
        return n - len(self._entries)

    def lookup(self, app: str, digest: str) -> Optional[CompiledEntry]:
        """Digest-pinned lookup: only an identical compile satisfies it."""
        return self._by_digest.get((app, digest))

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses}
