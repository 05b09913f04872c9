"""Discrete-event request scheduler with pluggable placement.

``ProgramServer`` multiplexes heterogeneous requests across a set of
simulated machine models (``runtime/machine.py``): arrivals enter the
admission queue, the batcher forms lane-packed groups (``batching.py``),
a placement policy picks an idle machine, and the priced simulated
execution time (``runtime/executor.Simulator``) advances that machine's
clock. Time is fully simulated — the host only ever runs each distinct
``(app, payload)`` once per backend, so serving a thousand requests
costs one functional execution plus arithmetic.

Execution semantics mirror the backend contract:

- on the ``numpy`` backend a group of N identical payloads executes
  **once**, and all N responses share that execution's lanes — results
  and ``ExecStats`` are bit-identical to N sequential runs by backend
  determinism (see ``batching.py``);
- any other backend, and any execution failure, falls back to
  per-request reference execution, recorded as a :class:`ServeFallback`
  exactly as the backend records interpreter fallbacks.

Placement is declarative (Mapple-style): a policy object chooses among
idle machines and nothing else in the scheduler changes.

Chaos and resilience (``faults.py`` / ``resilience.py``) hook into the
same event loop: crash events cancel and re-enqueue in-flight batches,
placement skips down or open-circuit replicas, and kernel faults force
the recorded fallback path or hard-fail the attempt into the retry
machinery. All of it is guarded on the fault plan / resilience config
being present, so a plain run stays byte-identical to the pre-chaos
scheduler.

Bookkeeping is two records. A :class:`RequestState` per request counts
where its live attempts are and how it ended; every change goes
through ``TRANSITIONS``, so each request ends as exactly one
``Response`` or one typed ``Rejected``, and a request answered twice or
lost raises :class:`IllegalTransition` where it happens. A
:class:`Batch` per execution is the ``complete`` event's payload and
sits on its machine while in flight.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..backend import resolve_backend
from ..core.ir import Program
from ..obs.provenance import APPLIED, DecisionKind, DecisionLedger
from ..obs.spans import RequestContext, RequestTimeline
from ..runtime.executor import (ExecOptions, RunCapture, SimResult,
                                Simulator, capture_run)
from ..runtime.machine import (DMLL_CPP, ClusterSpec, MACHINE_MODELS,
                               SystemProfile)
from .batching import (AdmissionQueue, Payload, Request, Response,
                       ServeFallback, make_payload)
from .cache import ProgramCache
from .faults import FaultPlan
from .resilience import (CircuitBreaker, OPEN, REJECT_DEADLINE,
                         REJECT_RETRIES, REJECT_SHED, REJECT_UNSERVED,
                         Rejected, ResilienceConfig)


@dataclass
class ServedApp:
    """An app the server accepts requests for."""

    name: str
    factory: Callable[[], Program]
    default_inputs: Dict[str, Any]
    #: compute/data scale factors back to the paper's dataset sizes —
    #: the same ones the app's benchmark bundle prices with
    scale: float = 1.0
    data_scale: Optional[float] = None

    @classmethod
    def from_bundle(cls, name: str) -> "ServedApp":
        from ..bench.apps import get_bundle
        b = get_bundle(name)
        return cls(name, b._factory, b.inputs, b.scale, b.data_scale)


@dataclass
class MachineInstance:
    """One serving replica: a machine model plus its scheduler state."""

    name: str
    cluster: ClusterSpec
    profile: SystemProfile = DMLL_CPP
    #: compile variant requests placed here run ("gpu" on GPU nodes)
    variant: str = "opt"
    use_gpu: bool = False
    index: int = 0
    busy_until: float = 0.0
    busy_s: float = 0.0
    batches: int = 0
    #: True while a scripted crash window holds this replica down
    down: bool = False
    #: the batch executing here, until it completes or a crash cancels it
    batch: Optional["Batch"] = field(default=None, init=False, repr=False,
                                     compare=False)

    @property
    def label(self) -> str:
        return f"{self.name}[{self.index}]"


def make_machines(spec: str) -> List[MachineInstance]:
    """Parse ``"numa*2,gpunode"`` against ``MACHINE_MODELS``."""
    out: List[MachineInstance] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, count = part.partition("*")
        name = name.strip()
        if name not in MACHINE_MODELS:
            raise ValueError(f"unknown machine model {name!r}; expected "
                             f"one of {sorted(MACHINE_MODELS)}")
        try:
            n = int(count) if count else 1
        except ValueError:
            raise ValueError(f"bad machine count in {part!r}: {count!r} "
                             f"is not an integer") from None
        if n < 1:
            raise ValueError(f"bad machine count in {part!r}: count must "
                             f"be >= 1, got {n}")
        for _ in range(n):
            gpu = name == "gpunode"
            out.append(MachineInstance(
                name, MACHINE_MODELS[name],
                variant="gpu" if gpu else "opt", use_gpu=gpu,
                index=len(out)))
    if not out:
        raise ValueError(f"machine spec {spec!r} names no machines")
    return out


# ---------------------------------------------------------------------------
# placement policies
# ---------------------------------------------------------------------------

class RoundRobinPlacement:
    """Cycle through machines, skipping busy ones."""

    name = "round-robin"

    def __init__(self) -> None:
        self._cursor = 0

    def place(self, server: "ProgramServer", idle: List[MachineInstance],
              requests: List[Request], now: float) -> MachineInstance:
        m = min(idle, key=lambda m: ((m.index - self._cursor)
                                     % len(server.machines)))
        self._cursor = m.index + 1
        return m


class LeastLoadedPlacement:
    """Machine with the least accumulated busy time so far."""

    name = "least-loaded"

    def place(self, server: "ProgramServer", idle: List[MachineInstance],
              requests: List[Request], now: float) -> MachineInstance:
        return min(idle, key=lambda m: (m.busy_s, m.index))


class FastestPlacement:
    """Machine predicted to execute *this* batch fastest — the policy
    that actually exploits heterogeneity (a GPU node wins the dense
    kernels, the NUMA box wins irregular ones)."""

    name = "fastest"

    def place(self, server: "ProgramServer", idle: List[MachineInstance],
              requests: List[Request], now: float) -> MachineInstance:
        return min(idle, key=lambda m: (
            server.predict_service(m, requests[0].app, requests[0].payload),
            m.index))


POLICIES: Dict[str, Callable[[], Any]] = {
    p.name: p for p in (RoundRobinPlacement, LeastLoadedPlacement,
                        FastestPlacement)}


# ---------------------------------------------------------------------------
# request and batch records
# ---------------------------------------------------------------------------

class IllegalTransition(RuntimeError):
    """A request lifecycle change ``TRANSITIONS`` does not allow, raised
    where it happens instead of in a post-run sweep."""


#: where a live attempt is (arriving or in the admission queue,
#: executing, backing off before a retry) and how a request ended
QUEUED, EXECUTING, BACKOFF = 0, 1, 2
DONE, REJECTED = "done", "rejected"

#: The request lifecycle as moves of one attempt: event -> (from, to,
#: legal once another attempt has won). A request starts with one
#: QUEUED attempt; a hedge adds one (from ``None``), the ``-> None``
#: events end one. The first ``complete`` makes it DONE; the end of its
#: last live attempt any other way makes it REJECTED, and no event is
#: legal after that (it has no live attempts).
TRANSITIONS: Dict[str, Tuple[Optional[int], Optional[int], bool]] = {
    "shed": (QUEUED, None, False),          # refused at the door
    "dispatch": (QUEUED, EXECUTING, True),  # sealed into a batch
    "expire": (QUEUED, None, True),         # deadline at seal / drain
    "complete": (EXECUTING, None, True),    # served, or superseded
    "requeue": (EXECUTING, QUEUED, False),  # replica crashed mid-batch
    "cancel": (EXECUTING, None, True),      # crash, after another won
    "retry": (EXECUTING, BACKOFF, True),    # kernel fault, backing off
    "readmit": (BACKOFF, QUEUED, True),     # backoff over
    "fail": (EXECUTING, None, True),        # kernel fault, no retry left
    "hedge": (None, QUEUED, False),         # duplicate attempt launched
}


class RequestState:
    """One submitted request's record: where its live attempts are, how
    it ended, and (tracing only) its timelines."""

    __slots__ = ("req", "outcome", "live", "attempts", "resp", "tl",
                 "alt")

    def __init__(self, req: Request):
        #: the original submission (attempt 0)
        self.req = req
        self.outcome: Optional[str] = None
        #: live attempts per QUEUED / EXECUTING / BACKOFF
        self.live = [1, 0, 0]
        #: attempts started so far (the next attempt's index)
        self.attempts = 1
        #: the winning attempt's response, once DONE (tracing only)
        self.resp: Optional[Response] = None
        #: the request's timeline: attempt 0's, replaced by a re-anchored
        #: copy when a later attempt wins (tracing only)
        self.tl: Optional[RequestTimeline] = req.tl
        #: (attempt, timeline, status) of every other attempt (tracing only)
        self.alt: Tuple[Tuple[int, RequestTimeline, str], ...] = ()

    def move(self, event: str) -> bool:
        """Apply ``event``; True when it decided the request's outcome
        (the first completion, or the end of the last live attempt)."""
        src, dst, after_win = TRANSITIONS[event]
        if self.outcome is not None and not (after_win
                                             and self.outcome == DONE):
            raise IllegalTransition(
                f"request {self.req.rid}: {event!r} after it was "
                f"{self.outcome}")
        live = self.live
        if src is not None:
            if not live[src]:
                raise IllegalTransition(
                    f"request {self.req.rid}: {event!r} with no attempt "
                    f"in {('queued', 'executing', 'backoff')[src]}")
            live[src] -= 1
        if dst is not None:
            live[dst] += 1
        elif self.outcome is None:
            if event == "complete":
                self.outcome = DONE
            elif not any(live):
                self.outcome = REJECTED
            return self.outcome is not None
        return False

    def won(self, resp: Response) -> None:
        """Record the winner (tracing only). A later attempt's timeline is
        re-anchored at the *original* arrival, so the exact decomposition
        covers the end-to-end latency (backoff lands in ``admission_s``)."""
        self.resp = resp
        req = resp.request
        if req.tl is not None and req.attempt > 0:
            self.tl = RequestTimeline(req.ctx)
            self.tl.marks = dict(req.tl.marks)
            self.tl.marks["arrive"] = req.arrival_s
            self.note(req, "served")

    def note(self, req: Request, status: str) -> None:
        """Log how attempt ``req`` ended (a no-op when untraced)."""
        if req.tl is not None:
            self.alt += ((req.attempt, req.tl, status),)

    def attempt_log(self) -> List[Tuple[int, RequestTimeline, str]]:
        """Every recorded attempt as ``(attempt, timeline, status)``,
        sorted by attempt (tracing only)."""
        log = list(self.alt)
        if self.resp is not None and self.resp.request.attempt == 0:
            log.append((0, self.tl, "served"))
        return sorted(log, key=lambda e: e[0])


@dataclass(eq=False)
class Batch:
    """One dispatched execution: the ``complete`` event's payload, and
    its machine's ``batch`` while in flight."""

    bid: int
    machine: MachineInstance
    responses: List[Response]
    finish_s: float
    span: Optional[Any] = None
    #: set when a crash cancelled it before its ``complete`` event
    cancelled: bool = False


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------

class ProgramServer:
    """Serve requests against cached compiles on simulated machines.

    Drive it either directly (``submit`` + ``run``) or through an
    arrival process object with a ``prime(server)`` hook
    (``serve.simulator``). ``on_complete`` callbacks fire per response
    in completion order — closed-loop workloads use them to issue the
    next request.

    ``faults`` takes a :class:`~repro.serve.faults.FaultPlan` chaos
    script and ``resilience`` a
    :class:`~repro.serve.resilience.ResilienceConfig`; both default to
    off, and an **empty** fault plan is normalized to ``None`` so a
    zero-fault plan is bit-identical to no plan at all.
    """

    def __init__(self, apps: Sequence[ServedApp],
                 machines: Optional[List[MachineInstance]] = None,
                 max_batch: int = 8, max_wait_s: float = 0.02,
                 policy: Any = "round-robin",
                 backend: Optional[str] = None,
                 metrics: Optional[Any] = None,
                 tracer: Optional[Any] = None,
                 cache: Optional[ProgramCache] = None,
                 trace_seed: int = 0,
                 faults: Optional[FaultPlan] = None,
                 resilience: Optional[ResilienceConfig] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.apps: Dict[str, ServedApp] = {a.name: a for a in apps}
        self.machines = machines or make_machines("numa")
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.policy = POLICIES[policy]() if isinstance(policy, str) else policy
        self.backend = resolve_backend(backend)
        self.metrics = metrics
        self.tracer = tracer
        #: request trace ids derive from this seed (the traffic seed, so
        #: same-seed runs export byte-identical traces)
        self.trace_seed = trace_seed
        #: an empty plan is falsy and treated exactly like no plan —
        #: the fault layer's zero-cost-when-disabled contract
        self.faults = faults if faults else None
        self.res = resilience
        self.cache = cache or ProgramCache(
            {n: a.factory for n, a in self.apps.items()}, metrics=metrics)
        self.queue = AdmissionQueue()
        self.responses: List[Response] = []
        self.fallbacks: List[ServeFallback] = []
        #: requests the server explicitly refused (shed, deadline,
        #: retries exhausted, unserved at shutdown) — together with
        #: ``responses`` this accounts for every submitted request
        self.rejected: List[Rejected] = []
        #: apps permanently routed to the reference path after repeated
        #: kernel faults, with the recorded reason
        self.degraded: Dict[str, str] = {}
        #: serve-time decisions (degradations) — provenance for *why*
        #: an app stopped using the vectorized path
        self.ledger = DecisionLedger()
        self.on_complete: List[Callable[["ProgramServer", Response],
                                        None]] = []
        #: fired when a request leaves as a typed ``Rejected`` — closed
        #: loops treat the refusal as a completed interaction and issue
        #: the client's next request
        self.on_reject: List[Callable[["ProgramServer", Rejected],
                                      None]] = []
        self.now = 0.0
        # resilience counters (all stay 0 on plain runs)
        self.retries = 0
        self.requeues = 0
        self.hedges_launched = 0
        self.hedges_wasted = 0
        self.fault_counts: Counter = Counter()
        self._events: List[Tuple[float, int, str, Any]] = []
        self._seq = itertools.count()
        self._bid = 0
        self._root = None
        # request timelines are recorded only while a tracer is attached
        # and enabled; the untraced path never touches them
        self._tracing = tracer is not None and tracer.enabled
        #: one record per submitted request, keyed (and ordered) by rid
        self._states: Dict[int, RequestState] = {}
        self._kernel_strikes: Dict[str, int] = {}
        self._app_attempts: Dict[str, int] = {}
        self._retry_left = (resilience.retry.budget
                            if resilience is not None
                            and resilience.retry is not None else 0)
        self._breakers: Optional[Dict[int, CircuitBreaker]] = None
        if resilience is not None and resilience.breaker is not None:
            self._breakers = {m.index: CircuitBreaker(resilience.breaker)
                              for m in self.machines}
        #: host-side memo: the one real execution per distinct (app,
        #: variant, payload key, backend) and its pricing per machine model
        self._memo: Dict[Tuple[str, str, str, str],
                         Tuple[RunCapture, Dict[str, SimResult]]] = {}
        self._payloads: Dict[Tuple[str, Optional[str]], Payload] = {}

    # -- request admission ----------------------------------------------

    def payload_for(self, app: str,
                    salt: Optional[str] = None) -> Payload:
        """The app's default payload, optionally salted into a distinct
        logical tenant (memoized so equal salts share lane groups; the
        inputs are digested once per app, not once per salt)."""
        key = (app, salt)
        if key not in self._payloads:
            self._payloads[key] = (
                make_payload(self.apps[app].default_inputs)
                if salt is None else self.payload_for(app).salted(salt))
        return self._payloads[key]

    def submit(self, app: str, payload: Optional[Payload] = None,
               at: float = 0.0, client: int = -1) -> Request:
        if app not in self.apps:
            raise KeyError(f"unknown app {app!r}; served apps: "
                           f"{sorted(self.apps)}")
        req = Request(len(self._states), app,
                      payload or self.payload_for(app), at, client)
        if self.res is not None and self.res.deadline_s is not None:
            req.deadline_s = at + self.res.deadline_s
        if self._tracing:
            req.ctx = RequestContext.derive(self.trace_seed, req.rid)
            req.tl = RequestTimeline(req.ctx)
            req.tl.mark("arrive", at)
        self._states[req.rid] = RequestState(req)
        self._push(at, "arrive", req)
        return req

    def _push(self, t: float, kind: str, data: Any) -> None:
        heapq.heappush(self._events, (t, next(self._seq), kind, data))

    def _clone_attempt(self, st: RequestState, spawn_s: float,
                       hedge: bool = False) -> Request:
        """The request's next execution attempt: same rid, payload and
        arrival (latency stays end-to-end), its own timeline."""
        req = st.req
        clone = Request(req.rid, req.app, req.payload, req.arrival_s,
                        req.client, ctx=req.ctx, attempt=st.attempts,
                        hedge=hedge, deadline_s=req.deadline_s)
        st.attempts += 1
        if self._tracing:
            clone.tl = RequestTimeline(req.ctx)
            clone.tl.mark("arrive", spawn_s)
        return clone

    # -- the event loop --------------------------------------------------

    def run(self, source: Optional[Any] = None) -> List[Response]:
        if source is not None:
            source.prime(self)
        if self.tracer is not None and self.tracer.enabled:
            attrs = ({} if self.faults is None
                     else {"faults": len(self.faults.specs)})
            self._root = self.tracer.begin_run(
                "serve", backend=self.backend,
                policy=getattr(self.policy, "name", "?"),
                machines=len(self.machines), max_batch=self.max_batch,
                max_wait_s=self.max_wait_s, **attrs)
        if self.faults is not None:
            self._schedule_faults()
        handlers = {"arrive": self._on_arrive, "retry": self._on_retry,
                    "hedge": self._on_hedge, "crash": self._on_crash,
                    "recover": self._on_recover,
                    "cache-fault": self._on_cache_fault,
                    "complete": self._on_complete_event,
                    # wake-ups: a batch window or breaker cooldown ended
                    "flush": self._on_wake, "breaker": self._on_wake}
        while self._events:
            t, _, kind, data = heapq.heappop(self._events)
            self.now = t
            handlers[kind](data, t)
        # zero-lost drain: anything still queued when the event loop
        # runs dry (replicas down for good, budget exhausted) leaves as
        # an explicit Rejected, never silently
        self._drain_unserved()
        makespan = max((r.finish_s for r in self.responses), default=0.0)
        if self._root is not None:
            # the run span must cover *all* machine activity, not just
            # kept responses: a wasted hedge batch (its twin won) or a
            # late rejection can outlive the last winner, and the trace
            # validator rejects slices that end after the run span
            horizon = max([makespan]
                          + [c.start_s + c.dur_s
                             for c in self._root.children]
                          + [j.t_s for j in self.rejected])
            self._root.dur_s = horizon
            self._root.set(requests=len(self.responses),
                           batches=self._bid, makespan_s=makespan)
            self._emit_request_spans()
            self._emit_attempt_spans(horizon)
            if self.faults is not None:
                self._emit_fault_spans(horizon)
        if self.metrics is not None:
            self.metrics.gauge("serve.makespan_s", makespan)
        return self.responses

    def _schedule_faults(self) -> None:
        """Turn the fault plan's scripted windows into loop events."""
        for m in self.machines:
            for t0, t1 in self.faults.crash_windows(m.label, m.name):
                self._push(t0, "crash", m.index)
                if t1 != float("inf"):
                    self._push(t1, "recover", m.index)
        for at, target in self.faults.cache_events():
            self._push(at, "cache-fault", target)

    # -- event handlers ---------------------------------------------------

    def _on_arrive(self, req: Request, t: float) -> None:
        if (self.res is not None and self.res.shed_depth is not None
                and len(self.queue) >= self.res.shed_depth):
            self.fault_counts["shed"] += 1
            self._attempt_ended(req, "shed", REJECT_SHED, t)
            return
        self.queue.push(req)  # its attempt is QUEUED since submit
        if self._tracing:
            req.tl.mark("enqueue", t)
        if self.metrics is not None:
            self.metrics.inc("serve.requests", app=req.app)
        # the group must dispatch no later than this request's
        # wait deadline even if the batch never fills
        self._push(t + self.max_wait_s, "flush", None)
        if self.res is not None and self.res.hedge_delay_s is not None:
            self._push(t + self.res.hedge_delay_s, "hedge", req.rid)
        self._dispatch(t)

    def _on_wake(self, _data: Any, t: float) -> None:
        self._dispatch(t)

    def _on_recover(self, idx: int, t: float) -> None:
        self.machines[idx].down = False
        self._dispatch(t)

    def _on_retry(self, req: Request, t: float) -> None:
        """A retry's backoff ended: its attempt joins the queue."""
        self._enqueue(req, t, "readmit")
        self._push(t + self.max_wait_s, "flush", None)
        self._dispatch(t)

    def _enqueue(self, req: Request, t: float, event: str) -> None:
        """Put an attempt in the admission queue through ``event``."""
        self._states[req.rid].move(event)
        self.queue.push(req)
        if self._tracing:
            req.tl.mark("enqueue", t)

    def _on_hedge(self, rid: int, t: float) -> None:
        """Hedge timer: duplicate the request if its attempt is still
        executing — first completion wins, the loser is dropped."""
        st = self._states[rid]
        if st.outcome is not None or not st.live[EXECUTING]:
            return  # answered, or not executing (queued, backing off)
        self.hedges_launched += 1
        if self.metrics is not None:
            self.metrics.inc("serve.hedges")
        self._enqueue(self._clone_attempt(st, t, hedge=True), t, "hedge")
        self._push(t + self.max_wait_s, "flush", None)
        self._dispatch(t)

    def _on_crash(self, idx: int, t: float) -> None:
        """A scripted crash: the replica goes down; its in-flight batch
        (if any) is cancelled and every request re-enqueued."""
        m = self.machines[idx]
        m.down = True
        self.fault_counts["crash"] += 1
        if self._breakers is not None:
            self._record_failure(idx, t)
        batch, m.batch = m.batch, None
        if batch is not None:
            batch.cancelled = True
            self.fault_counts["cancelled-batches"] += 1
            # the unfinished tail never ran: free the busy accounting
            m.busy_s -= batch.finish_s - t
            m.busy_until = t
            if batch.span is not None:
                batch.span.dur_s = t - batch.span.start_s
                batch.span.children.clear()
                batch.span.set(cancelled=True, cancelled_at_s=t)
            for resp in batch.responses:
                r = resp.request
                st = self._states[r.rid]
                if self._tracing and r.tl is not None:
                    # clamp the cancelled attempt at the crash (fallback
                    # batches pre-mark exec windows beyond it)
                    r.tl.marks = {k: v for k, v in r.tl.marks.items()
                                  if v <= t}
                    r.tl.marks["complete"] = t
                st.note(r, "requeued")
                if st.outcome is not None:
                    st.move("cancel")
                    continue
                self.requeues += 1
                self._enqueue(self._clone_attempt(st, t), t, "requeue")
            self._push(t + self.max_wait_s, "flush", None)
        self._dispatch(t)

    def _on_cache_fault(self, target: str, t: float) -> None:
        """Scripted compile-cache invalidation: evict the cache entries
        and the server's host-side memo so the next request recompiles
        (surfacing as cache misses)."""
        self.fault_counts["cache-invalidations"] += 1
        self.cache.invalidate(target)
        self._memo = {k: v for k, v in self._memo.items()
                      if target not in ("*", k[0])}

    def _on_complete_event(self, batch: Batch, t: float) -> None:
        if batch.cancelled:
            # a crash cancelled the batch after this event was
            # scheduled; its requests were already re-enqueued
            self._dispatch(t)
            return
        machine = batch.machine
        if machine.batch is batch:
            machine.batch = None
        if self._breakers is not None:
            self._breakers[machine.index].record(t, True)
        fresh = []
        for r in batch.responses:
            req = r.request
            st = self._states[req.rid]
            if not st.move("complete"):
                # a hedge/requeue race: another attempt already won
                self.hedges_wasted += 1
                st.note(req, "superseded")
                continue
            if self._tracing:
                st.won(r)
            fresh.append(r)
            if self.metrics is not None:
                self.metrics.observe("serve.latency_s", r.latency_s,
                                     app=req.app)
                self.metrics.observe("serve.queue_wait_s", r.queue_wait_s)
        self.responses.extend(fresh)
        for r in fresh:
            for hook in self.on_complete:
                hook(self, r)
        self._dispatch(t)

    # -- rejection bookkeeping -------------------------------------------

    def _record_failure(self, idx: int, now: float) -> None:
        """Feed a failure to the machine's breaker; if it trips (or
        re-trips from half-open), schedule a wake-up for when the
        cooldown expires so a quiet queue can't strand requests."""
        b = self._breakers[idx]
        was_open = b.state == OPEN
        b.record(now, False)
        if b.state == OPEN and not was_open:
            self.fault_counts["breaker-trips"] += 1
            if self.metrics is not None:
                self.metrics.inc("serve.breaker.trips",
                                 machine=self.machines[idx].name)
            self._push(b.opened_at + b.config.cooldown_s, "breaker", None)

    def _attempt_ended(self, req: Request, event: str, reason: str,
                       t: float, status: Optional[str] = None,
                       notify: bool = True) -> None:
        """An attempt died without completing (shed / deadline / retry
        exhausted / shutdown). When it was the rid's last live attempt,
        the request leaves as a typed ``Rejected`` and ``on_reject``
        hooks fire if ``notify``."""
        st = self._states[req.rid]
        rejected = st.move(event)
        st.note(req, status or reason)
        if rejected:
            self.rejected.append(Rejected(
                req.rid, req.app, reason, t, arrival_s=req.arrival_s,
                client=req.client, attempts=st.attempts))
            if self.metrics is not None:
                self.metrics.inc("serve.rejected", app=req.app,
                                 reason=reason)
            if notify:
                for hook in self.on_reject:
                    hook(self, self.rejected[-1])

    def _drain_unserved(self) -> None:
        # on_reject hooks stay muted: the event loop is gone, so a
        # submission issued now could never run
        for r in self.queue.drain():
            self._attempt_ended(r, "expire", REJECT_UNSERVED, self.now,
                                notify=False)
        stuck = [rid for rid, st in self._states.items()
                 if st.outcome is None]
        if stuck:
            raise IllegalTransition(f"requests {stuck[:8]} are still open "
                                    f"after the event loop drained")

    # -- tracing helpers --------------------------------------------------

    def _emit_request_spans(self) -> None:
        """Per-request lifecycle spans (arrive → complete) with queue and
        exec children, linked to the batch execution that served each
        request via ``batch_id`` (the exporter turns that into flow
        arrows). Called once after the event loop drains."""
        for resp in sorted(self.responses, key=lambda r: r.request.rid):
            req, ctx = resp.request, resp.request.ctx
            tl = self._states[req.rid].tl
            if tl is None:
                continue
            t0, t_end = tl.get("arrive"), tl.get("complete")
            attrs = {f"{stage}_s": t for stage, t in tl.ordered()}
            if req.attempt > 0:
                attrs["attempts"] = req.attempt + 1
            rsp = self._root.child(
                f"r{req.rid}:{req.app}", "request", t0, t_end - t0,
                rid=req.rid, app=req.app, trace_id=ctx.trace_id,
                span_id=ctx.span_id, flow_id=ctx.flow_id,
                batch_id=resp.batch_id, batch_size=resp.batch_size,
                lane_packed=resp.lane_packed, machine=resp.machine,
                backend=resp.backend, fallback=resp.fallback_reason,
                latency_s=resp.latency_s, **attrs)
            t_q0, t_disp = tl.get("enqueue"), tl.get("dispatch")
            if t_q0 is not None and t_disp is not None:
                rsp.child("queued", "queue", t_q0, t_disp - t_q0,
                          rid=req.rid)
            t_x0 = tl.get("exec_start")
            if t_x0 is not None:
                rsp.child("exec", "exec", t_x0, t_end - t_x0,
                          rid=req.rid, batch_id=resp.batch_id)

    def _emit_attempt_spans(self, makespan: float) -> None:
        """One sibling span per execution attempt (their own trace
        process) for every request that needed more than one — retries,
        hedges, crash re-enqueues — indexed by attempt and labelled
        with how that attempt ended."""
        for rid, st in self._states.items():
            if not st.alt:
                continue
            for attempt, tl, status in st.attempt_log():
                times = [t for _, t in tl.ordered()]
                if not times:
                    continue
                t1 = min(max(times), makespan)
                if st.resp is not None:
                    t1 = min(t1, st.resp.finish_s)
                t0 = min(min(times), t1)
                self._root.child(
                    f"r{rid}:a{attempt}", "attempt", t0, t1 - t0,
                    rid=rid, attempt=attempt, status=status,
                    **{f"{stage}_s": t for stage, t in tl.ordered()})

    def _emit_fault_spans(self, makespan: float) -> None:
        """Scripted crash windows as fault spans on the machine tracks
        (clipped to the run), so chaos is visible where it struck."""
        for m in self.machines:
            for t0, t1 in self.faults.crash_windows(m.label, m.name):
                if t0 >= makespan:
                    continue
                self._root.child(
                    f"crash:{m.label}", "fault", t0, min(t1, makespan) - t0,
                    machine=m.index, machine_name=m.name, fault="crash")

    def resilience_summary(self) -> Optional[Dict[str, Any]]:
        """Shed/retry/hedge/breaker counts and per-fault attribution for
        the report — ``None`` when neither a fault plan nor a resilience
        config was active (so plain reports stay byte-identical)."""
        if self.faults is None and self.res is None:
            return None
        by_reason = Counter(j.reason for j in self.rejected)
        out: Dict[str, Any] = {
            "rejected": len(self.rejected),
            "rejected_by_reason": dict(sorted(by_reason.items())),
            "retries": self.retries,
            "retry_budget_left": self._retry_left,
            "requeues": self.requeues,
            "hedges": self.hedges_launched,
            "hedges_wasted": self.hedges_wasted,
            "degraded": dict(sorted(self.degraded.items())),
            "fault_counts": dict(sorted(self.fault_counts.items())),
        }
        if self._breakers is not None:
            out["breaker"] = {
                self.machines[i].label: {"state": b.state, "trips": b.trips}
                for i, b in sorted(self._breakers.items())}
        return out

    def timeline_of(self, rid: int) -> Optional[RequestTimeline]:
        """The recorded lifecycle timeline for a request (tracing only)."""
        st = self._states.get(rid)
        return None if st is None else st.tl

    def attempt_timelines_of(self, rid: int
                             ) -> List[Tuple[int, str, RequestTimeline]]:
        """All recorded per-attempt timelines for a request, as
        ``(attempt, status, timeline)`` sorted by attempt — the
        per-attempt decomposition input (tracing only)."""
        st = self._states.get(rid)
        return [] if st is None else [(a, status, tl) for a, tl, status
                                      in st.attempt_log()]

    # -- dispatch ---------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        breakers = self._breakers
        while True:
            idle = [m for m in self.machines
                    if m.busy_until <= now + 1e-15 and not m.down
                    and (breakers is None or breakers[m.index].allow(now))]
            if not idle:
                return
            key = self.queue.next_ready(now, self.max_batch, self.max_wait_s)
            if key is None:
                return
            requests = self.queue.take(key, self.max_batch)
            if self.res is not None and self.res.deadline_s is not None:
                late = [r for r in requests
                        if now >= r.deadline_s - 1e-15]
                for r in late:
                    self.fault_counts["deadline"] += 1
                    self._attempt_ended(r, "expire", REJECT_DEADLINE, now)
                requests = [r for r in requests if r not in late]
                if not requests:
                    continue
            machine = self.policy.place(self, idle, requests, now)
            for r in requests:
                self._states[r.rid].move("dispatch")
            if self._tracing:
                for r in requests:
                    r.tl.mark("seal", now)
                    r.tl.mark("dispatch", now)
            self._execute_batch(machine, requests, now)

    # -- execution --------------------------------------------------------

    def _execution(self, app: str, variant: str, payload: Payload,
                   backend: str) -> Tuple[RunCapture, Dict[str, SimResult]]:
        """The memoized real execution of ``app`` on ``payload`` and its
        pricings so far, keyed by machine model name."""
        key = (app, variant, payload.key, backend)
        memo = self._memo.get(key)
        if memo is None:
            entry = self.cache.get(app, variant)
            cap = capture_run(entry.compiled, payload.inputs,
                              backend=backend,
                              profile_host=self.metrics is not None)
            memo = self._memo[key] = (cap, {})
            if self.metrics is not None:
                # host wall-clock of the one real execution behind this
                # capture — calibration data for the cost model, kept in
                # metrics (not spans) so traces stay seed-deterministic
                for lname, secs in sorted(cap.host_loop_s.items()):
                    self.metrics.observe("serve.capture_host_s", secs,
                                         app=app, loop=lname)
        return memo

    def _price(self, machine: MachineInstance, app: str,
               memo: Tuple[RunCapture, Dict[str, SimResult]]) -> SimResult:
        cap, sims = memo
        sim = sims.get(machine.name)
        if sim is None:
            served = self.apps[app]
            entry = self.cache.get(app, machine.variant)
            opts = ExecOptions(scale=served.scale,
                               data_scale=served.data_scale,
                               use_gpu=machine.use_gpu,
                               gpu_transposed=machine.use_gpu)
            sim = sims[machine.name] = Simulator(
                entry.compiled, machine.cluster, machine.profile,
                opts).price(cap)
        return sim

    def predict_service(self, machine: MachineInstance, app: str,
                        payload: Payload) -> float:
        """Per-request service time on ``machine`` (placement input)."""
        try:
            memo = self._execution(app, machine.variant, payload,
                                   self.backend)
        except Exception:
            memo = self._execution(app, machine.variant, payload,
                                   "reference")
        return self._price(machine, app, memo).total_seconds

    def _fail_batch(self, machine: MachineInstance, requests: List[Request],
                    now: float, bid: int, reason: str) -> None:
        """A hard kernel fault: the attempt dies instantly; each request
        retries (budget and attempts permitting) or leaves Rejected."""
        if self._breakers is not None:
            self._record_failure(machine.index, now)
        if self.metrics is not None:
            self.metrics.inc("serve.kernel_faults", app=requests[0].app)
        if self._root is not None:
            self._root.child(
                f"b{bid}:{requests[0].app}!fault", "fault", now, 0.0,
                machine=machine.index, machine_name=machine.name,
                app=requests[0].app, batch_id=bid, fault="kernel-error",
                reason=reason)
        rp = self.res.retry if self.res is not None else None
        for r in requests:
            if self._tracing and r.tl is not None:
                r.tl.mark("complete", now)
            nxt = r.attempt + 1
            if (rp is not None and nxt < rp.max_attempts
                    and self._retry_left > 0):
                st = self._states[r.rid]
                st.move("retry")
                self._retry_left -= 1
                self.retries += 1
                st.note(r, "failed")
                delay = rp.delay_s(self.trace_seed, r.rid, nxt)
                self._push(now + delay, "retry", self._clone_attempt(st, now))
            else:
                self._attempt_ended(r, "fail", REJECT_RETRIES, now,
                                    status="failed")

    def _execute_batch(self, machine: MachineInstance,
                       requests: List[Request], now: float) -> None:
        app, payload, n = requests[0].app, requests[0].payload, len(requests)
        bid = self._bid
        self._bid += 1
        if self._breakers is not None:
            # a half-open breaker's probe is in flight from placement on
            self._breakers[machine.index].on_dispatch(now)

        fallback_reason: Optional[str] = None
        if app in self.degraded:
            fallback_reason = f"degraded: {self.degraded[app]}"
        elif self.backend == "numpy":
            try:
                memo = self._execution(app, machine.variant, payload,
                                       "numpy")
            except Exception as exc:  # recorded, never silent
                fallback_reason = f"numpy execution failed: {exc}"
        else:
            fallback_reason = (f"backend={self.backend!r} has no lane "
                               f"axis; per-request reference execution")

        if self.faults is not None and fallback_reason is None:
            attempt_no = self._app_attempts.get(app, 0)
            self._app_attempts[app] = attempt_no + 1
            spec = self.faults.kernel_fault(app, now, attempt_no)
            if spec is not None:
                strikes = self._kernel_strikes.get(app, 0) + 1
                self._kernel_strikes[app] = strikes
                limit = self.res.degrade_after if self.res is not None else 3
                if strikes >= limit and app not in self.degraded:
                    # repeated kernel faults route the app to the
                    # reference path for good, with a Decision saying why
                    why = (f"{strikes} consecutive kernel faults; serving "
                           f"from the reference interpreter")
                    self.degraded[app] = why
                    self.fault_counts["degraded-apps"] += 1
                    self.ledger.record(DecisionKind.SERVE_DEGRADE,
                                       f"serve:{app}", APPLIED, why,
                                       strikes=strikes, at_s=now)
                    if self.metrics is not None:
                        self.metrics.inc("serve.degraded", app=app)
                if spec.mode == "error":
                    self.fault_counts["kernel-error"] += 1
                    self._fail_batch(machine, requests, now, bid,
                                     f"fault-injected kernel error "
                                     f"(target {spec.target!r})")
                    return
                self.fault_counts["kernel-fallback"] += 1
                fallback_reason = (f"fault-injected kernel failure "
                                   f"(target {spec.target!r})")
            else:
                self._kernel_strikes[app] = 0

        slow = (self.faults.slow_factor(machine.label, machine.name, now)
                if self.faults is not None else 1.0)
        if slow != 1.0:
            self.fault_counts["slowed-batches"] += 1

        # lane-packed: ONE execution serves every request in the group
        # (its lanes are the batch); a fallback runs the reference
        # execution once per request, back-to-back
        packed = fallback_reason is None
        if not packed:
            memo = self._execution(app, machine.variant, payload,
                                   "reference")
        cap = memo[0]
        sim = self._price(machine, app, memo)
        single = sim.total_seconds * slow
        svc = single if packed else single * n
        finish = now + svc
        windows = ([(now, finish)] * n if packed else
                   [(now + single * i, now + single * (i + 1))
                    for i in range(n)])
        label, lanes = machine.label, packed and n > 1
        responses = [Response(r, cap.results, cap.stats, cap.backend, bid, n,
                              now, end, lane_packed=lanes,
                              fallback_reason=fallback_reason, machine=label)
                     for r, (_start, end) in zip(requests, windows)]
        if self._tracing:
            for r, (start, end) in zip(requests, windows):
                r.tl.mark("exec_start", start)
                r.tl.mark("complete", end)
        if not packed:
            self.fallbacks.append(ServeFallback(app, fallback_reason, n))
            if self.metrics is not None:
                self.metrics.inc("serve.fallback", app=app)
        elif self.metrics is not None and n > 1:
            self.metrics.inc("serve.lane_packed_requests", n, app=app)

        machine.busy_until = finish
        machine.busy_s += svc
        machine.batches += 1
        if self.metrics is not None:
            self.metrics.inc("serve.batches", app=app)
            self.metrics.observe("serve.batch_size", float(n), app=app)
            self.metrics.observe("serve.service_s", svc,
                                 machine=machine.name)
        bsp = None
        if self._root is not None:
            extra = {"slow_factor": slow} if slow != 1.0 else {}
            bsp = self._root.child(
                f"b{bid}:{app}x{n}", "batch", now, svc,
                machine=machine.index, machine_name=machine.name,
                app=app, batch=n, batch_id=bid,
                lane_packed=packed and n > 1,
                backend=cap.backend, service_s=svc,
                fallback=fallback_reason, **extra)
            if packed:
                # graft the priced per-loop breakdown under the batch
                # span, pinned to the *serving* replica's track (the
                # memoized pricing carries its own machine indices,
                # which would land the loops on the wrong row)
                cursor = now
                for loop in sim.loops:
                    bsp.child(loop.name, "loop", cursor, loop.time_s,
                              machine=machine.index, op=loop.op_name,
                              iters=loop.iters, workers=loop.workers,
                              compute_s=loop.compute_s,
                              memory_s=loop.memory_s,
                              comm_s=loop.comm_s,
                              overhead_s=loop.overhead_s)
                    cursor += loop.time_s
        batch = Batch(bid, machine, responses, finish, bsp)
        machine.batch = batch
        self._push(finish, "complete", batch)
