"""The benchmark's three workloads and the runner that times them.

- ``apps``: one sequential caller sweeping the 8 bundled apps in a fixed,
  interleaved order; each app-run stages the app, compiles it for the
  ``distributed`` target, plans it with ``plan_program`` and runs it on
  the numpy backend.
- ``serve-coalesced``: Poisson arrivals at 2000 simulated req/s over
  kmeans, logreg and q1, one payload per app, so identical requests
  lane-pack; the same traffic is served untraced, then observed (repro's
  ``Tracer`` + ``MetricsRegistry`` on and the Chrome trace exported), and
  finally swept over a capacity ladder.
- ``serve-tenants``: the same apps at 250 simulated req/s with salted
  per-tenant payloads that never lane-pack, on a heterogeneous fleet, so
  every request pays for real executions.

Every timed sample is scaled to a reference host speed: right before it
(and, for multi-second samples, right after it) the benchmark times a
fixed interpreter-bound calibration kernel of its own, and multiplies the
sample by ``CALIBRATION_REF_S / kernel time``. On a shared 2-vCPU Xeon
VM throughput drops by up to ~60% for seconds at a time and CPU time
drops alike, but the ratio to the kernel stays within a few percent.
Raw values are printed alongside.

End-to-end numbers come from untraced iterations. With ``trace`` on, the
timed loop alternates untraced and layer-traced iterations (see
``layer_trace.py``) so a slow phase of the host hits both alike; the
per-layer numbers come from the traced ones.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

import repro.backend
import repro.pipeline
from repro.backend import vectorize
from repro.core.multiloop import MultiLoop
from repro.obs import MetricsRegistry, Tracer
from repro.obs import export as obs_export
from repro.serve import (OpenLoop, ProgramCache, ProgramServer, ServedApp,
                         ServeSim, make_machines)
from repro.serve import scheduler as serve_scheduler

import inputs
from layer_trace import LAYERS, LayerTracer

PHASES = ("soa", "opt-1", "opt-2", "partition", "re-fuse", "finalize",
          "report")
SERVED_APPS = ("kmeans", "logreg", "q1")
#: simulated latency limit and backlog test of the capacity ladder
P99_LIMIT_S = 0.020
BACKLOG_RATIO = 1.5
#: the calibration kernel's time at the reference host speed
CALIBRATION_REF_S = 0.005


@dataclass(frozen=True)
class Config:
    """Sizes of one benchmark run (the defaults are the benchmark)."""

    setup_repeats: int = 3
    #: untraced (and, with tracing, traced) iterations made at least
    min_iterations: int = 3
    coalesced_requests: int = 4000
    #: enough that every (app, tenant, variant) program is executed in
    #: every run whatever the seed, so the work per run does not vary
    tenants_requests: int = 3000
    tenants_per_app: int = 8
    ladder_rps: Tuple[int, ...] = tuple(range(250, 4001, 250))


#: reduced sizes for the benchmark's own smoke test
SMALL = Config(setup_repeats=1, min_iterations=1, coalesced_requests=300,
               tenants_requests=40, tenants_per_app=2,
               ladder_rps=(500, 2000))


@dataclass
class Result:
    """Everything one run measured: metric -> (value, unit, samples)."""

    workload: str
    seed: int
    trace: bool
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: per-program rows: (program, compile_ms, run_ms, raw compile_ms,
    #: raw run_ms, samples)
    rows: List[Tuple[str, float, float, float, float, int]] = field(
        default_factory=list)
    notes: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def calibration_kernel() -> float:
    """Seconds a fixed, interpreter-bound kernel (dict and sort churn,
    like the compiler's passes) takes right now."""
    t0 = time.perf_counter()
    d: Dict[int, int] = {}
    for i in range(20000):
        d[(i * 7919) % 1009] = d.get((i * 31) % 1009, 0) + i
    sorted(d.items(), key=lambda kv: (kv[1] % 97, kv[0]))
    return time.perf_counter() - t0


class Calibrator:
    """Times the calibration kernel and turns it into speed factors."""

    def __init__(self) -> None:
        self.kernel_s: List[float] = []
        #: host seconds spent calibrating, for callers to subtract
        self.wall = 0.0

    def measure(self) -> float:
        t0 = time.perf_counter()
        k = calibration_kernel()
        self.kernel_s.append(k)
        self.wall += time.perf_counter() - t0
        return k

    @staticmethod
    def factor(*kernel_s: float) -> float:
        """Scale from this host's current speed to the reference one."""
        return CALIBRATION_REF_S / (sum(kernel_s) / len(kernel_s))


def _loop_count(compiled) -> int:
    return sum(1 for d in compiled.program.body.stmts
               if isinstance(d.op, MultiLoop))


class Probes:
    """Boundary probes kept on for the whole run, traced or not: they
    record which executions fell back to the interpreter, and time each of
    the serving layer's real executions. Untraced, each execution is
    preceded by the calibration kernel, which ``Calibrator.wall`` tallies
    so callers can take it out of their own timings."""

    def __init__(self, cal: Calibrator) -> None:
        self.cal = cal
        self.last_fallbacks: List[Any] = []
        #: (compiled id, seconds, speed factor or 0.0 if uncalibrated,
        #: loops vectorized, fallbacks) per serve-layer execution
        self.captures: List[Tuple[int, float, float, int, int]] = []
        self.tracer: Optional[LayerTracer] = None
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        run_numpy = repro.backend.run_program_numpy
        capture_run = serve_scheduler.capture_run

        def run_program_numpy(*args, **kwargs):
            out = run_numpy(*args, **kwargs)
            self.last_fallbacks = list(out[2])
            return out

        def probed_capture_run(compiled, *args, **kwargs):
            lt = self.tracer
            factor = 0.0
            if lt is not None:  # key the execution's spans by its program
                outer = lt.key
                lt.key = f"{outer}{id(compiled)}/"
            else:
                factor = self.cal.factor(self.cal.measure())
            t0 = time.perf_counter()
            try:
                cap = capture_run(compiled, *args, **kwargs)
            finally:
                if lt is not None:
                    lt.key = outer
            self.captures.append(
                (id(compiled), time.perf_counter() - t0, factor,
                 _loop_count(compiled) - len(cap.fallbacks),
                 len(cap.fallbacks)))
            return cap

        self._saved = [(repro.backend, "run_program_numpy", run_numpy),
                       (serve_scheduler, "capture_run", capture_run)]
        repro.backend.run_program_numpy = run_program_numpy
        serve_scheduler.capture_run = probed_capture_run

    def uninstall(self) -> None:
        for owner, attr, orig in self._saved:
            setattr(owner, attr, orig)
        self._saved.clear()


# ---------------------------------------------------------------------------
# apps
# ---------------------------------------------------------------------------

class AppsWorkload:
    def __init__(self, seed: int, cfg: Config, probes: Probes,
                 cal: Calibrator, corrupt: bool = False):
        self.seed, self.cfg, self.probes, self.cal = seed, cfg, probes, cal
        self.corrupt = corrupt
        self.cases: List[inputs.AppCase] = []
        self.runs = 0
        #: per app: (speed factor, compile_s, run_s) of untraced app-runs
        self.samples: Dict[str, List[Tuple[float, float, float]]] = {}
        #: per untraced sweep: mean scaled / raw seconds per app-run
        self.per_run_s: List[float] = []
        self.raw_per_run_s: List[float] = []
        #: per traced sweep: the compiled programs (pass traces)
        self.traced: List[List[Any]] = []
        #: per traced sweep: loops run vectorized, runs with a fallback
        self.loops_vectorized: List[int] = []
        self.fallback_runs: List[int] = []

    def setup(self, lt: Optional[LayerTracer], res: Result) -> None:
        self.cases = [inputs.make_case(a, self.seed) for a in inputs.APPS]
        # warm-up sweep: first-call imports, allocator and interpreter
        # caches are paid here, inside setup_s, not in the timed sweeps
        self._sweep(lt, res, "setup/", record=False)

    def step(self, it: str, lt: Optional[LayerTracer], res: Result) -> None:
        self._sweep(lt, res, it, record=True)

    def _sweep(self, lt: Optional[LayerTracer], res: Result, it: str,
               record: bool) -> None:
        total = raw_total = 0.0
        loops = fell_back = 0
        compiles = []
        for case in self.cases:
            gc.collect()
            factor = self.cal.factor(self.cal.measure())
            if lt is not None:
                lt.key = f"{it}{case.name}/"
                root = lt.open("bench.app-run", "bench")
            t0 = time.perf_counter()
            prog = case.factory()
            compiled = repro.pipeline.compile_program(prog, "distributed")
            t1 = time.perf_counter()
            plan = vectorize.plan_program(compiled.program)
            self.probes.last_fallbacks = []
            t2 = time.perf_counter()
            results, _stats = compiled.run(case.inputs, backend="numpy")
            t3 = time.perf_counter()
            if lt is not None:
                lt.close(root)
                compiles.append(compiled)
            fallbacks = self.probes.last_fallbacks
            if self.corrupt and self.runs == 0:
                results = tuple(results) + ("injected wrong output",)
            self.runs += 1
            res.attempted += 1
            if not inputs.matches(case, results):
                res.fail(1, f"{case.name}: result differs from its oracle")
            static = [r for r in plan.values() if r is not None]
            if static or fallbacks:
                fell_back += 1
                res.fail(1, f"{case.name}: interpreter fallback "
                            f"{static or fallbacks}")
            loops += _loop_count(compiled) - len(fallbacks)
            if record and lt is None:
                self.samples.setdefault(case.name, []).append(
                    (factor, t1 - t0, t3 - t2))
            total += (t3 - t0) * factor
            raw_total += t3 - t0
        if record and lt is None:
            self.per_run_s.append(total / len(self.cases))
            self.raw_per_run_s.append(raw_total / len(self.cases))
        if record and lt is not None:
            self.traced.append(compiles)
            self.loops_vectorized.append(loops)
            self.fallback_runs.append(fell_back)

    def finish(self, res: Result) -> None:
        pass  # every apps measurement is taken in the timed sweeps

    def end_to_end(self, res: Result) -> None:
        comp, run = [], []
        for app in inputs.APPS:
            s = self.samples[app]
            c = median(f * x for f, x, _ in s) * 1e3
            r = median(f * x for f, _, x in s) * 1e3
            comp.append(c)
            run.append(r)
            res.rows.append((app, c, r, median(x for _, x, _ in s) * 1e3,
                             median(x for _, _, x in s) * 1e3, len(s)))
        n = sum(len(s) for s in self.samples.values())
        res.put("compile_ms", geomean(comp), "ms", n)
        res.put("run_ms", geomean(run), "ms", n)
        res.put("host_us_per_req", median(self.per_run_s) * 1e6, "us",
                len(self.per_run_s))
        res.put("host_us_per_req.raw", median(self.raw_per_run_s) * 1e6,
                "us", len(self.raw_per_run_s))

    def per_layer(self, lt: LayerTracer, its: List[str],
                  res: Result) -> None:
        n = len(its)

        def per_app_median(span: str, app: str) -> float:
            vals = [d for k, d in lt.durations(span)
                    if k.startswith("it") and k.endswith(f"/{app}/")]
            return median(vals) * 1e3 if vals else 0.0

        stage = sum(per_app_median("frontend.stage", a) for a in inputs.APPS)
        res.put("frontend.stage_ms", stage, "ms", n * len(inputs.APPS))
        for app in inputs.APPS:
            res.put(f"pipeline.compile_ms.{app}",
                    per_app_median("pipeline.compile", app), "ms", n)
            res.put(f"backend.run_ms.{app}",
                    per_app_median("backend.eval", app), "ms", n)
        put_pipeline_counts(res, self.traced)
        res.put("backend.plan_ms",
                sum(per_app_median("backend.plan", a) for a in inputs.APPS),
                "ms", n * len(inputs.APPS))
        res.put("backend.vectorized_loops", median(self.loops_vectorized),
                "count", n)
        res.put("backend.fallbacks", median(self.fallback_runs), "count", n)


def put_pipeline_counts(res: Result, rounds: List[List[Any]]) -> None:
    """Per-phase compile time (median over ``rounds`` of the sum over the
    round's compiles) and the pass counts of one round, all from the
    public ``CompiledProgram.trace``."""
    samples = len(rounds)
    for p in PHASES:
        res.put(f"pipeline.phase_ms.{p}",
                median(sum(t.wall_ms for c in compiled for t in c.trace
                           if t.phase == p) for compiled in rounds),
                "ms", samples)
    compiled = rounds[-1]
    res.put("pipeline.passes_run", sum(len(c.trace) for c in compiled),
            "count", samples)
    res.put("pipeline.passes_changed",
            sum(t.changed for c in compiled for t in c.trace), "count",
            samples)
    res.put("pipeline.ir_stmts",
            sum(c.trace[-1].stmts_after for c in compiled), "count", samples)
    res.put("pipeline.rules_applied",
            sum(len(t.rules) for c in compiled for t in c.trace), "count",
            samples)


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

@dataclass
class ServeRun:
    """One served traffic run, reduced to what the benchmark keeps."""

    #: host seconds of the run (and export), calibration kernels excluded
    wall_s: float
    #: the same scaled to the reference host speed: executions by the
    #: factor measured right before each, the rest by the run's average
    scaled_s: float
    report: Any
    #: simulated latency of every request, in arrival order
    latencies: List[float]
    #: (compiled id, seconds, speed factor) of each real execution
    execs: List[Tuple[int, float, float]] = field(default_factory=list)
    #: loops executed vectorized, summed over those executions
    vectorized: int = 0
    #: executions that fell back to the interpreter for some loop
    fallbacks: int = 0
    export_s: float = 0.0
    trace_bytes: int = 0
    spans: int = 0
    series: int = 0


class EachReplica:
    """Warm-up arrivals: one request per app per replica, a simulated
    second apart, so round-robin placement finds every replica idle and
    each (app, variant) program executes once."""

    def __init__(self, replicas: int):
        self.replicas = replicas
        self.requests = len(SERVED_APPS) * replicas

    def prime(self, server: ProgramServer) -> None:
        for i in range(self.requests):
            server.submit(SERVED_APPS[i // self.replicas], at=float(i))


class ServeWorkload:
    def __init__(self, name: str, seed: int, cfg: Config, probes: Probes,
                 cal: Calibrator, corrupt: bool = False):
        self.name = name
        self.seed, self.cfg, self.probes, self.cal = seed, cfg, probes, cal
        self.corrupt = corrupt
        self.coalesced = name == "serve-coalesced"
        if self.coalesced:
            self.machines, self.rate = "numa*2", 2000.0
            self.requests, self.payloads = cfg.coalesced_requests, 1
        else:
            self.machines, self.rate = "numa*2,gpunode", 250.0
            self.requests = cfg.tenants_requests
            self.payloads = cfg.tenants_per_app
        self.variants = sorted({m.variant
                                for m in make_machines(self.machines)})
        self.cases: Dict[str, inputs.AppCase] = {}
        self.served: List[ServedApp] = []
        self.cache: Optional[ProgramCache] = None
        #: per setup: scaled seconds of each (app, variant) compile
        self.compile_s: List[Dict[Tuple[str, str], float]] = []
        self.compile_raw_s: List[Dict[Tuple[str, str], float]] = []
        self.entries: Dict[Tuple[str, str], Any] = {}
        self.reference_latencies: Optional[List[float]] = None
        self.plain: List[ServeRun] = []
        self.observed: List[ServeRun] = []
        self.traced_plain: List[ServeRun] = []
        self.traced_observed: List[ServeRun] = []
        self.capacity_rps = 0.0
        self.checked = 0

    # -- one traffic run ----------------------------------------------------

    def _serve(self, observed: bool, rate: float, key: str,
               lt: Optional[LayerTracer], res: Result,
               source: Optional[Any] = None) -> ServeRun:
        """Serve one traffic run: the workload's seeded open loop at
        ``rate``, or ``source`` (an arrival process with ``requests``)."""
        # passes of the workload's own traffic must agree exactly
        same_traffic = source is None and rate == self.rate
        if source is None:
            source = OpenLoop(list(SERVED_APPS), rate, self.requests,
                              seed=self.seed, payloads=self.payloads)
        requests = source.requests
        gc.collect()
        k0 = self.cal.measure()
        tracer = Tracer() if observed else None
        metrics = MetricsRegistry() if observed else None
        server = ProgramServer(
            self.served, make_machines(self.machines), max_batch=8,
            max_wait_s=0.002, policy="round-robin", backend="numpy",
            metrics=metrics, tracer=tracer, cache=self.cache,
            trace_seed=self.seed)
        if lt is not None:
            lt.key = key
        first = len(self.probes.captures)
        calibrating = self.cal.wall
        t0 = time.perf_counter()
        responses = server.run(source)
        t1 = time.perf_counter()
        export_s, text = 0.0, ""
        if observed:
            doc = {"traceEvents": obs_export.chrome_trace_events(tracer),
                   "displayTimeUnit": "ms"}
            text = (json.dumps(doc) if lt is None
                    else lt.span("obs.serialize", "obs", json.dumps, doc))
            export_s = time.perf_counter() - t1
        wall = time.perf_counter() - t0 - (self.cal.wall - calibrating)
        factor = self.cal.factor(k0, self.cal.measure())
        execs = [(cid, secs, f or factor)
                 for cid, secs, f, _v, _fb in self.probes.captures[first:]]
        exec_s = sum(secs for _cid, secs, _f in execs)
        run = ServeRun(
            wall, sum(secs * f for _cid, secs, f in execs)
            + (wall - exec_s) * factor,
            ServeSim.report("open", server, responses),
            [r.latency_s
             for r in sorted(responses, key=lambda r: r.request.rid)],
            execs=execs,
            vectorized=sum(c[3] for c in self.probes.captures[first:]),
            fallbacks=sum(1 for c in self.probes.captures[first:] if c[4]),
            export_s=export_s, trace_bytes=len(text.encode()))
        if observed:
            run.spans = sum(1 for root in tracer.runs for _ in root.walk())
            run.series = sum(len(v) for v in metrics.snapshot().values())
        self._check(server, responses, run, requests, same_traffic, res)
        return run

    def _check(self, server: ProgramServer, responses: List[Any],
               run: ServeRun, requests: int, same_traffic: bool,
               res: Result) -> None:
        res.attempted += requests
        lost = requests - len(responses) - len(server.rejected)
        res.fail(lost, "requests lost")
        res.fail(len(server.rejected), "requests rejected")
        variant = {m.label: m.variant for m in server.machines}
        verdict: Dict[int, bool] = {}
        bad = 0
        for r in responses:
            results = r.results
            if self.corrupt and self.checked == 0:
                results = tuple(results) + ("injected wrong output",)
            self.checked += 1
            k = id(results)
            if k not in verdict:
                verdict[k] = inputs.matches(self.cases[r.request.app],
                                            results)
                if not verdict[k]:
                    res.notes.append(
                        f"mismatch: {r.request.app}/{variant[r.machine]}/"
                        f"{r.request.payload.key}")
            bad += not verdict[k]
        res.fail(bad, "responses differ from their oracle")
        if not same_traffic:
            return
        if self.reference_latencies is None:
            self.reference_latencies = run.latencies
        elif run.latencies != self.reference_latencies:
            ref = self.reference_latencies
            diff = (sum(1 for a, b in zip(run.latencies, ref) if a != b)
                    + abs(len(run.latencies) - len(ref)))
            res.fail(diff, "simulated latencies differ between passes of "
                           "the same traffic")

    # -- phases -------------------------------------------------------------

    def setup(self, lt: Optional[LayerTracer], res: Result) -> None:
        self.cases = {a: inputs.make_case(a, self.seed)
                      for a in SERVED_APPS}
        self.served = [ServedApp(a, c.factory, c.inputs, c.scale,
                                 c.data_scale)
                       for a, c in self.cases.items()]
        self.cache = ProgramCache({a: c.factory
                                   for a, c in self.cases.items()})
        compiles, raw = {}, {}
        self.entries = {}
        for app in SERVED_APPS:
            for variant in self.variants:
                if lt is not None:
                    lt.key = f"setup/{app}/"
                factor = self.cal.factor(self.cal.measure())
                entry = self.cache.get(app, variant)
                compiles[(app, variant)] = entry.compile_s * factor
                raw[(app, variant)] = entry.compile_s
                self.entries[(app, variant)] = entry
        self.compile_s.append(compiles)
        self.compile_raw_s.append(raw)
        # warm-up: first-call imports and lazy caches are paid here,
        # inside setup_s, and every served program runs once, the same
        # whatever the seed
        replicas = len(make_machines(self.machines))
        self._serve(False, self.rate, "setup/plain/", lt, res,
                    EachReplica(replicas))
        if self.coalesced:
            self._serve(True, self.rate, "setup/observed/", lt, res,
                        EachReplica(replicas))

    def step(self, it: str, lt: Optional[LayerTracer], res: Result) -> None:
        plain = self._serve(False, self.rate, f"{it}plain/", lt, res)
        (self.plain if lt is None else self.traced_plain).append(plain)
        if self.coalesced:
            obs = self._serve(True, self.rate, f"{it}observed/", lt, res)
            (self.observed if lt is None else
             self.traced_observed).append(obs)

    def finish(self, res: Result) -> None:
        """The capacity ladder (coalesced traffic only): the highest rate
        whose simulated p99 meets the limit with no growing backlog."""
        if not self.coalesced:
            return
        for rate in self.cfg.ladder_rps:
            run = self._serve(False, float(rate), f"ladder/{rate}/", None,
                              res)
            if run.report.rejected or \
                    run.report.latency_p99_s > P99_LIMIT_S:
                continue
            if backlog_ratio(run.latencies) <= BACKLOG_RATIO:
                self.capacity_rps = max(self.capacity_rps, float(rate))

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, res: Result) -> None:
        comp = {k: median(s[k] for s in self.compile_s) * 1e3
                for k in self.entries}
        res.put("compile_ms", geomean(list(comp.values())), "ms",
                len(comp) * len(self.compile_s))
        by_id = {id(e.compiled): k for k, e in self.entries.items()}
        # (scaled ms, raw ms) per program
        execs: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
        for run in self.plain:
            for cid, secs, factor in run.execs:
                execs.setdefault(by_id[cid], []).append(
                    (secs * factor * 1e3, secs * 1e3))
        res.put("run_ms", geomean([median(x for x, _ in v)
                                   for v in execs.values()]),
                "ms", sum(len(v) for v in execs.values()))
        for key, v in sorted(execs.items()):
            res.rows.append(("/".join(key), comp[key],
                             median(x for x, _ in v),
                             median(s[key] for s in self.compile_raw_s) * 1e3,
                             median(x for _, x in v), len(v)))
        res.put("host_us_per_req", self._us_per_req(self.plain), "us",
                len(self.plain))
        res.put("host_us_per_req.raw", self._us_per_req(self.plain, False),
                "us", len(self.plain))

    def _us_per_req(self, runs: List[ServeRun], scaled: bool = True
                    ) -> float:
        return (median(r.scaled_s if scaled else r.wall_s for r in runs)
                / self.requests * 1e6)

    def shared(self, res: Result) -> None:
        """Serving metrics printed in both modes. The same traffic repeats
        exactly, so the simulated ones and the counts are exact."""
        first = (self.plain or self.traced_plain)[0]
        rep = first.report
        n = len(self.plain) + len(self.traced_plain)
        # simulated time, not host time: exact for a seed
        res.put("sim_p50_ms", rep.latency_p50_s * 1e3, "sim_ms",
                rep.requests)
        res.put("sim_p99_ms", rep.latency_p99_s * 1e3, "sim_ms",
                rep.requests)
        if self.coalesced:
            res.put("sim_capacity_rps", self.capacity_rps, "1/s",
                    len(self.cfg.ladder_rps))
        res.put("serve.batches", rep.batches, "count", n)
        res.put("serve.batch_mean", rep.batch_mean, "req/batch", n)
        res.put("serve.lane_packed_frac",
                rep.lane_packed_requests / rep.requests, "frac", n)
        res.put("serve.requests_per_exec", rep.requests / len(first.execs),
                "req/exec", n)
        res.put("serve.util_max", max(rep.machine_util.values()), "frac", n)
        if self.observed:
            res.put("observed_us_per_req", self._us_per_req(self.observed),
                    "us", len(self.observed))
            res.put("trace_bytes_per_req",
                    self.observed[0].trace_bytes / self.requests, "B",
                    len(self.observed))

    def per_layer(self, lt: LayerTracer, its: List[str],
                  res: Result) -> None:
        n = len(its)
        plain_keys = [f"{it}plain/" for it in its]

        def per_run(span: str) -> Tuple[float, int]:
            """(median ms, calls) per traced plain run."""
            ms, calls = [], []
            for key in plain_keys:
                ds = [d for _k, d in lt.durations(span, key)]
                ms.append(sum(ds) * 1e3)
                calls.append(len(ds))
            return median(ms), int(median(calls))

        stage = sum(d for _k, d in lt.durations("frontend.stage", "setup/"))
        res.put("frontend.stage_ms", stage * 1e3, "ms", len(self.entries))
        for app in SERVED_APPS:
            comp = sum(d for _k, d in lt.durations("pipeline.compile",
                                                    f"setup/{app}/"))
            res.put(f"pipeline.compile_ms.{app}", comp * 1e3, "ms",
                    len(self.variants))
            cid = f"/{id(self.entries[(app, 'opt')].compiled)}/"
            ev = [d for k, d in lt.durations("backend.eval")
                  if k.startswith("it") and k.endswith(cid)]
            res.put(f"backend.run_ms.{app}", median(ev) * 1e3, "ms", len(ev))
        put_pipeline_counts(res, [[e.compiled
                                   for e in self.entries.values()]])
        res.put("backend.vectorized_loops", self.traced_plain[0].vectorized,
                "count", n)
        res.put("backend.fallbacks", self.traced_plain[0].fallbacks,
                "count", n)
        cap_ms, cap_n = per_run("runtime.capture")
        price_ms, price_n = per_run("runtime.price")
        res.put("runtime.capture_ms", cap_ms, "ms", n)
        res.put("runtime.captures", cap_n, "count", n)
        res.put("runtime.price_ms", price_ms, "ms", n)
        res.put("runtime.prices", price_n, "count", n)
        res.put("serve.cache.compile_ms",
                sum(self.compile_raw_s[-1].values()) * 1e3, "ms",
                len(self.entries))
        res.put("serve.cache.misses", self.cache.misses, "count", 1)
        dig_ms, dig_n = per_run("serve.batching.digest")
        res.put("serve.batching.digest_ms", dig_ms, "ms", n)
        res.put("serve.batching.digests", dig_n, "count", n)
        sched = [sum(s for k, s in lt.self_of("serve.scheduler.run")
                     if k == key) for key in plain_keys]
        res.put("serve.scheduler.self_us_per_req",
                median(sched) / self.requests * 1e6, "us", n)
        if self.coalesced:
            res.put("obs.overhead_us_per_req",
                    self._us_per_req(self.observed)
                    - self._us_per_req(self.plain), "us",
                    len(self.observed) + len(self.plain))
            res.put("obs.export_ms",
                    median(r.export_s for r in self.traced_observed) * 1e3,
                    "ms", len(self.traced_observed))
            res.put("obs.spans", self.traced_observed[0].spans, "count", n)
            res.put("obs.metric_series", self.traced_observed[0].series,
                    "count", n)


def backlog_ratio(latencies: List[float]) -> float:
    """Median latency of the last quarter of arrivals over the first's."""
    q = max(1, len(latencies) // 4)
    return median(latencies[-q:]) / median(latencies[:q])


WORKLOADS = ("apps", "serve-coalesced", "serve-tenants")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 t_start: float, cfg: Config = Config(),
                 corrupt: bool = False,
                 spans_path: Optional[str] = None) -> Result:
    """Set up ``cfg.setup_repeats`` times, then time iterations for
    ``seconds`` (at least ``cfg.min_iterations`` of each kind), then
    reduce. ``t_start`` is the clock reading at process start, so
    ``setup_s`` includes the imports. ``corrupt`` injects one wrong
    output (the benchmark's self-test of its own correctness gate)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of "
                         f"{WORKLOADS}")
    probes = Probes(Calibrator())
    probes.install()
    try:
        return _run(name, seed, seconds, trace, t_start, cfg, corrupt,
                    probes, spans_path)
    finally:
        probes.uninstall()


def _run(name: str, seed: int, seconds: float, trace: bool, t_start: float,
         cfg: Config, corrupt: bool, probes: Probes,
         spans_path: Optional[str]) -> Result:
    imports_s = time.perf_counter() - t_start
    cal = probes.cal
    imports_factor = cal.factor(cal.measure())
    res = Result(name, seed, trace)
    wl: Any = (AppsWorkload(seed, cfg, probes, cal, corrupt)
               if name == "apps"
               else ServeWorkload(name, seed, cfg, probes, cal, corrupt))
    lt = LayerTracer() if trace else None

    def traced_call(fn, *args) -> None:
        lt.install()
        probes.tracer = lt
        try:
            fn(*args)
        finally:
            lt.uninstall()
            probes.tracer = None

    setups: List[Tuple[float, float]] = []   # (scaled, raw) seconds
    for k in range(cfg.setup_repeats):
        gc.collect()
        k0 = cal.measure()
        t0 = time.perf_counter()
        if lt is not None and k == cfg.setup_repeats - 1:
            traced_call(wl.setup, lt, res)
        else:
            wl.setup(None, res)
        raw = time.perf_counter() - t0
        setups.append((raw * cal.factor(k0, cal.measure()), raw))

    # scaled wall seconds per iteration, untraced (False) and traced (True)
    walls: Dict[bool, List[float]] = {False: [], True: []}
    its: List[str] = []
    traced_wall = 0.0   # raw host seconds of the traced iterations
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = lt is not None and i % 2 == 1
        it = f"it{i}/"
        k0 = cal.measure()
        calibrating = cal.wall
        t0 = time.perf_counter()
        if traced:
            def iteration() -> None:
                lt.key = it
                root = lt.open("bench.iteration", "bench")
                try:
                    wl.step(it, lt, res)
                finally:
                    lt.close(root)
            traced_call(iteration)
            its.append(it)
            traced_wall += time.perf_counter() - t0
        else:
            wl.step(it, None, res)
        raw = time.perf_counter() - t0 - (cal.wall - calibrating)
        walls[traced].append(raw * cal.factor(k0, cal.measure()))
        i += 1
        if (time.perf_counter() >= deadline
                and len(walls[False]) >= cfg.min_iterations
                and (lt is None or len(walls[True]) >= cfg.min_iterations)):
            break
    wl.finish(res)

    if lt is None:
        res.put("setup_s", imports_s * imports_factor
                + median(x for x, _ in setups), "s", len(setups))
        res.put("setup_s.raw", imports_s + median(x for _, x in setups),
                "s", len(setups))
        wl.end_to_end(res)
        for i, name in ((3, "compile_ms"), (4, "run_ms")):
            res.put(f"{name}.raw", geomean([r[i] for r in res.rows]), "ms",
                    res.metrics[name][2])
    else:
        wl.per_layer(lt, its, res)
        own = {layer: 0.0 for layer in LAYERS}
        for it in its:
            for layer, secs in lt.self_seconds(it).items():
                own[layer] += secs
        for layer in LAYERS:
            res.put(f"{layer}.self_ms", own[layer] / len(its) * 1e3, "ms",
                    len(its))
        res.put("bench.self_time_coverage", sum(own.values()) / traced_wall,
                "frac", len(its))
        res.put("bench.layer_trace_overhead_frac",
                median(walls[True]) / median(walls[False]) - 1.0, "frac",
                len(walls[True]) + len(walls[False]))
        res.put("bench.calibration_ms", median(cal.kernel_s) * 1e3, "ms",
                len(cal.kernel_s))
        if spans_path:
            lt.write(spans_path)
    if isinstance(wl, ServeWorkload):
        wl.shared(res)
    res.put("peak_rss_mb",
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1)
    res.put("error_rate", res.failed / res.attempted, "frac", res.attempted)
    return res
