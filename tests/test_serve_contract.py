"""Generated serving-contract test (DESIGN.md §9, §13).

A bounded, derandomized Hypothesis search draws a whole serving setup —
fleet, placement policy, batching window, tenants, open or closed loop,
resilience knobs and a random fault plan — and checks the contracts the
hand-picked tests only sample:

- every *submitted* request ends as exactly one ``Response`` or one
  ``Rejected``;
- the global retry budget never goes below 0;
- on a traced run every request and attempt timeline decomposes exactly
  (tolerance 0.0) and the exported Chrome trace passes ``validate_file``;
- the same seed gives the same report bytes, traced or not.

Illegal lifecycle changes raise inside the server
(``IllegalTransition``), so they fail the example where they happen.
All examples share one ``ProgramCache``: compiles are paid once.
"""

import json
import math
import os
import tempfile

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.obs import Tracer, write_chrome_trace
from repro.obs.analyze import COMPONENTS, decompose_timeline
from repro.obs.check import validate_file
from repro.serve import (POLICIES, BreakerConfig, ClosedLoop, FaultPlan,
                         FaultSpec, OpenLoop, ProgramCache, ProgramServer,
                         ResilienceConfig, RetryPolicy, ServedApp, ServeSim,
                         make_machines)

#: apps whose numpy executions are cheap; the explicit examples add kmeans
APPS = ("q1", "gene", "pagerank")
SERVED = {a: ServedApp.from_bundle(a) for a in APPS + ("kmeans",)}
CACHE = ProgramCache({a: s.factory for a, s in SERVED.items()})
FLEETS = ("numa", "numa*2", "numa,gpunode", "numa*2,gpunode")
LABELS = ("numa", "gpunode", "numa[0]", "numa[1]", "gpunode[1]",
          "gpunode[2]", "*")

times = st.sampled_from((0.0, 0.001, 0.003, 0.007, 0.015, 0.03))


@st.composite
def fault_specs(draw):
    kind = draw(st.sampled_from(("crash", "slow", "kernel", "cache")))
    t0 = draw(times)
    t1 = draw(st.one_of(st.just(math.inf), times.map(lambda d: t0 + d)))
    if kind in ("crash", "slow"):
        return FaultSpec(kind, draw(st.sampled_from(LABELS)), t0_s=t0,
                         t1_s=t1, factor=draw(st.sampled_from((1.5, 4.0))))
    target = draw(st.sampled_from(APPS + ("*",)))
    if kind == "cache":
        return FaultSpec(kind, target, t0_s=t0)
    return FaultSpec(kind, target, t0_s=t0, t1_s=t1,
                     mode=draw(st.sampled_from(("fallback", "error"))),
                     rate=draw(st.sampled_from((0.3, 1.0))))


def maybe(strategy):
    return st.one_of(st.none(), strategy)


resilience_configs = st.builds(
    ResilienceConfig,
    deadline_s=maybe(st.sampled_from((0.002, 0.02))),
    retry=maybe(st.builds(RetryPolicy,
                          max_attempts=st.integers(1, 3),
                          backoff_s=st.just(0.0005),
                          budget=st.integers(0, 6))),
    hedge_delay_s=maybe(st.sampled_from((0.001, 0.004))),
    shed_depth=maybe(st.integers(2, 8)),
    breaker=maybe(st.just(BreakerConfig(window=4, min_events=2,
                                        cooldown_s=0.002))),
    degrade_after=st.integers(1, 3))

configs = st.fixed_dictionaries({
    "apps": st.lists(st.sampled_from(APPS), min_size=1, max_size=2,
                     unique=True),
    "machines": st.sampled_from(FLEETS),
    "policy": st.sampled_from(sorted(POLICIES)),
    "max_batch": st.integers(1, 4),
    "max_wait_s": st.sampled_from((0.0, 0.001, 0.004)),
    "payloads": st.integers(1, 2),
    "loop": st.one_of(
        st.tuples(st.just("open"), st.sampled_from((500.0, 5000.0)),
                  st.integers(4, 16)),
        st.tuples(st.just("closed"), st.integers(1, 4), st.integers(4, 14),
                  st.sampled_from((0.0, 0.001)))),
    "resilience": maybe(resilience_configs),
    "faults": maybe(st.lists(fault_specs(), min_size=1, max_size=3).map(
        lambda specs: FaultPlan(tuple(specs), seed=5))),
    "seed": st.integers(0, 3),
})

#: two overlapping crash windows on one replica, the second permanent
CRASH_OVERLAP = {
    "apps": ["q1"], "machines": "numa", "policy": "round-robin",
    "max_batch": 8, "max_wait_s": 0.001, "payloads": 1,
    "loop": ("open", 2000.0, 30), "resilience": None,
    "faults": FaultPlan((FaultSpec("crash", "numa[0]", t0_s=0.004,
                                   t1_s=0.048),
                         FaultSpec("crash", "numa[0]", t0_s=0.007))),
    "seed": 0}
#: a hedge outlives its requeued primary (crash on the GPU replica)
HEDGE_OUTLIVES_PRIMARY = {
    "apps": ["q1", "kmeans"], "machines": "numa*2,gpunode",
    "policy": "least-loaded", "max_batch": 3, "max_wait_s": 0.001,
    "payloads": 2, "loop": ("open", 20000.0, 16),
    "resilience": ResilienceConfig(hedge_delay_s=0.001),
    "faults": FaultPlan((FaultSpec("crash", "gpunode[2]", t0_s=0.017,
                                   t1_s=0.021),)),
    "seed": 1}


def serve(cfg, tracer=None):
    server = ProgramServer(
        [SERVED[a] for a in cfg["apps"]], make_machines(cfg["machines"]),
        max_batch=cfg["max_batch"], max_wait_s=cfg["max_wait_s"],
        policy=cfg["policy"], backend="numpy", tracer=tracer, cache=CACHE,
        trace_seed=cfg["seed"], faults=cfg["faults"],
        resilience=cfg["resilience"])
    submitted = []
    real_submit = server.submit

    def submit(*args, **kwargs):
        req = real_submit(*args, **kwargs)
        submitted.append(req.rid)
        return req

    server.submit = submit
    mode, *loop = cfg["loop"]
    if mode == "open":
        source = OpenLoop(cfg["apps"], loop[0], loop[1], seed=cfg["seed"],
                          payloads=cfg["payloads"])
    else:
        source = ClosedLoop(cfg["apps"], loop[0], loop[1], think_s=loop[2],
                            seed=cfg["seed"], payloads=cfg["payloads"])
    responses = server.run(source)
    return server, submitted, ServeSim.report(mode, server, responses)


def report_bytes(report):
    # the shared cache's hit/miss counters accumulate across runs, and
    # only traced runs carry a decomposition section
    doc = {k: v for k, v in report.to_json().items()
           if k not in ("cache", "decomposition")}
    return json.dumps(doc, sort_keys=True)


def assert_exact(tl):
    comps = decompose_timeline(tl)
    assert comps is not None
    assert sum(comps[c] for c in COMPONENTS) == comps["latency_s"]
    return comps


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(configs)
@example(CRASH_OVERLAP)
@example(HEDGE_OUTLIVES_PRIMARY)
def test_serving_contract(cfg):
    _plain_server, plain_rids, plain = serve(cfg)
    tracer = Tracer()
    server, rids, traced = serve(cfg, tracer)
    assert rids == plain_rids == list(range(len(rids)))
    assert report_bytes(traced) == report_bytes(plain)

    # every submitted rid ends exactly once, as a response or a refusal
    served = {r.request.rid: r for r in server.responses}
    refused = [j.rid for j in server.rejected]
    assert sorted(list(served) + refused) == rids
    assert len(served) == len(server.responses)

    summary = server.resilience_summary()
    if summary is not None:
        assert summary["retry_budget_left"] >= 0
        if cfg["resilience"] is not None and cfg["resilience"].retry:
            assert (summary["retries"] + summary["retry_budget_left"]
                    == cfg["resilience"].retry.budget)

    for rid in rids:
        if rid in served:
            comps = assert_exact(server.timeline_of(rid))
            assert comps["latency_s"] == served[rid].latency_s
        for _attempt, _status, tl in server.attempt_timelines_of(rid):
            if "arrive" in tl.marks and "complete" in tl.marks:
                assert_exact(tl)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.json")
        write_chrome_trace(path, tracer)
        assert validate_file(path) == []
