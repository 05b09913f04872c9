"""Cross-commit golden digests for the serving simulator.

The other byte-identity tests compare two runs of the *same* code, so a
refactor that changes every report would still pass them. This file
pins sha256 digests of ``ServeReport.to_json()`` and, for traced runs,
of ``chrome_trace_events(tracer)`` (both ``json.dumps(sort_keys=True)``)
across seven serving configurations, untraced and traced, all with an
explicit backend and seed 7.

The digests were generated once and must not be edited to make a change
pass: a mismatch means the change altered a report or a trace. On a
mismatch the actual document is written to ``tmp_path`` for diffing.
"""

import hashlib
import json
import pathlib

import pytest

from repro.obs import Tracer, chrome_trace_events, write_chrome_trace
from repro.obs.check import validate_file
from repro.serve import (BreakerConfig, FaultPlan, FaultSpec,
                         ResilienceConfig, RetryPolicy, ServeSim)

SEED = 7
PLAN_PATH = (pathlib.Path(__file__).parent.parent / "examples"
             / "faults_outage.json")


def _open3(tracer):
    sim = ServeSim(["kmeans", "q1", "logreg"], machines="numa*2,gpunode",
                   backend="numpy", max_batch=4, max_wait_s=0.005,
                   payloads=4, tracer=tracer)
    return sim.run_open(rate_rps=800, requests=32, seed=SEED)


def _fastest(tracer):
    sim = ServeSim(["kmeans", "q1"], machines="numa,gpunode",
                   backend="numpy", max_batch=4, max_wait_s=0.005,
                   policy="fastest", tracer=tracer)
    return sim.run_open(rate_rps=600, requests=24, seed=SEED)


def _closed_least_loaded(tracer):
    sim = ServeSim(["q1", "logreg"], machines="numa*2", backend="numpy",
                   max_batch=3, max_wait_s=0.004, policy="least-loaded",
                   payloads=2, tracer=tracer)
    return sim.run_closed(clients=4, requests=20, think_s=0.001, seed=SEED)


def _reference(tracer):
    sim = ServeSim(["q1"], machines="numa*2", backend="reference",
                   max_batch=4, max_wait_s=0.005, tracer=tracer)
    return sim.run_open(rate_rps=500, requests=16, seed=SEED)


def _outage(tracer):
    # the scripted outage of tests/test_faults.py::outage_sim, every
    # resilience knob on
    res = ResilienceConfig(deadline_s=2.0,
                           retry=RetryPolicy(max_attempts=3),
                           hedge_delay_s=0.03, shed_depth=64,
                           breaker=BreakerConfig())
    sim = ServeSim(["kmeans"], machines="numa*2", max_batch=4,
                   max_wait_s=0.02, backend="numpy",
                   faults=FaultPlan.load(str(PLAN_PATH)), resilience=res,
                   tracer=tracer)
    return sim.run_closed(clients=6, requests=24, seed=SEED)


def _shed(tracer):
    sim = ServeSim(["q1"], machines="numa", backend="numpy", max_batch=2,
                   max_wait_s=0.05, resilience=ResilienceConfig(shed_depth=2),
                   tracer=tracer)
    return sim.run_open(rate_rps=5000, requests=16, seed=SEED)


def _kernel_fallback(tracer):
    plan = FaultPlan((FaultSpec("kernel", "q1", mode="fallback", rate=0.9,
                                t1_s=0.02),), seed=SEED)
    sim = ServeSim(["q1", "kmeans"], machines="numa*2", backend="numpy",
                   max_batch=4, max_wait_s=0.004, faults=plan,
                   resilience=ResilienceConfig(degrade_after=2),
                   tracer=tracer)
    return sim.run_closed(clients=4, requests=20, seed=SEED)


CONFIGS = {
    "open3": _open3,
    "fastest": _fastest,
    "closed-least-loaded": _closed_least_loaded,
    "reference": _reference,
    "outage": _outage,
    "shed": _shed,
    "kernel-fallback": _kernel_fallback,
}

#: sha256 of json.dumps(doc, sort_keys=True) — (report, trace) per
#: (config, traced); the untraced runs have no trace
GOLDEN = {
    "closed-least-loaded/untraced": (
        "385947e8e88c6995924a6d478cc3629731fb97339ef995c4b3c4f707d171ea8a",
        None),
    "closed-least-loaded/traced": (
        "b3f2e8bd78ed147e029326ff8add9000744d51b27e5808d72d6cb77ed0a34b9a",
        "b8f8f4923de89e03e02d9d4994dcaf610418e3229467b4e36ae2d8598914faf0"),
    "fastest/untraced": (
        "cf90ef058b261f573f3a93ed629479c6550e8d623d5fd291c650973929ba2133",
        None),
    "fastest/traced": (
        "9d0c793b80cff8857a2abcb4570039684e88ee3eed3c35fee247ea9282fd1d4d",
        "1540a21e97bef987c9dc002b1d273831898aa2b25f7853c24697decf0b42743c"),
    "kernel-fallback/untraced": (
        "8664af45bdddd77658c4aa1a5109d4d7211e334981abfe436ad25ad2065ec241",
        None),
    "kernel-fallback/traced": (
        "14d75761713222c905c561b606a2cadb84d64b29c1ed16ca9c698866bb3c26cf",
        "550ebe276929ad3954ba17e22fab5b43c69d6dc8fc58fcab6fa52088b2487508"),
    "open3/untraced": (
        "e516f94c609cdee79be94361b4212d38a6fb3b2ae24476dfb7791b1dc18a9512",
        None),
    "open3/traced": (
        "24c227084e6ee40decd141908fea5836c9ce9a9fc3b196b627b4d05ab39b343f",
        "d90b843393f7341cbf54f3c9590c7603876db598936eca1d7a61ff7bab4f1498"),
    "outage/untraced": (
        "8876cf52ebfeea21f8c88f56e624c8a19612a14dda2fc45ee1b43e70b9ec72d6",
        None),
    "outage/traced": (
        "e4b83a5595f82c2e0a17d3dce3c77f8bec5429db38791e53e653e2401431aae2",
        "eaa63cca304e882becaaeba58d472b3f2956b556360a8c2eb0f543080393d60c"),
    "reference/untraced": (
        "f8deb65766fc1a3be8bed0ab57d7df5fef42f0f8781a7c1e1531d822dfa892ad",
        None),
    "reference/traced": (
        "4ba7fc8ed7985bfb31add647f6c8b36d5496da5d7529e308177f863303855925",
        "c12aede2c9ccf79e77feb926c0465607861678396e790c6faf370fd998f6dd07"),
    "shed/untraced": (
        "78c76e368d32a222db3c8a977895186d448a7564429e2ed27761dcd3db3f9536",
        None),
    "shed/traced": (
        "cdfbc5c4b2dbbbc7f796db60aec8da20d4a633210e9ee135d280a74dcf3697eb",
        "c46196d0f96254d49ea2bf3890d64848d4b61217453ec9537c1548b3bfdbb32d"),
}


def _digest(doc):
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest(), text


def _check(name, kind, doc, want, tmp_path):
    got, text = _digest(doc)
    if got != want:
        out = tmp_path / f"{name}-{kind}.json"
        out.write_text(text)
        pytest.fail(f"{name} {kind} digest changed: {got} != {want}; "
                    f"actual document written to {out}")


@pytest.mark.parametrize("traced", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digest(name, traced, tmp_path):
    tracer = Tracer() if traced else None
    report = CONFIGS[name](tracer)
    key = f"{name}/{'traced' if traced else 'untraced'}"
    want_report, want_trace = GOLDEN[key]
    _check(name, "report", report.to_json(), want_report, tmp_path)
    if not traced:
        assert want_trace is None
        return
    _check(name, "trace", chrome_trace_events(tracer), want_trace, tmp_path)
    path = tmp_path / f"{name}-trace.json"
    write_chrome_trace(str(path), tracer)
    assert validate_file(str(path)) == []
