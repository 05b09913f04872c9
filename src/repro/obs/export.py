"""Exporters: text profile report and Chrome-trace JSON.

The profile report is the data behind Figs. 6/7/8 for any single run: a
per-loop table sorted by simulated time with the compute/memory/comm/
overhead split and each loop's share of the total.

The Chrome-trace exporter emits the `Trace Event Format`_ consumed by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev): complete
("X") events with microsecond timestamps, one track (pid/tid) per
simulated machine, plus metadata events naming the tracks.

.. _Trace Event Format:
   https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Union

from ..report.tables import render_table
from .check import TOL_US
from .spans import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycle
    from ..runtime.executor import SimResult

_US = 1e6  # simulated seconds -> trace microseconds


# ---------------------------------------------------------------------------
# text profile report
# ---------------------------------------------------------------------------

def profile_report(sim: "SimResult", title: str = "") -> str:
    """Per-loop breakdown table, sorted by time, with % of total."""
    total = sim.total_seconds or 1e-30
    rows = []
    for l in sorted(sim.loops, key=lambda l: l.time_s, reverse=True):
        rows.append([
            l.name, l.op_name, l.iters, l.workers,
            f"{l.time_s * 1e3:10.3f}", f"{100.0 * l.time_s / total:5.1f}%",
            f"{l.compute_s * 1e3:.3f}", f"{l.memory_s * 1e3:.3f}",
            f"{l.comm_s * 1e3:.3f}", f"{l.overhead_s * 1e3:.3f}",
        ])
    rows.append(["TOTAL", "", "", "",
                 f"{sim.total_seconds * 1e3:10.3f}", "100.0%", "", "", "", ""])
    return render_table(
        ["loop", "op", "iters", "W", "time ms", "%",
         "compute", "memory", "comm", "overhead"],
        rows, title=title or "profile (simulated time, sorted by cost)")


def render_spans(root: Span) -> str:
    """Indented one-line-per-span view of a span tree (debug aid)."""
    lines = []
    for sp, depth in root.walk():
        lines.append(f"{'  ' * depth}{sp.kind}:{sp.name} "
                     f"@{sp.start_s * 1e3:.3f}ms +{sp.dur_s * 1e3:.3f}ms")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Chrome trace
# ---------------------------------------------------------------------------

def _clean_args(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe copy of span attributes."""
    out: Dict[str, Any] = {}
    for k, v in attrs.items():
        if isinstance(v, (str, int, float, bool)) or v is None:
            out[k] = v
        elif isinstance(v, dict):
            out[k] = {str(kk): str(vv) for kk, vv in v.items()}
        elif isinstance(v, (list, tuple)):
            out[k] = [str(x) for x in v]
        else:
            out[k] = str(v)
    return out


#: request-lifecycle spans live in their own trace process so each
#: request gets a private track and overlapping lifecycles never fight
#: over slice nesting on the machine tracks
_REQUEST_PID = 2
_REQUEST_KINDS = ("request", "queue", "exec")

#: per-attempt spans (retries, hedges, crash re-enqueues) live in a
#: third process: attempts of one request share a track, so a hedge
#: racing its primary nests instead of fighting the winning request
#: span's queue/exec children for slice nesting. An attempt that would
#: *partially* overlap an earlier one there (a hedge outliving a
#: requeued primary) moves to an extra track (``_split_attempt_tracks``)
_ATTEMPT_PID = 3


def _tid_of(sp: Span) -> int:
    """Track assignment: the run/loop timeline is tid 0; each simulated
    machine gets its own tid so its chunks nest under its loop row in the
    viewer."""
    m = sp.attrs.get("machine")
    return 0 if m is None else int(m) + 1


def _pid_tid_of(sp: Span) -> tuple:
    if sp.kind in _REQUEST_KINDS:
        return _REQUEST_PID, int(sp.attrs.get("rid", 0))
    if sp.kind == "attempt":
        return _ATTEMPT_PID, int(sp.attrs.get("rid", 0))
    return 1, _tid_of(sp)


def _split_attempt_tracks(events: List[dict]) -> Dict[int, str]:
    """Place each attempt event on its rid's track unless it would
    partially overlap an earlier attempt there; such an event moves to
    the first extra track of that rid where it nests (a new one if
    none does). Uses the trace validator's nesting rule, so traces
    that already nest keep every tid. Returns ``tid -> track name``."""
    by_rid: Dict[int, List[dict]] = {}
    for e in events:
        if e["pid"] == _ATTEMPT_PID:
            by_rid.setdefault(e["tid"], []).append(e)
    names = {rid: f"r{rid} attempts" for rid in by_rid}
    next_tid = max(by_rid, default=0) + 1
    for rid in sorted(by_rid):
        tracks: List[tuple] = [(rid, [])]  # (tid, open slice ends)
        for e in sorted(by_rid[rid], key=lambda e: (e["ts"], -e["dur"])):
            ts, end = e["ts"], e["ts"] + e["dur"]
            for tid, stack in tracks:
                while stack and stack[-1] <= ts + TOL_US:
                    stack.pop()
                if not stack or end <= stack[-1] + TOL_US:
                    break
            else:
                tid, stack = next_tid, []
                next_tid += 1
                names[tid] = f"r{rid} attempts ({len(tracks) + 1})"
                tracks.append((tid, stack))
            stack.append(end)
            e["tid"] = tid
    return names


def flow_events(roots: Iterable[Span]) -> List[dict]:
    """Chrome-trace flow arrows from request spans into the lane-packed
    execution spans that served them.

    Every ``request``-kind span carrying a ``batch_id`` contributes one
    flow: a start ("s") on the request's own track at its dispatch
    time, and a finish ("f", binding to the enclosing slice) on the
    matching ``batch`` span's machine track at the batch's start — N
    requests served by one execution render as N arrows converging on
    one slice. The flow id is the request's deterministic
    ``RequestContext.flow_id``, so traces diff byte-for-byte across
    same-seed runs.
    """
    batches: dict = {}
    requests: List[Span] = []
    for root in roots:
        for sp, _depth in root.walk():
            if sp.kind == "batch" and "batch_id" in sp.attrs:
                batches[sp.attrs["batch_id"]] = sp
            elif sp.kind == "request" and "batch_id" in sp.attrs:
                requests.append(sp)
    events: List[dict] = []
    for sp in sorted(requests, key=lambda s: int(s.attrs.get("rid", 0))):
        batch = batches.get(sp.attrs["batch_id"])
        if batch is None:
            continue
        fid = int(sp.attrs.get("flow_id", sp.attrs.get("rid", 0)))
        src_ts = float(sp.attrs.get("dispatch_s", sp.start_s))
        events.append({
            "name": "req", "cat": "flow", "ph": "s", "id": fid,
            "pid": _REQUEST_PID, "tid": int(sp.attrs.get("rid", 0)),
            "ts": round(src_ts * _US, 3),
        })
        events.append({
            "name": "req", "cat": "flow", "ph": "f", "bp": "e", "id": fid,
            "pid": 1, "tid": _tid_of(batch),
            "ts": round(batch.start_s * _US, 3),
        })
    return events


def _event_sort_key(e: dict) -> tuple:
    """Total order over complete events: track, then time, then longest
    slice first (so parents precede children at equal ts), then name.
    Sorting on it makes the trace byte-identical no matter what order
    spans were completed or dict iteration yielded them in."""
    return (e["pid"], e["tid"], e["ts"], -e["dur"], e["cat"], e["name"])


def chrome_trace_events(source: Union[Tracer, Span]) -> List[dict]:
    """Flatten span tree(s) into Chrome trace events (``ph: "X"``),
    plus request↔batch flow arrows when request spans are present.

    Output order is deterministic: metadata events first (sorted
    tracks), complete events sorted by :func:`_event_sort_key`, then
    flow arrows sorted by rid — two traces of the same run serialize
    byte-identically regardless of completion or insertion order."""
    roots: List[Span]
    roots = source.runs if isinstance(source, Tracer) else [source]
    events: List[dict] = []
    tids = {0}
    req_tids: dict = {}
    for root in roots:
        for sp, _depth in root.walk():
            pid, tid = _pid_tid_of(sp)
            if pid == 1:
                tids.add(tid)
            elif sp.kind == "request":
                req_tids[tid] = sp.name
            events.append({
                "name": sp.name,
                "cat": sp.kind,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round(sp.start_s * _US, 3),
                "dur": round(sp.dur_s * _US, 3),
                "args": _clean_args(sp.attrs),
            })
    attempt_tids = _split_attempt_tracks(events)
    events.sort(key=_event_sort_key)
    meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "dmll simulated run"}}]
    for tid in sorted(tids):
        label = "timeline" if tid == 0 else f"machine {tid - 1}"
        meta.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                     "args": {"name": label}})
    if req_tids:
        meta.append({"name": "process_name", "ph": "M", "pid": _REQUEST_PID,
                     "tid": 0, "args": {"name": "requests"}})
        for tid in sorted(req_tids):
            meta.append({"name": "thread_name", "ph": "M",
                         "pid": _REQUEST_PID, "tid": tid,
                         "args": {"name": req_tids[tid]}})
    if attempt_tids:
        meta.append({"name": "process_name", "ph": "M", "pid": _ATTEMPT_PID,
                     "tid": 0, "args": {"name": "attempts"}})
        for tid in sorted(attempt_tids):
            meta.append({"name": "thread_name", "ph": "M",
                         "pid": _ATTEMPT_PID, "tid": tid,
                         "args": {"name": attempt_tids[tid]}})
    return meta + events + flow_events(roots)


def write_chrome_trace(path: str, source: Union[Tracer, Span]) -> None:
    """Write a ``{"traceEvents": [...]}`` JSON file loadable in Perfetto."""
    doc = {"traceEvents": chrome_trace_events(source),
           "displayTimeUnit": "ms"}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
