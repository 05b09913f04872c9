"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload apps --seed 1 --seconds 20 --trace 0

Workloads: ``apps``, ``serve-coalesced``, ``serve-tenants`` (see
``workloads.py`` and ``README.md``). Each run is one process with one
thread of computation. The human-readable report (host fingerprint,
per-app rows, every metric with its unit and sample count, any failure)
comes first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. Exits 1 if any output failed its check, 2 if the
program's sources are missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# pinned before numpy is imported: BLAS/OpenMP pools would add threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"


def declared(trace: bool) -> dict:
    """Metric name -> unit that this mode must print, from BENCHMARK.json."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def fingerprint() -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "git": git_sha()}


def render(res, want: dict) -> list:
    """The human-readable report lines."""
    fp = fingerprint()
    lines = [f"# perfbench workload={res.workload} seed={res.seed} "
             f"trace={int(res.trace)}",
             "# host " + " ".join(f"{k}={v}" for k, v in fp.items())]
    if res.rows:
        lines.append(f"# {'program':<12} {'compile_ms':>10} {'run_ms':>10} "
                     f"{'raw compile':>11} {'raw run':>10} {'samples':>7}")
        for name, comp, run, raw_comp, raw_run, n in res.rows:
            lines.append(f"# {name:<12} {comp:10.3f} {run:10.3f} "
                         f"{raw_comp:11.3f} {raw_run:10.3f} {n:7d}")
    for name, (value, unit, n) in sorted(res.metrics.items()):
        lines.append(f"{name} = {value:.6g} {unit} (samples={n})")
    for name in sorted(set(want) - set(res.metrics)):
        lines.append(f"{name} = 0 {want[name]} (samples=0; layer idle in "
                     f"this workload)")
    lines.extend(f"# {note}" for note in res.notes[:50])
    return lines


def result_json(res, want: dict) -> dict:
    """The last output line: every declared metric of this mode. A
    per-layer metric of a layer the workload does not use reads 0."""
    metrics = {}
    for name, unit in want.items():
        if name not in res.metrics and not res.trace:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        value, got_unit, _n = res.metrics.get(name, (0.0, unit, 0))
        if got_unit != unit:
            raise RuntimeError(f"{name}: measured in {got_unit}, "
                               f"BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": res.failed == 0, "attempted": res.attempted,
            "failed": res.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("apps", "serve-coalesced", "serve-tenants"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    trace = bool(args.trace)
    want = declared(trace)
    spans = None
    if trace:
        OUT.mkdir(exist_ok=True)
        spans = str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    res = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 trace, T_START, spans_path=spans)
    for line in render(res, want):
        print(line)
    print(json.dumps(result_json(res, want)))
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
