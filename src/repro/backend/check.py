"""CI gate: every bundled app must execute fully vectorized.

Runs each bundled application in every compile variant the serving fleet
places requests on (one per machine model, e.g. ``opt`` and ``gpu``) on
the numpy backend, and exits non-zero if any loop fell back to the
reference interpreter — a fallback is correct but silent in results, so
only this gate (and the ``backend.fallback`` metric) keeps vectorization
coverage from rotting.

Usage::

    python -m repro.backend.check            # all bundled apps
    python -m repro.backend.check kmeans q1  # a subset
"""

from __future__ import annotations

import sys
from typing import List

from .executor import run_program_numpy


def served_variants() -> List[str]:
    """The compile variants some machine model in ``MACHINE_MODELS``
    serves."""
    from ..runtime.machine import MACHINE_MODELS
    from ..serve.scheduler import make_machines
    return sorted({m.variant
                   for m in make_machines(",".join(MACHINE_MODELS))})


def _problems(bundle, variant: str) -> List[str]:
    from ..core.interp import run_program
    from ..core.values import deep_eq
    compiled = bundle.compiled(variant)
    prepared = compiled.prepare_inputs(bundle.inputs)
    results, stats, fallbacks = run_program_numpy(compiled.program, prepared)
    ref_results, ref_stats = run_program(compiled.program, prepared)
    problems = [f"fallback {fb.loop} ({fb.op}): {fb.reason}"
                for fb in fallbacks]
    if not deep_eq(results, ref_results):
        problems.append("results diverge from reference interpreter")
    if stats.total_cycles != ref_stats.total_cycles:
        problems.append(
            f"cycle accounting diverges ({stats.total_cycles} vs "
            f"{ref_stats.total_cycles})")
    for name in ("op_counts", "def_records"):
        if getattr(stats, name) != getattr(ref_stats, name):
            problems.append(f"{name} diverge from reference interpreter")
    return problems


def check_apps(names=None) -> int:
    from ..bench.apps import _FACTORIES, get_bundle
    names = list(names) if names else sorted(_FACTORIES)
    for name in names:
        if name not in _FACTORIES:
            print(f"unknown app {name!r}; bundled: "
                  f"{', '.join(sorted(_FACTORIES))}", file=sys.stderr)
            return 2
    variants = served_variants()
    bad = 0
    for name in names:
        for variant in variants:
            problems = _problems(get_bundle(name), variant)
            if problems:
                bad += 1
                print(f"FAIL {name} [{variant}]")
                for p in problems:
                    print(f"  {p}")
            else:
                print(f"ok   {name} [{variant}]: fully vectorized, results "
                      f"+ ExecStats identical")
    if bad:
        print(f"{bad}/{len(names) * len(variants)} app variants not fully "
              f"vectorized", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    return check_apps(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
