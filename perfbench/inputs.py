"""Seeded inputs and compiler-independent oracles for the eight apps.

Every input is built by the ``repro.data`` generators at the sizes the
bundled benchmark apps use (``repro/bench/apps.py``), with generator seeds
derived from the benchmark seed, so one seed always gives the same data.
The program under test only ever receives these generated inputs.

Each app's result is checked against its plain-Python oracle
(``*_oracle`` in ``repro.apps`` / ``repro.graph``), which never runs the
compiler, at ``deep_eq`` tolerance 1e-9.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.apps.gda import gda_oracle, gda_program
from repro.apps.gene import gene_oracle, gene_program
from repro.apps.gibbs import gibbs_oracle_sweep, gibbs_sweep_program
from repro.apps.kmeans import kmeans_oracle, kmeans_shared_program
from repro.apps.logreg import logreg_oracle, logreg_program
from repro.apps.tpch import LINEITEM, SHIP_CUTOFF, q1_oracle, q1_program
from repro.core.values import deep_eq
from repro.data.datasets import binary_labeled, gaussian_clusters, logistic_data
from repro.data.factor_graphs import grid_ising, random_states, random_uniforms
from repro.data.genes import generate_reads
from repro.data.graphs import power_law_graph
from repro.data.tpch_gen import generate_lineitems
from repro.graph.optigraph import (pagerank_oracle, pagerank_pull_program,
                                   triangle_oracle, triangle_program)

#: the sweep order of the ``apps`` workload (dense, relational, graph,
#: serial); also the order every per-app table is printed in
APPS = ("kmeans", "logreg", "gda", "q1", "gene", "pagerank", "triangle",
        "gibbs")

TOL = 1e-9


@dataclass
class AppCase:
    """One app's staged-program factory, generated inputs and oracle."""

    name: str
    factory: Callable[[], Any]
    inputs: Dict[str, Any]
    #: expected results tuple, in the shape ``CompiledProgram.run`` returns
    expected: Tuple[Any, ...]
    #: compute / data scale back to the paper's dataset (serve pricing)
    scale: float
    data_scale: float


def sub_seed(seed: int, app: str, part: str) -> int:
    """Stable per-(app, part) generator seed derived from the bench seed."""
    h = hashlib.sha256(f"{seed}/{app}/{part}".encode()).hexdigest()
    return int(h[:8], 16)


def _kmeans(seed: int) -> AppCase:
    matrix, _ = gaussian_clusters(800, 20, k=8, seed=sub_seed(seed, "kmeans",
                                                              "matrix"))
    clusters = matrix[:8]
    return AppCase("kmeans", kmeans_shared_program,
                   {"matrix": matrix, "clusters": clusters},
                   (kmeans_oracle(matrix, clusters),),
                   (500_000 * 100 * 6) / (800 * 20 * 8),
                   (500_000 * 100) / (800 * 20))


def _logreg(seed: int) -> AppCase:
    x, y = logistic_data(600, 20, seed=sub_seed(seed, "logreg", "xy"))
    theta, alpha = [0.0] * 20, 0.1
    scale = (500_000 * 100) / (600 * 20)
    return AppCase("logreg", logreg_program,
                   {"x": x, "y": y, "theta": theta, "alpha": alpha},
                   (logreg_oracle(x, y, theta, alpha),), scale, scale)


def _gda(seed: int) -> AppCase:
    x, y = binary_labeled(300, 24, seed=sub_seed(seed, "gda", "xy"))
    return AppCase("gda", gda_program, {"x": x, "y": y},
                   tuple(gda_oracle(x, y)),
                   (500_000 * 100 * 100) / (300 * 24 * 24),
                   (500_000 * 100) / (300 * 24))


def _q1(seed: int) -> AppCase:
    rows = generate_lineitems(3000, seed=sub_seed(seed, "q1", "rows"))
    oracle = q1_oracle(rows)
    # the program emits one row per group in first-seen order
    fi = {n: i for i, n in enumerate(LINEITEM.field_names())}
    order: List[int] = []
    for r in rows:
        if r[fi["shipdate"]] > SHIP_CUTOFF:
            continue
        key = r[fi["returnflag"]] * 256 + r[fi["linestatus"]]
        if key not in order:
            order.append(key)
    scale = 30_000_000 / 3000
    return AppCase("q1", q1_program, {"lineitems": rows},
                   ([oracle[k] for k in order],), scale, scale)


def _gene(seed: int) -> AppCase:
    rows = generate_reads(3000, seed=sub_seed(seed, "gene", "reads"))
    scale = 3_500_000 / 3000
    return AppCase("gene", gene_program, {"reads": rows},
                   tuple(gene_oracle(rows)), scale, scale)


def _pagerank(seed: int) -> AppCase:
    g = power_law_graph(1200, 7, seed=sub_seed(seed, "pagerank", "graph"))
    ranks = [1.0] * g.n
    scale = 69_000_000 / (2 * g.m)
    return AppCase("pagerank", pagerank_pull_program,
                   {"adj": g.adj, "ranks": ranks, "degrees": g.degrees()},
                   (pagerank_oracle(g, ranks),), scale, scale)


def _triangle(seed: int) -> AppCase:
    g = power_law_graph(1200, 7, seed=sub_seed(seed, "triangle", "graph"))
    avg_deg = 2 * g.m / g.n
    return AppCase("triangle", triangle_program, {"adj": g.adj},
                   (triangle_oracle(g),),
                   (34_500_000 * 2 * 14.4) / (g.m * 2 * avg_deg),
                   69_000_000 / (2 * g.m))


def _gibbs(seed: int) -> AppCase:
    fg = grid_ising(20, seed=sub_seed(seed, "gibbs", "graph"))
    states = random_states(fg.n_vars, 4, seed=sub_seed(seed, "gibbs",
                                                       "states"))
    rand = random_uniforms(fg.n_vars, 4, seed=sub_seed(seed, "gibbs",
                                                       "rand"))
    scale = 2_000_000 / fg.n_vars
    return AppCase("gibbs", gibbs_sweep_program,
                   {"nbr_vars": fg.nbr_vars, "nbr_weights": fg.nbr_weights,
                    "states": states, "rand": rand},
                   (gibbs_oracle_sweep(fg, states, rand),), scale, scale)


_BUILDERS = {"kmeans": _kmeans, "logreg": _logreg, "gda": _gda, "q1": _q1,
             "gene": _gene, "pagerank": _pagerank, "triangle": _triangle,
             "gibbs": _gibbs}


def make_case(app: str, seed: int) -> AppCase:
    """Generate ``app``'s inputs from ``seed`` and compute its oracle."""
    return _BUILDERS[app](seed)


def _plain(v: Any) -> Any:
    # bucket results (gene's keyed reductions) compare as plain dicts
    return dict(v.items()) if hasattr(v, "items") else v


def matches(case: AppCase, results: Tuple[Any, ...]) -> bool:
    """Program results equal the oracle at ``deep_eq`` tol 1e-9."""
    got = tuple(results)
    if len(got) != len(case.expected):
        return False
    return all(deep_eq(_plain(g), e, tol=TOL)
               for g, e in zip(got, case.expected))
