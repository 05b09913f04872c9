"""Differential tests for the vectorized NumPy backend.

The backend contract is strict: for any program the numpy backend must
produce results *and* ``ExecStats`` identical to the reference
interpreter — cycle accounting is analytic, so vectorizing execution may
change wall-clock only, never the priced cost. Every loop it cannot
vectorize must fall back to the reference path (recorded, not silent),
which keeps the contract trivially true for unsupported shapes.

All eight bundled apps must additionally run with *zero* fallbacks in
both variants the serving fleet runs (``opt`` and ``gpu``) — the
acceptance bar for the backend actually covering the paper's
workloads.
"""

import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import frontend as F
from repro.backend import (FallbackRecord, resolve_backend,
                           resolve_backend_ex, run_program_numpy)
from repro.bench.apps import get_bundle
from repro.core import run_program
from repro.core import types as T
from repro.core.values import deep_eq
from repro.pipeline import compile_program, optimize

APPS = ["kmeans", "logreg", "gda", "q1", "gene", "pagerank", "triangle",
        "gibbs"]

STAT_FIELDS = ["total_cycles", "elements_read", "bytes_read",
               "elements_emitted", "bytes_alloc", "loops_executed",
               "loop_iterations"]


def assert_stats_equal(ref, vec):
    for f in STAT_FIELDS:
        assert getattr(ref, f) == getattr(vec, f), (
            f"stats field {f}: reference={getattr(ref, f)!r} "
            f"numpy={getattr(vec, f)!r}")
    assert dict(ref.op_counts) == dict(vec.op_counts)
    # per-def records carry the essential/overhead split the pricing
    # model consumes — they must match record-for-record
    assert ref.def_records == vec.def_records


def run_both(prog, inputs):
    ref_results, ref_stats = run_program(prog, inputs)
    vec_results, vec_stats, fallbacks = run_program_numpy(prog, inputs)
    assert deep_eq(ref_results, vec_results)
    assert_stats_equal(ref_stats, vec_stats)
    return fallbacks


# ---------------------------------------------------------------------------
# The eight bundled applications
# ---------------------------------------------------------------------------

#: the variants the serving fleet runs; the GPU variant carries the
#: Row-to-Column bucket shape (a Collect of nested BucketReduce loops)
SERVED_VARIANTS = ["opt", "gpu"]


class TestBundledApps:
    @pytest.mark.parametrize("app,variant", [
        pytest.param(a, v, id=a if v == "opt" else f"{a}-{v}")
        for v in SERVED_VARIANTS for a in APPS])
    def test_identical_and_fully_vectorized(self, app, variant):
        bundle = get_bundle(app)
        compiled = bundle.compiled(variant)
        inputs = compiled.prepare_inputs(bundle.inputs)
        fallbacks = run_both(compiled.program, inputs)
        assert fallbacks == [], (
            f"{app} [{variant}] fell back to the interpreter: "
            f"{[(f.loop, f.reason) for f in fallbacks]}")

    def test_served_variants_match_the_fleet(self):
        from repro.backend.check import served_variants
        assert served_variants() == sorted(SERVED_VARIANTS)

    @pytest.mark.parametrize("app", ["kmeans", "gda"])
    def test_gpu_row_to_column_costs_backend_invariant(self, app):
        from repro.backend.vectorize import plan_program
        bundle = get_bundle(app)
        plan = plan_program(bundle.compiled("gpu").program)
        assert any(k.startswith("ss") for k in plan)
        assert all(reason is None for reason in plan.values()), plan
        ref = bundle.capture("gpu", backend="reference")
        vec = bundle.capture("gpu", backend="numpy")
        assert vec.fallbacks == []
        assert ref.per_iter == vec.per_iter
        assert (bundle.simulate("gpu", backend="reference").total_seconds
                == bundle.simulate("gpu", backend="numpy").total_seconds)

    def test_fallback_reasons_are_typed(self):
        # a fallback reason must name the construct, never leak an
        # escaped Python exception ("TypeError: ...")
        escaped = re.compile(r"[A-Z]\w*(Error|Exception)\b:")
        for app in APPS:
            bundle = get_bundle(app)
            for variant in ("opt", "plain", "gpu"):
                compiled = bundle.compiled(variant)
                _, _, fallbacks = run_program_numpy(
                    compiled.program, compiled.prepare_inputs(bundle.inputs))
                for fb in fallbacks:
                    assert not escaped.match(fb.reason), (
                        app, variant, fb.loop, fb.reason)

    def test_capture_records_backend_and_per_iter(self):
        from repro.runtime.executor import capture_run
        bundle = get_bundle("logreg")
        ref = capture_run(bundle.compiled("opt"), bundle.inputs,
                          backend="reference")
        vec = capture_run(bundle.compiled("opt"), bundle.inputs,
                          backend="numpy")
        assert ref.backend == "reference" and vec.backend == "numpy"
        assert vec.fallbacks == []
        assert deep_eq(ref.results, vec.results)
        assert_stats_equal(ref.stats, vec.stats)
        # the per-iteration cost streams feed load-imbalance bounds and
        # must match element-for-element
        assert set(ref.per_iter) == set(vec.per_iter)
        for k in ref.per_iter:
            assert ref.per_iter[k] == vec.per_iter[k]

    def test_simulated_price_backend_invariant(self):
        bundle = get_bundle("q1")
        ref = bundle.simulate("opt", backend="reference")
        vec = bundle.simulate("opt", backend="numpy")
        assert ref.total_seconds == vec.total_seconds
        assert vec.backend == "numpy" and vec.fallbacks == []


# ---------------------------------------------------------------------------
# Backend selection plumbing
# ---------------------------------------------------------------------------

class TestSelection:
    def test_resolve_policy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None) == "reference"
        assert resolve_backend("numpy") == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None) == "numpy"
        assert resolve_backend("reference") == "reference"
        with pytest.raises(ValueError):
            resolve_backend("cuda")

    def test_blank_env_is_an_error_not_default(self, monkeypatch):
        # REPRO_BACKEND= (set but empty) used to silently mean "default";
        # a mistyped CI matrix leg must fail loudly instead
        monkeypatch.setenv("REPRO_BACKEND", "")
        with pytest.raises(ValueError, match="blank"):
            resolve_backend(None)
        monkeypatch.setenv("REPRO_BACKEND", "   ")
        with pytest.raises(ValueError, match="blank"):
            resolve_backend(None)
        # an explicit argument still wins over the broken env
        assert resolve_backend("numpy") == "numpy"

    def test_env_whitespace_is_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  numpy \n")
        assert resolve_backend(None) == "numpy"
        assert resolve_backend(" reference ") == "reference"
        with pytest.raises(ValueError, match="blank"):
            resolve_backend("")

    def test_resolution_source_is_reported(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend_ex(None) == ("reference", "default")
        assert resolve_backend_ex("numpy") == ("numpy", "argument")
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend_ex(None) == ("numpy", "env:REPRO_BACKEND")

    def test_compiled_run_backend_param(self):
        bundle = get_bundle("logreg")
        compiled = bundle.compiled("opt")
        r1, s1 = compiled.run(bundle.inputs, backend="reference")
        r2, s2 = compiled.run(bundle.inputs, backend="numpy")
        assert deep_eq(r1, r2)
        assert_stats_equal(s1, s2)


# ---------------------------------------------------------------------------
# Recorded fallback on unvectorizable loops
# ---------------------------------------------------------------------------

class TestFallback:
    def test_non_associative_reducer_falls_back(self):
        # a - b is not associative: the planner must reject the ufunc
        # path and the loop must still produce interpreter-identical
        # results through the recorded fallback
        prog = F.build(lambda xs: xs.reduce(lambda a, b: a - b, 0),
                       [F.InputSpec("xs", T.Coll(T.INT), True)])
        inputs = {"xs": [5, 3, 9, 1]}
        ref_results, ref_stats = run_program(prog, inputs)
        vec_results, vec_stats, fallbacks = run_program_numpy(prog, inputs)
        assert deep_eq(ref_results, vec_results)
        assert_stats_equal(ref_stats, vec_stats)
        assert len(fallbacks) == 1
        assert isinstance(fallbacks[0], FallbackRecord)
        assert "associative" in fallbacks[0].reason


# ---------------------------------------------------------------------------
# Alpha-key cache: id() reuse must never alias blocks
# ---------------------------------------------------------------------------

class TestAlphaCache:
    """The loop-share plan caches alpha keys by ``id(block)``. Python
    recycles addresses, so a stale entry for a dead block must never
    serve a new block that lands at the same address — that aliasing
    nondeterministically flipped sharing (and backend-plan) decisions
    between otherwise identical compiles."""

    @staticmethod
    def _some_block():
        prog = F.build(lambda xs: xs.reduce(lambda a, b: a + b, 0),
                       [F.InputSpec("xs", T.Coll(T.INT), True)])
        from repro.core.multiloop import MultiLoop
        for d in prog.body.stmts:
            if isinstance(d.op, MultiLoop):
                return d.op.gens[0].value
        raise AssertionError("no multiloop staged")

    def test_dead_block_entry_is_evicted(self):
        import gc
        from repro.core.interp import _ALPHA_CACHE, _alpha_of
        block = self._some_block()
        _alpha_of(block)
        bid = id(block)
        assert bid in _ALPHA_CACHE
        del block
        gc.collect()
        assert bid not in _ALPHA_CACHE

    def test_recycled_id_recomputes_instead_of_aliasing(self):
        import weakref
        from repro.core.interp import _ALPHA_CACHE, _alpha_of
        block = self._some_block()
        true_key = _alpha_of(block)
        # plant what an id() collision with a dead block looks like: an
        # entry under this block's id whose referent is gone
        dead = type("Dead", (), {})()
        _ALPHA_CACHE[id(block)] = (weakref.ref(dead), ("k", "stale"))
        del dead
        assert _alpha_of(block) == true_key


# ---------------------------------------------------------------------------
# Property: random small multiloops, both backends agree exactly
# ---------------------------------------------------------------------------

SETTINGS = dict(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

ints_data = st.lists(st.integers(min_value=-50, max_value=50),
                     min_size=0, max_size=30)

# map/filter bodies (filter introduces a generator cond)
_OPS = [
    ("map_add", lambda r: r.map(lambda x: x + 3)),
    ("map_mul", lambda r: r.map(lambda x: x * 2)),
    ("filter_even", lambda r: r.filter(lambda x: x % 2 == 0)),
    ("filter_pos", lambda r: r.filter(lambda x: x > 0)),
]

# sinks cover all four generator kinds: Collect, Reduce, BucketCollect,
# BucketReduce
_SINKS = [
    ("collect", lambda r: r),
    ("sum", lambda r: r.sum()),
    ("min", lambda r: r.reduce(lambda a, b: F.fmin(a, b), 99)),
    ("group_by", lambda r: r.group_by(lambda x: x % 2)),
    ("group_sum", lambda r: r.group_by_reduce(lambda x: x % 3, lambda x: x,
                                              lambda a, b: a + b)),
]

pipeline_strategy = st.tuples(
    st.lists(st.sampled_from(_OPS), min_size=0, max_size=3),
    st.lists(st.sampled_from(_SINKS), min_size=1, max_size=2))


def build_pipeline(ops, sinks):
    def fn(xs):
        r = xs
        for _, op in ops:
            r = op(r)
        outs = tuple(sink(r) for _, sink in sinks)
        return outs if len(outs) > 1 else outs[0]
    return F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True)])


# ---------------------------------------------------------------------------
# Generated nests: every level is a multiloop over 0..size built from its
# generator parts
# ---------------------------------------------------------------------------

DOUBLES = T.Coll(T.DOUBLE)

NEST_REDUCERS = {"sum": lambda a, b: a + b,
                 "sub": lambda a, b: a - b,
                 "max": lambda a, b: F.fmax(a, b)}


def nest_loop(size, kind, value, cond=None):
    """``MultiLoop(size)`` with one Collect or Reduce generator."""
    from repro.core.multiloop import MultiLoop, collect, reduce_gen
    from repro.core.staging import emit
    from repro.frontend.reps import _binary_block, _index_block, unwrap, wrap
    vb = _index_block(value)
    cb = None if cond is None else _index_block(cond)
    if kind == "collect":
        gen = collect(vb, cond=cb)
    else:
        gen = reduce_gen(vb, _binary_block(vb.result_type,
                                           NEST_REDUCERS[kind]), cond=cb)
    return wrap(emit(MultiLoop(unwrap(size), (gen,)), [kind])[0])


NEST_CONDS = {None: None,
              "pos": lambda e, j: e > 0.0,
              "odd": lambda e, j: j % 2 == 1}


def build_nest(levels, payload, top):
    """``levels``: per nested level (size source, kind, cond), outermost
    first. Size sources: ``ys`` (uniform), ``tri`` (the enclosing loop's
    index mod 5, minus 1: triangular, and -1 is an empty loop) and
    ``rows`` (a ragged input row picked by that index). ``payload``: the
    innermost value — a double, a pair, a 2-wide row literal, an element
    of a row computed by an outer nested Collect, or that whole row.
    ``top``: a plain map, a generator cond, or an if/else whose branches
    both hold the nest (masked outer lanes)."""

    def fn(xs, ys, rows):
        def level(k, i, x, j, e, row):
            if k == len(levels):
                s = e * 1.5 + x * 0.375 - j.to_double()
                if payload == "pair":
                    return F.pair(s, j)
                if payload == "row":
                    return F.array_lit([s, s * 2.0])
                if payload == "outer":
                    return row[j % ys.length()] + s
                if payload == "whole":
                    return row
                return s
            src, kind, cond = levels[k]
            if src == "ys":
                size, elem = ys.length(), lambda jj: ys[jj]
            elif src == "tri":
                size, elem = j % 5 - 1, lambda jj: jj.to_double()
            else:
                r = rows[j % rows.length()]
                size, elem = r.length(), lambda jj: r[jj]
            c = NEST_CONDS[cond]
            return nest_loop(
                size, kind,
                lambda jj: level(k + 1, i, x, jj, elem(jj), row),
                None if c is None else (lambda jj: c(elem(jj), jj)))

        def body(i, x):
            row = nest_loop(ys.length(), "collect",
                            lambda jj: ys[jj] * x + 1.0)
            return level(0, i, x, i, x, row)

        def value(i):
            x = xs[i]
            if top == "branch":
                return F.where(x > 0.0, lambda: body(i, x),
                               lambda: body(i, -x))
            return body(i, x)

        return nest_loop(xs.length(), "collect", value,
                         (lambda i: xs[i] > -1.0) if top == "cond" else None)

    return F.build(fn, [F.InputSpec("xs", DOUBLES, True),
                        F.InputSpec("ys", DOUBLES, True),
                        F.InputSpec("rows", T.Coll(DOUBLES), True)])


def normalize_nest(spec):
    """Keep a drawn nest inside what the backend lays out rectangularly:
    below a Reduce everything reduces to a double (no array reducers),
    and a Collect nested in a Collect is uniform-sized without a cond
    (its rows must share one length)."""
    levels, payload, top = spec
    out = []
    reducing = False
    for src, kind, cond in levels:
        if reducing and kind == "collect":
            kind = "sum"
        if out and out[-1][1] == "collect" and kind == "collect":
            src, cond = "ys", None
        reducing = reducing or kind != "collect"
        out.append((src, kind, cond))
    if reducing:
        payload = "scalar"
    return out, payload, top


_nest_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                         allow_infinity=False)

nest_strategy = st.tuples(
    st.lists(st.tuples(st.sampled_from(["ys", "tri", "rows"]),
                       st.sampled_from(["collect", "sum", "sub", "max"]),
                       st.sampled_from(list(NEST_CONDS))),
             min_size=1, max_size=2),
    st.sampled_from(["scalar", "pair", "row", "outer", "whole"]),
    st.sampled_from(["map", "cond", "branch"])).map(normalize_nest)

nest_data = st.fixed_dictionaries({
    "xs": st.lists(_nest_floats, min_size=0, max_size=6),
    "ys": st.lists(_nest_floats, min_size=1, max_size=5),
    "rows": st.lists(st.lists(_nest_floats, max_size=6), min_size=1,
                     max_size=4)})


class TestPropertyDifferential:
    @given(pipeline_strategy, ints_data)
    @settings(**SETTINGS)
    def test_backends_agree_on_random_multiloops(self, spec, data):
        ops, sinks = spec
        prog = build_pipeline(ops, sinks)
        run_both(prog, {"xs": data})

    @given(pipeline_strategy, ints_data)
    @settings(**SETTINGS)
    def test_backends_agree_on_fused_programs(self, spec, data):
        # two sinks off one shared pipeline fuse horizontally into
        # multi-generator loops; optimize() also fuses vertically
        ops, sinks = spec
        prog = optimize(build_pipeline(ops, sinks))
        run_both(prog, {"xs": data})

    @given(pipeline_strategy, ints_data)
    @settings(**SETTINGS)
    def test_backends_agree_after_full_compile(self, spec, data):
        ops, sinks = spec
        compiled = compile_program(build_pipeline(ops, sinks),
                                   "distributed")
        inputs = compiled.prepare_inputs({"xs": data})
        run_both(compiled.program, inputs)

    @given(nest_strategy, nest_data)
    @settings(**dict(SETTINGS, max_examples=60, derandomize=True))
    # a window with no trips next to one with rows; pairs two levels
    # deep; a branch whose Collect kept nothing beside one that did
    @example(([("ys", "collect", None), ("ys", "collect", None)], "scalar",
              "cond"), {"xs": [0.0, -1.0], "ys": [0.0] * 4, "rows": [[]]})
    @example(([("ys", "collect", None), ("ys", "collect", None)], "pair",
              "map"), {"xs": [0.0], "ys": [0.0], "rows": [[]]})
    @example(([("tri", "collect", "pos")], "pair", "branch"),
             {"xs": [0.0, 0.0, 1.0, 0.0], "ys": [0.0], "rows": [[]]})
    def test_backends_agree_on_generated_nests(self, spec, data):
        # 2-3 loop levels: nested Collect/Reduce (incl. the non-associative
        # sub) over uniform, triangular and ragged sizes, with nested
        # conds, masked outer lanes, and struct/row-valued elements
        levels, payload, top = spec
        prog = build_nest(levels, payload, top)
        ref_results, ref_stats = run_program(prog, data)
        vec_results, vec_stats, fallbacks = run_program_numpy(prog, data)
        assert fallbacks == [], [(f.loop, f.reason) for f in fallbacks]
        assert_stats_equal(ref_stats, vec_stats)
        # nested reduces fold in trip order: floats are exact, not just
        # deep_eq-close
        assert vec_results == ref_results


class TestLaneBudget:
    """A nest wider than ``NEST_LANE_BUDGET`` runs in windows of outer
    lanes and chunks of trips; the result must not depend on the budget."""

    @staticmethod
    def program():
        def fn(xs, rows):
            def per_lane(i):
                r = rows[i % rows.length()]
                return F.pair(
                    nest_loop(r.length(), "sub", lambda j: r[j] * xs[i]),
                    nest_loop(r.length(), "collect",
                              lambda j: nest_loop(j % 4, "sum",
                                                  lambda k: r[k] + 0.5),
                              lambda j: r[j] > 0.0))
            return nest_loop(xs.length(), "collect", per_lane,
                             lambda i: xs[i] != 0.0)
        return F.build(fn, [F.InputSpec("xs", DOUBLES, True),
                            F.InputSpec("rows", T.Coll(DOUBLES), True)])

    def test_chunked_nest_is_identical(self, monkeypatch):
        import random
        from repro.backend import vectorize as V
        rng = random.Random(11)
        inputs = {
            "xs": [rng.choice([0.0, rng.uniform(-3, 3)]) for _ in range(40)],
            # row 1 alone is wider than the patched budget: its trips
            # run in several chunks
            "rows": [[rng.uniform(-2, 2) for _ in range(n)]
                     for n in (3, 50, 0, 7, 1, 12)]}
        prog = self.program()
        ref_results, ref_stats = run_program(prog, inputs)
        wide = run_program_numpy(prog, inputs)
        budget = 8
        assert sum(len(inputs["rows"][i % 6]) for i in range(40)) > budget

        widths = []
        init = V.LoopVectorizer.__init__

        def recording(self, host, L, delta, outer=None, sel=None):
            if outer is not None:
                widths.append(L)
            init(self, host, L, delta, outer, sel)

        monkeypatch.setattr(V, "NEST_LANE_BUDGET", budget)
        monkeypatch.setattr(V.LoopVectorizer, "__init__", recording)
        narrow = run_program_numpy(prog, inputs)
        assert wide[2] == narrow[2] == []
        assert wide[0] == narrow[0] == ref_results
        assert_stats_equal(ref_stats, wide[1])
        assert_stats_equal(ref_stats, narrow[1])
        assert len(widths) > 10 and max(widths) <= budget

    @given(nest_strategy, nest_data)
    @settings(**dict(SETTINGS, max_examples=30, derandomize=True))
    def test_generated_nests_at_a_tiny_budget(self, spec, data):
        from unittest import mock
        from repro.backend import vectorize as V
        prog = build_nest(*spec)
        ref_results, ref_stats = run_program(prog, data)
        with mock.patch.object(V, "NEST_LANE_BUDGET", 2):
            vec_results, vec_stats, fallbacks = run_program_numpy(prog, data)
        assert fallbacks == [], [(f.loop, f.reason) for f in fallbacks]
        assert_stats_equal(ref_stats, vec_stats)
        assert vec_results == ref_results


# ---------------------------------------------------------------------------
# Nested bucket generators (the GPU Row-to-Column shape)
# ---------------------------------------------------------------------------

INTS = T.Coll(T.INT)


def nested_gens(prog):
    """(kind, has_cond) of every generator of every loop nested in a
    top-level loop's blocks."""
    from repro.core.multiloop import MultiLoop
    out = []

    def walk(block, depth):
        for d in block.stmts:
            if isinstance(d.op, MultiLoop):
                if depth:
                    out.append(tuple((g.kind.value, g.cond is not None)
                                     for g in d.op.gens))
                for g in d.op.gens:
                    for b in g.blocks():
                        walk(b, depth + 1)

    walk(prog.body, 0)
    return out


def bucket_orders(v):
    """Every ``Buckets``' key list, in dense (first-seen) order."""
    from repro.core.values import Buckets
    if isinstance(v, Buckets):
        return [list(v.keys)]
    if isinstance(v, (list, tuple)):
        return [o for x in v for o in bucket_orders(x)]
    return []


def run_nested(prog, inputs, shape):
    assert shape in nested_gens(prog), nested_gens(prog)
    ref_results, ref_stats = run_program(prog, inputs)
    vec_results, vec_stats, fallbacks = run_program_numpy(prog, inputs)
    assert fallbacks == [], [(f.loop, f.reason) for f in fallbacks]
    assert deep_eq(ref_results, vec_results)
    assert_stats_equal(ref_stats, vec_stats)
    # deep_eq ignores key order; each lane keeps its own first-seen order
    assert bucket_orders(ref_results) == bucket_orders(vec_results)
    return ref_results


BUCKET_REDUCE = (("BucketReduce", False),)


class TestNestedBuckets:
    def test_keys_differ_across_lanes_in_first_seen_order(self):
        prog = F.build(
            lambda xs, ys: xs.map(lambda x: ys.group_by_reduce(
                lambda y: (y + x) % 3, lambda y: y, lambda a, b: a + b)),
            [F.InputSpec("xs", INTS, True), F.InputSpec("ys", INTS, True)])
        out = run_nested(prog, {"xs": [0, 1, 2, 5],
                                "ys": [3, 1, 4, 1, 5, 9, 2, 6]},
                         BUCKET_REDUCE)
        assert bucket_orders(out) == [[0, 1, 2], [1, 2, 0], [2, 0, 1],
                                      [2, 0, 1]]

    def test_masked_generator_and_lanes_left_empty(self):
        def fn(xs, ys):
            return xs.map(lambda x: ys.filter(lambda y: y > x)
                          .group_by_reduce(lambda y: y % 2,
                                           lambda y: y * x,
                                           lambda a, b: a + b))
        prog = optimize(F.build(fn, [F.InputSpec("xs", INTS, True),
                                     F.InputSpec("ys", INTS, True)]))
        out = run_nested(prog, {"xs": [0, 4, 100, 2],
                                "ys": [3, 1, 4, 1, 5, 9, 2, 6]},
                         (("BucketReduce", True),))
        assert bucket_orders(out)[2] == []  # no y > 100: empty buckets

    def test_ragged_trips(self):
        prog = F.build(
            lambda rows: rows.map(lambda r: r.group_by_reduce(
                lambda y: y % 3, lambda y: y, lambda a, b: a + b)),
            [F.InputSpec("rows", T.Coll(INTS), True)])
        run_nested(prog, {"rows": [[1, 2, 3], [], [4, 4, 4, 4, 5], [7]]},
                   BUCKET_REDUCE)

    def test_vector_zip_add_reducer(self):
        def fn(xs, ys):
            return xs.map(lambda x: ys.group_by_reduce(
                lambda y: y % 2, lambda y: F.array_lit([y, y * x]),
                lambda a, b: a.zip_with(b, lambda p, q: p + q)))
        prog = F.build(fn, [F.InputSpec("xs", INTS, True),
                            F.InputSpec("ys", INTS, True)])
        run_nested(prog, {"xs": [1, 2, 3], "ys": [3, 1, 4, 1, 5]},
                   BUCKET_REDUCE)

    def test_fused_siblings_share_one_key_probe(self):
        from repro.core.multiloop import MultiLoop
        from repro.core.interp import loop_share_plan

        def fn(xs, ys):
            return xs.map(lambda x: F.pair(
                ys.group_by_reduce(lambda y: (y + x) % 3, lambda y: y + x,
                                   lambda a, b: a + b),
                ys.group_by_reduce(lambda y: (y + x) % 3, lambda y: y * x,
                                   lambda a, b: F.fmax(a, b))))
        prog = optimize(F.build(fn, [F.InputSpec("xs", INTS, True),
                                     F.InputSpec("ys", INTS, True)]))
        shared = [loop_share_plan(e.op.gens)[1]
                  for d in prog.body.stmts if isinstance(d.op, MultiLoop)
                  for g in d.op.gens for b in g.blocks() for e in b.stmts
                  if isinstance(e.op, MultiLoop)]
        assert shared == [True]
        run_nested(prog, {"xs": [1, 2, 3], "ys": [3, 1, 4, 1, 5]},
                   BUCKET_REDUCE * 2)

    def test_nested_bucket_collect(self):
        prog = F.build(
            lambda xs, ys: xs.map(lambda x: ys.group_by(
                lambda y: (y + x) % 2)),
            [F.InputSpec("xs", INTS, True), F.InputSpec("ys", INTS, True)])
        run_nested(prog, {"xs": [0, 1], "ys": [3, 1, 4, 1, 5]},
                   (("BucketCollect", False),))

    @given(st.lists(st.integers(min_value=-4, max_value=9), min_size=0,
                    max_size=6),
           st.lists(st.integers(min_value=-20, max_value=20), min_size=0,
                    max_size=25),
           st.integers(min_value=1, max_value=4),
           st.booleans(), st.sampled_from(["add", "max", "zip"]))
    @settings(**dict(SETTINGS, max_examples=30))
    def test_backends_agree_on_nested_bucket_reduce(self, xs, ys, nkeys,
                                                    masked, reducer):
        def fn(xs_r, ys_r):
            def per_lane(x):
                src = ys_r.filter(lambda y: y > x) if masked else ys_r
                if reducer == "zip":
                    return src.group_by_reduce(
                        lambda y: (y + x) % nkeys,
                        lambda y: F.array_lit([y, y * x]),
                        lambda a, b: a.zip_with(b, lambda p, q: p + q))
                return src.group_by_reduce(
                    lambda y: (y * x) % nkeys, lambda y: y - x,
                    (lambda a, b: a + b) if reducer == "add"
                    else (lambda a, b: F.fmax(a, b)))
            return xs_r.map(per_lane)
        prog = optimize(F.build(fn, [F.InputSpec("xs", INTS, True),
                                     F.InputSpec("ys", INTS, True)]))
        run_nested(prog, {"xs": xs, "ys": ys},
                   (("BucketReduce", masked),))
