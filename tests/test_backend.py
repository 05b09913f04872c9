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
from hypothesis import HealthCheck, given, settings
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
