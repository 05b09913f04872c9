"""PassManager behaviors: tracing, the shared rule log (regression for the
dropped ``applied_log``), differential checking, and the DCE input
re-attachment fix."""

from collections import Counter

import pytest

from repro import frontend as F
from repro.apps.kmeans import kmeans_grouped_program, kmeans_shared_program
from repro.core import run_program
from repro.core import types as T
from repro.core.ir import Block, Const, Def, Program, fresh
from repro.core.multiloop import MultiLoop, collect, reduce_gen
from repro.core.ops import ArrayApply, ArrayLength, InputSource, Prim
from repro.core.values import deep_eq
from repro.core.verify import IRVerificationError, verify_program
from repro.optim.dce import dce
from repro.passes import (Pass, PassManager, PassSemanticsError,
                          function_pass, program_counts, standard_passes,
                          trace_table)
from repro.pipeline import CompiledProgram, compile_program, optimize

MAT = [[1.0, 2.0], [8.0, 9.0], [1.2, 1.8], [7.5, 9.5], [0.8, 2.2]]
INPUTS = {"matrix": MAT, "clusters": MAT[:2]}


class TestTrace:
    def test_trace_lists_every_pass_with_counts(self):
        compiled = compile_program(kmeans_shared_program(), "distributed")
        assert len(compiled.trace) > 10
        for t in compiled.trace:
            assert t.name and t.phase
            assert t.stmts_before >= 0 and t.stmts_after >= 0
            assert t.loops_before >= 0 and t.loops_after >= 0
            assert t.wall_ms >= 0.0
        # the pipeline's named phases all appear
        phases = {t.phase for t in compiled.trace}
        assert {"soa", "opt-1", "opt-2", "partition", "finalize",
                "report"} <= phases

    def test_trace_table_renders(self):
        compiled = compile_program(kmeans_shared_program(), "distributed")
        table = trace_table(compiled.trace)
        assert "fuse-vertical" in table and "stmts" in table

    def test_program_counts(self):
        prog = kmeans_shared_program()
        stmts, loops = program_counts(prog)
        assert stmts > 0 and 0 < loops <= stmts


class TestSharedRuleLog:
    """Regression: ``compile_program`` used to drop ``applied_log`` in its
    second and final ``optimize()`` calls, so rules applied there never
    reached ``report.applied_rules``. All phases now log into one shared
    PassManager trace."""

    def test_grouped_kmeans_reports_every_rule_exactly_once(self):
        compiled = compile_program(kmeans_grouped_program(), "distributed")
        trace_rules = Counter(r for t in compiled.trace for r in t.rules)
        assert Counter(compiled.report.applied_rules) == trace_rules
        assert compiled.report.applied_rules.count("groupby-reduce") == 1

    def test_gpu_trace_includes_rules_from_every_phase(self):
        compiled = compile_program(kmeans_grouped_program(), "gpu")
        rules = compiled.report.applied_rules
        assert "groupby-reduce" in rules          # opt-1 phase
        assert "bucket-row-to-column-reduce" in rules  # gpu phase
        assert Counter(rules) == Counter(
            r for t in compiled.trace for r in t.rules)

    def test_later_optimize_phases_keep_logging(self):
        """The old bug: an ``optimize()`` call without ``applied_log``
        silently discarded its applications. Through a shared manager,
        every phase's applications land in the trace."""
        pm = PassManager()
        optimize(kmeans_grouped_program(), horizontal=False,
                 pm=pm, phase="first")
        optimize(kmeans_grouped_program(), horizontal=False,
                 pm=pm, phase="second")
        per_phase = Counter(t.phase for t in pm.traces if t.rules)
        assert per_phase["first"] == 1 and per_phase["second"] == 1
        assert pm.applied_rules().count("groupby-reduce") == 2


class TestVerifyKnob:
    def test_verifier_catches_broken_pass(self):
        breaker = Pass("break-ir", lambda prog, log: Program(
            prog.inputs,
            Block(prog.body.params, prog.body.stmts,
                  (fresh(T.INT, "dangling"),))))
        pm = PassManager(verify=True)
        with pytest.raises(IRVerificationError, match="break-ir"):
            pm.run_pass(kmeans_shared_program(), breaker, phase="x")

    def test_verify_off_lets_broken_ir_through(self):
        breaker = Pass("break-ir", lambda prog, log: Program(
            prog.inputs,
            Block(prog.body.params, prog.body.stmts,
                  (fresh(T.INT, "dangling"),))))
        pm = PassManager(verify=False)
        pm.run_pass(kmeans_shared_program(), breaker, phase="x")  # no raise


class TestDifferentialCheck:
    def test_clean_pipeline_passes(self):
        compiled = compile_program(kmeans_shared_program(), "distributed",
                                   differential_inputs=INPUTS)
        (out,), _ = run_program(compiled.program,
                                compiled.prepare_inputs(INPUTS))
        before, _ = run_program(kmeans_shared_program(), INPUTS)
        assert deep_eq((out,), before)

    def test_names_first_semantics_breaking_pass(self):
        def fn(xs):
            return xs.map(lambda x: x + 3).sum()
        prog = F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True)])

        def clobber(p, log):
            # semantically different but structurally valid: +3 -> +4
            def fx(xs):
                return xs.map(lambda x: x + 4).sum()
            return F.build(fx, [F.InputSpec("xs", T.Coll(T.INT), True)])

        pm = PassManager(verify=True,
                         differential_inputs={"xs": [1, 2, 3]})
        std = standard_passes()
        prog = pm.run_pass(prog, std["cse"], phase="ok")
        with pytest.raises(PassSemanticsError) as ei:
            pm.run_pass(prog, Pass("evil-rewrite", clobber), phase="bad")
        assert ei.value.pass_name == "evil-rewrite"
        assert ei.value.phase == "bad"


def _dead_input_program():
    """A program input bound by one generator of a two-output loop, where
    that generator (and the loop's size dependency) are otherwise dead."""
    n = fresh(T.INT, "n")
    size = Def((n,), Prim("add", (Const(2), Const(2))))
    i, j = fresh(T.INT, "i"), fresh(T.INT, "j")
    dead_gen = collect(Block((i,), (), (i,)))
    live_gen = collect(Block((j,), (), (j,)))
    dead_sym = fresh(T.Coll(T.INT), "dead_input")
    live_sym = fresh(T.Coll(T.INT), "live")
    loop = Def((dead_sym, live_sym), MultiLoop(n, (dead_gen, live_gen)))
    ln = fresh(T.INT, "ln")
    use = Def((ln,), ArrayLength(live_sym))
    body = Block((), (size, loop, use), (ln,))
    return Program((dead_sym,), body)


class TestDceInputReattachment:
    def test_single_sym_dead_input_kept(self):
        def fn(xs, ys):
            return xs.sum()
        prog = F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True),
                            F.InputSpec("ys", T.Coll(T.INT), False)])
        out = dce(prog)
        verify_program(out)
        defined = {s for d in out.body.stmts for s in d.syms}
        assert all(s in defined for s in out.inputs)

    def test_multi_sym_dead_input_reattached(self):
        prog = _dead_input_program()
        out = dce(prog)
        verify_program(out)
        defined = {s for d in out.body.stmts for s in d.syms}
        assert prog.inputs[0] in defined
        # the re-attached generator must not resurrect the live def twice
        assert sum(1 for d in out.body.stmts
                   for s in d.syms if s == prog.inputs[0]) == 1
        (r_before,), _ = run_program(prog, {})
        (r_after,), _ = run_program(out, {})
        assert r_before == r_after

    def test_entirely_dead_loop_input_with_deps(self):
        """The size dependency of the dead loop is resurrected too, in
        def-before-use order (the old code prepended single-sym defs only
        and would have produced ill-formed IR here)."""
        prog = _dead_input_program()
        # make *both* generators dead: result is a constant
        c = fresh(T.INT, "c")
        konst = Def((c,), Prim("add", (Const(1), Const(1))))
        body = Block((), prog.body.stmts[:2] + (konst,), (c,))
        prog2 = Program(prog.inputs, body)
        out = dce(prog2)
        verify_program(out)
        defined = {s for d in out.body.stmts for s in d.syms}
        assert prog2.inputs[0] in defined


class TestCompiledProgramSurface:
    def test_trace_field_defaults_empty(self):
        from repro.analysis.partitioning import PartitionReport
        cp = CompiledProgram(kmeans_shared_program(), PartitionReport())
        assert cp.trace == []

    def test_all_targets_expose_trace(self):
        for target in ("cpu", "distributed", "gpu"):
            compiled = compile_program(kmeans_shared_program(), target)
            names = [t.name for t in compiled.trace]
            assert "aos-to-soa" in names and "fuse-horizontal" in names
