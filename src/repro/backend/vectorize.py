"""Block vectorizer: evaluate DMLL blocks over whole index vectors.

The reference interpreter (``repro.core.interp``) evaluates generator
blocks once per element; this module evaluates them once per *loop* on
NumPy lane vectors — one lane per loop index — under a boolean activity
mask. Values flow through a small vocabulary of representations:

- ``numpy.ndarray`` of shape ``(L,)`` — a per-lane scalar;
- ``SVec``   — a per-lane struct, stored as columnar fields;
- ``ArrVec`` — a per-lane nested array, stored padded with optional
  per-lane lengths (ragged rows);
- ``Rows``   — a lazy per-lane gather of rows from one host collection
  (adjacency lists, bucket values) that keeps the original row objects
  reachable for collection primitives;
- ``RowSel`` — a lazy per-lane selection of rows from an ``ArrVec``: how
  a nested loop's lanes read their outer lane's rows without copying a
  row once per inner lane;
- any other Python value — lane-invariant ("uniform"), evaluated once.

Cost accounting stays *analytic* and matches the interpreter cycle for
cycle: every operation adds its cost to per-lane essential/overhead
vectors under the current mask, and global tallies (op counts, elements
read, bytes) accumulate in a ``StatsDelta`` that the caller commits only
after the whole loop vectorized successfully — a mid-loop ``VecError``
therefore leaves the interpreter's stats untouched and the loop can fall
back to reference execution. All cycle constants are dyadic rationals, so
the vectorized sums are bit-identical to the interpreter's sequential
accumulation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import types as T
from ..core.interp import (BRANCH_CYCLES, BUCKET_CYCLES, READ_CYCLES,
                           WRITE_CYCLES, loop_share_plan)
from ..core.ir import Block, Const, Def, Exp, Sym
from ..core.multiloop import GenKind, Generator, MultiLoop
from ..core.ops import (COLL_PRIMS, PRIMS, ArrayApply, ArrayLength, ArrayLit,
                        BucketKeys, BucketLookup, CollPrim, IfThenElse,
                        InputSource, MakeKeyed, Prim, StructField, StructNew)
from ..core.values import Buckets


class VecError(Exception):
    """A construct (or runtime value shape) this backend cannot vectorize.

    Raised before any stats are committed; the caller records the reason
    and re-executes the loop on the reference interpreter.
    """


# ---------------------------------------------------------------------------
# Lane-vector value representations
# ---------------------------------------------------------------------------

class SVec:
    """Per-lane struct: a tuple of columnar fields (each a lane vector or
    a uniform value)."""

    __slots__ = ("fields",)

    def __init__(self, fields: Tuple[Any, ...]):
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SVec({self.fields!r})"


class ArrVec:
    """Per-lane nested array: ``data`` has shape ``(L, W, ...)``; rows may
    be ragged, in which case ``lengths`` gives each lane's true length and
    the tail of every row is padding."""

    __slots__ = ("data", "lengths")

    def __init__(self, data: np.ndarray, lengths: Optional[np.ndarray]):
        self.data = data
        self.lengths = lengths

    def lens(self) -> np.ndarray:
        """Every lane's row length as a vector."""
        if self.lengths is not None:
            return self.lengths
        return np.full(len(self.data), self.data.shape[1], dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArrVec{self.data.shape}"


class Rows:
    """Per-lane rows gathered from one uniform host collection: lane ``l``
    holds ``base[idx[l]]``. Padding/length caches live on ``host`` (the
    executing interpreter) so one host collection is columnarized at most
    once per run."""

    __slots__ = ("base", "idx", "host")

    def __init__(self, base: Sequence[Any], idx: np.ndarray, host=None):
        self.base = base
        self.idx = idx
        self.host = host

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Rows(n={len(self.base)}, L={len(self.idx)})"


class RowSel:
    """Per-lane rows selected from an ``ArrVec``: lane ``l`` holds row
    ``sel[l]`` of ``base``. Reads index through ``sel``; nothing copies
    the rows unless a select has to mix them with computed arrays."""

    __slots__ = ("base", "sel")

    def __init__(self, base: ArrVec, sel: np.ndarray):
        self.base = base
        self.sel = sel

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RowSel({self.base!r}, L={len(self.sel)})"


def _materialize(v: Any) -> Any:
    """Rows / RowSel → padded ArrVec (needed when a select mixes a
    gather with a computed array, e.g. a vector-add reduction over input
    rows)."""
    if isinstance(v, RowSel):
        b = v.base
        return ArrVec(b.data[v.sel],
                      None if b.lengths is None else b.lengths[v.sel])
    if not isinstance(v, Rows):
        return v
    if v.host is None:
        raise VecError("cannot materialize detached row gather")
    lens, pad = v.host.row_cache(v.base)
    if pad is None:
        raise VecError("cannot materialize non-scalar rows")
    l = lens[v.idx]
    data = pad[v.idx]
    if l.size and int(l.min()) == int(l.max()):
        return ArrVec(data[:, : int(l[0])], None)
    return ArrVec(data, l)


def is_vec(v: Any) -> bool:
    return isinstance(v, (np.ndarray, SVec, ArrVec, Rows, RowSel))


def host_key(k: Any) -> Any:
    """A bucket key as the plain Python value the interpreter would hold."""
    return k.item() if isinstance(k, np.generic) else k


def _np_dtype(tpe: T.Type):
    if tpe is T.DOUBLE:
        return np.float64
    if tpe in (T.INT, T.LONG):
        return np.int64
    if tpe is T.BOOL:
        return np.bool_
    return object


# ---------------------------------------------------------------------------
# Structural recombination helpers
# ---------------------------------------------------------------------------

def as_lane_vec(v: Any, L: int) -> Any:
    """Broadcast a uniform value to a full lane vector (vectors pass
    through)."""
    if is_vec(v):
        return v
    if isinstance(v, tuple):
        return SVec(tuple(as_lane_vec(f, L) for f in v))
    if isinstance(v, list):
        row = np.asarray(v)
        if row.dtype == object:
            raise VecError("cannot broadcast heterogeneous row")
        return ArrVec(np.tile(row, (L,) + (1,) * max(row.ndim, 1)), None)
    if isinstance(v, (bool, np.bool_)):
        return np.full(L, bool(v), dtype=np.bool_)
    if isinstance(v, (int, np.integer)):
        return np.full(L, int(v), dtype=np.int64)
    if isinstance(v, (float, np.floating)):
        return np.full(L, float(v), dtype=np.float64)
    return np.full(L, v, dtype=object)


def vec_take(v: Any, idx: np.ndarray) -> Any:
    """Reindex a lane vector by lane indices (uniforms pass through)."""
    if isinstance(v, np.ndarray):
        return v[idx]
    if isinstance(v, SVec):
        return SVec(tuple(vec_take(f, idx) for f in v.fields))
    if isinstance(v, ArrVec):
        return ArrVec(v.data[idx],
                      None if v.lengths is None else v.lengths[idx])
    if isinstance(v, Rows):
        return Rows(v.base, v.idx[idx], v.host)
    if isinstance(v, RowSel):
        return RowSel(v.base, v.sel[idx])
    return v


def select_lanes(v: Any, sel: np.ndarray) -> Any:
    """``vec_take`` that reads ``ArrVec`` rows through ``sel`` instead of
    copying them (an outer value seen from a nested loop's lanes)."""
    if isinstance(v, ArrVec):
        return RowSel(v, sel)
    if isinstance(v, SVec):
        return SVec(tuple(select_lanes(f, sel) for f in v.fields))
    return vec_take(v, sel)


def vec_concat(parts: Sequence[Tuple[Any, int]]) -> Any:
    """Concatenate ``(lane vector, lane count)`` parts along the lane
    axis (uniform parts broadcast to their lane count)."""
    vals = [as_lane_vec(v, n) for v, n in parts]
    # a part with no elements at all (e.g. a window whose lanes ran no
    # trip) takes the element shape of the others
    full = [v for v in vals if not _no_rows(v)]
    if full and len(full) < len(vals):
        vals = [_empty_like(full[0], n) if _no_rows(v) else v
                for v, (_, n) in zip(vals, parts)]
    if all(isinstance(v, Rows) and v.base is vals[0].base for v in vals):
        return Rows(vals[0].base, np.concatenate([v.idx for v in vals]),
                    vals[0].host)
    vals = [_materialize(v) for v in vals]
    if all(isinstance(v, SVec) and len(v.fields) == len(vals[0].fields)
           for v in vals):
        return SVec(tuple(vec_concat([(v.fields[i], n)
                                      for v, (_, n) in zip(vals, parts)])
                          for i in range(len(vals[0].fields))))
    if all(isinstance(v, np.ndarray) for v in vals):
        return np.concatenate(vals)
    if not all(isinstance(v, ArrVec) and
               v.data.shape[2:] == vals[0].data.shape[2:] for v in vals):
        raise VecError("mixed value shapes in concatenation")
    w = max(v.data.shape[1] for v in vals)
    data = np.zeros((sum(n for _, n in parts), w) + vals[0].data.shape[2:],
                    dtype=np.result_type(*(v.data.dtype for v in vals)))
    lo = 0
    for v in vals:
        data[lo:lo + len(v.data), : v.data.shape[1]] = v.data
        lo += len(v.data)
    if all(v.lengths is None and v.data.shape[1] == w for v in vals):
        return ArrVec(data, None)
    return ArrVec(data, np.concatenate([v.lens() for v in vals]))


def _no_rows(v: Any) -> bool:
    return isinstance(v, ArrVec) and v.data.shape[1] == 0


def _empty_like(v: Any, n: int) -> Any:
    """``n`` lanes of empty rows shaped like the rows of ``v``."""
    v = _materialize(v)
    if isinstance(v, SVec):
        return SVec(tuple(_empty_like(f, n) for f in v.fields))
    if not isinstance(v, ArrVec):
        raise VecError("mixed value shapes")
    return ArrVec(np.zeros((n, 0) + v.data.shape[2:], dtype=v.data.dtype),
                  np.zeros(n, dtype=np.int64))


def _pad_pair(a: ArrVec, b: ArrVec) -> Tuple[ArrVec, ArrVec]:
    """Pad two ArrVecs to a common inner width."""
    wa, wb = a.data.shape[1], b.data.shape[1]
    if wa == wb:
        return a, b
    w = max(wa, wb)

    def pad(v: ArrVec) -> ArrVec:
        if v.data.shape[1] == w:
            return v
        shape = (v.data.shape[0], w) + v.data.shape[2:]
        out = np.zeros(shape, dtype=v.data.dtype)
        out[:, : v.data.shape[1]] = v.data
        return ArrVec(out, v.lens())

    return pad(a), pad(b)


def vec_where(cond: np.ndarray, tv: Any, ev: Any, L: int) -> Any:
    """Per-lane select. ``cond`` is a boolean lane vector."""
    if not is_vec(tv) and not is_vec(ev) and type(tv) is type(ev) and tv == ev:
        return tv
    tv = as_lane_vec(tv, L)
    ev = as_lane_vec(ev, L)
    if isinstance(tv, Rows) and isinstance(ev, Rows) and tv.base is ev.base:
        return Rows(tv.base, np.where(cond, tv.idx, ev.idx), tv.host)
    tv = _materialize(tv)
    ev = _materialize(ev)
    if _no_rows(tv) != _no_rows(ev):  # e.g. a Collect that kept nothing
        if _no_rows(tv):
            tv = _empty_like(ev, L)
        else:
            ev = _empty_like(tv, L)
    if isinstance(tv, np.ndarray) and isinstance(ev, np.ndarray):
        return np.where(cond, tv, ev)
    if isinstance(tv, SVec) and isinstance(ev, SVec):
        if len(tv.fields) != len(ev.fields):
            raise VecError("struct arity mismatch in select")
        return SVec(tuple(vec_where(cond, a, b, L)
                          for a, b in zip(tv.fields, ev.fields)))
    if isinstance(tv, ArrVec) and isinstance(ev, ArrVec):
        tv, ev = _pad_pair(tv, ev)
        sel = cond.reshape((L,) + (1,) * (tv.data.ndim - 1))
        lens = None
        if tv.lengths is not None or ev.lengths is not None:
            lens = np.where(cond, tv.lens(), ev.lens())
        return ArrVec(np.where(sel, tv.data, ev.data), lens)
    raise VecError("mixed value shapes in select")


# ---------------------------------------------------------------------------
# Vectorized primitive table
# ---------------------------------------------------------------------------

def _guard_div(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.true_divide(a, b)
    return np.where(np.asarray(b) != 0, r, 0.0)


def _guard_idiv(a, b):
    bz = np.asarray(b) != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.floor_divide(a, np.where(bz, b, 1))
    return np.where(bz, r, 0)


def _guard_mod(a, b):
    bz = np.asarray(b) != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.mod(a, np.where(bz, b, 1))
    return np.where(bz, r, 0)


def _bool_op(fn):
    def op(*args):
        for a in args:
            if isinstance(a, np.ndarray) and a.dtype != np.bool_:
                raise VecError("logical primitive on non-boolean operand")
            if not isinstance(a, (np.ndarray, bool, np.bool_)):
                raise VecError("logical primitive on non-boolean operand")
        return fn(*args)
    return op


def _pyfunc(fn, out_dtype):
    """Element-wise application of the interpreter's own evaluator.

    Used for transcendentals so the backend is *bit-identical* to
    ``math.exp``/``math.log`` (NumPy's SIMD routines may differ in the
    last ulp, which could flip a downstream comparison), and for string /
    hash primitives NumPy has no kernel for."""
    ufn = np.frompyfunc(fn, _arity_of(fn), 1)

    def op(*args):
        return ufn(*args).astype(out_dtype)
    return op


def _arity_of(fn) -> int:
    return fn.__code__.co_argcount if hasattr(fn, "__code__") else 1


_EXP = _pyfunc(math.exp, np.float64)
_LOG = _pyfunc(PRIMS["log"].eval_fn, np.float64)
_POW = _pyfunc(PRIMS["pow"].eval_fn, np.float64)
_SIGMOID = _pyfunc(PRIMS["sigmoid"].eval_fn, np.float64)

VEC_PRIMS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _guard_div,
    "idiv": _guard_idiv,
    "mod": _guard_mod,
    "neg": lambda a: -a,
    "min": np.minimum,
    "max": np.maximum,
    "eq": lambda a, b: np.equal(a, b),
    "ne": lambda a, b: np.not_equal(a, b),
    "lt": lambda a, b: np.less(a, b),
    "le": lambda a, b: np.less_equal(a, b),
    "gt": lambda a, b: np.greater(a, b),
    "ge": lambda a, b: np.greater_equal(a, b),
    "and": _bool_op(np.logical_and),
    "or": _bool_op(np.logical_or),
    "not": _bool_op(np.logical_not),
    "exp": _EXP,
    "log": _LOG,
    # np.sqrt is IEEE correctly rounded, identical to math.sqrt
    "sqrt": lambda a: np.where(np.asarray(a) >= 0,
                               np.sqrt(np.abs(a)), 0.0),
    "abs": np.abs,
    "pow": _POW,
    "sigmoid": _SIGMOID,
    "to_double": lambda a: np.asarray(a, dtype=np.float64),
    "to_int": lambda a: _truncate(a),
    "to_long": lambda a: _truncate(a),
    "str_concat": _pyfunc(lambda a, b: a + b, object),
    "str_len": _pyfunc(len, np.int64),
    "str_char_at": _pyfunc(PRIMS["str_char_at"].eval_fn, object),
    "hash": _pyfunc(PRIMS["hash"].eval_fn, np.int64),
}

#: scalar reducers safe for ufunc-tree evaluation (associative; ``sub``
#: and friends are rejected, which is the associativity check the paper's
#: reduce contract calls for)
ASSOC_UFUNCS = {
    "add": np.add,
    "mul": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "and": np.logical_and,
    "or": np.logical_or,
}


def _clamp(idx, hi: int):
    """``np.clip(idx, 0, hi)`` without ``np.clip``'s per-call dtype-limit
    checks (masked-off lanes may hold out-of-range indices)."""
    return np.minimum(np.maximum(idx, 0), hi)


def _truncate(a):
    a = np.asarray(a)
    if a.dtype == np.bool_:
        return a.astype(np.int64)
    return np.trunc(a).astype(np.int64) if a.dtype.kind == "f" \
        else a.astype(np.int64)


def recognize_assoc_prim(block: Block) -> Optional[str]:
    """``(a, b) => prim(a, b)`` with an associative prim, in either
    argument order — the shape a ufunc reduction can execute directly."""
    if len(block.params) != 2 or len(block.stmts) != 1:
        return None
    if len(block.results) != 1:
        return None
    d = block.stmts[0]
    op = d.op
    if not isinstance(op, Prim) or op.name not in ASSOC_UFUNCS:
        return None
    if len(d.syms) != 1 or not isinstance(block.results[0], Sym) \
            or block.results[0].id != d.syms[0].id:
        return None
    a, b = block.params
    ids = {x.id for x in op.args if isinstance(x, Sym)}
    if len(op.args) == 2 and ids == {a.id, b.id}:
        return op.name
    return None


# ---------------------------------------------------------------------------
# Static vectorizability scan
# ---------------------------------------------------------------------------

def _share_reason(gens: Sequence[Generator]) -> Optional[str]:
    """Generators that share a key probe must also share the active mask,
    otherwise the first-probe/sibling-write cost split cannot be
    reproduced lane-wise."""
    share_keys, need_memo = loop_share_plan(gens)
    if not need_memo:
        return None
    by_key: Dict[Any, Any] = {}
    for ck, kk in share_keys:
        if kk is None:
            continue
        if kk in by_key and by_key[kk] != ck:
            return "bucket key shared across generators with " \
                   "differing conditions"
        by_key.setdefault(kk, ck)
    return None


def plan_loop(loop: MultiLoop) -> Optional[str]:
    """Static scan of one top-level loop; returns a fallback reason or
    ``None`` when every construct has a vectorized lowering."""
    reason = _share_reason(loop.gens)
    if reason is not None:
        return reason
    for g in loop.gens:
        for b in g.blocks():
            reason = _plan_block(b)
            if reason is not None:
                return reason
        if g.kind in (GenKind.REDUCE, GenKind.BUCKET_REDUCE):
            reason = _plan_reducer(g.reducer)
            if reason is not None:
                return reason
    return None


def plan_program(prog) -> Dict[str, Optional[str]]:
    """Static backend plan for every top-level loop, without executing.

    Maps ``repr(loop sym)`` to the fallback reason ``plan_loop`` would
    report (``None`` = fully vectorizable), and emits one BACKEND_PLAN
    decision per loop into the active provenance ledger — this is how
    ``repro explain`` shows plan-vs-fallback without running the program.
    (Runtime-only fallbacks, from value shapes the static scan cannot see,
    still surface when the program is actually run.)
    """
    from ..obs.provenance import FALLBACK, VECTORIZED, DecisionKind, emit
    out: Dict[str, Optional[str]] = {}
    for d in prog.body.stmts:
        if not isinstance(d.op, MultiLoop):
            continue
        reason = plan_loop(d.op)
        out[repr(d.syms[0])] = reason
        emit(DecisionKind.BACKEND_PLAN, repr(d.syms[0]),
             VECTORIZED if reason is None else FALLBACK,
             reason if reason is not None
             else "all constructs have a vectorized lowering",
             op=d.op.op_name(), static=True)
    return out


def _plan_reducer(block: Block) -> Optional[str]:
    if recognize_assoc_prim(block) is not None:
        return None
    if len(block.stmts) == 1 and isinstance(block.stmts[0].op, Prim):
        # a single non-associative prim (sub, div, ...) would change
        # meaning under tree reduction
        return (f"non-associative scalar reducer "
                f"prim.{block.stmts[0].op.name}")
    return None  # compound reducers are associative by the reduce contract


def _plan_block(block: Block) -> Optional[str]:
    for d in block.stmts:
        op = d.op
        if isinstance(op, (MakeKeyed, InputSource)):
            return f"op {op.op_name()} inside a generator block"
        if isinstance(op, CollPrim) and op.name not in COLL_PRIMS:
            return f"unknown collection primitive {op.name}"
        if isinstance(op, Prim) and op.name not in VEC_PRIMS:
            return f"no vectorized lowering for prim.{op.name}"
        if isinstance(op, IfThenElse):
            for b in (op.then_block, op.else_block):
                reason = _plan_block(b)
                if reason is not None:
                    return reason
        if isinstance(op, MultiLoop):
            # a nested Reduce folds one trip at a time, in trip order, so
            # any reducer (associative or not) is exact here
            reason = _share_reason(op.gens)
            if reason is not None:
                return reason
            for g in op.gens:
                if g.flatten:
                    return "nested flatten-Collect (ragged concatenation)"
                for b in g.blocks():
                    reason = _plan_block(b)
                    if reason is not None:
                        return reason
    return None


# ---------------------------------------------------------------------------
# Stats accumulation
# ---------------------------------------------------------------------------

@dataclass
class StatsDelta:
    """Loop-local global tallies, committed into ``ExecStats`` only after
    the whole loop vectorized successfully."""

    op_counts: Counter = field(default_factory=Counter)
    loop_iterations: int = 0
    loops_executed: int = 0
    elements_read: int = 0
    bytes_read: int = 0
    elements_emitted: int = 0
    bytes_alloc: int = 0

    def merge_into(self, stats) -> None:
        stats.op_counts.update(self.op_counts)
        stats.loop_iterations += self.loop_iterations
        stats.loops_executed += self.loops_executed
        stats.elements_read += self.elements_read
        stats.bytes_read += self.bytes_read
        stats.elements_emitted += self.elements_emitted
        stats.bytes_alloc += self.bytes_alloc


#: widest child vectorizer a nested loop creates: a nest with more
#: (outer lane, trip) pairs than this is evaluated in consecutive chunks
#: of at most this many, which bounds the memory one nesting level holds
NEST_LANE_BUDGET = 1 << 14


class _GenState:
    """Accumulator of one nested generator over all outer lanes.

    Collect kinds scatter each kept (lane, trip) value into its lane's
    row: ``out`` holds the rows (an ``(L, W, ...)`` array, or an SVec of
    them for struct values) and ``fill`` each lane's row length so far.
    Reduce kinds fold one trip at a time into ``acc``; ``seen`` marks the
    lanes that already hold a value. A bucket generator keeps one
    sub-state per distinct key in ``buckets``, and ``first`` holds the
    trip at which each lane first hit that key (-1: never), which fixes
    each lane's own first-seen key order."""

    __slots__ = ("out", "fill", "acc", "seen", "all_seen", "buckets",
                 "first")

    def __init__(self):
        self.out: Any = None
        self.fill: Optional[np.ndarray] = None
        self.acc: Any = None
        self.seen: Optional[np.ndarray] = None
        self.all_seen = False
        self.buckets: Dict[Any, "_GenState"] = {}
        self.first: Optional[np.ndarray] = None


def _scatter_into(out: Any, vals: Any, lanes: np.ndarray, col: np.ndarray,
                  L: int, w: int) -> Any:
    """Write dense element values into row buffer ``out`` at ``(lanes,
    col)``, allocating it (``L`` rows of at least ``w``) or widening and
    promoting it as needed."""
    if isinstance(vals, SVec):
        if out is None:
            out = SVec((None,) * len(vals.fields))
        elif not isinstance(out, SVec) or \
                len(out.fields) != len(vals.fields):
            raise VecError("mixed element shapes in nested collect")
        return SVec(tuple(_scatter_into(o, f, lanes, col, L, w)
                          for o, f in zip(out.fields, vals.fields)))
    if isinstance(out, SVec):
        raise VecError("mixed element shapes in nested collect")
    if out is None:
        out = np.zeros((L, w) + vals.shape[1:], dtype=vals.dtype)
    else:
        if out.shape[2:] != vals.shape[1:]:
            raise VecError("collect of ragged rows")
        dt = np.result_type(out.dtype, vals.dtype)
        if out.shape[1] < w or dt != out.dtype:
            width = out.shape[1] if out.shape[1] >= w \
                else max(w, 2 * out.shape[1])
            grown = np.zeros((L, width) + out.shape[2:], dtype=dt)
            grown[:, : out.shape[1]] = out
            out = grown
    out[lanes, col] = vals
    return out


def _reshape_rows(vals: Any, L: int) -> Any:
    if isinstance(vals, SVec):
        return SVec(tuple(_reshape_rows(f, L) for f in vals.fields))
    return vals.reshape((L, -1) + vals.shape[1:])


def _as_rows(out: Any, w: int, lengths: Optional[np.ndarray]) -> Any:
    if isinstance(out, SVec):
        return SVec(tuple(_as_rows(f, w, lengths) for f in out.fields))
    return ArrVec(out[:, :w], lengths)


def _key_split(key: Any, sel: np.ndarray) -> List[Tuple[Any, np.ndarray]]:
    """Split lanes ``sel`` by bucket key: ``(host key, lanes)`` pairs, one
    per distinct key, each lane list ascending."""
    if not is_vec(key):
        return [(host_key(key), sel)]
    if not isinstance(key, np.ndarray):
        raise VecError("non-scalar bucket key")
    act = key[sel]
    if act.dtype.kind == "f" and bool(np.isnan(act).any()):
        raise VecError("NaN bucket key")
    try:
        uniq, inv = np.unique(act, return_inverse=True)
    except TypeError as e:
        raise VecError(f"unsortable bucket keys: {e}") from None
    if len(uniq) == 1:
        return [(host_key(uniq[0]), sel)]
    inv = inv.reshape(-1)
    order = np.argsort(inv, kind="stable")
    bounds = np.searchsorted(inv[order], np.arange(len(uniq) + 1))
    return [(host_key(u), sel[order[b:e]])
            for u, b, e in zip(uniq, bounds[:-1], bounds[1:])]


# ---------------------------------------------------------------------------
# The vectorizer
# ---------------------------------------------------------------------------

class LoopVectorizer:
    """Evaluates blocks over ``L`` lanes, tracking per-lane cost vectors.

    ``host`` is the executing ``NumpyInterp``: uniform free symbols
    resolve through its environment, and per-host caches (padded rows,
    columnarized structs) live on it so they are shared across loops.
    A nested loop's vectorizer has an ``outer`` one and the outer lane
    ``sel[l]`` of each of its lanes ``l``; symbols it does not bind
    resolve through ``outer``, read through ``sel``.
    """

    def __init__(self, host, L: int, delta: StatsDelta,
                 outer: Optional["LoopVectorizer"] = None,
                 sel: Optional[np.ndarray] = None):
        self.host = host
        self.L = L
        self.delta = delta
        self.outer = outer
        self.sel = sel
        self.env: Dict[int, Any] = {}
        self.ess = np.zeros(L, dtype=np.float64)
        self.ovh = np.zeros(L, dtype=np.float64)
        self.in_reducer = outer.in_reducer if outer else 0
        self.in_reduce_value = outer.in_reduce_value if outer else 0
        # single-slot popcount cache: consecutive defs in a block share the
        # same mask object. Pinning the object (_mobj) keeps its id from
        # being recycled by a later, different mask.
        self._mobj: Optional[np.ndarray] = None
        self._mn = L

    # -- mask / cost helpers ---------------------------------------------

    def count(self, mask: Optional[np.ndarray]) -> int:
        if mask is None:
            return self.L
        if mask is not self._mobj:
            self._mobj = mask
            self._mn = int(mask.sum())
        return self._mn

    def full_mask(self, mask: Optional[np.ndarray]) -> np.ndarray:
        return np.ones(self.L, dtype=np.bool_) if mask is None else mask

    def add_ess(self, c, mask: Optional[np.ndarray]) -> None:
        if mask is None:
            self.ess += c
        else:
            np.add(self.ess, c, out=self.ess, where=mask)

    def add_ovh(self, c, mask: Optional[np.ndarray]) -> None:
        if mask is None:
            self.ovh += c
        else:
            np.add(self.ovh, c, out=self.ovh, where=mask)

    def count_read(self, tpe: T.Type, mask: Optional[np.ndarray],
                   n: int) -> None:
        c = READ_CYCLES * 0.5 if self.in_reducer else READ_CYCLES
        self.add_ess(c, mask)
        self.delta.elements_read += n
        self.delta.bytes_read += tpe.byte_size * n

    def count_alloc(self, tpe: T.Type, mask: Optional[np.ndarray],
                    n=1) -> None:
        if self.in_reduce_value:
            return
        if np.isscalar(n):
            self.add_ess(WRITE_CYCLES * n, mask)
            total = n * self.count(mask)
        else:
            self.add_ess(WRITE_CYCLES * n.astype(np.float64), mask)
            total = int(n.sum() if mask is None else n[mask].sum())
        if self.in_reducer:
            return
        self.delta.elements_emitted += total
        self.delta.bytes_alloc += tpe.byte_size * total

    # -- expression / block evaluation -----------------------------------

    def lookup(self, e: Exp) -> Any:
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Sym):
            if e.id in self.env:
                return self.env[e.id]
            if self.outer is not None:
                v = self.env[e.id] = select_lanes(self.outer.lookup(e),
                                                  self.sel)
                return v
            if e.id in self.host.env:
                return self.host.env[e.id]  # uniform host value
            raise VecError(f"unbound symbol {e!r} in vectorized block")
        raise VecError(f"cannot evaluate {e!r}")

    def eval_block(self, block: Block, args: Sequence[Any],
                   mask: Optional[np.ndarray]) -> Any:
        if len(args) != len(block.params):
            raise VecError("block arity mismatch")
        if len(block.results) != 1:
            raise VecError("multi-result block")
        for p, a in zip(block.params, args):
            self.env[p.id] = a
        for d in block.stmts:
            self.eval_def(d, mask)
        return self.lookup(block.results[0])

    # -- statement dispatch ----------------------------------------------

    def eval_def(self, d: Def, mask: Optional[np.ndarray]) -> None:
        op = d.op
        n = self.count(mask)
        names = self.host.opname_cache
        nm = names.get(id(op))
        if nm is None:
            nm = names[id(op)] = op.op_name()
        self.delta.op_counts[nm] += n
        if isinstance(op, Prim):
            spec = PRIMS[op.name]
            args = [self.lookup(a) for a in op.args]
            self.add_ess(spec.cost, mask)
            if not any(is_vec(a) for a in args):
                val = spec.eval_fn(*args)
            else:
                val = VEC_PRIMS[op.name](*args)
            self.env[d.sym.id] = val
        elif isinstance(op, ArrayApply):
            rt = op.result_types()[0]
            arr = self.lookup(op.arr)
            idx = self.lookup(op.idx)
            self.count_read(rt, mask, n)
            self.env[d.sym.id] = self._apply(arr, idx, rt)
        elif isinstance(op, ArrayLength):
            self.add_ess(1.0, mask)
            self.env[d.sym.id] = self._length(self.lookup(op.arr))
        elif isinstance(op, MultiLoop):
            self._nested_loop(d, op, mask)
        elif isinstance(op, IfThenElse):
            self.add_ovh(BRANCH_CYCLES, mask)
            self.env[d.sym.id] = self._if_then_else(op, mask)
        elif isinstance(op, StructNew):
            self.add_ovh(len(op.values) * 0.5, mask)
            vals = tuple(self.lookup(v) for v in op.values)
            if not any(is_vec(v) for v in vals):
                self.env[d.sym.id] = vals
            else:
                self.env[d.sym.id] = SVec(vals)
        elif isinstance(op, StructField):
            st = op.struct.tpe
            fidx = st.field_names().index(op.fname)
            self.add_ovh(0.5, mask)
            v = self.lookup(op.struct)
            if isinstance(v, SVec):
                self.env[d.sym.id] = v.fields[fidx]
            elif isinstance(v, tuple):
                self.env[d.sym.id] = v[fidx]
            else:
                raise VecError("field access on non-struct value")
        elif isinstance(op, BucketLookup):
            self.env[d.sym.id] = self._bucket_lookup(op, mask, n)
        elif isinstance(op, BucketKeys):
            coll = self.lookup(op.coll)
            if not isinstance(coll, Buckets):
                raise VecError("BucketKeys on per-lane buckets")
            self.env[d.sym.id] = list(coll.keys)
        elif isinstance(op, CollPrim):
            self.env[d.sym.id] = self._coll_prim(op, mask, n)
        elif isinstance(op, ArrayLit):
            elems = [self.lookup(e) for e in op.elems]
            self.count_alloc(op.elem_type, mask, len(elems))
            if not any(is_vec(e) for e in elems):
                self.env[d.sym.id] = list(elems)
            elif elems:
                cols = [as_lane_vec(e, self.L) for e in elems]
                if not all(isinstance(c, np.ndarray) for c in cols):
                    raise VecError("array literal of non-scalar elements")
                self.env[d.sym.id] = ArrVec(np.stack(cols, axis=1), None)
            else:
                self.env[d.sym.id] = []
        else:
            raise VecError(f"unvectorizable op {op.op_name()}")

    # -- array access -----------------------------------------------------

    def _apply(self, arr: Any, idx: Any, rt: T.Type) -> Any:
        if isinstance(arr, SVec):
            # per-lane array of structs, stored columnar
            return SVec(tuple(self._apply(f, idx, ft)
                              for f, (_, ft) in zip(
                                  arr.fields,
                                  rt.fields if isinstance(rt, T.Struct)
                                  else ((None, rt),) * len(arr.fields))))
        if isinstance(arr, Rows):
            lens, pad = self.host.row_cache(arr.base)
            if pad is None:
                raise VecError("gathered rows have non-scalar elements")
            j = _clamp(idx, pad.shape[1] - 1) if pad.shape[1] else None
            if j is None:
                raise VecError("indexing into empty rows")
            return pad[arr.idx, j]
        if isinstance(arr, (ArrVec, RowSel)):
            data = arr.data if isinstance(arr, ArrVec) else arr.base.data
            w = data.shape[1]
            if w == 0:
                raise VecError("indexing into empty rows")
            j = _clamp(idx, w - 1)
            if isinstance(arr, RowSel):
                rows = data[arr.sel, j]
            elif isinstance(j, np.ndarray):
                rows = data[np.arange(self.L), j]
            else:
                rows = data[:, int(j)]
            if rows.ndim == 1:
                return rows
            return ArrVec(rows, None)
        if is_vec(arr):
            raise VecError("positional read of a scalar lane vector")
        # uniform host collection
        if not is_vec(idx):
            try:
                return arr[idx]
            except (IndexError, KeyError, TypeError) as e:
                raise VecError(f"host read failed: {e}") from None
        base = arr.values if isinstance(arr, Buckets) else arr
        return self._gather(base, idx, rt)

    def _gather(self, base: Sequence[Any], idx: np.ndarray,
                rt: T.Type) -> Any:
        if len(base) == 0:
            raise VecError("gather from an empty collection")
        idx = _clamp(idx, len(base) - 1)
        if isinstance(rt, T.Struct):
            cols = self.host.col_cache(base, rt)
            return SVec(tuple(
                c[idx] if isinstance(c, np.ndarray)
                else Rows(c, idx, self.host)
                for c in cols))
        if isinstance(rt, (T.Coll, T.KeyedColl)):
            return Rows(base, idx, self.host)
        return self.host.np_cache(base)[idx]

    def _length(self, arr: Any) -> Any:
        if isinstance(arr, Rows):
            lens, _ = self.host.row_cache(arr.base)
            return lens[arr.idx]
        if isinstance(arr, ArrVec):
            return arr.data.shape[1] if arr.lengths is None else arr.lengths
        if isinstance(arr, RowSel):
            b = arr.base
            return b.data.shape[1] if b.lengths is None else b.lengths[arr.sel]
        if isinstance(arr, SVec):
            return self._length(arr.fields[0])
        if is_vec(arr):
            raise VecError("length of a scalar lane vector")
        try:
            return len(arr)
        except TypeError as e:
            raise VecError(f"length failed: {e}") from None

    # -- control flow ------------------------------------------------------

    def _if_then_else(self, op: IfThenElse, mask: Optional[np.ndarray]):
        cond = self.lookup(op.cond)
        if not is_vec(cond):
            branch = op.then_block if cond else op.else_block
            return self.eval_block(branch, (), mask)
        cond = cond.astype(np.bool_, copy=False)
        mt = cond if mask is None else (mask & cond)
        me = ~cond if mask is None else (mask & ~cond)
        has_t = bool(mt.any())
        has_e = bool(me.any())
        tv = self.eval_block(op.then_block, (), mt) if has_t else None
        ev = self.eval_block(op.else_block, (), me) if has_e else None
        if not has_e:
            return tv
        if not has_t:
            return ev
        return vec_where(cond, tv, ev, self.L)

    # -- keyed / collection ops -------------------------------------------

    def _bucket_lookup(self, op: BucketLookup, mask: Optional[np.ndarray],
                       n: int) -> Any:
        rt = op.result_types()[0]
        coll = self.lookup(op.coll)
        key = self.lookup(op.key)
        self.add_ess(BUCKET_CYCLES, mask)
        self.count_read(rt, mask, n)
        if not isinstance(coll, Buckets):
            raise VecError("BucketLookup on per-lane buckets")
        if not is_vec(key):
            return coll.lookup(key)
        if not isinstance(key, np.ndarray):
            raise VecError("bucket lookup with non-scalar keys")
        miss = len(coll.values)
        index = coll._index
        pos = np.fromiter((index.get(k, miss) for k in key.tolist()),
                          dtype=np.int64, count=self.L)
        ext = list(coll.values) + [coll.default]
        return self._gather(ext, pos, rt)

    def _coll_prim(self, op: CollPrim, mask: Optional[np.ndarray],
                   n: int) -> Any:
        spec = COLL_PRIMS[op.name]
        rt = op.result_types()[0]
        args = [self.lookup(a) for a in op.args]
        if not any(is_vec(a) for a in args):
            cycles, reads = spec.cost_fn(*args)
            self.add_ess(cycles, mask)
            self.delta.elements_read += reads * n
            self.delta.bytes_read += reads * 8 * n
            return spec.eval_fn(*args)
        lanes = (np.arange(self.L) if mask is None
                 else np.nonzero(mask)[0])
        out = np.zeros(self.L, dtype=_np_dtype(rt))
        ev, cf = spec.eval_fn, spec.cost_fn
        er = br = 0
        for l in lanes.tolist():
            vals = [self._row_at(a, l) for a in args]
            c, r = cf(*vals)
            self.ess[l] += c
            er += r
            out[l] = ev(*vals)
        self.delta.elements_read += er
        self.delta.bytes_read += er * 8
        return out

    def _row_at(self, a: Any, l: int) -> Any:
        """One lane's concrete value, as a host object."""
        if isinstance(a, Rows):
            return a.base[a.idx[l]]
        if isinstance(a, RowSel):
            return self._row_at(a.base, int(a.sel[l]))
        if isinstance(a, ArrVec):
            row = a.data[l]
            if a.lengths is not None:
                row = row[: a.lengths[l]]
            return row.tolist()
        if isinstance(a, SVec):
            return tuple(self._row_at(f, l) for f in a.fields)
        if isinstance(a, np.ndarray):
            return a[l].item() if a.dtype != object else a[l]
        return a  # uniform

    # -- nested multiloops -------------------------------------------------

    def _nested_loop(self, d: Def, loop: MultiLoop,
                     mask: Optional[np.ndarray]) -> None:
        """Evaluate a nested multiloop once over its flattened segments.

        A child vectorizer gets one lane per active (outer lane, trip)
        pair, laid out lane-major, so outer lane ``p``'s trips are the
        contiguous child lanes ``starts[p] .. starts[p] + size[p]``. A
        nest wider than ``NEST_LANE_BUDGET`` is split into windows of at
        most budget-many whole outer lanes whose trips fit the budget (a
        single lane that alone exceeds it runs in chunks of trips); each
        window runs on a vectorizer of its own lanes, and the windows'
        results concatenate along the lane axis."""
        sizes = self.lookup(loop.size)
        self.delta.loops_executed += self.count(mask)
        if is_vec(sizes) and not isinstance(sizes, np.ndarray):
            raise VecError("non-scalar loop size")
        sz = np.array(np.broadcast_to(sizes, (self.L,)), dtype=np.int64)
        if mask is not None:
            sz[~mask] = 0
        self.delta.loop_iterations += int(sz.sum())
        np.maximum(sz, 0, out=sz)
        ends = np.cumsum(sz)
        if ends[-1] <= NEST_LANE_BUDGET:
            outs = self._nest(loop, sz, mask)
        else:
            parts = []
            pa = 0
            while pa < self.L:
                limit = ends[pa] - sz[pa] + NEST_LANE_BUDGET
                pb = int(np.searchsorted(ends, limit, side="right"))
                pb = min(max(pb, pa + 1), pa + NEST_LANE_BUDGET)
                win = LoopVectorizer(self.host, pb - pa, self.delta, self,
                                     np.arange(pa, pb))
                parts.append((win._nest(loop, sz[pa:pb],
                                        None if mask is None
                                        else mask[pa:pb]), pb - pa))
                self.ess[pa:pb] += win.ess
                self.ovh[pa:pb] += win.ovh
                pa = pb
            outs = [vec_concat([(p[g], w) for p, w in parts])
                    for g in range(len(loop.gens))]
        for s, out in zip(d.syms, outs):
            self.env[s.id] = out

    def _nest(self, loop: MultiLoop, sz: np.ndarray,
              mask: Optional[np.ndarray]) -> List[Any]:
        """Run every generator of a nested loop with ``sz[p]`` trips on
        outer lane ``p``: cond, key and value blocks once per chunk of at
        most ``NEST_LANE_BUDGET`` child lanes; Collect values scatter
        straight into per-lane rows, Reduce values fold one trip at a time
        at outer width, in trip order. The child's per-lane costs sum back
        onto the outer lanes. Returns one lane vector per generator."""
        gens = loop.gens
        ends = np.cumsum(sz)
        starts = ends - sz
        total = int(ends[-1])
        share_keys, need_memo = loop_share_plan(gens)
        states = [_GenState() for _ in gens]
        for j0 in range(0, total, NEST_LANE_BUDGET):
            j1 = min(j0 + NEST_LANE_BUDGET, total)
            pa = int(np.searchsorted(ends, j0, side="right"))
            pb = int(np.searchsorted(ends, j1 - 1, side="right")) + 1
            per = np.minimum(ends[pa:pb], j1) - np.maximum(starts[pa:pb], j0)
            parent = np.repeat(np.arange(pa, pb), per)
            trip = np.arange(j0, j1) - starts[parent]
            child = LoopVectorizer(self.host, j1 - j0, self.delta, self,
                                   parent)
            memo = {} if need_memo else None
            evals = [child._flat_gen(g, sk, trip, memo)
                     for g, sk in zip(gens, share_keys)]
            for acc, c in ((self.ess, child.ess), (self.ovh, child.ovh)):
                acc += np.bincount(parent, weights=c, minlength=self.L)
            folds = []
            for g, st, ev in zip(gens, states, evals):
                if ev is None:
                    continue
                keep, key, v = ev
                sel = np.arange(child.L) if keep is None \
                    else np.flatnonzero(keep)
                if g.kind is GenKind.COLLECT:
                    self._scatter(st, child._dense(v, sel), parent[sel])
                elif g.kind is GenKind.BUCKET_COLLECT:
                    self._bucket_scatter(st, child, key, v, sel, parent,
                                         trip)
                else:
                    folds.append((g, st, keep, key, v))
            if folds:
                self._fold_trips(folds, sz, starts - j0, trip)
        return [self._finish_nested(g, st, mask)
                for g, st in zip(gens, states)]

    def _flat_gen(self, g: Generator, sk, trip: np.ndarray, memo):
        """Run one nested generator's cond, key and value blocks over all
        lanes of this (child) vectorizer: ``(keep mask or None, key,
        value)``, or None when no lane passes the condition."""
        ckey, kkey = sk
        m = None
        if g.cond is not None:
            self.add_ovh(BRANCH_CYCLES, None)
            cv = self._shared_eval(g.cond, trip, None, memo, ckey)
            if is_vec(cv):
                if not isinstance(cv, np.ndarray):
                    raise VecError("non-scalar condition value")
                m = cv.astype(np.bool_, copy=False)
                if not m.any():
                    return None
                if m.all():
                    m = None
            elif not cv:
                return None
        key = None
        if g.kind in (GenKind.BUCKET_COLLECT, GenKind.BUCKET_REDUCE):
            key = self._nested_key(g, trip, m, memo, kkey)
        if g.kind in (GenKind.COLLECT, GenKind.BUCKET_COLLECT):
            v = self.eval_block(g.value, (trip,), m)
            self.count_alloc(g.value_type, m, 1)
        else:
            self.in_reduce_value += 1
            try:
                v = self.eval_block(g.value, (trip,), m)
            finally:
                self.in_reduce_value -= 1
        return m, key, v

    def _shared_eval(self, block: Block, t: Any,
                     mask: Optional[np.ndarray], memo, mkey) -> Any:
        if memo is None or mkey is None:
            return self.eval_block(block, (t,), mask)
        if mkey in memo:
            return memo[mkey]
        v = self.eval_block(block, (t,), mask)
        memo[mkey] = v
        return v

    def _nested_key(self, g: Generator, t: Any, mask: Optional[np.ndarray],
                    memo, kkey) -> Any:
        """Key computation + hash probe, shared across alpha-equivalent
        sibling generators exactly as ``Interp._bucket_key`` shares it."""
        if memo is None or kkey is None:
            self.add_ess(BUCKET_CYCLES, mask)
            return self.eval_block(g.key, (t,), mask)
        probe = ("probe", kkey)
        if probe in memo:
            self.add_ess(WRITE_CYCLES, mask)  # sibling probe: indexed write
            return memo[probe]
        self.add_ess(BUCKET_CYCLES, mask)
        k = self._shared_eval(g.key, t, mask, memo, kkey)
        memo[probe] = k
        return k

    def _dense(self, v: Any, sel: np.ndarray) -> Any:
        """The values of lanes ``sel`` as dense element arrays: ``(n,)``
        scalars, ``(n, w, ...)`` rows of one length ``w``, or an SVec of
        those."""
        if not is_vec(v):
            v, sel = as_lane_vec(v, len(sel)), slice(None)
        if isinstance(v, SVec):
            return SVec(tuple(self._dense(f, sel) for f in v.fields))
        if isinstance(v, np.ndarray):
            return v[sel]
        if isinstance(v, Rows):
            lens, data = self.host.row_cache(v.base)
            if data is None:
                raise VecError("collect of non-scalar rows")
            rows = v.idx[sel]
            lv = lens[rows]
        elif isinstance(v, RowSel):
            data, rows = v.base.data, v.sel[sel]
            lv = None if v.base.lengths is None else v.base.lengths[rows]
        else:
            data, rows = v.data, sel
            lv = None if v.lengths is None else v.lengths[sel]
        w = data.shape[1]
        if lv is not None and lv.size:
            w = int(lv.min())
            if w != int(lv.max()):
                raise VecError("collect of ragged rows")
        return data[rows, :w]

    def _scatter(self, st: _GenState, vals: Any, lanes: np.ndarray) -> None:
        """Append dense values (one per entry of ``lanes``, which is
        ascending and in trip order within each lane) to the rows of
        their outer lanes."""
        counts = np.bincount(lanes, minlength=self.L)
        if st.fill is None and counts.min() == counts.max():
            # every lane got the same number: the rows are a reshape
            st.fill = counts
            st.out = _reshape_rows(vals, self.L)
            return
        if st.fill is None:
            st.fill = np.zeros(self.L, dtype=np.int64)
        run = np.arange(len(lanes)) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
        col = st.fill[lanes] + run
        st.fill += counts
        st.out = _scatter_into(st.out, vals, lanes, col, self.L,
                               int(st.fill.max()))

    def _bucket_scatter(self, st: _GenState, child: "LoopVectorizer",
                        key: Any, v: Any, sel: np.ndarray,
                        parent: np.ndarray, trip: np.ndarray) -> None:
        """BucketCollect: split the kept child lanes by key and append
        each group to its key's rows; a lane's earliest trip in the group
        is its first hit of the key (child lanes are lane-major)."""
        for k, ks in _key_split(key, sel):
            sub = self._bucket(st, k)
            lanes = parent[ks]
            hit, at = np.unique(lanes, return_index=True)
            new = sub.first[hit] < 0
            sub.first[hit[new]] = trip[ks[at[new]]]
            self._scatter(sub, child._dense(v, ks), lanes)

    def _fold_trips(self, folds, sz: np.ndarray, base: np.ndarray,
                    trip: np.ndarray) -> None:
        """Fold Reduce-kind values into their accumulators one trip at a
        time, at outer width and in trip order, so any reducer (associative
        or not) is exact. Outer lane ``p``'s value at trip ``t`` is child
        lane ``base[p] + t`` when that lane lies in this chunk."""
        n = len(trip)
        # the trips of outer lane p in this chunk: [lo[p], hi[p])
        lo = np.maximum(-base, 0)
        hi = np.minimum(sz, n - base)
        dense = not lo.any() and hi.min() == hi.max()
        for t in range(int(trip.min()), int(trip.max()) + 1):
            if dense:  # every lane is live: no mask, no clamp
                live, idx = None, base + t
            else:
                live = (lo <= t) & (hi > t)
                idx = _clamp(base + t, n - 1)
            for g, st, keep, key, v in folds:
                m = live
                if keep is not None:
                    m = keep[idx] if m is None else m & keep[idx]
                if m is not None:
                    if not m.any():
                        continue
                    if m.all():
                        m = None
                vt = vec_take(v, idx)
                if g.kind is GenKind.REDUCE:
                    self._accumulate(g, st, vt, m, self._hit(st, m))
                    continue
                for k, km in self._key_groups(vec_take(key, idx), m):
                    sub = self._bucket(st, k)
                    new = self._hit(sub, km)
                    if new is not None:
                        sub.first[new] = t
                    self._accumulate(g, sub, vt, km, new)

    def _bucket(self, st: _GenState, k: Any) -> _GenState:
        """``st``'s accumulator for bucket key ``k``, made on its first
        hit."""
        sub = st.buckets.get(k)
        if sub is None:
            sub = st.buckets[k] = _GenState()
            sub.first = np.full(self.L, -1, dtype=np.int64)
        return sub

    def _key_groups(self, key: Any, mask: Optional[np.ndarray]):
        """Split the trip's active lanes by bucket key: ``(host key, lane
        mask)`` pairs, one per distinct key."""
        if not is_vec(key):
            return [(host_key(key), mask)]
        sel = np.arange(self.L) if mask is None else np.flatnonzero(mask)
        groups = _key_split(key, sel)
        if len(groups) == 1:
            return [(groups[0][0], mask)]
        out = []
        for k, ks in groups:
            km = np.zeros(self.L, dtype=np.bool_)
            km[ks] = True
            out.append((k, km))
        return out

    def _hit(self, st: _GenState,
             mask: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Mark the lanes of ``mask`` as having reached ``st``; returns the
        lanes that reached it for the first time (None: no new lane)."""
        if st.all_seen:
            return None
        full = self.full_mask(mask)
        if st.seen is None:
            st.seen = new = full.copy()
        else:
            new = full & ~st.seen
            if not new.any():
                return None
            st.seen |= new
        st.all_seen = bool(st.seen.all())
        return new

    def _accumulate(self, g: Generator, st: _GenState, v: Any,
                    mask: Optional[np.ndarray],
                    new: Optional[np.ndarray]) -> None:
        """Fold one trip's value into ``st`` on the lanes of ``mask``;
        ``new`` (from ``_hit``) marks the lanes whose value starts the
        fold."""
        if new is None:  # every lane of the mask already holds a value
            r = self._reduce(g, st.acc, v, mask)
            st.acc = r if mask is None else vec_where(mask, r, st.acc, self.L)
            return
        if st.acc is None:
            st.acc = as_lane_vec(v, self.L)
            return
        rest = self.full_mask(mask) & ~new
        if rest.any():
            st.acc = vec_where(rest, self._reduce(g, st.acc, v, rest),
                               st.acc, self.L)
        st.acc = vec_where(new, v, st.acc, self.L)

    def _reduce(self, g: Generator, acc: Any, v: Any,
                mask: Optional[np.ndarray]) -> Any:
        self.in_reducer += 1
        try:
            return self.eval_block(g.reducer, (acc, v), mask)
        finally:
            self.in_reducer -= 1

    def _finish_nested(self, g: Generator, st: _GenState,
                       mask: Optional[np.ndarray]) -> Any:
        if g.kind is GenKind.COLLECT:
            return self._collected(g, st, mask)
        if g.kind is not GenKind.REDUCE:
            return self._assemble_buckets(g, st, mask)
        # REDUCE: lanes that saw no element fall back to init/identity
        if g.init is not None:
            ident = self.lookup(g.init)
        else:
            ident = g.identity_value()
        if st.seen is None:
            return as_lane_vec(ident, self.L)
        if st.all_seen:
            return st.acc
        return vec_where(st.seen, st.acc, as_lane_vec(ident, self.L),
                         self.L)

    def _assemble_buckets(self, g: Generator, st: _GenState,
                          mask: Optional[np.ndarray]) -> np.ndarray:
        """One ``Buckets`` per lane, keys in that lane's first-seen order,
        as an object lane vector."""
        collect = g.kind is GenKind.BUCKET_COLLECT
        init = None if collect or g.init is None else self.lookup(g.init)
        if is_vec(init):
            raise VecError("lane-dependent bucket default")

        def default() -> Any:  # a fresh one per lane, as per execution
            if collect:
                return []
            return init if g.init is not None else T.zero_value(g.value_type)

        hits: List[List[Tuple[int, Any, Any]]] = [[] for _ in range(self.L)]
        for k, sub in st.buckets.items():
            lanes = np.nonzero(sub.first >= 0)[0]
            if collect:
                vals = self.host.to_host(self._collected(g, sub, mask),
                                         lanes, T.Coll(g.value_type))
            else:
                vals = self.host.to_host(sub.acc, lanes, g.value_type)
            for l, f, hv in zip(lanes.tolist(), sub.first[lanes].tolist(),
                                vals):
                hits[l].append((f, k, hv))
        out = np.empty(self.L, dtype=object)
        for l, lane_hits in enumerate(hits):
            b = Buckets(default=default())
            for _, k, hv in sorted(lane_hits, key=lambda h: h[0]):
                b.get_or_create(k, hv)
            out[l] = b
        return out

    def _collected(self, g: Generator, st: _GenState,
                   mask: Optional[np.ndarray]) -> Any:
        """A Collect's scattered rows as a lane vector of arrays; rows are
        ragged (``lengths`` set) unless every live lane has the same
        length."""
        if st.out is None:
            dt = _np_dtype(g.value_type)
            return ArrVec(np.zeros((self.L, 0), dtype=dt),
                          np.zeros(self.L, dtype=np.int64))
        lens = st.fill
        w = int(lens.max())
        live = lens if mask is None else lens[mask]
        uniform = live.size and int(live.min()) == int(live.max()) == w
        return _as_rows(st.out, w, None if uniform else lens)
