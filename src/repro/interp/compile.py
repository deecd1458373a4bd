"""Trace-replay compilation: specialize hot loop bodies into batch kernels.

The step interpreter pays one full dispatch — opcode chain, operand
``ev()`` closures, per-record ``emit()`` — for every executed
instruction.  For a hot loop almost all of that work is *re-derivable*:
once one iteration's straight-line instruction path is known, every
subsequent iteration that follows the same control flow executes the
same opcodes against the same registers, emits records with the same
sids/opcodes/dep-counts, and differs only in values, node ids, and
memory addresses.

This module borrows the tracing-JIT idiom (PyPy-style meta-tracing):

1. **Hotness.**  The profiler's own per-loop counters
   (``op_counts[(lid + 2) * LOOP_KEY_STRIDE + LOOP_NEXT]`` — exactly
   what :mod:`repro.profiler.hotloops` tallies) count loop iterations.
   When a loop crosses :data:`~repro.profiler.hotloops
   .HOT_LOOP_THRESHOLD` iterations, the interpreter records the next
   iteration's instruction path, anchored just after the loop's
   ``loop_next`` marker (the backedge position).
2. **Specialization.**  The recorded path is compiled — via
   ``compile``/``exec`` — into a *batch kernel*: a closure running up
   to B iterations per dispatch as straight-line Python over local
   variables, with operand dispatch, register maps, constants, and
   global addresses folded in at codegen time.
3. **Derived columns.**  Record node ids within a straight-line path
   are *affine* in the iteration index — the record at path position
   ``P`` of iteration ``i`` is node ``N0 + i*L + P`` — so the
   dependence column, the def-node write-backs, and (via a static
   def-addr class analysis) the operand-address column are all
   re-derivable from path structure plus the kernel's memory-address
   stream.  The kernel therefore accumulates only what is genuinely
   runtime — one address per memory operand, one ``MW`` lookup per
   load — and the dispatcher reconstructs whole columns at C speed
   (``pattern * k`` plus strided slice assignment from ``range``
   objects) before appending batches through
   :meth:`ColumnarSink.bulk_append` / :meth:`SegmentedSink.bulk_append`
   — no per-record ``emit()``, no per-record Python bookkeeping.
4. **Guards and deoptimization.**  Every branch in the path guards its
   recorded direction, and every faulting operation (division by zero,
   invalid load/store address) guards its precondition *before*
   executing.  A failed guard stops the batch at that exact record
   index and hands control back to the step interpreter at the guarded
   instruction with all register/memory state written back — the step
   interpreter then re-executes it, emitting the identical record or
   raising the identical error.  Output is therefore bit-identical to
   step execution: same columns, same runs, same markers, same
   backpatches, same profile counts, same fuel accounting.

A loop is *rejected* for compilation (permanently) when its recorded
path contains a call, a nested loop marker, or exceeds
:data:`MAX_PATH_LEN`; recording *aborts* (transiently, retried up to
:data:`MAX_RECORD_FAILURES` times) when the loop exits or returns
mid-recording — the straddle a short-trip loop always hits.

Fuel never overshoots: the dispatcher caps each batch at
``(fuel - executed) // path_len`` full iterations and refuses to run
once fewer than one iteration of budget remains, so the step
interpreter hits the exact budgeted instruction and raises
``FuelExhaustedError`` at the same record index as an uncompiled run.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from itertools import chain as _chain, repeat as _repeat
from typing import Dict, List, Optional, Tuple

from repro.ir.types import FloatType, IntType
from repro.ir.values import Constant, VirtualReg
from repro.obs import get_logger, get_status_bus, get_telemetry

#: Iterations of a batch dispatched per kernel invocation.
BATCH_ITERS = 1024

#: Longest loop-body path worth specializing (records per iteration).
MAX_PATH_LEN = 512

#: Transient recording failures (loop exited mid-recording) tolerated
#: before the loop is rejected outright — bounds re-record overhead for
#: short-trip loops.
MAX_RECORD_FAILURES = 8

#: Dispatch calls after which a kernel averaging under one iteration
#: per dispatch is retired (pathological data-dependent branches).
MIN_USEFUL_CALLS = 32

#: Sentinel marking a loop as not-compilable in ``TraceCompiler.kernels``.
REJECTED = object()

_log = get_logger("interp.compile")

_CMP_OPS = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "=="}

#: Records per path position carry a fixed dependence count per opcode.
_DEP_COUNTS = {
    1: 2, 2: 2, 3: 2,            # add/sub/mul
    4: 2, 5: 2,                  # sdiv/srem
    10: 2, 11: 2, 12: 2, 13: 2,  # fadd/fsub/fmul/fdiv
    20: 2, 21: 2, 22: 2, 23: 2, 24: 2,  # and/or/xor/shl/ashr
    30: 2, 31: 2,                # icmp/fcmp
    40: 1,                       # cast
    41: 3,                       # select
    42: 1,                       # copy
    50: 0,                       # alloca
    51: 2, 52: 2,                # load/store
    53: 2,                       # ptradd
    60: 0, 61: 1,                # jump/cbr
    71: 0,                       # loop_next (the path terminator)
}

_INT_ARITH = {1: "+", 2: "-", 3: "*"}
_FP_ARITH = {10: "+", 11: "-", 12: "*", 13: "/"}
_BITWISE = {20: "&", 21: "|", 22: "^", 23: "<<", 24: ">>"}


class _Recording:
    """An in-flight path recording for one loop."""

    __slots__ = ("loop_id", "block", "pc", "path")

    def __init__(self, loop_id: int, block, pc: int):
        self.loop_id = loop_id
        #: anchor: the (block, pc) just after the triggering loop_next —
        #: where every compiled iteration begins and ends.
        self.block = block
        self.pc = pc
        #: (instr, block, pc) per executed instruction, filled by the
        #: interpreter's capture hook.
        self.path: List[Tuple] = []


# -- static path analysis ----------------------------------------------------


class _Plan:
    """Static column structure derived from a recorded path.

    Dependence slots classify as *constant* (``-1`` baked into the
    per-iteration pattern), *affine* (operand written earlier in the
    same iteration at position ``d`` → node ``N0 + i*L + d``),
    *carried* (written later in the path → the previous iteration's
    final write), *live-in* (never written in the path → the pre-batch
    ``defn`` entry), or *load-writer* (the runtime ``MW`` lookup a load
    emits).  Everything but the last two columns' runtime values is
    known at plan time, so the dispatcher fills the dependence slab
    with ``dep_pat * k`` plus one strided slice assignment per slot.

    Def-addr classes per write event form a small lattice: ``-1``
    (zero — arithmetic, compares, allocas), ``mj >= 0`` (the mj-th
    memory operand's address: a load, or a copy/pointer-cast of one
    within the iteration), or ``-2`` (runtime-only — a select over
    pointers, or a copy of a carried/live-in pointer).  Any ``-2``
    demotes the whole kernel to *legacy* address mode, where the kernel
    itself tracks per-register addresses and appends one operand-address
    pair per FP record; otherwise the dispatcher derives the address
    column from the memory-address stream.
    """

    __slots__ = (
        "dep_pat", "dep_width",
        "aff_slots", "car_slots", "li_slots", "lw_slots",
        "n_mem", "n_load", "n_addr",
        "mem_pos", "fp_groups", "rta_pos", "store_groups",
        "wb", "prefix", "legacy", "has_store",
    )


def _analyze(entries) -> _Plan:
    """Single forward walk over the path computing the :class:`_Plan`."""
    final_w: Dict[int, int] = {}
    for P, (instr, _b, _p, _t) in enumerate(entries):
        res = getattr(instr, "result", None)
        if res is not None:
            final_w[res.index] = P

    dep_pat: List[int] = []
    aff_slots: List[Tuple[int, int]] = []
    car_slots: List[Tuple[int, int, int]] = []
    li_slots: List[Tuple[int, int]] = []
    lw_slots: List[Tuple[int, int]] = []
    mem_pos: List[Tuple[int, int]] = []
    rta_pos: List[int] = []
    fp_raw: List[Tuple] = []
    store_groups: List[Tuple[int, int, int, int, int]] = []
    prefix: List[list] = []
    cur_w: Dict[int, int] = {}    # reg -> most recent write pos this iter
    wclass: Dict[int, int] = {}   # reg -> current def-addr class
    writes: Dict[int, List[int]] = defaultdict(list)
    aclasses: Dict[int, List[int]] = defaultdict(list)
    legacy = False
    has_store = False
    n_mem = n_load = 0

    def dep_desc(op):
        if isinstance(op, VirtualReg):
            q = op.index
            if q in cur_w:
                return (1, cur_w[q], 0)       # affine
            if q in final_w:
                return (2, final_w[q], q)     # carried
            return (3, q, 0)                  # live-in
        return (0, 0, 0)                      # constant / global

    def add_dep(d):
        slot = len(dep_pat)
        kind = d[0]
        if kind == 0:
            dep_pat.append(-1)
            return
        dep_pat.append(0)
        if kind == 1:
            aff_slots.append((slot, d[1]))
        elif kind == 2:
            car_slots.append((slot, d[1], d[2]))
        elif kind == 3:
            li_slots.append((slot, d[1]))
        else:
            lw_slots.append((slot, d[1]))

    def side_desc(op):
        # FP-operand address provenance (derived mode only).
        if not isinstance(op, VirtualReg):
            return (0,)
        q = op.index
        if q in cur_w:
            c = wclass[q]
            if c == -1:
                return (0,)
            if c >= 0:
                return (2, c)
            return None                       # runtime-only
        return ("p", q)                       # resolve after the walk

    def aclass_of(op):
        if not isinstance(op, VirtualReg):
            return -1
        q = op.index
        if q in cur_w:
            return wclass[q]
        return -2  # carried/live-in pointer provenance: runtime-only

    def write(r, P, ac):
        nonlocal legacy
        cur_w[r] = P
        wclass[r] = ac
        writes[r].append(P)
        aclasses[r].append(ac)
        if ac == -2:
            legacy = True

    for P, (instr, _b, _p, _taken) in enumerate(entries):
        opc = instr.opcode._value_
        ops = instr.operands
        descs: Tuple = ()
        mj = -1
        sd = None
        fd = None

        if opc == 51:  # LOAD
            pd = dep_desc(ops[0])
            lwd = (4, n_load, 0)
            descs = (pd, lwd)
            add_dep(pd)
            add_dep(lwd)
            mj = n_mem
            mem_pos.append((P, n_mem))
            n_mem += 1
            n_load += 1
            write(instr.result.index, P, mj)

        elif opc == 52:  # STORE
            vd = dep_desc(ops[0])
            pd = dep_desc(ops[1])
            descs = (vd, pd)
            add_dep(vd)
            add_dep(pd)
            mj = n_mem
            mem_pos.append((P, n_mem))
            n_mem += 1
            has_store = True
            if vd[0]:  # real producer -> note_store item group
                store_groups.append((P, mj, vd[0], vd[1], vd[2]))
                sd = vd

        elif opc in _FP_ARITH:
            ad = dep_desc(ops[0])
            bd = dep_desc(ops[1])
            descs = (ad, bd)
            add_dep(ad)
            add_dep(bd)
            fp_raw.append((P, len(rta_pos), side_desc(ops[0]),
                           side_desc(ops[1])))
            rta_pos.append(P)
            write(instr.result.index, P, -1)

        elif (opc in _INT_ARITH or opc in _BITWISE
              or opc in (4, 5, 30, 31, 53)):
            ad = dep_desc(ops[0])
            bd = dep_desc(ops[1])
            descs = (ad, bd)
            add_dep(ad)
            add_dep(bd)
            write(instr.result.index, P, -1)

        elif opc == 61:  # CBR
            cd = dep_desc(ops[0])
            descs = (cd,)
            add_dep(cd)

        elif opc == 40:  # CAST
            vd = dep_desc(ops[0])
            descs = (vd,)
            add_dep(vd)
            to_type = instr.result.type
            if isinstance(to_type, (IntType, FloatType)):
                ac = -1
            else:  # pointer retyping keeps provenance
                ac = aclass_of(ops[0])
            write(instr.result.index, P, ac)

        elif opc == 41:  # SELECT
            cd = dep_desc(ops[0])
            ad = dep_desc(ops[1])
            bd = dep_desc(ops[2])
            descs = (cd, ad, bd)
            add_dep(cd)
            add_dep(ad)
            add_dep(bd)
            ac = (-1 if aclass_of(ops[1]) == -1
                  and aclass_of(ops[2]) == -1 else -2)
            write(instr.result.index, P, ac)

        elif opc == 42:  # COPY
            vd = dep_desc(ops[0])
            descs = (vd,)
            add_dep(vd)
            write(instr.result.index, P, aclass_of(ops[0]))

        elif opc == 50:  # ALLOCA
            write(instr.result.index, P, -1)

        # 60 / 71 (jump / loop_next): no deps, no state.
        prefix.append([descs, mj, sd, fd])

    def fin_side(s):
        # Resolve a carried/live-in pend against the *final* write.
        if s is None:
            return None
        if s[0] == "p":
            q = s[1]
            if q not in writes:
                return (1, q)                 # live-in
            c = aclasses[q][-1]
            if c == -1:
                return (4, q)                 # carried zero
            if c >= 0:
                return (3, c, q)              # carried load
            return None
        return s

    fp_groups: List[Tuple] = []
    if not legacy:
        fins = [(fin_side(s1), fin_side(s2)) for _P, _rj, s1, s2 in fp_raw]
        if any(f1 is None or f2 is None for f1, f2 in fins):
            legacy = True
        else:
            fp_groups = [(raw[0], f1, f2)
                         for raw, (f1, f2) in zip(fp_raw, fins)]
    for idx, (P, rj, _s1, _s2) in enumerate(fp_raw):
        if legacy:
            prefix[P][3] = (1, rj)
        else:
            g = fp_groups[idx]
            prefix[P][3] = (0, g[1], g[2])

    plan = _Plan()
    plan.dep_pat = dep_pat
    plan.dep_width = len(dep_pat)
    plan.aff_slots = tuple(aff_slots)
    plan.car_slots = tuple(car_slots)
    plan.li_slots = tuple(li_slots)
    plan.lw_slots = tuple(lw_slots)
    plan.n_mem = n_mem
    plan.n_load = n_load
    plan.n_addr = len(rta_pos)
    plan.mem_pos = tuple(mem_pos)
    plan.fp_groups = tuple(fp_groups) if not legacy else ()
    plan.rta_pos = tuple(rta_pos)
    plan.store_groups = tuple(store_groups)
    plan.wb = tuple(
        (r, tuple(writes[r]), tuple(aclasses[r])) for r in sorted(writes))
    plan.prefix = tuple(tuple(e) for e in prefix)
    plan.legacy = legacy
    plan.has_store = has_store
    return plan


class LoopKernel:
    """A compiled loop body: path metadata plus lazily-built variants.

    Two kernel variants exist per loop — recording (accumulates the
    memory-address / load-writer streams for column derivation) and
    non-recording (state updates only, for profile runs and inactive
    trace windows) — generated on first use.
    """

    __slots__ = (
        "loop_id", "length", "anchor", "resume", "plan",
        "sid_pat", "op_pat", "cnt_pat", "count_items", "marker_off",
        "calls", "gained",
        "_entries", "_gaddr", "_fns", "_srcs",
    )

    def __init__(self, loop_id: int, entries, anchor, global_addr):
        self.loop_id = loop_id
        self.length = len(entries)
        self.anchor = anchor
        #: (block, in-block index) per path position — the step
        #: interpreter resumes here on deopt at that position.
        self.resume = tuple((blk, pc) for _instr, blk, pc, _tk in entries)
        self.plan = _analyze(entries)
        self.sid_pat = [e[0].sid for e in entries]
        self.op_pat = [e[0].opcode._value_ for e in entries]
        # array('i'): pattern-repeat and sink extend both stay C-level
        # memcpys (ColumnarSink.dep_counts is itself an array('i')).
        self.cnt_pat = array("i", [_DEP_COUNTS[op] for op in self.op_pat])
        self.count_items = tuple(Counter(self.op_pat).items())
        #: path position of the terminating loop_next marker.
        self.marker_off = self.length - 1
        self.calls = 0
        self.gained = 0
        self._entries = entries
        self._gaddr = global_addr
        self._fns: Dict[bool, object] = {}
        self._srcs: Dict[bool, str] = {}

    def source(self, recording: bool) -> str:
        """The generated kernel source for one variant (for tests and
        ``explain``-style introspection)."""
        self.fn(recording)
        return self._srcs[recording]

    def fn(self, recording: bool):
        f = self._fns.get(recording)
        if f is None:
            tel = get_telemetry()
            with tel.span("interp.compile.build"):
                src, consts = _generate(self._entries, self._gaddr,
                                        recording, self.plan)
                tag = "rec" if recording else "norec"
                code = compile(
                    src, f"<vectra-kernel-loop{self.loop_id}-{tag}>",
                    "exec")
                ns = consts
                exec(code, ns)
                f = ns["_kernel"]
            self._srcs[recording] = src
            self._fns[recording] = f
            if tel.enabled:
                tel.count("interp.compile.kernels")
            get_status_bus().count("kernels")
            _log.debug("compiled loop %d (%s, %d records/iter)",
                       self.loop_id, tag, self.length)
        return f


# -- code generation ---------------------------------------------------------


def _generate(entries, global_addr, recording: bool, plan: _Plan):
    """Generate one kernel variant's source for a recorded path.

    Returns ``(source, namespace)`` where ``namespace`` carries the
    helpers and non-literal constants (alloca types) the source needs.
    The generated ``_kernel(B, N0, V, A, MEM, MW, ALLOC)`` runs up to
    ``B`` iterations, returning ``(k, dpc, ma, lw, ap)`` — ``k``
    completed iterations and, when a guard failed, the path position
    ``dpc`` to resume stepping at (``-1`` for a full batch); ``ma``
    holds one address per executed memory operand, ``lw`` one ``MW``
    lookup per executed load, and ``ap`` (legacy address mode only)
    one operand-address pair per executed FP record.  Positions before
    ``dpc`` in the partial iteration have executed and emitted;
    position ``dpc`` and later have not.
    """
    from repro.interp.interpreter import _cdiv, _f32
    from repro.runtime.memory import default_value

    L = len(entries)
    # Derived mode needs no per-register address tracking at all; the
    # non-recording variant and legacy mode keep it (the dispatcher
    # cannot derive ``defa`` without the recorded address stream).
    keep_a = plan.legacy or not recording
    consts: Dict[str, object] = {"_f32": _f32, "_cdiv": _cdiv}
    live: set = set()
    a_live: set = set()
    written: set = set()
    body: List[str] = []
    o = body.append

    def vx(op) -> str:
        if isinstance(op, VirtualReg):
            i = op.index
            if i not in written:
                live.add(i)
            return f"v{i}"
        if isinstance(op, Constant):
            return f"({op.value!r})"
        return repr(global_addr[op.name])  # GlobalRef

    def ax(op) -> str:
        if isinstance(op, VirtualReg):
            i = op.index
            if i not in written:
                a_live.add(i)
            return f"a{i}"
        return "0"

    def wrap_int(target: str, bits: int) -> None:
        o(f"if {target} >> {bits - 1} not in (0, -1):")
        o(f"    {target} &= {(1 << bits) - 1}")
        o(f"    if {target} >= {1 << (bits - 1)}:")
        o(f"        {target} -= {1 << bits}")

    for P, (instr, _blk, _pc, taken) in enumerate(entries):
        opc = instr.opcode._value_
        ops = instr.operands

        if opc == 51:  # LOAD
            pe = vx(ops[0])
            r = instr.result.index
            o(f"p{P} = {pe}")
            o(f"if type(p{P}) is not int or p{P} <= 0:")
            o(f"    dpc = {P}")
            o("    break")
            if recording:
                o(f"lwa(MWg(p{P}, -1))")
            dv = default_value(instr.result.type)
            o(f"v{r} = MEMg(p{P}, {dv!r})")
            if keep_a:
                o(f"a{r} = p{P}")
            if recording:
                o(f"maa(p{P})")
            written.add(r)

        elif opc == 52:  # STORE
            ve = vx(ops[0])
            pe = vx(ops[1])
            o(f"p{P} = {pe}")
            o(f"if type(p{P}) is not int or p{P} <= 0:")
            o(f"    dpc = {P}")
            o("    break")
            o(f"MEM[p{P}] = {ve}")
            o(f"MW[p{P}] = nb + {P}")
            if recording:
                o(f"maa(p{P})")

        elif opc in _FP_ARITH:
            ae = vx(ops[0])
            be = vx(ops[1])
            if opc == 13:
                o(f"if {be} == 0.0:")
                o(f"    dpc = {P}")
                o("    break")
            expr = f"{ae} {_FP_ARITH[opc]} {be}"
            if instr.result.type.bits == 32:
                expr = f"_f32({expr})"
            r = instr.result.index
            o(f"v{r} = {expr}")
            if recording and plan.legacy:
                o(f"apa(({ax(ops[0])}, {ax(ops[1])}))")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc in _INT_ARITH:
            ae = vx(ops[0])
            be = vx(ops[1])
            r = instr.result.index
            o(f"v{r} = {ae} {_INT_ARITH[opc]} {be}")
            wrap_int(f"v{r}", instr.result.type.bits)
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc == 53:  # PTRADD
            ae = vx(ops[0])
            be = vx(ops[1])
            r = instr.result.index
            o(f"v{r} = {ae} + {be}")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc == 30 or opc == 31:  # ICMP / FCMP
            ae = vx(ops[0])
            be = vx(ops[1])
            cmp = _CMP_OPS.get(instr.pred, "!=")
            r = instr.result.index
            o(f"v{r} = 1 if {ae} {cmp} {be} else 0")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc == 61:  # CBR — guard the recorded direction
            ce = vx(ops[0])
            o(f"if not {ce}:" if taken else f"if {ce}:")
            o(f"    dpc = {P}")
            o("    break")

        elif opc == 60 or opc == 71:  # JUMP / LOOP_NEXT: no deps, no state
            pass

        elif opc == 40:  # CAST
            ve = vx(ops[0])
            to_type = instr.result.type
            r = instr.result.index
            if isinstance(to_type, IntType):
                o(f"v{r} = {ve}")
                o(f"if type(v{r}) is float:")
                o(f"    v{r} = int(v{r})")
                wrap_int(f"v{r}", to_type.bits)
                if keep_a:
                    o(f"a{r} = 0")
            elif isinstance(to_type, FloatType):
                if to_type.bits == 32:
                    o(f"v{r} = _f32(float({ve}))")
                else:
                    o(f"v{r} = float({ve})")
                if keep_a:
                    o(f"a{r} = 0")
            else:  # pointer retyping keeps provenance
                o(f"v{r} = {ve}")
                if keep_a:
                    o(f"a{r} = {ax(ops[0])}")
            written.add(r)

        elif opc == 4 or opc == 5:  # SDIV / SREM
            ae = vx(ops[0])
            be = vx(ops[1])
            o(f"if {be} == 0:")
            o(f"    dpc = {P}")
            o("    break")
            r = instr.result.index
            if opc == 4:
                o(f"v{r} = _cdiv({ae}, {be})")
            else:
                o(f"q{P} = _cdiv({ae}, {be})")
                o(f"v{r} = {ae} - q{P} * {be}")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc in _BITWISE:
            ae = vx(ops[0])
            be = vx(ops[1])
            r = instr.result.index
            o(f"v{r} = {ae} {_BITWISE[opc]} {be}")
            wrap_int(f"v{r}", instr.result.type.bits)
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        elif opc == 41:  # SELECT
            ce = vx(ops[0])
            ae = vx(ops[1])
            be = vx(ops[2])
            r = instr.result.index
            if keep_a:
                o(f"if {ce}:")
                o(f"    v{r} = {ae}")
                o(f"    a{r} = {ax(ops[1])}")
                o("else:")
                o(f"    v{r} = {be}")
                o(f"    a{r} = {ax(ops[2])}")
            else:
                o(f"v{r} = {ae} if {ce} else {be}")
            written.add(r)

        elif opc == 42:  # COPY
            ve = vx(ops[0])
            r = instr.result.index
            o(f"v{r} = {ve}")
            if keep_a:
                o(f"a{r} = {ax(ops[0])}")
            written.add(r)

        elif opc == 50:  # ALLOCA
            consts[f"T{P}"] = instr.alloc_type
            r = instr.result.index
            o(f"v{r} = ALLOC(T{P})")
            if keep_a:
                o(f"a{r} = 0")
            written.add(r)

        else:  # pragma: no cover - build() validates the path first
            raise AssertionError(f"unsupported opcode {opc} in path")

    rec_ma = recording and plan.n_mem
    rec_lw = recording and plan.n_load
    rec_ap = recording and plan.legacy and plan.n_addr
    lines = ["def _kernel(B, N0, V, A, MEM, MW, ALLOC):"]
    w = lines.append
    if plan.n_load:
        w("    MEMg = MEM.get")
        if recording:
            w("    MWg = MW.get")
    if rec_ma:
        w("    ma = []")
        w("    maa = ma.append")
    if rec_lw:
        w("    lw = []")
        w("    lwa = lw.append")
    if rec_ap:
        w("    ap = []")
        w("    apa = ap.append")
    # Every touched register is preloaded — not just live-ins: a guard
    # can fail before a register's first write in the very first
    # iteration, and the epilogue write-back below must then restore
    # the untouched pre-batch value.
    for i in sorted(live | written):
        w(f"    v{i} = V[{i}]")
    if keep_a:
        for i in sorted(a_live | written):
            w(f"    a{i} = A[{i}]")
    w("    dpc = -1")
    w("    for k in range(B):")
    if plan.has_store:
        w(f"        nb = N0 + k * {L}")
    for line in body:
        w("        " + line)
    w("    else:")
    w("        k = B")
    for i in sorted(written):
        w(f"    V[{i}] = v{i}")
    if keep_a:
        for i in sorted(written):
            w(f"    A[{i}] = a{i}")
    w(f"    return k, dpc, {'ma' if rec_ma else '()'},"
      f" {'lw' if rec_lw else '()'}, {'ap' if rec_ap else '()'}")
    return "\n".join(lines) + "\n", consts


# -- column derivation -------------------------------------------------------


def _side_seq(d, k, kNM, NM, ma, defa):
    """Per-iteration operand-address values for one FP operand side."""
    kd = d[0]
    if kd == 0:                               # zero
        return _repeat(0)
    if kd == 1:                               # live-in
        return _repeat(defa[d[1]])
    if kd == 2:                               # same-iteration load
        return ma[d[1]:kNM:NM]
    if kd == 3:                               # carried load
        return [defa[d[2]]] + ma[d[1]:kNM - NM:NM]
    return _chain((defa[d[1]],), _repeat(0, k - 1))   # carried zero


def _pair_vals(d1, d2, k, kNM, NM, ma, defa):
    """Materialized per-iteration address pairs for one FP op.

    A list (not a lazy zip) because the sink may scan the run more than
    once — once per DDG build, once more if the records are viewed.
    """
    k1 = d1[0]
    k2 = d2[0]
    if k1 < 2 and k2 < 2:
        # Both sides iteration-invariant: one shared pair tuple.
        return [(0 if k1 == 0 else defa[d1[1]],
                 0 if k2 == 0 else defa[d2[1]])] * k
    return list(zip(_side_seq(d1, k, kNM, NM, ma, defa),
                    _side_seq(d2, k, kNM, NM, ma, defa)))


def _pside(d, k, mab, NM, ma, defa):
    """One FP operand side's address for the partial iteration."""
    kd = d[0]
    if kd == 0:
        return 0
    if kd == 1:
        return defa[d[1]]
    if kd == 2:
        return ma[mab + d[1]]
    if kd == 3:
        return ma[mab - NM + d[1]] if k else defa[d[2]]
    return 0 if k else defa[d[1]]


def _emit(kern, N0, k, part, nrec, defn, defa, ma, lw, ap, sink, cur_loop):
    """Derive one batch's columns and bulk-append them.

    Must run *before* :func:`_writeback`: carried iteration-0 and
    live-in slots read the pre-batch ``defn``/``defa`` entries.
    """
    plan = kern.plan
    L = kern.length
    D = plan.dep_width
    NM = plan.n_mem
    kL = k * L
    if part:
        sids = kern.sid_pat * k + kern.sid_pat[:part]
        opcs = kern.op_pat * k + kern.op_pat[:part]
        cnts = kern.cnt_pat * k + kern.cnt_pat[:part]
    else:
        sids = kern.sid_pat * k
        opcs = kern.op_pat * k
        cnts = kern.cnt_pat * k
    deps = plan.dep_pat * k
    # Sparse columns are keyed by absolute node id and handed to the
    # sink as (keys, vals) column runs — a range object plus an
    # address-stream slice per memop — which the full-recording sink
    # parks as-is and the DDG build scatters vectorized, so no per-item
    # work happens anywhere on the batch path.
    mem_runs: List = []
    addr_runs: List = []
    store_lists: List[list] = []
    if k:
        kNM = k * NM
        for slot, d in plan.aff_slots:
            b = N0 + d
            deps[slot::D] = range(b, b + kL, L)
        for slot, d, r in plan.car_slots:
            b = N0 + d - L
            deps[slot::D] = range(b, b + kL, L)
            deps[slot] = defn[r]
        for slot, r in plan.li_slots:
            deps[slot::D] = [defn[r]] * k
        kNL = k * plan.n_load
        for slot, lj in plan.lw_slots:
            deps[slot::D] = lw[lj:kNL:plan.n_load]
        for P, mj in plan.mem_pos:
            b = N0 + P
            mem_runs.append((range(b, b + kL, L), ma[mj:kNM:NM]))
        if plan.legacy:
            NA = plan.n_addr
            kNA = k * NA
            for rj, P in enumerate(plan.rta_pos):
                b = N0 + P
                addr_runs.append((range(b, b + kL, L), ap[rj:kNA:NA]))
        else:
            for P, d1, d2 in plan.fp_groups:
                b = N0 + P
                addr_runs.append((range(b, b + kL, L),
                                  _pair_vals(d1, d2, k, kNM, NM, ma,
                                             defa)))
        for P, mj, kind, a1, a2 in plan.store_groups:
            b = N0 + P
            if kind == 1:     # producer written same iteration at a1
                store_lists.append(list(zip(
                    range(b, b + kL, L),
                    range(N0 + a1, N0 + a1 + kL, L),
                    ma[mj:kNM:NM])))
            elif kind == 2:   # carried producer: prior iteration's a1
                g = list(zip(
                    range(b + L, b + kL, L),
                    range(N0 + a1, N0 + a1 + kL - L, L),
                    ma[mj + NM:kNM:NM]))
                p0 = defn[a2]
                if p0 >= 0:
                    g.insert(0, (b, p0, ma[mj]))
                store_lists.append(g)
            else:             # live-in producer: note_store first-wins,
                p0 = defn[a1]  # so one item covers the whole batch
                if p0 >= 0:
                    store_lists.append([(b, p0, ma[mj])])
    if part:
        nfin = N0 + kL
        mab = k * NM
        lwb = k * plan.n_load
        apb = k * plan.n_addr
        dap = deps.append
        pmem_k: List[int] = []
        pmem_v: List[int] = []
        paddr_k: List[int] = []
        paddr_v: List[tuple] = []
        pstore = []
        for off, (descs, mj, sd, fd) in enumerate(plan.prefix[:part]):
            for d in descs:
                kd = d[0]
                if kd == 0:
                    dap(-1)
                elif kd == 1:
                    dap(nfin + d[1])
                elif kd == 2:
                    dap(nfin - L + d[1] if k else defn[d[2]])
                elif kd == 3:
                    dap(defn[d[1]])
                else:
                    dap(lw[lwb + d[1]])
            if mj >= 0:
                pmem_k.append(nfin + off)
                pmem_v.append(ma[mab + mj])
            if sd is not None:
                kd = sd[0]
                if kd == 1:
                    p0 = nfin + sd[1]
                elif kd == 2:
                    p0 = nfin - L + sd[1] if k else defn[sd[2]]
                else:
                    p0 = defn[sd[1]]
                if p0 >= 0:
                    pstore.append((nfin + off, p0, ma[mab + mj]))
            if fd is not None:
                paddr_k.append(nfin + off)
                if fd[0]:
                    paddr_v.append(ap[apb + fd[1]])
                else:
                    paddr_v.append(
                        (_pside(fd[1], k, mab, NM, ma, defa),
                         _pside(fd[2], k, mab, NM, ma, defa)))
        if pmem_k:
            mem_runs.append((pmem_k, pmem_v))
        if paddr_k:
            addr_runs.append((paddr_k, paddr_v))
        if pstore:
            store_lists.append(pstore)
    if len(store_lists) > 1:
        # Node keys are unique (one store per record), so sorting
        # restores the chronological order note_store's first-wins rule
        # needs.
        store_items = sorted(_chain.from_iterable(store_lists))
    elif store_lists:
        store_items = store_lists[0]
    else:
        store_items = ()
    moff = N0 + kern.marker_off
    sink.bulk_append(N0, cur_loop, nrec, sids, opcs, cnts, deps,
                     range(moff, moff + kL, L), addr_runs, mem_runs,
                     store_items)


def _writeback(plan, L, N0, k, part, defn, defa, ma, recording):
    """Update ``defn``/``defa`` for every register the batch wrote.

    The last write visible to the step interpreter is the final full
    iteration's — or, after a deopt, the partial iteration's last write
    *before* the failed guard.  Legacy and non-recording kernels track
    ``defa`` themselves; derived recording mode reconstructs it from
    the memory-address stream here.
    """
    nfin = N0 + k * L
    NM = plan.n_mem
    derive_a = recording and not plan.legacy
    if part:
        for r, wl, al in plan.wb:
            j = bisect_left(wl, part)
            if j:
                j -= 1
                defn[r] = nfin + wl[j]
                if derive_a:
                    a = al[j]
                    defa[r] = 0 if a < 0 else ma[k * NM + a]
            elif k:
                defn[r] = nfin - L + wl[-1]
                if derive_a:
                    a = al[-1]
                    defa[r] = 0 if a < 0 else ma[(k - 1) * NM + a]
    elif k:
        for r, wl, al in plan.wb:
            defn[r] = nfin - L + wl[-1]
            if derive_a:
                a = al[-1]
                defa[r] = 0 if a < 0 else ma[(k - 1) * NM + a]


# -- the compiler ------------------------------------------------------------


class TraceCompiler:
    """Per-interpreter trace-replay compiler: hotness, recording,
    kernel construction, and batch dispatch."""

    __slots__ = ("interp", "threshold", "batch_iters", "kernels", "_fails")

    def __init__(self, interp, threshold: Optional[int] = None,
                 batch_iters: int = BATCH_ITERS):
        from repro.profiler.hotloops import HOT_LOOP_THRESHOLD

        self.interp = interp
        self.threshold = (HOT_LOOP_THRESHOLD if threshold is None
                          else threshold)
        self.batch_iters = batch_iters
        #: loop id -> LoopKernel, or :data:`REJECTED`.
        self.kernels: Dict[int, object] = {}
        self._fails: Dict[int, int] = defaultdict(int)

    # -- recording lifecycle ------------------------------------------------

    def begin(self, loop_id: int, block, pc: int) -> _Recording:
        return _Recording(loop_id, block, pc)

    def reject(self, loop_id: int, reason: str = "unspecified") -> None:
        """Permanently exclude a loop (call/nested loop/oversized path).

        The rejection drops a ``compile.kernel.rejected`` timeline
        instant carrying the reason, so a Perfetto view shows *why* a
        loop fell back to the step interpreter.
        """
        self.kernels[loop_id] = REJECTED
        get_telemetry().instant("compile.kernel.rejected",
                                {"loop": loop_id, "reason": reason})
        _log.debug("loop %d rejected for compilation: %s", loop_id,
                   reason)

    def abort(self, loop_id: int) -> None:
        """Transient recording failure (the loop exited mid-recording);
        rejected outright after :data:`MAX_RECORD_FAILURES` strikes."""
        self._fails[loop_id] += 1
        if self._fails[loop_id] >= MAX_RECORD_FAILURES:
            self.reject(
                loop_id,
                f"recording aborted {MAX_RECORD_FAILURES} times "
                f"(loop exits mid-path)",
            )

    def build(self, rec: _Recording, cur_loop: int) -> None:
        """Validate a completed recording and construct its kernel."""
        lid = rec.loop_id
        path = rec.path
        if cur_loop != lid or len(path) < 2:
            self.abort(lid)
            return
        last = path[-1][0]
        if last.opcode._value_ != 71 or last.loop_id != lid:
            self.abort(lid)
            return
        entries = []
        n = len(path)
        for i, (instr, blk, pc) in enumerate(path):
            opc = instr.opcode._value_
            if opc == 71:
                if i != n - 1:
                    self.reject(lid, "loop_next mid-path")
                    return
                taken = False
            elif opc == 61:
                taken = path[i + 1][1] is instr.targets[0]
            elif opc in _DEP_COUNTS:
                taken = False
            else:
                # call/ret/markers should have aborted during capture;
                # any other opcode simply is not specialized.
                self.reject(lid, f"unspecialized opcode {opc}")
                return
            entries.append((instr, blk, pc, taken))
        kern = LoopKernel(lid, entries, (rec.block, rec.pc),
                          self.interp.global_addr)
        self.kernels[lid] = kern
        get_telemetry().instant(
            "compile.kernel.recorded",
            {"loop": lid, "records_per_iter": kern.length,
             "legacy_addr": kern.plan.legacy},
        )

    # -- batch dispatch -----------------------------------------------------

    def dispatch(self, kern: LoopKernel, values, defn, defa, sink,
                 recording: bool, cur_loop: int, loop_key: int):
        """Run batches of the kernel until a guard deoptimizes.

        Returns ``(resume_block, resume_pc, iterations)`` — the step
        interpreter continues from there — or ``None`` when fewer than
        one iteration of fuel remains (the step interpreter then burns
        the tail and raises ``FuelExhaustedError`` at the exact budget).
        """
        interp = self.interp
        L = kern.length
        plan = kern.plan
        fuel = interp.fuel
        room = (fuel - interp._executed) // L
        if room <= 0:
            return None
        counts = interp.op_counts
        mem = interp.memory.data
        mw = interp._mem_writer
        alloc = interp.memory.alloc_stack
        fn = kern.fn(recording)
        batch = self.batch_iters
        total = 0
        batches = 0
        guard_exit = False
        tel = get_telemetry()
        # Per-batch iteration counts (k) feed the batch_iterations
        # histogram; collected only under telemetry so the disabled
        # dispatch path is unchanged.
        ks = [] if tel.enabled else None
        while True:
            B = batch if batch < room else room
            N0 = interp._node
            k, dpc, ma, lw, ap = fn(B, N0, values, defa, mem, mw, alloc)
            batches += 1
            if ks is not None:
                ks.append(k)
            part = dpc if dpc > 0 else 0
            nrec = k * L + part
            if nrec:
                interp._node = N0 + nrec
                interp._executed += nrec
                if k:
                    for opc_i, c in kern.count_items:
                        counts[loop_key + opc_i] += c * k
                if part:
                    for opc_i in kern.op_pat[:part]:
                        counts[loop_key + opc_i] += 1
                if recording:
                    _emit(kern, N0, k, part, nrec, defn, defa, ma, lw,
                          ap, sink, cur_loop)
                _writeback(plan, L, N0, k, part, defn, defa, ma,
                           recording)
                total += k
            if dpc >= 0:
                guard_exit = True
                resume = kern.resume[dpc]
                break
            room = (fuel - interp._executed) // L
            if room <= 0:
                resume = kern.anchor
                break
        kern.calls += 1
        kern.gained += total
        if kern.calls >= MIN_USEFUL_CALLS and kern.gained < kern.calls:
            # Guards fail nearly every dispatch: batching buys nothing
            # for this loop, so retire the kernel and step instead.
            self.kernels[kern.loop_id] = REJECTED
            tel.instant(
                "compile.kernel.retired",
                {"loop": kern.loop_id, "calls": kern.calls,
                 "iterations": kern.gained},
            )
            _log.debug("loop %d kernel retired (%d iterations over %d "
                       "dispatches)", kern.loop_id, kern.gained,
                       kern.calls)
        if guard_exit:
            tel.instant(
                "compile.kernel.deopt",
                {"loop": kern.loop_id, "at": dpc,
                 "iterations": total},
            )
        if tel.enabled:
            tel.count("interp.compile.batches", batches)
            tel.count("interp.compile.iterations", total)
            tel.count("interp.compile.deopts")
            if guard_exit:
                tel.count("interp.compile.guard_exits")
            for k in ks:
                tel.observe("interp.compile.batch_iterations", k)
        get_status_bus().count("batches", batches)
        return resume[0], resume[1], total
