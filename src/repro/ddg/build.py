"""DDG construction from a dynamic trace.

One linear pass: every non-marker record becomes a node; its recorded
producer node ids become predecessor edges when the producer is inside the
trace window (dependences on values produced before the window — e.g. data
initialized outside the analyzed loop — simply have no edge, matching the
paper's per-loop subtrace analysis).

The adjacency is packed straight into the DDG's CSR form (flat index +
offset arrays) — no intermediate list-of-tuples is materialized.

A :class:`~repro.trace.columnar.ColumnarTrace` short-circuits to the
fused columnar path: the sink already holds DDG-shaped columns, so
construction is a single flat-array pass with no record objects; a
:class:`~repro.trace.store.StoredTrace` (a trace store on disk) streams
through :meth:`~repro.trace.store.SegmentStore.to_ddg`."""

from __future__ import annotations

from array import array
from typing import Dict, List

from repro.obs import get_telemetry
from repro.trace.trace import Trace
from repro.ddg.graph import _CSR_TYPECODE, DDG


def build_ddg(trace: Trace, tel=None) -> DDG:
    if tel is None:
        tel = get_telemetry()
    store = getattr(trace, "segment_store", None)
    sink = getattr(trace, "columnar_sink", None)
    if store is not None:
        ddg = store.to_ddg(tel=tel)
    else:
        with tel.span("ddg.build"):
            ddg = sink.to_ddg() if sink is not None else _walk_records(trace)
    if tel.enabled:
        tel.count("ddg.nodes", len(ddg.sids))
        tel.count("ddg.edges", len(ddg.pred_indices))
        if sink is not None:
            tel.count("ddg.marker_segments",
                      sink.stats()["marker_segments"])
    return ddg


def _walk_records(trace: Trace) -> DDG:
    index: Dict[int, int] = {}
    sids: List[int] = []
    opcodes: List[int] = []
    # Accumulate CSR vectors as plain lists (fast appends), convert to
    # typed arrays in one C-level pass at the end.
    pred_indices: List[int] = []
    pred_offsets: List[int] = [0]
    addrs: List[tuple] = []
    store_addrs: List[int] = []
    mem_addrs: List[int] = []

    # Bound methods hoisted out of the per-record loop: this function is
    # the single hottest Python loop in the pipeline after tracing.
    sid_append = sids.append
    op_append = opcodes.append
    idx_extend = pred_indices.extend
    off_append = pred_offsets.append
    addr_append = addrs.append
    store_append = store_addrs.append
    mem_append = mem_addrs.append

    n = 0
    for rec in trace.records:
        if rec.is_marker:
            continue
        sid_append(rec.sid)
        op_append(int(rec.opcode))
        if rec.deps:
            idx_extend(sorted({index[d] for d in rec.deps if d in index}))
        # The node enters the producer index only after its own deps are
        # resolved, so every emitted edge provably satisfies p < n: the
        # DDG constructor can skip its structural re-validation.
        index[rec.node] = n
        n += 1
        off_append(len(pred_indices))
        addr_append(rec.addrs)
        store_append(rec.store_addr)
        mem_append(rec.addr)

    return DDG(
        sids,
        opcodes,
        addrs=addrs,
        store_addrs=store_addrs,
        mem_addrs=mem_addrs,
        pred_indices=array(_CSR_TYPECODE, pred_indices),
        pred_offsets=array(_CSR_TYPECODE, pred_offsets),
        validate=False,
    )
