"""Reference trace recorder and record-walk DDG builder: the test oracle.

Production records a trace into flat columns
(:class:`~repro.trace.columnar.ColumnarSink`, or a segment store on
disk) and builds the DDG in vectorized array passes.  This module is the
slow, obviously-correct version the bit-identity tests hold them to: one
:class:`Record` per executed instruction, recorded by the step
interpreter alone (no trace-replay kernels), a plain walk over the
records for the DDG, and a marker walk for the Larus iteration labels.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.ddg.graph import DDG
from repro.interp.interpreter import DEFAULT_FUEL, Interpreter
from repro.trace.events import MARKER_ENTER, MARKER_EXIT, MARKER_NEXT


class Record:
    """One executed instruction: node id, static id, opcode, innermost
    loop, producer node ids, operand source addresses, accessed address,
    and the address the result was first stored to."""

    __slots__ = ("node", "sid", "opcode", "loop_id", "deps", "addrs",
                 "addr", "store_addr")

    def __init__(self, node, sid, opcode, loop_id, deps, addrs, addr):
        self.node = node
        self.sid = sid
        self.opcode = opcode
        self.loop_id = loop_id
        self.deps = tuple(deps)
        self.addrs = tuple(addrs)
        self.addr = addr
        self.store_addr = 0

    @property
    def is_marker(self) -> bool:
        return self.opcode in (MARKER_ENTER, MARKER_NEXT, MARKER_EXIT)

    def fields(self) -> tuple:
        return (self.node, self.sid, self.opcode, self.loop_id, self.deps,
                self.addrs, self.addr, self.store_addr)


class ReferenceRecorder:
    """A trace sink keeping one :class:`Record` per emitted row.

    ``loop_id=None`` records the whole run; otherwise only the windows of
    the chosen ``instances`` of that loop (all of them when ``None``),
    each from its enter marker to its exit marker.
    """

    def __init__(self, loop_id: Optional[int] = None,
                 instances: Optional[set] = None):
        self.loop_id = loop_id
        self.instances = instances
        self.records: List[Record] = []
        self.active = loop_id is None
        self.spans_recorded = 0
        self._depth = 0
        self._by_node: Dict[int, Record] = {}

    def on_marker(self, kind: int, loop_id: int, instance: int) -> None:
        if self.loop_id is None or loop_id != self.loop_id:
            return
        if kind == MARKER_ENTER:
            if self._depth == 0 and (self.instances is None
                                     or instance in self.instances):
                self.active = True
                self.spans_recorded += 1
            self._depth += 1
        elif kind == MARKER_EXIT:
            self._depth -= 1
            if self._depth <= 0:
                self._depth = 0
                if self.active:
                    # No store outside the window is recorded, so no
                    # later backpatch may land in the closed span.
                    self.active = False
                    self._by_node.clear()

    def emit(self, node, sid, opcode, loop_id, deps=(), addrs=(), addr=0):
        rec = Record(node, sid, opcode, loop_id, deps, addrs, addr)
        self.records.append(rec)
        self._by_node[node] = rec

    def note_store(self, producer_node: int, addr: int) -> None:
        rec = self._by_node.get(producer_node)
        if rec is not None and rec.store_addr == 0:
            rec.store_addr = addr


def record(module, entry: str = "main", args=(), loop: Optional[int] = None,
           instances: Optional[set] = None,
           fuel: int = DEFAULT_FUEL) -> ReferenceRecorder:
    """Run ``module`` through the step interpreter into a recorder."""
    recorder = ReferenceRecorder(loop, instances)
    Interpreter(module, sink=recorder, fuel=fuel,
                compile_loops=False).run(entry, args)
    return recorder


def walk_ddg(records: List[Record]) -> DDG:
    """The DDG by walking the records: every non-marker record is a node,
    and each recorded producer inside the records is an edge."""
    index: Dict[int, int] = {}
    sids: List[int] = []
    opcodes: List[int] = []
    pred_indices: List[int] = []
    pred_offsets: List[int] = [0]
    addrs: List[tuple] = []
    store_addrs: List[int] = []
    mem_addrs: List[int] = []
    for rec in records:
        if rec.is_marker:
            continue
        sids.append(rec.sid)
        opcodes.append(rec.opcode)
        pred_indices.extend(sorted({index[d] for d in rec.deps
                                    if d in index}))
        index[rec.node] = len(sids) - 1
        pred_offsets.append(len(pred_indices))
        addrs.append(rec.addrs)
        store_addrs.append(rec.store_addr)
        mem_addrs.append(rec.addr)
    return DDG(sids, opcodes, addrs=addrs, store_addrs=store_addrs,
               mem_addrs=mem_addrs, pred_indices=array("q", pred_indices),
               pred_offsets=array("q", pred_offsets))


def node_iterations(records: List[Record], loop_id: int) -> List[int]:
    """Iteration index of ``loop_id`` for every non-marker record (-1
    outside the loop): the outermost activation's enter marker starts
    iteration 0 and each of its next markers the following one."""
    out: List[int] = []
    depth = 0
    iteration = -1
    for rec in records:
        if not rec.is_marker:
            out.append(iteration)
        elif rec.loop_id != loop_id:
            continue
        elif rec.opcode == MARKER_ENTER:
            depth += 1
            if depth == 1:
                iteration = 0
        elif rec.opcode == MARKER_EXIT:
            depth -= 1
            if depth == 0:
                iteration = -1
        elif depth == 1:
            iteration += 1
    return out


def column_fields(sink) -> List[tuple]:
    """The rows of a columnar sink as :meth:`Record.fields` tuples, read
    straight off the columns (node ids from the runs, loop ids from the
    change points, the sparse maps by row)."""
    sink._flush_sparse()
    runs = dict((row, node) for node, row in sink.runs)
    breaks = dict(sink.loop_breaks)
    out = []
    node = loop_id = start = 0
    for row, (sid, op) in enumerate(zip(sink.sids, sink.opcodes)):
        node = runs.get(row, node)
        loop_id = breaks.get(row, loop_id)
        nd = sink.dep_counts[row]
        out.append((node, sid, op, loop_id,
                    tuple(sink.dep_flat[start:start + nd]),
                    tuple(sink.addr_map.get(row, ())),
                    sink.mem_map.get(row, 0), sink.store_map.get(row, 0)))
        start += nd
        node += 1
    return out


def reference_fields(recorder: ReferenceRecorder) -> List[tuple]:
    return [rec.fields() for rec in recorder.records]
