"""Out-of-core segmented trace store.

The paper's methodology is explicitly offline — write the dynamic trace
to disk, analyze it later — but the columnar pipeline kept every column
in RAM, capping runs at whatever the machine holds.  This module spills
:class:`~repro.trace.columnar.ColumnarSink` columns to a chunked on-disk
format while tracing and streams the analysis back segment by segment:

- **Segment files** (``segment-NNNNN.vseg``): one binary blob per spilled
  chunk holding the typed columns (sids, opcodes, CSR dependences, loop
  markers, runs, loop-id change points, and the sparse address columns),
  each section 8-byte aligned so readers can map them as typed arrays
  without copying.
- **Manifest** (``MANIFEST.json``): the segment directory — per-segment
  row/node offsets, marker and dependence cursors, section byte offsets,
  whether the cut was loop-iteration-aligned, and any late store
  backpatches that arrived after their segment had already been spilled.
- :class:`SegmentedSink` / :class:`SegmentedLoopSink`: drop-in columnar
  sinks that cut a segment whenever the in-memory chunk exceeds the
  ``segment_rows`` budget.  Cuts prefer loop-marker rows (iteration
  boundaries are the natural analysis windows); a chunk that doubles the
  budget without seeing a marker is cut anyway and flagged
  ``aligned: false`` in the manifest.
- :class:`SegmentStore`: the reader.  Columns come back as mmap-backed
  (or buffered) typed arrays; :meth:`SegmentStore.to_ddg` rebuilds the
  CSR DDG by walking segment windows — never holding more than one
  segment's columns plus the (much smaller) marker/run context — and can
  shard the per-segment dependence remap across a process pool
  (``jobs``).  :meth:`SegmentStore.iter_ddg_chunks` exposes the same
  windows to streaming consumers such as
  :func:`repro.analysis.timestamps.packed_scan_stream`.

The store is also the ``vectra trace`` file format: ``trace -o DIR``
writes one, and ``analyze-trace DIR`` streams it through
:meth:`SegmentStore.to_ddg`.  The reader rejects a damaged or foreign
store with a :class:`TraceError` before any column is indexed.

Everything is gated on bit-identity: ``SegmentStore.to_ddg()`` equals
``ColumnarSink.to_ddg()`` on the same run, column for column (tested on
the randomized kernel suite), so spilling is purely a memory-ceiling
decision.

Store semantics note: ``note_store`` backpatches the producer's row,
which may already live in a spilled segment.  Spilled store columns are
immutable, so such *late* patches accumulate in memory (first-wins, like
the in-RAM sink) and are recorded in the manifest at finalize; the
reader merges them back with section entries taking precedence — a
section entry always predates the spill and therefore any late patch.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import struct
import time
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import TraceError
from repro.obs import get_logger, get_status_bus, get_telemetry, pool_heartbeat
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink, _np
from repro.trace.events import MARKER_ENTER
from repro.trace.trace import Trace

_log = get_logger("trace_store")

MANIFEST_NAME = "MANIFEST.json"
STORE_SCHEMA = "vectra.trace-store/1"
SEGMENT_MAGIC = b"VSG1"
SEGMENT_VERSION = 1

#: Default in-memory chunk budget (rows) before a segment spills.
DEFAULT_SEGMENT_ROWS = 1 << 20

#: Column sections of one segment file, with their array typecodes.
#: ``_rows`` sections are row indices relative to the segment start.
SECTION_TYPECODES: Dict[str, str] = {
    "sids": "q",
    "opcodes": "b",
    "dep_counts": "i",
    "dep_flat": "q",
    "marker_rows": "q",
    "run_nodes": "q",
    "run_rows": "q",
    "loop_rows": "q",
    "loop_vals": "q",
    "addr_rows": "q",
    "addr_counts": "i",
    "addr_flat": "q",
    "mem_rows": "q",
    "mem_vals": "q",
    "store_rows": "q",
    "store_vals": "q",
}

_HEADER = struct.Struct("<4sII")  # magic, format version, segment index

_SEGMENT_RE = re.compile(r"^segment-\d{5}\.vseg$")


def _pad(offset: int) -> int:
    return (-offset) % 8


# ---------------------------------------------------------------------------
# writer


class SegmentedSink(ColumnarSink):
    """A :class:`ColumnarSink` that spills full segments to disk.

    The hot :meth:`emit` path is the parent's; this class only adds the
    cut check (two comparisons per record).  Rows inside the in-memory
    columns are relative to :attr:`base_row`, which advances at every
    spill — ``emit`` itself never sees absolute rows, so the parent's
    bookkeeping (runs, loop RLE, sparse maps) works unchanged on the
    open chunk.
    """

    __slots__ = (
        "spill_dir", "segment_rows", "base_row", "segments",
        "_force_rows", "_late_stores", "_node_at_base", "_loop_at_base",
        "_totals", "_open_span", "_finished",
    )

    def __init__(self, spill_dir: str,
                 segment_rows: int = DEFAULT_SEGMENT_ROWS):
        super().__init__()
        if segment_rows < 1:
            raise TraceError(
                f"segment_rows must be positive, got {segment_rows}"
            )
        self.spill_dir = spill_dir
        self.segment_rows = segment_rows
        #: Hard cap: a chunk that doubles the budget without passing a
        #: loop marker is cut unaligned rather than growing unboundedly.
        self._force_rows = segment_rows * 2
        self.base_row = 0
        self.segments: List[dict] = []
        self._late_stores: Dict[int, int] = {}
        self._node_at_base = 0
        self._loop_at_base: Optional[int] = None
        self._totals = {
            "rows": 0, "markers": 0, "marker_segments": 0,
            "backpatches": 0, "runs": 0, "deps": 0, "bytes": 0,
        }
        self._open_span = False
        self._finished = False
        _claim_store_dir(spill_dir)
        get_status_bus().note_spill_dir(spill_dir)

    # -- the streaming write path (hot) ------------------------------------

    def emit(self, node, sid, opcode, loop_id, deps=(), addrs=(), addr=0):
        ColumnarSink.emit(self, node, sid, opcode, loop_id, deps, addrs,
                          addr)
        if len(self.sids) >= self.segment_rows and (
                opcode >= MARKER_ENTER
                or len(self.sids) >= self._force_rows):
            self._spill(aligned=opcode >= MARKER_ENTER)

    def note_store(self, producer_node: int, addr: int) -> None:
        # Same run-bounded, first-wins semantics as the parent; rows in
        # [_cur_row0, 0) were already spilled and become late patches.
        row = producer_node - self._cur_node0 + self._cur_row0
        if row >= self._cur_row0:
            if row >= 0:
                if row not in self.store_map:
                    self.store_map[row] = addr
            else:
                self._late_stores.setdefault(row + self.base_row, addr)

    def bulk_append(self, node0, loop_id, n, sids, opcodes, dep_counts,
                    dep_flat, marker_offsets=(), addr_runs=(),
                    mem_runs=(), store_items=()):
        """Batch append that cuts segments at exactly the rows where
        per-record :meth:`emit` would have cut.

        The batch is sliced at each spill trigger — the first
        loop-marker row that lands at or past ``segment_rows``, or the
        unconditional ``2x``-budget row, whichever per-record emission
        would hit first — and each slice is appended through the parent
        and spilled with the same ``aligned`` flag.  Store notes are
        applied with their own slice, so the section-entry vs late-patch
        classification (which depends on what had spilled when the note
        arrived) also matches step-mode tracing row for row.
        """
        if n <= 0:
            return
        if len(self.sids) + n < self.segment_rows:
            # No record in this batch can reach the cut threshold.
            ColumnarSink.bulk_append(
                self, node0, loop_id, n, sids, opcodes, dep_counts,
                dep_flat, marker_offsets, addr_runs, mem_runs,
                store_items)
            return
        # Keys are absolute node ids; the cut search runs in batch
        # offsets, so markers convert once, and the sparse runs flatten
        # to sorted item lists whose keys compare against the cut's
        # absolute node.
        markers = [m - node0 for m in marker_offsets]
        addr_items = sorted(
            (k, v) for ks, vs in addr_runs for k, v in zip(ks, vs))
        mem_items = sorted(
            (k, v) for ks, vs in mem_runs for k, v in zip(ks, vs))
        store_items = list(store_items)
        nmark = len(markers)
        mk = ai = mi = si = 0
        i = 0
        dep_pos = 0
        while i < n:
            chunk_len = len(self.sids)
            # First batch offset >= i whose emission triggers a cut.
            # A marker at offset m cuts once the chunk holds
            # ``segment_rows`` rows (aligned); any row cuts at the
            # ``_force_rows`` hard cap (unaligned).  A marker at the
            # force offset would already have qualified for the aligned
            # cut, so the force branch never lands on a marker.
            need = max(i, i + self.segment_rows - chunk_len - 1)
            force = i + self._force_rows - chunk_len - 1
            j = bisect_left(markers, need)
            cut_marker = markers[j] if j < nmark else -1
            if 0 <= cut_marker <= force and cut_marker < n:
                end = cut_marker + 1
                spill, aligned = True, True
            elif force < n:
                end = force + 1
                spill, aligned = True, False
            else:
                end = n
                spill = aligned = False
            span = 0
            for c in dep_counts[i:end]:
                span += c
            node_end = node0 + end
            sl_markers = []
            while mk < nmark and markers[mk] < end:
                sl_markers.append(node0 + markers[mk])
                mk += 1
            sl_ak, sl_av = [], []
            while ai < len(addr_items) and addr_items[ai][0] < node_end:
                k, v = addr_items[ai]
                sl_ak.append(k)
                sl_av.append(v)
                ai += 1
            sl_mk, sl_mv = [], []
            while mi < len(mem_items) and mem_items[mi][0] < node_end:
                k, v = mem_items[mi]
                sl_mk.append(k)
                sl_mv.append(v)
                mi += 1
            sl_stores = []
            while si < len(store_items) and store_items[si][0] < node_end:
                sl_stores.append(store_items[si])
                si += 1
            ColumnarSink.bulk_append(
                self, node0 + i, loop_id, end - i, sids[i:end],
                opcodes[i:end], dep_counts[i:end],
                dep_flat[dep_pos:dep_pos + span], sl_markers,
                ((sl_ak, sl_av),) if sl_ak else (),
                ((sl_mk, sl_mv),) if sl_mk else (), sl_stores)
            dep_pos += span
            i = end
            if spill:
                self._spill(aligned=aligned)

    # -- spilling ----------------------------------------------------------

    def _count_marker_free_spans(self, marker_rows, n_rows,
                                 open_span: bool) -> Tuple[int, bool]:
        """Number of marker-free row spans *started* in this chunk, given
        whether the previous chunk ended inside one (they merge across
        the cut).  Matches :meth:`ColumnarSink.stats` over the whole."""
        spans = 0
        pos = 0
        for m in marker_rows:
            if m > pos and not open_span:
                spans += 1
            open_span = False
            pos = m + 1
        if pos < n_rows:
            if not open_span:
                spans += 1
            open_span = True
        return spans, open_span

    def _spill(self, aligned: bool) -> None:
        n = len(self.sids)
        if n == 0:
            return
        if self._finished:
            raise TraceError("segmented sink already finalized")
        self._flush_sparse()
        tel = get_telemetry()
        # hist=True: one occurrence per spilled segment, so --profile
        # reports the p50/p95 per-segment spill latency distribution.
        with tel.span("trace_store.spill", hist=True):
            runs = self.runs
            breaks = self.loop_breaks
            if runs and runs[0][1] == 0:
                node0 = runs[0][0]
            else:
                node0 = self._node_at_base
            if breaks and breaks[0][0] == 0:
                loop0 = breaks[0][1]
            else:
                loop0 = self._loop_at_base
            addr_rows = sorted(self.addr_map)
            addr_counts = array("i", [len(self.addr_map[r])
                                      for r in addr_rows])
            addr_flat: List[int] = []
            for r in addr_rows:
                addr_flat.extend(self.addr_map[r])
            mem_rows = sorted(self.mem_map)
            store_rows = sorted(self.store_map)
            sections = {
                "sids": array("q", self.sids),
                "opcodes": array("b", self.opcodes),
                "dep_counts": self.dep_counts,
                "dep_flat": array("q", self.dep_flat),
                "marker_rows": array("q", self.marker_rows),
                "run_nodes": array("q", [r[0] for r in runs]),
                "run_rows": array("q", [r[1] for r in runs]),
                "loop_rows": array("q", [b[0] for b in breaks]),
                "loop_vals": array("q", [b[1] for b in breaks]),
                "addr_rows": array("q", addr_rows),
                "addr_counts": addr_counts,
                "addr_flat": array("q", addr_flat),
                "mem_rows": array("q", mem_rows),
                "mem_vals": array("q", [self.mem_map[r]
                                        for r in mem_rows]),
                "store_rows": array("q", store_rows),
                "store_vals": array("q", [self.store_map[r]
                                          for r in store_rows]),
            }
            index = len(self.segments)
            filename = f"segment-{index:05d}.vseg"
            section_meta, nbytes = _write_segment_file(
                os.path.join(self.spill_dir, filename), index, sections
            )
            spans, self._open_span = self._count_marker_free_spans(
                self.marker_rows, n, self._open_span
            )
            totals = self._totals
            self.segments.append({
                "file": filename,
                "row0": self.base_row,
                "rows": n,
                "node0": node0,
                "loop0": loop0,
                "markers": len(self.marker_rows),
                "markers_before": totals["markers"],
                "deps": len(self.dep_flat),
                "dep0": totals["deps"],
                "aligned": bool(aligned),
                "bytes": nbytes,
                "sections": section_meta,
                "store_patches": [],
            })
            totals["rows"] += n
            totals["markers"] += len(self.marker_rows)
            totals["marker_segments"] += spans
            totals["backpatches"] += len(store_rows)
            totals["runs"] += len(runs)
            totals["deps"] += len(self.dep_flat)
            totals["bytes"] += nbytes
        if tel.enabled:
            tel.count("trace_store.segments_spilled")
            tel.count("trace_store.rows_spilled", n)
            tel.count("trace_store.bytes_written", nbytes)
            if not aligned:
                tel.count("trace_store.unaligned_cuts")
        bus = get_status_bus()
        if bus.enabled:
            bus.count("segments")
            bus.count("spill_bytes", nbytes)
        # Reset the chunk in place (the parent's cached bound methods
        # keep pointing at the same column objects) and rebase.
        self.base_row += n
        self._node_at_base = self._next_node
        self._loop_at_base = self._last_loop
        self._cur_row0 -= n
        del self.sids[:]
        del self.opcodes[:]
        del self.dep_flat[:]
        del self.dep_counts[:]
        self.addr_map.clear()
        self.mem_map.clear()
        self.store_map.clear()
        del self.runs[:]
        del self.loop_breaks[:]
        del self.marker_rows[:]
        self._records = None

    # -- finalize ----------------------------------------------------------

    def finish(self) -> "SegmentStore":
        """Spill the open chunk, write the manifest, and hand back the
        reader.  Idempotent."""
        if not self._finished:
            tel = get_telemetry()
            with tel.span("trace_store.finalize"):
                tail_aligned = bool(
                    self.marker_rows
                    and self.marker_rows[-1] == len(self.sids) - 1
                )
                self._spill(aligned=tail_aligned)
                self._finished = True
                row0s = [seg["row0"] for seg in self.segments]
                for row, addr in sorted(self._late_stores.items()):
                    seg = self.segments[bisect_right(row0s, row) - 1]
                    seg["store_patches"].append([row - seg["row0"], addr])
                totals = self._totals
                manifest = {
                    "schema": STORE_SCHEMA,
                    "version": SEGMENT_VERSION,
                    "segment_rows": self.segment_rows,
                    "rows": totals["rows"],
                    "markers": totals["markers"],
                    "marker_segments": totals["marker_segments"],
                    "runs": totals["runs"],
                    "deps": totals["deps"],
                    "backpatches": (totals["backpatches"]
                                    + len(self._late_stores)),
                    "late_patches": len(self._late_stores),
                    "segment_bytes": totals["bytes"],
                    "segments": self.segments,
                }
                path = os.path.join(self.spill_dir, MANIFEST_NAME)
                with open(path, "w") as fh:
                    json.dump(manifest, fh, indent=1, sort_keys=True)
                    fh.write("\n")
            if tel.enabled:
                tel.count("trace_store.finalized")
                tel.count("trace_store.late_store_patches",
                          len(self._late_stores))
                tel.gauge("trace_store.segment_bytes", totals["bytes"])
        return SegmentStore(self.spill_dir)

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Spilled totals plus the open in-memory chunk — the same
        counters :meth:`ColumnarSink.stats` reports for an in-RAM run."""
        totals = self._totals
        spans, _ = self._count_marker_free_spans(
            self.marker_rows, len(self.sids), self._open_span
        )
        return {
            "rows": totals["rows"] + len(self.sids),
            "markers": totals["markers"] + len(self.marker_rows),
            "marker_segments": totals["marker_segments"] + spans,
            "backpatches": (totals["backpatches"] + len(self.store_map)
                            + len(self._late_stores)),
            "runs": totals["runs"] + len(self.runs),
        }

    # -- disabled in-RAM conveniences --------------------------------------

    def to_ddg(self):
        raise TraceError(
            "SegmentedSink spills columns to disk; call finish() and use "
            "SegmentStore.to_ddg() instead"
        )

    @property
    def records(self):
        raise TraceError(
            "SegmentedSink spills columns to disk; call finish() and use "
            "SegmentStore.to_sink().records instead"
        )


class SegmentedLoopSink(SegmentedSink):
    """Spilling variant of :class:`ColumnarLoopSink`: retains records
    only inside chosen instances of one loop, segments on disk."""

    __slots__ = ("loop_id", "instances", "spans_recorded", "_depth")

    def __init__(self, loop_id: int, instances: Optional[set] = None, *,
                 spill_dir: str, segment_rows: int = DEFAULT_SEGMENT_ROWS):
        super().__init__(spill_dir, segment_rows)
        self.loop_id = loop_id
        self.instances = instances
        self.active = False
        self.spans_recorded = 0
        self._depth = 0

    # The window logic is byte-for-byte the columnar sink's.
    _wanted = ColumnarLoopSink._wanted
    on_marker = ColumnarLoopSink.on_marker


def _claim_store_dir(path: str) -> None:
    """Make ``path`` an empty store directory.  A fresh run owns it: a
    stale store is dropped, so a rerun with fewer segments cannot leave
    orphans behind the new manifest; anything else is refused."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise TraceError(f"{path!r} exists and is not a directory; a trace "
                         f"store is a directory, so name a new or empty one")
    try:
        os.makedirs(path, exist_ok=True)
        names = sorted(os.listdir(path))
        for name in names:
            if name != MANIFEST_NAME and not _SEGMENT_RE.match(name):
                raise TraceError(
                    f"{path!r} is not empty and is not a trace store (it "
                    f"holds {name!r}); name a new or empty directory")
        for name in names:
            os.unlink(os.path.join(path, name))
    except OSError as exc:
        raise TraceError(f"cannot use {path!r} as a trace store: "
                         f"{exc.strerror}") from None


def _write_segment_file(path: str, index: int,
                        sections: Dict[str, array]) -> Tuple[dict, int]:
    """Write one segment file; returns ({name: [offset, count]}, bytes)."""
    meta: Dict[str, List[int]] = {}
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, index))
        offset = _HEADER.size
        for name in SECTION_TYPECODES:
            arr = sections[name]
            pad = _pad(offset)
            if pad:
                fh.write(b"\x00" * pad)
                offset += pad
            data = arr.tobytes()
            meta[name] = [offset, len(arr)]
            fh.write(data)
            offset += len(data)
    return meta, offset


# ---------------------------------------------------------------------------
# reader

def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _reject_file(path: str) -> None:
    """A regular file is never a store; name the retired format."""
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
    except OSError:
        magic = b""
    if magic == b"VTRC":
        raise TraceError(f"{path!r} is a trace file in the retired VTRC "
                         f"format; re-record it with `vectra trace`, which "
                         f"writes a trace store directory")
    raise TraceError(f"{path!r} is a file, not a trace store directory")


def _check_manifest(manifest, where: str) -> None:
    """Reject a manifest the readers would trip over: missing or
    mistyped keys, segment files outside the store, sections past a
    segment's end, and segments that do not tile the trace's rows."""

    def check(ok: bool, msg: str) -> None:
        if not ok:
            raise TraceError(f"{where}: {msg}")

    check(isinstance(manifest, dict), "the manifest is not a JSON object")
    schema = manifest.get("schema")
    check(schema == STORE_SCHEMA, f"unknown trace-store schema {schema!r} "
                                  f"(expected {STORE_SCHEMA!r})")
    check(manifest.get("version") == SEGMENT_VERSION,
          f"unsupported trace-store version {manifest.get('version')!r}")
    for key in ("rows", "markers"):
        check(_is_count(manifest.get(key)), f"{key!r} is missing or not a "
                                            f"count")
    segments = manifest.get("segments")
    check(isinstance(segments, list), "'segments' is missing or not a list")
    rows = markers = 0
    for i, seg in enumerate(segments):
        check(isinstance(seg, dict), f"segment {i} is not a JSON object")
        for key in ("row0", "rows", "markers", "markers_before", "bytes"):
            check(_is_count(seg.get(key)),
                  f"segment {i}: {key!r} is missing or not a count")
        name = seg.get("file")
        check(isinstance(name, str) and bool(_SEGMENT_RE.match(name)),
              f"segment {i}: 'file' {name!r} is not a segment-NNNNN.vseg "
              f"name inside the store")
        check(seg["row0"] == rows and seg["markers_before"] == markers,
              f"segment {i} starts at row {seg['row0']}, marker "
              f"{seg['markers_before']}; the segments before it end at "
              f"row {rows}, marker {markers}")
        sections = seg.get("sections")
        check(isinstance(sections, dict),
              f"segment {i}: 'sections' is missing or not an object")
        for sec, tc in SECTION_TYPECODES.items():
            entry = sections.get(sec)
            check(isinstance(entry, list) and len(entry) == 2
                  and all(map(_is_count, entry)),
                  f"segment {i}: section {sec!r} is missing or not an "
                  f"[offset, count] pair")
            end = entry[0] + entry[1] * struct.calcsize(tc)
            check(_HEADER.size <= entry[0] and end <= seg["bytes"],
                  f"segment {i}: section {sec!r} spans bytes "
                  f"[{entry[0]}, {end}), outside the segment's "
                  f"[{_HEADER.size}, {seg['bytes']})")
        for sec, key in (("sids", "rows"), ("opcodes", "rows"),
                         ("dep_counts", "rows"), ("marker_rows", "markers")):
            check(sections[sec][1] == seg[key],
                  f"segment {i}: section {sec!r} holds {sections[sec][1]} "
                  f"entries, expected {seg[key]}")
        patches = seg.get("store_patches")
        check(isinstance(patches, list) and all(
            isinstance(p, list) and len(p) == 2 and _is_count(p[0])
            and p[0] < seg["rows"] and type(p[1]) is int for p in patches),
            f"segment {i}: 'store_patches' is missing or holds a row "
            f"outside the segment")
        rows += seg["rows"]
        markers += seg["markers"]
    check(manifest["rows"] == rows and manifest["markers"] == markers,
          f"the manifest counts {manifest['rows']} rows and "
          f"{manifest['markers']} markers, its segments {rows} and "
          f"{markers}")


def _bounds(col) -> Tuple[int, int, int]:
    """(min, max, sum) of a typed column; (0, -1, 0) when empty."""
    if not len(col):
        return 0, -1, 0
    if _np is not None:
        a = _np.asarray(col)
        return int(a.min()), int(a.max()), int(a.sum())
    return min(col), max(col), sum(col)


def _check_columns(seg: "SegmentData", path: str) -> None:
    """Reject column values the chunk builders would index out of range
    with: row keys outside the segment, and dependence/address counts
    that do not add up to their flat sections."""
    rows = seg.meta["rows"]
    for name in ("marker_rows", "addr_rows", "mem_rows", "store_rows"):
        lo, hi, _ = _bounds(getattr(seg, name))
        if lo < 0 or hi >= rows:
            raise TraceError(f"{path!r}: section {name!r} holds a row "
                             f"outside the segment's {rows} rows")
    for name, flat in (("dep_counts", "dep_flat"),
                       ("addr_counts", "addr_flat")):
        lo, _, total = _bounds(getattr(seg, name))
        if lo < 0 or total != len(getattr(seg, flat)):
            raise TraceError(f"{path!r}: section {name!r} does not add up "
                             f"to the entries of {flat!r}")


class SegmentData:
    """One loaded segment: manifest metadata plus typed column views.

    Columns are memoryview casts over an mmap (zero-copy) or plain
    ``array`` objects read from the file — both index, slice, and
    ``tolist()`` the same way.
    """

    __slots__ = ["index", "meta"] + list(SECTION_TYPECODES) + ["_mm"]

    def __init__(self, index: int, meta: dict):
        self.index = index
        self.meta = meta
        self._mm = None

    @property
    def row0(self) -> int:
        return self.meta["row0"]

    @property
    def n_rows(self) -> int:
        return self.meta["rows"]


class DDGChunk(NamedTuple):
    """One segment's worth of assembled-DDG columns.

    ``pred_indices`` holds *global* DDG node ids; ``pred_offsets`` is
    chunk-local (``pred_offsets[0] == 0``), so chunks concatenate by
    rebasing offsets.  ``node0`` is the global DDG index of the chunk's
    first node.
    """

    node0: int
    sids: List[int]
    opcodes: List[int]
    addrs: List[tuple]
    store_addrs: List[int]
    mem_addrs: List[int]
    pred_indices: array
    pred_offsets: array


class _StoreContext(NamedTuple):
    """Global remap context: tiny next to the columns (markers + runs)."""

    marker_rows: array  # absolute rows of all marker records, ascending
    run_nodes: array
    run_rows: array  # absolute first row of each run
    run_ends: array  # absolute end row (exclusive) of each run


class SegmentStore:
    """Reader over a spilled segment directory."""

    def __init__(self, path: str, use_mmap: bool = True):
        self.path = path
        self.use_mmap = use_mmap
        if os.path.isfile(path):
            _reject_file(path)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except FileNotFoundError:
            raise TraceError(
                f"{path!r} is not a trace store (no {MANIFEST_NAME})"
            ) from None
        except (OSError, ValueError) as exc:
            raise TraceError(
                f"cannot read trace-store manifest {manifest_path!r}: "
                f"{exc}"
            ) from None
        _check_manifest(manifest, manifest_path)
        self.manifest = manifest
        self.segments: List[dict] = manifest["segments"]
        self.total_rows: int = manifest["rows"]
        self.total_markers: int = manifest["markers"]
        #: DDG nodes the full reassembly produces.
        self.n_nodes: int = self.total_rows - self.total_markers
        self._ctx: Optional[_StoreContext] = None

    def __len__(self) -> int:
        return self.total_rows

    def __repr__(self) -> str:
        return (f"<segment store: {len(self.segments)} segment(s), "
                f"{self.total_rows} rows>")

    # -- segment loading ---------------------------------------------------

    def load(self, index: int) -> SegmentData:
        meta = self.segments[index]
        path = os.path.join(self.path, meta["file"])
        seg = SegmentData(index, meta)
        sections = meta["sections"]
        try:
            with open(path, "rb") as fh:
                header = fh.read(_HEADER.size)
                if len(header) != _HEADER.size:
                    raise TraceError(f"{path!r}: truncated segment header")
                magic, version, idx = _HEADER.unpack(header)
                if magic != SEGMENT_MAGIC:
                    raise TraceError(f"{path!r}: not a segment file")
                if version != SEGMENT_VERSION or idx != index:
                    raise TraceError(
                        f"{path!r}: segment header mismatch (version "
                        f"{version}, index {idx}; manifest says {index})"
                    )
                # The manifest keeps every section inside meta["bytes"],
                # so a file of exactly that size bounds every read.
                size = os.fstat(fh.fileno()).st_size
                if size != meta["bytes"]:
                    state = ("truncated" if size < meta["bytes"]
                             else "has trailing bytes")
                    raise TraceError(
                        f"{path!r}: segment {state}: {size} bytes on "
                        f"disk, the manifest says {meta['bytes']}"
                    )
                if self.use_mmap and meta["rows"]:
                    mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                    seg._mm = mm
                    view = memoryview(mm)
                    for name, tc in SECTION_TYPECODES.items():
                        off, count = sections[name]
                        nbytes = count * struct.calcsize(tc)
                        setattr(seg, name,
                                view[off:off + nbytes].cast(tc))
                else:
                    for name, tc in SECTION_TYPECODES.items():
                        off, count = sections[name]
                        fh.seek(off)
                        arr = array(tc)
                        nbytes = count * arr.itemsize
                        arr.frombytes(fh.read(nbytes))
                        setattr(seg, name, arr)
        except OSError as exc:
            raise TraceError(f"cannot read segment {path!r}: {exc}") from None
        _check_columns(seg, path)
        return seg

    def iter_segments(self) -> Iterator[SegmentData]:
        for i in range(len(self.segments)):
            yield self.load(i)

    def _read_section(self, meta: dict, name: str) -> array:
        """One section of one segment, read without loading the rest."""
        tc = SECTION_TYPECODES[name]
        off, count = meta["sections"][name]
        arr = array(tc)
        if not count:
            return arr
        path = os.path.join(self.path, meta["file"])
        nbytes = count * arr.itemsize
        try:
            with open(path, "rb") as fh:
                fh.seek(off)
                data = fh.read(nbytes)
        except OSError as exc:
            raise TraceError(f"cannot read segment {path!r}: {exc}") from None
        if len(data) != nbytes:
            raise TraceError(f"{path!r}: truncated section {name!r}")
        arr.frombytes(data)
        return arr

    def context(self) -> _StoreContext:
        """The global remap context (absolute marker rows + runs),
        assembled from the small sections of every segment."""
        if self._ctx is None:
            markers = array("q")
            run_nodes = array("q")
            run_rows = array("q")
            for meta in self.segments:
                row0 = meta["row0"]
                for m in self._read_section(meta, "marker_rows"):
                    markers.append(row0 + m)
                nodes = self._read_section(meta, "run_nodes")
                rows = self._read_section(meta, "run_rows")
                run_nodes.extend(nodes)
                for r in rows:
                    run_rows.append(row0 + r)
            run_ends = array("q", run_rows[1:])
            run_ends.append(self.total_rows)
            self._ctx = _StoreContext(markers, run_nodes, run_rows,
                                      run_ends)
        return self._ctx

    # -- full materialization (compat / validation) ------------------------

    def to_sink(self) -> ColumnarSink:
        """Reassemble the full in-RAM :class:`ColumnarSink` — the exact
        columns an unspilled run would hold.  This is the compat and
        validation path; it deliberately pays the full-RAM cost."""
        sink = ColumnarSink()
        for seg in self.iter_segments():
            row0 = seg.row0
            sink.sids.extend(seg.sids.tolist())
            sink.opcodes.extend(seg.opcodes.tolist())
            sink.dep_flat.extend(seg.dep_flat.tolist())
            sink.dep_counts.extend(seg.dep_counts)
            for m in seg.marker_rows:
                sink.marker_rows.append(row0 + m)
            for node, row in zip(seg.run_nodes, seg.run_rows):
                sink.runs.append((node, row0 + row))
            for row, val in zip(seg.loop_rows, seg.loop_vals):
                sink.loop_breaks.append((row0 + row, val))
            flat_pos = 0
            addr_flat = seg.addr_flat
            for row, count in zip(seg.addr_rows, seg.addr_counts):
                sink.addr_map[row0 + row] = tuple(
                    addr_flat[flat_pos:flat_pos + count]
                )
                flat_pos += count
            for row, val in zip(seg.mem_rows, seg.mem_vals):
                sink.mem_map[row0 + row] = val
            for row, val in zip(seg.store_rows, seg.store_vals):
                sink.store_map[row0 + row] = val
            for row, val in seg.meta["store_patches"]:
                sink.store_map.setdefault(row0 + row, val)
        if sink.runs:
            last_node, last_row = sink.runs[-1]
            sink._next_node = last_node + (self.total_rows - last_row)
            sink._cur_node0 = last_node
            sink._cur_row0 = last_row
        if sink.loop_breaks:
            sink._last_loop = sink.loop_breaks[-1][1]
        return sink

    def trace(self, module) -> "StoredTrace":
        return StoredTrace(module, self)

    # -- streaming DDG assembly --------------------------------------------

    def _chunk(self, seg: SegmentData, ctx: _StoreContext) -> DDGChunk:
        """One segment's DDG columns — the per-window unit of work.

        Value-identical to the corresponding slice of
        :meth:`ColumnarSink.to_ddg` on the reassembled columns: same
        marker filtering, same out-of-window dependence drops, same
        sorted-unique predecessor lists.
        """
        if _np is not None:
            return self._chunk_numpy(seg, ctx)
        return self._chunk_python(seg, ctx)

    def _chunk_numpy(self, seg: SegmentData, ctx: _StoreContext) -> DDGChunk:
        meta = seg.meta
        row0 = meta["row0"]
        n_rows = meta["rows"]
        node0_out = row0 - meta["markers_before"]
        local_markers = seg.marker_rows

        out_sids: List[int] = []
        out_ops: List[int] = []
        prev = 0
        for m in local_markers:
            if m > prev:
                out_sids += seg.sids[prev:m].tolist()
                out_ops += seg.opcodes[prev:m].tolist()
            prev = m + 1
        if prev < n_rows:
            out_sids += seg.sids[prev:].tolist()
            out_ops += seg.opcodes[prev:].tolist()
        n_out = len(out_sids)

        # Dependence remap: node id -> absolute row (via runs) -> global
        # DDG index (subtract preceding markers), -1 when out of window
        # or pointing at a marker.
        df = _np.frombuffer(seg.dep_flat, dtype=_np.int64).astype(
            _np.int64, copy=False
        )
        if df.size:
            rn = _np.frombuffer(ctx.run_nodes, dtype=_np.int64)
            rr = _np.frombuffer(ctx.run_rows, dtype=_np.int64)
            rend = _np.frombuffer(ctx.run_ends, dtype=_np.int64)
            mk = _np.frombuffer(ctx.marker_rows, dtype=_np.int64)
            j = _np.searchsorted(rn, df, side="right") - 1
            jc = _np.maximum(j, 0)
            rows = df - rn[jc] + rr[jc]
            valid = (j >= 0) & (rows < rend[jc])
            k = _np.searchsorted(mk, rows, side="right")
            at_marker = _np.zeros(df.shape, dtype=bool)
            has_before = k > 0
            at_marker[has_before] = mk[k[has_before] - 1] == rows[has_before]
            mapped = _np.where(valid & ~at_marker, rows - k, -1)
        else:
            mapped = df

        counts = _np.frombuffer(seg.dep_counts, dtype=_np.intc)
        stride = self.n_nodes + 2
        key = _np.repeat(_np.arange(n_rows, dtype=_np.int64), counts)
        key *= stride
        key += mapped
        key += 1
        key.sort()
        srid = key // stride
        smapped = key - srid * stride
        smapped -= 1
        m = key.shape[0]
        if m:
            keep = _np.empty(m, dtype=bool)
            keep[0] = True
            _np.not_equal(key[1:], key[:-1], out=keep[1:])
            keep &= smapped >= 0
            kept = smapped[keep]
            row_counts = _np.bincount(srid[keep], minlength=n_rows)
        else:
            kept = smapped
            row_counts = _np.zeros(n_rows, dtype=_np.int64)

        mask = _np.ones(n_rows, dtype=bool)
        if len(local_markers):
            mask[_np.frombuffer(local_markers, dtype=_np.int64)] = False
        offsets = _np.empty(n_out + 1, dtype=_np.int64)
        offsets[0] = 0
        _np.cumsum(row_counts[mask], out=offsets[1:])
        indices_arr = array("q")
        indices_arr.frombytes(kept.astype(_np.int64, copy=False).tobytes())
        offsets_arr = array("q")
        offsets_arr.frombytes(offsets.tobytes())

        out_addrs, out_store, out_mem = self._scatter_sparse(
            seg, local_markers, n_out
        )
        return DDGChunk(node0_out, out_sids, out_ops, out_addrs, out_store,
                        out_mem, indices_arr, offsets_arr)

    def _chunk_python(self, seg: SegmentData, ctx: _StoreContext) -> DDGChunk:
        meta = seg.meta
        row0 = meta["row0"]
        n_rows = meta["rows"]
        node0_out = row0 - meta["markers_before"]
        local_markers = list(seg.marker_rows)
        marker_set = set(local_markers)
        mk = ctx.marker_rows
        run_nodes = ctx.run_nodes
        run_rows = ctx.run_rows
        run_ends = ctx.run_ends

        out_sids: List[int] = []
        out_ops: List[int] = []
        indices_arr = array("q")
        offsets_arr = array("q", [0])
        idx_extend = indices_arr.extend
        off_append = offsets_arr.append
        dep_flat = seg.dep_flat
        dep_counts = seg.dep_counts
        sids_col = seg.sids
        ops_col = seg.opcodes
        start = 0
        count = 0
        for r in range(n_rows):
            nd = dep_counts[r]
            if r in marker_set:
                start += nd
                continue
            out_sids.append(sids_col[r])
            out_ops.append(ops_col[r])
            if nd:
                acc = set()
                for d in dep_flat[start:start + nd]:
                    j = bisect_right(run_nodes, d) - 1
                    if j >= 0:
                        row = d - run_nodes[j] + run_rows[j]
                        if row < run_ends[j]:
                            k = bisect_right(mk, row)
                            if not (k > 0 and mk[k - 1] == row):
                                acc.add(row - k)
                if acc:
                    ordered = sorted(acc)
                    idx_extend(ordered)
                    count += len(ordered)
            start += nd
            off_append(count)
        n_out = len(out_sids)
        out_addrs, out_store, out_mem = self._scatter_sparse(
            seg, local_markers, n_out
        )
        return DDGChunk(node0_out, out_sids, out_ops, out_addrs, out_store,
                        out_mem, indices_arr, offsets_arr)

    def _scatter_sparse(self, seg: SegmentData, local_markers,
                        n_out: int) -> Tuple[List[tuple], List[int],
                                             List[int]]:
        """Dense per-node address vectors from the sparse row-keyed
        sections (sparse rows are never markers, so every key maps to a
        real output node)."""
        markers = (local_markers if isinstance(local_markers, list)
                   else list(local_markers))

        def out_index(row: int) -> int:
            return row - bisect_right(markers, row)

        out_addrs: List[tuple] = [()] * n_out
        out_store: List[int] = [0] * n_out
        out_mem: List[int] = [0] * n_out
        flat_pos = 0
        addr_flat = seg.addr_flat
        for row, cnt in zip(seg.addr_rows, seg.addr_counts):
            out_addrs[out_index(row)] = tuple(
                addr_flat[flat_pos:flat_pos + cnt]
            )
            flat_pos += cnt
        for row, val in zip(seg.store_rows, seg.store_vals):
            out_store[out_index(row)] = val
        for row, val in seg.meta["store_patches"]:
            i = out_index(row)
            if out_store[i] == 0:
                out_store[i] = val
        for row, val in zip(seg.mem_rows, seg.mem_vals):
            out_mem[out_index(row)] = val
        return out_addrs, out_store, out_mem

    def iter_ddg_chunks(self) -> Iterator[DDGChunk]:
        """The DDG, one segment window at a time — the streaming-consumer
        interface (the chunked Algorithm 1 scan and the windowed
        assembly in :meth:`to_ddg` both walk these).

        Under telemetry, each segment's load+remap latency feeds the
        ``trace_store.segment_read`` histogram and each chunk's node
        count feeds ``ddg.chunk_nodes`` — the distributions that show
        whether out-of-core reads are uniform or one segment dominates.
        """
        ctx = self.context()
        tel = get_telemetry()
        if not tel.enabled:
            for seg in self.iter_segments():
                yield self._chunk(seg, ctx)
            return
        for seg in self.iter_segments():
            t0 = time.perf_counter()
            chunk = self._chunk(seg, ctx)
            tel.observe("trace_store.segment_read",
                        time.perf_counter() - t0)
            tel.observe("ddg.chunk_nodes", len(chunk.sids))
            yield chunk

    def to_ddg(self, jobs: int = 1, tel=None):
        """Assemble the CSR DDG by streaming segment windows.

        Bit-identical to ``self.to_sink().to_ddg()`` (and therefore to
        the unspilled in-RAM pipeline), but never holds more than one
        segment's columns — the peak-memory term is the DDG itself plus
        the marker/run context.  ``jobs > 1`` shards the per-segment
        dependence remap across a fork process pool; any failure to
        stand up the pool falls back to the serial walk with a
        ``vectra.trace_store`` warning.
        """
        from repro.ddg.graph import DDG

        if tel is None:
            tel = get_telemetry()
        n_segments = len(self.segments)
        out_sids: List[int] = []
        out_ops: List[int] = []
        out_addrs: List[tuple] = []
        out_store: List[int] = []
        out_mem: List[int] = []
        indices = array("q")
        offsets = array("q", [0])
        with tel.span("trace_store.to_ddg"):
            chunks: Iterator[DDGChunk]
            used_jobs = 1
            if jobs is not None and jobs > 1 and n_segments > 1:
                pooled = self._pooled_chunks(min(jobs, n_segments))
                if pooled is not None:
                    chunks = pooled
                    used_jobs = min(jobs, n_segments)
                else:
                    chunks = self.iter_ddg_chunks()
            else:
                chunks = self.iter_ddg_chunks()
            for chunk in chunks:
                if used_jobs > 1 and tel.enabled:
                    # Serial walks observe chunk sizes inside
                    # iter_ddg_chunks; pool workers return bare chunks
                    # (no telemetry ride-home on this path), so the
                    # parent records them here — never both.
                    tel.observe("ddg.chunk_nodes", len(chunk.sids))
                out_sids += chunk.sids
                out_ops += chunk.opcodes
                out_addrs += chunk.addrs
                out_store += chunk.store_addrs
                out_mem += chunk.mem_addrs
                indices.extend(chunk.pred_indices)
                base = offsets[-1]
                if _np is not None:
                    rebased = _np.frombuffer(chunk.pred_offsets,
                                             dtype=_np.int64)[1:] + base
                    offsets.frombytes(rebased.tobytes())
                else:
                    offsets.extend(x + base for x in chunk.pred_offsets[1:])
        if tel.enabled:
            tel.count("trace_store.segments_read", n_segments)
            tel.count("trace_store.bytes_read",
                      self.manifest.get("segment_bytes", 0))
            tel.gauge("trace_store.to_ddg_jobs", used_jobs)
        return DDG(
            out_sids,
            out_ops,
            addrs=out_addrs,
            store_addrs=out_store,
            mem_addrs=out_mem,
            pred_indices=indices,
            pred_offsets=offsets,
            validate=False,
        )

    def _pooled_chunks(self, jobs: int) -> Optional[List[DDGChunk]]:
        """Per-segment chunks computed across a process pool (ordered),
        or ``None`` when no pool can be stood up."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        global _POOL_STORE
        self.context()  # build before fork so workers inherit it
        _POOL_STORE = self
        bus = get_status_bus()
        initializer, initargs = pool_heartbeat(bus)
        try:
            try:
                mp_ctx = multiprocessing.get_context("fork")
            except ValueError:
                mp_ctx = multiprocessing.get_context()
            with ProcessPoolExecutor(max_workers=jobs,
                                     mp_context=mp_ctx,
                                     initializer=initializer,
                                     initargs=initargs) as pool:
                chunks = list(pool.map(
                    _segment_worker,
                    [(self.path, i)
                     for i in range(len(self.segments))]))
            bus.retire_workers()
            return chunks
        except (OSError, PermissionError, ImportError,
                RuntimeError) as exc:
            _log.warning(
                "process pool startup failed (%s: %s); assembling %d "
                "segment(s) serially — use jobs=1 to silence this warning",
                type(exc).__name__, exc, len(self.segments),
            )
            tel = get_telemetry()
            tel.count("trace_store.pool_fallbacks")
            return None
        finally:
            _POOL_STORE = None


#: Fork-inherited store for pool workers (rebuilt from the manifest when
#: the start method is spawn and nothing was inherited).
_POOL_STORE: Optional[SegmentStore] = None


def _segment_worker(payload) -> DDGChunk:
    path, index = payload
    global _POOL_STORE
    store = _POOL_STORE
    if store is None or store.path != path:
        store = SegmentStore(path)
        _POOL_STORE = store
    return store._chunk(store.load(index), store.context())


class StoredTrace(Trace):
    """A :class:`Trace` view over a segment store.

    :func:`~repro.ddg.build.build_ddg` recognizes the attached store and
    streams segment windows; ``records`` (span indexing)
    materializes the full columns on demand via :meth:`SegmentStore
    .to_sink` — the compat path, at full-RAM cost.
    """

    def __init__(self, module, store: SegmentStore):
        self.module = module
        self.segment_store = store
        self._spans = None
        self._sink: Optional[ColumnarSink] = None

    def __len__(self) -> int:
        return self.segment_store.total_rows

    @property
    def records(self):
        if self._sink is None:
            self._sink = self.segment_store.to_sink()
        return self._sink.records


def open_store(path: str, use_mmap: bool = True) -> SegmentStore:
    """Open a spilled segment directory for reading."""
    return SegmentStore(path, use_mmap=use_mmap)


def spill_subdir(spill_dir: str, label: str) -> str:
    """A per-analysis subdirectory inside the user's spill root, with
    the label sanitized to a safe path component."""
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", label) or "trace"
    return os.path.join(spill_dir, safe)
