"""Out-of-core segment store: bit-identity with the in-RAM pipeline.

The segment store is gated on one invariant: spilling is purely a
memory-ceiling decision.  DDG columns, Algorithm 1 partitions, loop
reports, and CLI output must be *bit-identical* between the in-RAM
columnar path and the spilled path, on arbitrary programs and with
segment budgets tiny enough that every analysis window crosses many
segment boundaries.  The randomized kernels from the columnar property
suite drive the comparison.
"""

import json
import os

import pytest

from repro.analysis.pipeline import analyze_loop, windowed_loop_ddg
from repro.analysis.timestamps import (
    batched_parallel_partitions,
    packed_scan_stream,
    packed_timestamp_scan,
)
from repro.ddg.build import build_ddg
from repro.errors import TraceError
from repro.frontend import compile_source
from repro.interp.interpreter import Interpreter, run_and_trace
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.store import (
    MANIFEST_NAME,
    SegmentedLoopSink,
    SegmentedSink,
    SegmentStore,
    open_store,
)

from tests import reference
from tests.reference import column_fields, walk_ddg
from tests.test_columnar import assert_ddgs_identical, random_kernel

SEEDS = list(range(8))


def _window_pair(seed, tmp_path, segment_rows=8):
    """The same windowed run through both sinks: (module, loop_name,
    in-RAM sink, finished SegmentStore)."""
    module = compile_source(random_kernel(seed))
    loop_name = "red" if seed % 2 == 1 else "outer"
    info = module.loop_by_name(loop_name)
    ram = ColumnarLoopSink(info.loop_id, instances={0})
    Interpreter(module, sink=ram).run("main", ())
    spill = SegmentedLoopSink(info.loop_id, instances={0},
                              spill_dir=str(tmp_path / f"spill{seed}"),
                              segment_rows=segment_rows)
    Interpreter(module, sink=spill).run("main", ())
    assert spill.spans_recorded == ram.spans_recorded == 1
    store = spill.finish()
    return module, loop_name, ram, store


@pytest.mark.parametrize("seed", SEEDS)
def test_spilled_ddg_bit_identical(seed, tmp_path):
    module, loop_name, ram, store = _window_pair(seed, tmp_path)
    assert len(store.segments) > 1, "budget too large to exercise spills"
    ref = reference.record(module, loop=module.loop_by_name(loop_name)
                           .loop_id, instances={0})
    assert_ddgs_identical(walk_ddg(ref.records), store.to_ddg())
    assert_ddgs_identical(ram.to_ddg(), store.to_ddg())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_to_sink_reconstructs_exact_columns(seed, tmp_path):
    """The reassembled in-RAM sink equals the never-spilled one column
    for column — the strongest form of the bit-identity gate."""
    _, _, ram, store = _window_pair(seed, tmp_path)
    back = store.to_sink()
    assert back.sids == ram.sids
    assert back.opcodes == ram.opcodes
    assert back.dep_flat == ram.dep_flat
    assert back.dep_counts == ram.dep_counts
    assert back.marker_rows == ram.marker_rows
    assert back.runs == ram.runs
    assert back.loop_breaks == ram.loop_breaks
    assert back.addr_map == ram.addr_map
    assert back.mem_map == ram.mem_map
    assert back.store_map == ram.store_map


@pytest.mark.parametrize("seed", [0, 1])
def test_segment_sharded_jobs_identical(seed, tmp_path):
    """--jobs sharding over segments returns the same DDG in the same
    order (pool failures fall back to serial, so this holds even in
    pool-hostile sandboxes)."""
    _, _, ram, store = _window_pair(seed, tmp_path)
    assert_ddgs_identical(ram.to_ddg(), store.to_ddg(jobs=2))


@pytest.mark.parametrize("seed", [1, 2])
def test_loop_report_bit_identical_under_spill(seed, tmp_path):
    """End to end through analyze_loop: the report is the same object
    value whether the window spilled or not."""
    module = compile_source(random_kernel(seed))
    loop_name = "red" if seed % 2 == 1 else "outer"
    in_ram = analyze_loop(module, loop_name)
    spilled = analyze_loop(module, loop_name,
                           spill_dir=str(tmp_path / "spill"),
                           segment_rows=8, jobs=2)
    assert in_ram == spilled


@pytest.mark.parametrize("seed", [0, 3])
def test_streaming_scan_matches_batched(seed, tmp_path):
    """The chunked Algorithm 1 scan over segment windows equals the
    assembled-DDG batched engine: same packed vectors, same partitions."""
    _, _, ram, store = _window_pair(seed, tmp_path)
    ddg = ram.to_ddg()
    targets = ddg.static_ids()
    scan, parts = packed_scan_stream(store.iter_ddg_chunks(), targets,
                                     store.n_nodes)
    ref = packed_timestamp_scan(ddg, targets)
    assert scan.width == ref.width
    assert scan.lane == ref.lane
    assert scan.vectors == ref.vectors
    assert parts == batched_parallel_partitions(ddg, targets)


def test_stats_match_in_ram_sink(tmp_path):
    _, _, ram, _ = _window_pair(2, tmp_path)
    module = compile_source(random_kernel(2))
    info = module.loop_by_name("outer")
    spill = SegmentedLoopSink(info.loop_id, instances={0},
                              spill_dir=str(tmp_path / "stats"),
                              segment_rows=8)
    Interpreter(module, sink=spill).run("main", ())
    assert spill.stats() == ram.stats()


def test_manifest_records_offsets_and_alignment(tmp_path):
    _, _, _, store = _window_pair(0, tmp_path)
    manifest = store.manifest
    assert manifest["schema"] == "vectra.trace-store/1"
    assert manifest["rows"] == sum(s["rows"] for s in manifest["segments"])
    row_cursor = 0
    marker_cursor = 0
    for seg in manifest["segments"]:
        assert seg["row0"] == row_cursor
        assert seg["markers_before"] == marker_cursor
        row_cursor += seg["rows"]
        marker_cursor += seg["markers"]
        for name, (offset, count) in seg["sections"].items():
            assert offset % 8 == 0 or count == 0 or name == "opcodes"
    # Cut policy: a segment is either iteration-aligned (cut on a
    # marker row) or a forced cut that first had to double the budget.
    for seg in manifest["segments"][:-1]:
        assert seg["aligned"] or seg["rows"] >= 2 * 8


def test_forced_cut_without_markers_is_unaligned(tmp_path):
    """A chunk that doubles the budget without passing a loop marker is
    cut anyway and flagged unaligned — correctness is unaffected."""
    sink = SegmentedSink(str(tmp_path / "forced"), segment_rows=2)
    ram = ColumnarSink()
    for node in range(10):
        for s in (sink, ram):
            s.emit(node, node % 3 + 1, 1, -1,
                   deps=(node - 1,) if node else ())
    store = sink.finish()
    assert len(store.segments) > 1
    assert not store.segments[0]["aligned"]
    assert_ddgs_identical(ram.to_ddg(), store.to_ddg())


def test_late_store_patch_lands_in_spilled_segment(tmp_path):
    """note_store can target a row whose segment already hit disk; the
    patch rides the manifest and first-wins semantics are preserved."""
    sink = SegmentedSink(str(tmp_path / "late"), segment_rows=2)
    ram = ColumnarSink()
    for node in range(6):
        for s in (sink, ram):
            s.emit(node, 1, 1, -1)
    # Node 1's segment spilled at node 4 (forced cut at 2*2 rows).
    assert len(sink.segments) == 1
    for s in (sink, ram):
        s.note_store(1, 0xF00D)
        s.note_store(1, 0xDEAD)  # second write: first wins
        s.note_store(5, 0xBEEF)  # in the open chunk
    store = sink.finish()
    assert store.manifest["late_patches"] == 1
    assert store.to_sink().store_map == ram.store_map == {1: 0xF00D,
                                                          5: 0xBEEF}
    assert_ddgs_identical(ram.to_ddg(), store.to_ddg())


def test_pre_spill_store_entry_beats_late_patch(tmp_path):
    """A store recorded before the spill is the first write; a late
    patch for the same row must not override it."""
    sink = SegmentedSink(str(tmp_path / "dup"), segment_rows=2)
    ram = ColumnarSink()
    for node in range(3):
        for s in (sink, ram):
            s.emit(node, 1, 1, -1)
    for s in (sink, ram):
        s.note_store(1, 0xAAAA)  # lands in the open chunk
    for node in range(3, 6):
        for s in (sink, ram):
            s.emit(node, 1, 1, -1)  # forces the spill past row 4
    for s in (sink, ram):
        s.note_store(1, 0xBBBB)  # now row 1 is on disk: late patch
    store = sink.finish()
    assert store.to_sink().store_map == ram.store_map
    assert ram.store_map[1] == 0xAAAA


def test_stored_trace_dispatches_and_materializes(tmp_path):
    """build_ddg streams a store through SegmentStore.to_ddg, and
    to_sink materializes the rows of the in-RAM window."""
    _, _, ram, store = _window_pair(0, tmp_path)
    assert len(store) == store.total_rows == len(ram)
    assert_ddgs_identical(ram.to_ddg(), build_ddg(store))
    assert column_fields(store.to_sink()) == column_fields(ram)


def test_segmented_sink_refuses_in_ram_conveniences(tmp_path):
    sink = SegmentedSink(str(tmp_path / "refuse"), segment_rows=4)
    sink.emit(0, 1, 1, -1)
    with pytest.raises(TraceError, match="finish"):
        sink.to_ddg()
    with pytest.raises(TraceError):
        SegmentedSink(str(tmp_path / "bad"), segment_rows=0)


def test_empty_run_yields_empty_store(tmp_path):
    sink = SegmentedSink(str(tmp_path / "empty"), segment_rows=4)
    store = sink.finish()
    assert len(store.segments) == 0
    assert len(store.to_ddg()) == 0
    assert store.to_sink().sids == []


def test_rerun_cleans_stale_segments(tmp_path):
    """A second run into the same directory must not leave the first
    run's extra segment files behind its new manifest."""
    spill = str(tmp_path / "reuse")
    sink = SegmentedSink(spill, segment_rows=2)
    for node in range(12):
        sink.emit(node, 1, 1, -1)
    first = sink.finish()
    assert len(first.segments) >= 2
    sink = SegmentedSink(spill, segment_rows=2)
    for node in range(4):
        sink.emit(node, 1, 1, -1)
    second = sink.finish()
    on_disk = sorted(f for f in os.listdir(spill) if f.endswith(".vseg"))
    assert on_disk == sorted(s["file"] for s in second.segments)


def test_open_rejects_non_store_directories(tmp_path):
    with pytest.raises(TraceError, match="MANIFEST"):
        SegmentStore(str(tmp_path))
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / MANIFEST_NAME).write_text(json.dumps({"schema": "nope"}))
    with pytest.raises(TraceError, match="schema"):
        SegmentStore(str(bad))


def _edit_manifest(path, edit):
    manifest = os.path.join(path, MANIFEST_NAME)
    with open(manifest) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(manifest, "w") as fh:
        json.dump(doc, fh)


def test_truncated_segment_rejected_on_mmap_path(tmp_path):
    """A short segment used to reach the mmap'd columns and die with a
    numpy IndexError; the section reads that build the remap context
    used to decode short data silently."""
    _, _, _, store = _window_pair(0, tmp_path)
    seg = os.path.join(store.path, store.segments[1]["file"])
    size = os.path.getsize(seg)
    with open(seg, "r+b") as fh:
        fh.truncate(size - 8)
    fresh = SegmentStore(store.path)
    with pytest.raises(TraceError, match="truncated"):
        fresh.load(1)
    first = os.path.join(store.path, store.segments[0]["file"])
    assert store.segments[0]["sections"]["run_nodes"][1] > 0
    with open(first, "r+b") as fh:
        fh.truncate(16)
    with pytest.raises(TraceError, match="truncated section"):
        SegmentStore(store.path).context()
    with pytest.raises(TraceError):
        SegmentStore(store.path).to_ddg()


def test_manifest_file_outside_store_rejected(tmp_path):
    """The manifest may only name segment files inside the store."""
    _, _, _, store = _window_pair(0, tmp_path)
    first = os.path.join(store.path, store.segments[0]["file"])
    with open(first, "rb") as fh:
        (tmp_path / "outside.bin").write_bytes(fh.read())
    for name in ("../outside.bin", str(tmp_path / "outside.bin"),
                 "segment-0.vseg"):
        _edit_manifest(store.path,
                       lambda doc: doc["segments"][0].update(file=name))
        with pytest.raises(TraceError, match="segment-NNNNN.vseg"):
            SegmentStore(store.path)


def test_manifest_missing_key_rejected(tmp_path):
    """Every key a reader path uses is checked up front: a missing one
    is a TraceError naming it, never a KeyError."""
    _, _, _, store = _window_pair(0, tmp_path)
    clean = dict(store.manifest)
    top = ["rows", "markers", "segments"]
    per_segment = ["file", "row0", "rows", "markers", "markers_before",
                   "bytes", "sections", "store_patches"]
    for key in top + per_segment:
        def drop(doc, key=key):
            doc.clear()
            doc.update(json.loads(json.dumps(clean)))
            target = doc if key in top else doc["segments"][1]
            del target[key]

        _edit_manifest(store.path, drop)
        with pytest.raises(TraceError, match=repr(key)):
            SegmentStore(store.path)


def test_manifest_inconsistent_layout_rejected(tmp_path):
    """Sections past a segment's end and segments that do not tile the
    rows are refused before any column is read."""
    _, _, _, store = _window_pair(0, tmp_path)
    seg_bytes = store.segments[0]["bytes"]
    _edit_manifest(store.path, lambda doc: doc["segments"][0]["sections"]
                   .update(dep_flat=[seg_bytes, 1]))
    with pytest.raises(TraceError, match="outside the segment"):
        SegmentStore(store.path)
    _edit_manifest(store.path, lambda doc: doc["segments"][0]["sections"]
                   .update(dep_flat=store.segments[0]["sections"]
                           ["dep_flat"]))
    SegmentStore(store.path)
    _edit_manifest(store.path,
                   lambda doc: doc["segments"][1].update(row0=0))
    with pytest.raises(TraceError, match="starts at row 0"):
        SegmentStore(store.path)


def test_corrupt_column_values_rejected(tmp_path):
    """A correctly sized segment whose row keys point outside it is
    refused when loaded, on both readers."""
    _, _, _, store = _window_pair(0, tmp_path)
    meta = next(m for m in store.segments if m["markers"])
    off, _ = meta["sections"]["marker_rows"]
    with open(os.path.join(store.path, meta["file"]), "r+b") as fh:
        fh.seek(off)
        fh.write((10 ** 9).to_bytes(8, "little", signed=True))
    for use_mmap in (True, False):
        fresh = SegmentStore(store.path, use_mmap=use_mmap)
        with pytest.raises(TraceError, match="marker_rows"):
            fresh.load(store.segments.index(meta))


@pytest.mark.parametrize("seed", SEEDS)
def test_offline_trace_matches_windowed_ddg(seed, tmp_path):
    """``trace`` then ``analyze-trace``: the DDG read back from the
    recorded store is bit-identical to the fused windowed DDG that
    ``analyze`` builds for the same loop and instance."""
    module = compile_source(random_kernel(seed))
    if seed % 2:
        loop_name, instance = "red", 0
    else:
        loop_name, instance = ("outer", 0) if seed % 4 == 0 else ("innr", 1)
    info = module.loop_by_name(loop_name)
    path = str(tmp_path / "t.vtrace")
    run_and_trace(module, "main", loop=info.loop_id, instances={instance},
                  spill_dir=path)
    offline = build_ddg(open_store(path))
    windowed, _ = windowed_loop_ddg(module, info.loop_id, loop_name,
                                    instance=instance)
    assert len(offline) > 0
    assert_ddgs_identical(windowed, offline)


def test_buffered_reader_matches_mmap(tmp_path):
    _, _, ram, store = _window_pair(1, tmp_path)
    buffered = SegmentStore(store.path, use_mmap=False)
    assert_ddgs_identical(store.to_ddg(), buffered.to_ddg())
    assert_ddgs_identical(ram.to_ddg(), buffered.to_ddg())


def test_cli_spill_output_identical(tmp_path, capsys):
    from repro.tools.cli import main

    assert main(["analyze", "utdsp_fir_array", "-p", "nout=8",
                 "-p", "ntap=3"]) == 0
    plain = capsys.readouterr().out
    assert main(["analyze", "utdsp_fir_array", "-p", "nout=8",
                 "-p", "ntap=3", "--spill-dir", str(tmp_path / "s"),
                 "--segment-rows", "16"]) == 0
    spilled = capsys.readouterr().out
    assert plain == spilled
    assert (tmp_path / "s").is_dir()


def test_cli_segment_rows_requires_spill_dir(capsys):
    from repro.tools.cli import main

    assert main(["analyze", "utdsp_fir_array", "--segment-rows", "4"]) == 1
    assert "--spill-dir" in capsys.readouterr().err
