"""Columnar streaming pipeline: bit-identity with the reference oracle.

The columnar sinks and the vectorized DDG build must be *bit-identical*
to the reference recorder and record walk in :mod:`tests.reference` —
same rows, same DDG columns, same CSR adjacency, same reports — on
arbitrary programs, or every downstream metric silently drifts.  A
seeded-random kernel generator (nested loops, cross-iteration offsets,
reduction accumulators) drives the comparison; each seed is one
deterministic tier-1 case.
"""

import random

import pytest

from repro.analysis.metrics import loop_metrics
from repro.analysis.pipeline import analyze_loop, windowed_loop_ddg
from repro.ddg.build import build_ddg
from repro.frontend import compile_source
from repro.interp import run_and_trace
from repro.interp.interpreter import Interpreter
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink
from repro.trace.store import SegmentedLoopSink, SegmentedSink

from tests import reference
from tests.reference import column_fields, reference_fields, walk_ddg


def random_kernel(seed: int) -> str:
    """A small random mini-C program with a labelled loop nest.

    Covers the record shapes the sinks must agree on: FP arithmetic,
    loads with cross-iteration offsets, stores, integer index math,
    nested loops, and (odd seeds) a scalar reduction chain.
    """
    rng = random.Random(seed)
    n = rng.randint(6, 14)
    inner = rng.randint(2, 5)
    off = rng.randint(0, 2)
    c1 = round(rng.uniform(0.5, 3.0), 2)
    c2 = round(rng.uniform(-2.0, 2.0), 2)
    op = rng.choice(["+", "*", "-"])
    reduction = seed % 2 == 1
    if reduction:
        body = f"""
  double s = 0.0;
  red: for (i = 0; i < {n}; i++) {{
    s += A[i] {op} B[(i + {off}) % {n}];
  }}
  total = s;
"""
    else:
        body = f"""
  outer: for (i = 0; i < {n}; i++) {{
    innr: for (j = 0; j < {inner}; j++) {{
      C[i] = C[i] + A[(i + j + {off}) % {n}] {op} B[j % {n}] * {c1};
    }}
  }}
"""
    return f"""
double A[{n}];
double B[{n}];
double C[{n}];
double total;

int main() {{
  int i, j;
  for (i = 0; i < {n}; i++) {{
    A[i] = {c1} * (double)i;
    B[i] = {c2} + 0.5 * (double)i;
    C[i] = 0.0;
  }}
{body}
  return 0;
}}
"""


SEEDS = list(range(10))


def assert_ddgs_identical(a, b):
    assert a.sids == b.sids
    assert a.opcodes == b.opcodes
    assert list(a.pred_indices) == list(b.pred_indices)
    assert list(a.pred_offsets) == list(b.pred_offsets)
    assert [tuple(t) for t in a.addrs] == [tuple(t) for t in b.addrs]
    assert list(a.store_addrs) == list(b.store_addrs)
    assert list(a.mem_addrs) == list(b.mem_addrs)


@pytest.mark.parametrize("seed", SEEDS)
def test_full_trace_ddg_bit_identical(seed):
    module = compile_source(random_kernel(seed))
    ref = reference.record(module)
    columnar = run_and_trace(module)
    assert isinstance(columnar, ColumnarSink)
    assert len(columnar) == len(ref.records)
    assert_ddgs_identical(build_ddg(columnar), walk_ddg(ref.records))


@pytest.mark.parametrize("seed", SEEDS)
def test_full_trace_records_compat_view(seed):
    """The columns hold the reference records field for field."""
    module = compile_source(random_kernel(seed))
    assert (column_fields(run_and_trace(module))
            == reference_fields(reference.record(module)))


@pytest.mark.parametrize("seed", SEEDS)
def test_windowed_fused_ddg_matches_legacy_subtrace(seed):
    module = compile_source(random_kernel(seed))
    loop_name = "red" if seed % 2 == 1 else "outer"
    info = module.loop_by_name(loop_name)
    ref = reference.record(module, loop=info.loop_id, instances={0})
    assert ref.spans_recorded == 1

    sink = ColumnarLoopSink(info.loop_id, instances={0})
    Interpreter(module, sink=sink).run("main", ())
    assert sink.spans_recorded == 1
    assert_ddgs_identical(sink.to_ddg(), walk_ddg(ref.records))


@pytest.mark.parametrize("seed", [1, 3, 5])
@pytest.mark.parametrize("relax", [False, True])
def test_loop_metrics_unchanged_on_reductions(seed, relax):
    """End to end: the report off the fused path equals the report off
    the reference record walk, with and without reduction relaxation."""
    module = compile_source(random_kernel(seed))
    info = module.loop_by_name("red")
    fused = analyze_loop(module, "red", relax_reductions=relax)

    ref = reference.record(module, loop=info.loop_id, instances={0})
    expected = loop_metrics(walk_ddg(ref.records), module, "red",
                            include_integer=False, relax_reductions=relax)
    assert fused == expected


def test_windowed_multi_instance_spans():
    """A window over the inner loop of a nest records one span per outer
    iteration; runs bookkeeping must keep them separate."""
    module = compile_source(random_kernel(0))
    info = module.loop_by_name("innr")
    columnar = run_and_trace(module, loop=info.loop_id, instances=None)
    ref = reference.record(module, loop=info.loop_id, instances=None)
    assert columnar.spans_recorded == ref.spans_recorded > 1
    assert len(columnar.runs) >= columnar.spans_recorded
    assert_ddgs_identical(build_ddg(columnar), walk_ddg(ref.records))


def test_store_backpatch_is_bounded_to_open_run():
    """note_store for a node before the current run is a no-op: no
    store outside a window is recorded, so a closed span is final."""
    sink = ColumnarSink()
    sink.emit(10, 1, 1, -1)
    sink.emit(11, 2, 1, -1)
    sink.emit(20, 3, 1, -1)  # gap: new run
    sink.note_store(11, 0xBEEF)  # prior run — ignored
    sink.note_store(20, 0xF00D)  # open run — patched
    sink.note_store(20, 0xDEAD)  # second write — first wins
    assert sink.store_map == {2: 0xF00D}
    assert sink.to_ddg().store_addrs == [0, 0, 0xF00D]


def test_columnar_trace_serializes_like_legacy(tmp_path):
    """The columnar window, in RAM and recorded to a trace store, holds
    the reference recorder's records field for field."""
    module = compile_source(random_kernel(4))
    info = module.loop_by_name("outer")
    columnar = run_and_trace(module, loop=info.loop_id, instances={0})
    ref = reference.record(module, loop=info.loop_id, instances={0})
    stored = run_and_trace(module, loop=info.loop_id, instances={0},
                           spill_dir=str(tmp_path / "t"))
    expected = reference_fields(ref)
    assert len(expected) > 0
    assert column_fields(columnar) == expected
    assert column_fields(stored.to_sink()) == expected


def _production_window(module, loop, instances, compiled, spill):
    """One recording through the production sinks: in RAM, or spilled
    in 8-row segments so every window crosses segment boundaries.
    Returns (columnar sink, DDG)."""
    if spill:
        sink = (SegmentedSink(spill, segment_rows=8) if loop is None
                else SegmentedLoopSink(loop, instances, spill_dir=spill,
                                       segment_rows=8))
    else:
        sink = (ColumnarSink() if loop is None
                else ColumnarLoopSink(loop, instances))
    Interpreter(module, sink=sink, compile_loops=compiled,
                compile_threshold=2).run("main", ())
    if spill:
        store = sink.finish()
        return store.to_sink(), store.to_ddg()
    return sink, sink.to_ddg()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("compiled", [True, False])
@pytest.mark.parametrize("spill", [False, True])
def test_production_matches_reference(seed, compiled, spill, tmp_path):
    """Property: on every random kernel, the production rows, DDG and
    Larus iteration labels equal the reference oracle's, column for
    column — full traces, one-instance windows and all-instance
    windows; in RAM and spilled; trace-replay compiled and stepped."""
    module = compile_source(random_kernel(seed))
    loop_name = "red" if seed % 2 else ("outer" if seed % 4 == 0
                                        else "innr")
    info = module.loop_by_name(loop_name)
    cases = [(None, None), (info.loop_id, {0}), (info.loop_id, {1}),
             (info.loop_id, None)]
    for i, (loop, instances) in enumerate(cases):
        ref = reference.record(module, loop=loop, instances=instances)
        spill_dir = str(tmp_path / f"s{i}") if spill else None
        sink, ddg = _production_window(module, loop, instances, compiled,
                                       spill_dir)
        assert column_fields(sink) == reference_fields(ref)
        assert_ddgs_identical(ddg, walk_ddg(ref.records))
        assert (sink.node_iterations(info.loop_id)
                == reference.node_iterations(ref.records, info.loop_id))
    windowed, _ = windowed_loop_ddg(module, info.loop_id, loop_name,
                                    compile_loops=compiled,
                                    compile_threshold=2,
                                    spill_dir=spill_dir, segment_rows=8)
    assert_ddgs_identical(
        windowed,
        walk_ddg(reference.record(module, loop=info.loop_id,
                                  instances={0}).records))
