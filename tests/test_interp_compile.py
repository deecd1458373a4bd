"""Trace-replay compilation (:mod:`repro.interp.compile`).

The contract under test is *bit-identity*: with the compiler on, every
observable artifact — trace columns, trace-store bytes, DDG, sink
stats, loop reports, profile counts, fuel accounting — must equal the
step-interpreter run exactly, in both the in-RAM and spilled trace
stores.  On top of that: kernel lifecycle (hotness threshold, caching,
rejection, retirement), mid-batch deoptimization, and telemetry.
"""

import random

import pytest

from repro.analysis.pipeline import analyze_program
from repro.errors import FuelExhaustedError
from repro.frontend import compile_source
from repro.interp.compile import REJECTED, LoopKernel, TraceCompiler
from repro.interp.interpreter import Interpreter, run_and_trace
from repro.obs import Telemetry, use_telemetry
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink

from tests.reference import column_fields

STENCIL = """
float A[64]; float B[64]; float C[64];
int main() {
    int i; int r;
    for (i = 0; i < 64; i = i + 1) {
        A[i] = i * 1.5; B[i] = i - 3.0;
    }
    for (r = 0; r < 5; r = r + 1) {
        for (i = 0; i < 64; i = i + 1) {
            C[i] = C[i] + A[i] * B[i] - C[i] * 0.25;
        }
    }
    return i + r;
}
"""

BRANCHY = """
float A[64]; float C[64]; int K[64];
int main() {
    int i; int r; float acc;
    for (i = 0; i < 64; i = i + 1) { A[i] = i * 1.5; K[i] = i - 32; }
    acc = 0.0;
    for (r = 0; r < 6; r = r + 1) {
        for (i = 0; i < 64; i = i + 1) {
            if (K[i] < 0) { C[i] = A[i] * 2.0; }
            else { C[i] = A[i] - acc; }
            acc = acc + C[i];
        }
    }
    return r;
}
"""

REDUCTION = """
double A[96]; double total;
int main() {
    int i; double s;
    for (i = 0; i < 96; i = i + 1) { A[i] = (double)i * 0.5; }
    s = 0.0;
    for (i = 0; i < 96; i = i + 1) { s = s + A[i] * A[i]; }
    total = s;
    return 0;
}
"""


def _cols(sink):
    sink._flush_sparse()
    return (sink.sids, sink.opcodes, list(sink.dep_counts), sink.dep_flat,
            sink.runs, sink.loop_breaks, sink.marker_rows, sink.addr_map,
            sink.mem_map, sink.store_map)


def _run(src, compile_loops, sink_factory=ColumnarSink, threshold=4,
         fuel=500_000_000):
    module = compile_source(src)
    sink = sink_factory()
    interp = Interpreter(module, sink=sink, fuel=fuel,
                         compile_loops=compile_loops,
                         compile_threshold=threshold)
    err = None
    try:
        rv = interp.run("main", ())
    except FuelExhaustedError as exc:
        rv, err = None, str(exc)
    return rv, interp, sink, err


class TestBitIdentity:
    @pytest.mark.parametrize("src", [STENCIL, BRANCHY, REDUCTION],
                             ids=["stencil", "branchy", "reduction"])
    def test_columns_and_counters_match_step_run(self, src):
        rv0, i0, s0, _ = _run(src, False)
        rv1, i1, s1, _ = _run(src, True)
        assert rv0 == rv1
        assert i0.executed_instructions == i1.executed_instructions
        assert i0.op_counts == i1.op_counts
        assert i0.loop_iter_hist == i1.loop_iter_hist
        assert _cols(s0) == _cols(s1)
        assert s0.stats() == s1.stats()
        assert any(isinstance(k, LoopKernel)
                   for k in i1._compiler.kernels.values())

    def test_ddg_identical_before_any_flush(self):
        # to_ddg straight after the run exercises the vectorized
        # deferred-run scatter (no dict materialization ever happens).
        _, _, s0, _ = _run(STENCIL, False)
        _, _, s1, _ = _run(STENCIL, True)
        d0, d1 = s0.to_ddg(), s1.to_ddg()
        assert d0.sids == d1.sids
        assert d0.opcodes == d1.opcodes
        assert d0.addrs == d1.addrs
        assert d0.mem_addrs == d1.mem_addrs
        assert d0.store_addrs == d1.store_addrs
        assert list(d0.pred_indices) == list(d1.pred_indices)
        assert list(d0.pred_offsets) == list(d1.pred_offsets)
        # Runs must survive the scatter: a second build and a flush of
        # the deferred runs into the maps both still see every entry.
        d2 = s1.to_ddg()
        assert d2.addrs == d1.addrs and d2.mem_addrs == d1.mem_addrs
        assert column_fields(s1) == column_fields(s0)

    def test_serialized_trace_bytes_identical(self, tmp_path):
        # What ``vectra trace`` writes: the manifest and every segment
        # file byte for byte, compiled vs ``--no-compile``.
        stores = []
        for sub, compiled in (("step", False), ("comp", True)):
            path = tmp_path / sub
            run_and_trace(compile_source(BRANCHY), compile_loops=compiled,
                          compile_threshold=4, spill_dir=str(path))
            stores.append({f.name: f.read_bytes() for f in path.iterdir()})
        step, comp = stores
        assert "MANIFEST.json" in step
        assert any(name.endswith(".vseg") for name in step)
        assert step == comp

    def test_windowed_sink_identical(self):
        _, i0, s0, _ = _run(BRANCHY, False,
                            lambda: ColumnarLoopSink(2, {1, 3}))
        _, i1, s1, _ = _run(BRANCHY, True,
                            lambda: ColumnarLoopSink(2, {1, 3}))
        assert s0.spans_recorded == s1.spans_recorded == 2
        assert _cols(s0) == _cols(s1)
        assert i0.op_counts == i1.op_counts

    def test_spilled_store_identical(self, tmp_path):
        from repro.trace.store import SegmentedSink

        def seg(sub):
            d = tmp_path / sub
            d.mkdir()
            return lambda: SegmentedSink(str(d), segment_rows=128)

        _, _, sa, _ = _run(BRANCHY, False, seg("step"))
        _, _, sb, _ = _run(BRANCHY, True, seg("comp"))
        sta, stb = sa.finish(), sb.finish()
        ma, mb = dict(sta.manifest), dict(stb.manifest)
        assert ma["segments"] == mb["segments"]
        da, db = sta.to_ddg(), stb.to_ddg()
        assert da.sids == db.sids
        assert list(da.pred_indices) == list(db.pred_indices)
        assert list(da.store_addrs) == list(db.store_addrs)
        assert list(da.mem_addrs) == list(db.mem_addrs)


class TestFuelAccounting:
    def test_exhaustion_at_identical_record_index(self):
        base = _run(BRANCHY, False)[1].executed_instructions
        for fuel in (1500, 1501, 1502, base - 1, base):
            _, ia, sa, ea = _run(BRANCHY, False, fuel=fuel)
            _, ib, sb, eb = _run(BRANCHY, True, fuel=fuel)
            assert (ea is None) == (eb is None), fuel
            assert ia.executed_instructions == ib.executed_instructions
            assert _cols(sa) == _cols(sb), f"fuel={fuel}"
            assert ia.op_counts == ib.op_counts


class TestKernelLifecycle:
    def test_threshold_gates_compilation(self):
        _, interp, _, _ = _run(STENCIL, True, threshold=10_000)
        assert not any(isinstance(k, LoopKernel)
                       for k in interp._compiler.kernels.values())
        _, interp, _, _ = _run(STENCIL, True, threshold=4)
        kernels = [k for k in interp._compiler.kernels.values()
                   if isinstance(k, LoopKernel)]
        assert kernels
        # Kernels are cached and re-dispatched, not rebuilt per batch.
        assert all(k.calls >= 1 for k in kernels)

    def test_loop_with_call_rejected(self):
        src = """
float A[64];
float f(float x) { return x * 2.0; }
int main() {
    int i; int r;
    for (r = 0; r < 4; r = r + 1) {
        for (i = 0; i < 64; i = i + 1) { A[i] = f(A[i] + 1.0); }
    }
    return 0;
}
"""
        rv0, i0, s0, _ = _run(src, False)
        rv1, i1, s1, _ = _run(src, True)
        assert REJECTED in i1._compiler.kernels.values()
        assert _cols(s0) == _cols(s1)

    def test_short_trip_nested_loops_both_end_rejected(self):
        # The outer loop records a nested LOOP_ENTER and is permanently
        # rejected. The inner 2-trip loop compiles (its recording spans
        # the two backedges of one entry) but every dispatch finds no
        # room to batch, so usefulness retirement rejects it too — the
        # compiler must give up on both rather than re-record forever,
        # and the trace must stay bit-identical throughout.
        src = """
float A[8];
int main() {
    int i; int r;
    for (r = 0; r < 64; r = r + 1) {
        for (i = 0; i < 2; i = i + 1) { A[i] = A[i] + 1.0; }
    }
    return 0;
}
"""
        _, i0, s0, _ = _run(src, False)
        _, i1, s1, _ = _run(src, True)
        assert _cols(s0) == _cols(s1)
        comp = i1._compiler
        rejected = [lid for lid, k in comp.kernels.items()
                    if k is REJECTED]
        assert sorted(rejected) == [0, 1]
        # The straddled first recording is counted as a failure strike.
        assert comp._fails and max(comp._fails.values()) >= 1

    def test_profile_run_uses_non_recording_kernel(self):
        module = compile_source(STENCIL)
        interp = Interpreter(module, sink=None, compile_threshold=4)
        interp.run("main", ())
        comp = interp._compiler
        assert isinstance(comp, TraceCompiler)
        kernels = [k for k in comp.kernels.values()
                   if isinstance(k, LoopKernel)]
        assert kernels
        # op_counts must match a compiler-off profile run exactly.
        plain = Interpreter(module, sink=None, compile_loops=False)
        plain.run("main", ())
        assert interp.op_counts == plain.op_counts
        assert (interp.executed_instructions
                == plain.executed_instructions)


class TestTelemetry:
    def test_compile_counters_recorded(self):
        tel = Telemetry()
        module = compile_source(STENCIL)
        with use_telemetry(tel):
            interp = Interpreter(module, sink=ColumnarSink(),
                                 compile_threshold=4)
            interp.run("main", ())
        assert tel.counters["interp.compile.kernels"] >= 1
        assert tel.counters["interp.compile.batches"] >= 1
        assert tel.counters["interp.compile.iterations"] > 0
        assert "interp.compile.build" in tel.spans

    def test_pipeline_reports_identical_with_and_without_compiler(self):
        r0 = analyze_program(STENCIL, benchmark="b", compile_loops=False)
        r1 = analyze_program(STENCIL, benchmark="b", compile_loops=True,
                             compile_threshold=4)
        assert r0.table() == r1.table()


class TestPropertyRandomKernels:
    """Randomized loop bodies — stencils, reductions, relaxations,
    data-dependent branches forcing mid-batch deopts — must stay
    bit-identical between step and compiled runs."""

    OPS = ["+", "-", "*"]

    def _gen(self, rng):
        n = rng.choice([48, 64, 80])
        reps = rng.randint(3, 6)
        body = []
        arrays = ["A", "B", "C"]
        for _ in range(rng.randint(1, 3)):
            dst = rng.choice(arrays)
            a, b = rng.choice(arrays), rng.choice(arrays)
            op1, op2 = rng.choice(self.OPS), rng.choice(self.OPS)
            c = rng.choice(["0.5", "1.25", "2.0"])
            body.append(f"{dst}[i] = {a}[i] {op1} {b}[i] {op2} {c};")
        if rng.random() < 0.5:
            body.append("s = s + A[i] * B[i];")      # reduction
        if rng.random() < 0.5:
            body.append("if (K[i] < 0) { C[i] = C[i] + s; } "
                        "else { C[i] = C[i] - 1.0; }")
        if rng.random() < 0.3:
            body.append("C[i] = C[i] * 0.5 + s * 0.25;")   # relaxation
        inner = "\n            ".join(body)
        return f"""
float A[{n}]; float B[{n}]; float C[{n}]; int K[{n}];
int main() {{
    int i; int r; float s;
    for (i = 0; i < {n}; i = i + 1) {{
        A[i] = i * 1.5; B[i] = i - 7.0; K[i] = i - {n // 2};
    }}
    s = 0.0;
    for (r = 0; r < {reps}; r = r + 1) {{
        for (i = 0; i < {n}; i = i + 1) {{
            {inner}
        }}
    }}
    return r;
}}
"""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_kernel_bit_identity(self, seed):
        src = self._gen(random.Random(seed))
        rv0, i0, s0, _ = _run(src, False)
        rv1, i1, s1, _ = _run(src, True)
        assert rv0 == rv1
        assert i0.op_counts == i1.op_counts
        assert _cols(s0) == _cols(s1)
        assert s0.stats() == s1.stats()
        d0, d1 = s0.to_ddg(), s1.to_ddg()
        assert d0.sids == d1.sids
        assert d0.addrs == d1.addrs
        assert d0.mem_addrs == d1.mem_addrs
        assert d0.store_addrs == d1.store_addrs
        assert list(d0.pred_indices) == list(d1.pred_indices)


class TestLifecycleInstants:
    """Kernel lifecycle events land on the timeline (and the live bus)
    so a watcher can see compilation happen during a run."""

    def _instants(self, src, threshold=4):
        from repro.obs import EventLog

        log = EventLog(capacity=4096)
        tel = Telemetry(events=log)
        module = compile_source(src)
        with use_telemetry(tel):
            interp = Interpreter(module, sink=ColumnarSink(),
                                 compile_threshold=threshold)
            interp.run("main", ())
        return [e for e in log.snapshot()
                if e["name"].startswith("compile.kernel.")], interp

    def test_recorded_instant_carries_kernel_shape(self):
        instants, interp = self._instants(STENCIL)
        recorded = [e for e in instants
                    if e["name"] == "compile.kernel.recorded"]
        assert recorded
        args = recorded[0]["args"]
        assert args["loop"] in interp._compiler.kernels
        assert args["records_per_iter"] > 0

    def test_rejected_instant_names_reason(self):
        src = """
float A[64];
float f(float x) { return x * 2.0; }
int main() {
    int i; int r;
    for (r = 0; r < 4; r = r + 1) {
        for (i = 0; i < 64; i = i + 1) { A[i] = f(A[i] + 1.0); }
    }
    return 0;
}
"""
        instants, _ = self._instants(src)
        rejected = [e for e in instants
                    if e["name"] == "compile.kernel.rejected"]
        assert rejected
        assert all("reason" in e["args"] for e in rejected)
        assert any("call in body" in e["args"]["reason"] for e in rejected)

    def test_retirement_emits_retired_instant(self):
        src = """
float A[8];
int main() {
    int i; int r;
    for (r = 0; r < 64; r = r + 1) {
        for (i = 0; i < 2; i = i + 1) { A[i] = A[i] + 1.0; }
    }
    return 0;
}
"""
        instants, interp = self._instants(src)
        retired = [e for e in instants
                   if e["name"] == "compile.kernel.retired"]
        assert retired
        assert REJECTED in interp._compiler.kernels.values()

    def test_deopt_emits_instant_with_position(self):
        instants, _ = self._instants(BRANCHY)
        deopts = [e for e in instants if e["name"] == "compile.kernel.deopt"]
        assert deopts
        for e in deopts:
            assert e["args"]["at"] >= 0
            assert e["args"]["iterations"] >= 0

    def test_status_bus_counts_kernels_and_batches(self):
        from repro.obs.live import StatusBus, use_status_bus

        bus = StatusBus()
        module = compile_source(STENCIL)
        with use_status_bus(bus):
            interp = Interpreter(module, sink=ColumnarSink(),
                                 compile_threshold=4)
            interp.run("main", ())
        assert bus.counters["kernels"] >= 1
        assert bus.counters["batches"] >= 1
        # off state: no live counters touched
        plain = Interpreter(module, sink=ColumnarSink(),
                            compile_threshold=4)
        plain.run("main", ())
        assert interp.executed_instructions == plain.executed_instructions
