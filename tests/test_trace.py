"""Trace collection tests: rows, loop markers, windows, iterations."""

import pytest

from repro.analysis.pipeline import windowed_loop_ddg
from repro.errors import AnalysisError
from repro.frontend import compile_source
from repro.interp import run_and_trace
from repro.ir.instructions import FP_ARITH_OPCODES, Opcode
from repro.trace.events import MARKER_ENTER, MARKER_EXIT

from tests.reference import column_fields

SRC = """
double A[6];

int main() {
  int i;
  outer: for (i = 0; i < 3; i++) {
    int j;
    inner: for (j = 0; j < 2; j++) {
      A[i * 2 + j] = (double)(i + j) * 1.5;
    }
  }
  return 0;
}
"""


@pytest.fixture
def module():
    return compile_source(SRC)


@pytest.fixture
def trace(module):
    return run_and_trace(module)


#: Column-field positions (see :func:`tests.reference.column_fields`).
NODE, SID, OP, LOOP, DEPS, ADDRS, ADDR, STORE = range(8)

_FP = frozenset(int(op) for op in FP_ARITH_OPCODES)


def candidate_rows(sink):
    """Rows of candidate (FP arithmetic) instructions."""
    return [r for r in column_fields(sink) if r[OP] in _FP]


def loop_entries(sink, loop_id):
    """Rows of the enter markers of ``loop_id``: one per loop instance."""
    rows = column_fields(sink)
    return [m for m in sink.marker_rows
            if rows[m][OP] == MARKER_ENTER and rows[m][LOOP] == loop_id]


class TestRecords:
    def test_node_ids_strictly_increase(self, trace):
        nodes = [r[NODE] for r in column_fields(trace)]
        assert nodes == sorted(nodes)
        assert len(set(nodes)) == len(nodes)

    def test_deps_point_backwards(self, trace):
        rows = column_fields(trace)
        by_node = {r[NODE] for r in rows}
        for row in rows:
            for dep in row[DEPS]:
                if dep >= 0 and dep in by_node:
                    assert dep < row[NODE]

    def test_load_store_carry_addresses(self, trace):
        rows = column_fields(trace)
        loads = [r for r in rows if r[OP] == int(Opcode.LOAD)]
        stores = [r for r in rows if r[OP] == int(Opcode.STORE)]
        assert loads and stores
        assert all(r[ADDR] > 0 for r in loads)
        assert all(r[ADDR] > 0 for r in stores)

    def test_candidate_records_have_access_tuples(self, trace):
        cands = candidate_rows(trace)
        assert cands
        for row in cands:
            assert len(row[ADDRS]) == 2
            # Result of each A[...] = ... * 1.5 is stored to the array.
            assert row[STORE] > 0

    def test_store_addr_strides_by_element(self, trace):
        addrs = [r[STORE] for r in candidate_rows(trace)]
        deltas = [b - a for a, b in zip(addrs, addrs[1:])]
        assert all(d == 8 for d in deltas)


class TestLoopStructure:
    def test_markers_balanced(self, trace):
        depth = 0
        for m in trace.marker_rows:
            if trace.opcodes[m] == MARKER_ENTER:
                depth += 1
            elif trace.opcodes[m] == MARKER_EXIT:
                depth -= 1
            assert depth >= 0
        assert depth == 0

    def test_spans(self, module, trace):
        outer = module.loop_by_name("outer")
        inner = module.loop_by_name("inner")
        assert len(loop_entries(trace, outer.loop_id)) == 1
        assert len(loop_entries(trace, inner.loop_id)) == 3

    def test_subtrace_covers_one_instance(self, module):
        inner = module.loop_by_name("inner")
        window = run_and_trace(module, loop=inner.loop_id, instances={1})
        assert window.opcodes[0] == MARKER_ENTER
        assert window.opcodes[-1] == MARKER_EXIT
        assert len(candidate_rows(window)) == 2  # two iterations, one fmul each

    def test_subtrace_missing_instance_raises(self, module):
        inner = module.loop_by_name("inner")
        with pytest.raises(AnalysisError, match="instance 99 never executed"):
            run_and_trace(module, loop=inner.loop_id, instances={99})
        with pytest.raises(AnalysisError, match="instance 99 never executed"):
            windowed_loop_ddg(module, inner.loop_id, "inner", instance=99)

    def test_iteration_numbers(self, module):
        outer = module.loop_by_name("outer")
        window = run_and_trace(module, loop=outer.loop_id, instances={0})
        iters = window.node_iterations(outer.loop_id)
        assert len(iters) == len(window.to_ddg())
        assert min(iters) >= 0
        assert max(iters) == 3  # 3 body iterations + the failing check
        # Iteration labels are monotonically non-decreasing.
        assert all(a <= b for a, b in zip(iters, iters[1:]))


class TestWindowSink:
    def test_window_restricts_to_loop(self, module):
        inner = module.loop_by_name("inner")
        window = run_and_trace(module, loop=inner.loop_id)
        # 3 instances recorded back to back.
        assert window.spans_recorded == 3
        assert len(loop_entries(window, inner.loop_id)) == 3
        assert all(r[LOOP] == inner.loop_id for r in column_fields(window))

    def test_window_single_instance(self, module):
        inner = module.loop_by_name("inner")
        window = run_and_trace(module, loop=inner.loop_id, instances={2})
        assert window.spans_recorded == 1
        assert len(loop_entries(window, inner.loop_id)) == 1
        assert len(candidate_rows(window)) == 2

    def test_window_smaller_than_full_trace(self, module):
        full = run_and_trace(module)
        window = run_and_trace(module, loop=module.loop_by_name("inner").loop_id,
                               instances={0})
        assert len(window) < len(full)
