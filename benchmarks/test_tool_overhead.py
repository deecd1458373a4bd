"""Tool-cost measurements (paper §4.1, "Overhead" discussion).

The paper reports instrumentation overhead of 2-3 orders of magnitude
and DDG analysis cost of "tens to hundreds of microseconds per DDG
node".  This bench measures the analogous quantities for this
implementation on the production path: the slowdown of a traced run
(the per-loop re-run into a :class:`ColumnarLoopSink`, which every
analysis makes) over a plain run (the profile run), and the per-node
cost of the fused DDG build + Algorithm 1 + stride pipeline.  These are
real microbenchmarks (multiple rounds).
"""

import time

from repro.analysis.metrics import loop_metrics
from repro.ddg import build_ddg
from repro.frontend import compile_source
from repro.interp import Interpreter, run_and_trace
from repro.trace.columnar import ColumnarLoopSink

from benchmarks.conftest import write_result

SRC = """
double A[64];
double B[64];

int main() {
  int i, r;
  hot: for (r = 0; r < 40; r++) {
    for (i = 0; i < 64; i++) {
      A[i] = A[i] * 0.999 + B[i] * 0.5;
    }
  }
  return 0;
}
"""

#: Alternating plain/traced runs behind the slowdown figure (best of).
SLOWDOWN_ROUNDS = 7


def _plain(module):
    Interpreter(module).run()


def _traced(module, loop_id):
    Interpreter(module, sink=ColumnarLoopSink(loop_id, {0})).run()


def _elapsed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_plain_execution(benchmark):
    module = compile_source(SRC)
    benchmark(_plain, module)


def test_traced_execution(benchmark):
    module = compile_source(SRC)
    benchmark(_traced, module, module.loop_by_name("hot").loop_id)


def test_analysis_cost_per_node(benchmark, results_dir):
    module = compile_source(SRC)
    loop = module.loop_by_name("hot")
    window = run_and_trace(module, loop=loop.loop_id, instances={0})

    def analyze():
        ddg = build_ddg(window)
        return loop_metrics(ddg, module, "hot"), len(ddg)

    (report, nodes) = benchmark(analyze)
    per_node_us = (
        benchmark.stats.stats.mean * 1e6 / nodes
        if nodes
        else float("nan")
    )
    plain_s = traced_s = float("inf")
    for _ in range(SLOWDOWN_ROUNDS):
        plain_s = min(plain_s, _elapsed(_plain, module))
        traced_s = min(traced_s, _elapsed(_traced, module, loop.loop_id))
    write_result(
        results_dir,
        "tool_overhead.txt",
        (
            f"plain run (profile run, compiled kernels): "
            f"{plain_s * 1e3:.2f} ms\n"
            f"traced run (ColumnarLoopSink re-run): "
            f"{traced_s * 1e3:.2f} ms\n"
            f"tracing slowdown: {traced_s / plain_s:.2f}x "
            f"(best of {SLOWDOWN_ROUNDS}, paper: 100-1000x over native)\n"
            f"DDG nodes analyzed: {nodes}\n"
            f"analysis cost: {per_node_us:.2f} us/node "
            f"(paper: tens to hundreds of us per node on 2012 hardware)\n"
        ),
    )
    assert report.total_candidate_ops > 0
