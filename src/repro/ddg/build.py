"""DDG construction from a recorded trace window.

Every non-marker row of the window becomes a node; its recorded
producer node ids become predecessor edges when the producer is inside
the window (dependences on values produced before the window — e.g.
data initialized outside the analyzed loop — simply have no edge,
matching the paper's per-loop subtrace analysis).

The window is either an in-RAM columnar sink, whose
:meth:`~repro.trace.columnar.ColumnarSink.to_ddg` packs the CSR DDG in
a few vectorized passes, or a trace store on disk, which
:meth:`~repro.trace.store.SegmentStore.to_ddg` streams segment by
segment."""

from __future__ import annotations

from repro.ddg.graph import DDG
from repro.obs import get_telemetry
from repro.trace.columnar import ColumnarSink


def build_ddg(window, tel=None) -> DDG:
    """The DDG of a recorded window: a columnar sink or a segment store
    (as :func:`~repro.interp.run_and_trace` returns them)."""
    if tel is None:
        tel = get_telemetry()
    if isinstance(window, ColumnarSink):
        with tel.span("ddg.build"):
            ddg = window.to_ddg()
    else:
        ddg = window.to_ddg(tel=tel)  # the store times its own stream
    if tel.enabled:
        tel.count("ddg.nodes", len(ddg.sids))
        tel.count("ddg.edges", len(ddg.pred_indices))
    return ddg
