"""Dynamic execution traces: records, containers, sinks, segment stores."""

from repro.trace.events import DynInstr, MARKER_ENTER, MARKER_NEXT, MARKER_EXIT
from repro.trace.trace import Trace, LoopSpan
from repro.trace.sinks import RecordingSink, LoopWindowSink
from repro.trace.columnar import ColumnarLoopSink, ColumnarSink, ColumnarTrace
from repro.trace.store import (
    DEFAULT_SEGMENT_ROWS,
    SegmentedLoopSink,
    SegmentedSink,
    SegmentStore,
    StoredTrace,
    open_store,
)

__all__ = [
    "DynInstr",
    "MARKER_ENTER",
    "MARKER_NEXT",
    "MARKER_EXIT",
    "Trace",
    "LoopSpan",
    "RecordingSink",
    "LoopWindowSink",
    "ColumnarSink",
    "ColumnarLoopSink",
    "ColumnarTrace",
    "DEFAULT_SEGMENT_ROWS",
    "SegmentedSink",
    "SegmentedLoopSink",
    "SegmentStore",
    "StoredTrace",
    "open_store",
]
