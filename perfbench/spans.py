"""Span recorder for the benchmark's traced run.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    PERFBENCH_T0_NS=<spawn ns> python3 perfbench/spans.py OUT -- <vectra args>

The process runs one ``vectra`` invocation in-process through
``repro.tools.cli.main`` and records a span around every call into the
public functions listed in :data:`TARGETS`.  Nothing under ``src/`` is
edited: an import hook wraps each listed attribute right after its module
finishes executing, at the module attribute the call site looks up (a
``from x import f`` binding is wrapped in the importing module too).

A span is ``[name, start_ns, end_ns, parent_index]`` on the system-wide
monotonic clock, so the harness can line spans up with the spawn time it
passes in ``PERFBENCH_T0_NS``.  The first span, ``tools.startup``, runs
from the spawn until this file starts executing; ``unattributed.main``
covers ``cli.main``, whose own time (code outside every wrapped call)
belongs to no layer.  Every import is a ``tools.import`` span (the
outermost one only: a module's own imports count under it), wherever it
happens, so the lazy imports inside the layers are ``tools`` time too.
``obs.import`` times the execution of the ``repro.obs`` package,
submodules and third-party imports included.

Spans and counters stay in memory and are written as one JSON document to
``OUT`` when the invocation ends.  Process-pool workers (forked, so they
inherit the wrappers) drop the parent's open spans when a task starts and
append their own as one JSON line per task to ``OUT.workers``.
"""

import os
import sys
import time

_clock = time.monotonic_ns

#: module -> [(attribute path, span name)].  Names are ``<layer>.<what>``;
#: the layer is the ``repro`` subpackage the function lives in.
TARGETS = {
    "repro.obs": [],
    "repro.workloads.base": [
        ("Workload.source", "workloads.source"),
        ("analyze_workload", "workloads.analyze"),
        ("parse_source", "frontend.parse"),
        ("lower", "frontend.lower"),
        ("verify_module", "frontend.lower"),
        ("analyze_program_loops", "vectorizer.autovec"),
        ("percent_packed", "vectorizer.packed"),
        ("profile_loops", "profiler.hotloops"),
        ("run_loop_analyses", "analysis.pool"),
    ],
    "repro.frontend.driver": [
        ("compile_source", "frontend.compile"),
        ("parse_source", "frontend.parse"),
        ("lower", "frontend.lower"),
        ("verify_module", "frontend.lower"),
    ],
    "repro.analysis.pipeline": [
        ("compile_source", "frontend.compile"),
        ("parse_source", "frontend.parse"),
        ("lower", "frontend.lower"),
        ("verify_module", "frontend.lower"),
        ("analyze_program_loops", "vectorizer.autovec"),
        ("percent_packed", "vectorizer.packed"),
        ("profile_loops", "profiler.hotloops"),
        ("hot_loops", "profiler.hotloops"),
        ("run_loop_analyses", "analysis.pool"),
        ("analyze_loop", "analysis.loop"),
        ("windowed_loop_ddg", "analysis.windowed"),
        ("loop_metrics", "analysis.loop_metrics"),
        ("_loop_worker", "analysis.worker"),
    ],
    "repro.analysis.metrics": [
        ("loop_metrics", "analysis.loop_metrics"),
        ("batched_parallel_partitions", "analysis.algorithm1"),
        ("unit_stride_subpartitions", "analysis.stride_unit"),
        ("nonunit_stride_subpartitions", "analysis.stride_nonunit"),
    ],
    "repro.interp.interpreter": [
        ("Interpreter.__init__", "interp.init"),
        ("Interpreter.run", "interp.run"),
    ],
    "repro.interp": [("run_and_trace", "interp.run_and_trace")],
    "repro.interp.compile": [("TraceCompiler.build", "interp.compile_build")],
    "repro.trace.columnar": [("ColumnarSink.to_ddg", "trace.to_ddg")],
    "repro.trace.store": [
        ("SegmentedSink.finish", "trace.finish"),
        ("SegmentStore.to_ddg", "trace.to_ddg"),
        ("_segment_worker", "trace.segment_worker"),
    ],
    "repro.trace.serialize": [
        ("save_trace", "trace.save"),
        ("load_trace", "trace.load"),
    ],
    "repro.ddg": [("build_ddg", "ddg.build")],
}

#: Pool entry points: a task in a forked worker starts a fresh span tree.
WORKER_SPANS = {"analysis.worker", "trace.segment_worker"}
#: Spans whose result is a DDG; its size is counted.
DDG_SPANS = {"trace.to_ddg", "ddg.build"}
IMPORT_SPANS = {"tools.import", "obs.import"}


class Recorder:
    """Spans and counters of one process."""

    def __init__(self, out: str):
        self.out = out
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counts = {}

    def add(self, name, start, end):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent])

    def open(self, name):
        self.spans.append([name, _clock(), 0, self.stack[-1]
                           if self.stack else -1])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = _clock()

    def in_import(self):
        return (bool(self.stack)
                and self.spans[self.stack[-1]][0] in IMPORT_SPANS)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def begin_task(self):
        """In a forked worker, forget what the parent had recorded."""
        if os.getpid() != self.pid:
            self.spans, self.stack, self.counts = [], [], {}

    def end_task(self):
        if os.getpid() == self.pid:
            return
        import json

        line = json.dumps({"pid": os.getpid(), "spans": self.spans,
                           "counts": self.counts}) + "\n"
        # One O_APPEND write per task, so concurrent workers' lines
        # cannot interleave.
        fd = os.open(self.out + ".workers",
                     os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
        self.spans, self.stack, self.counts = [], [], {}

    def write(self, modules_loaded: int):
        import json

        with open(self.out, "w") as fh:
            json.dump({"pid": self.pid, "spans": self.spans,
                       "counts": self.counts,
                       "modules_loaded": modules_loaded}, fh)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name):
        import functools

        rec = self
        if name == "interp.run":
            @functools.wraps(fn)
            def wrapper(interp, *args, **kwargs):
                sink = interp.sink
                rec.open("interp.profile" if sink is None
                         else "interp.rerun")
                try:
                    return fn(interp, *args, **kwargs)
                finally:
                    rec.close()
                    rec.count("interp.runs")
                    rec.count("interp.instructions",
                              interp.executed_instructions)
                    if hasattr(sink, "stats"):
                        rec.count("trace.records_kept",
                                  sink.stats()["rows"])
                    elif sink is not None:
                        rec.count("trace.records_kept", len(sink.records))
        elif name in WORKER_SPANS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.begin_task()
                rec.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close()
                    rec.end_task()
        elif name in DDG_SPANS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.open(name)
                try:
                    ddg = fn(*args, **kwargs)
                finally:
                    rec.close()
                rec.count("ddg.nodes", len(ddg.sids))
                rec.count("ddg.edges", len(ddg.pred_indices))
                return ddg
        else:
            counter = ("interp.compile_builds"
                       if name == "interp.compile_build" else None)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                rec.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    rec.close()
                    if counter:
                        rec.count(counter)
        wrapper.perfbench_span = name
        return wrapper

    def patch(self, module):
        for path, name in TARGETS[module.__name__]:
            owner_path, _, attr = path.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            fn = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            if getattr(fn, "perfbench_span", None) is None:
                setattr(owner, attr, self.wrap(fn, name))


class PatchFinder:
    """Meta-path finder that times every import's module execution and
    patches :data:`TARGETS` modules once their code has run."""

    def __init__(self, rec: Recorder):
        self.rec = rec

    def find_spec(self, name, path, target=None):
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        # Built-in and frozen modules share one loader class; leave them be.
        if loader is None or isinstance(loader, type):
            return spec
        exec_module = loader.exec_module
        rec = self.rec
        span = "obs.import" if name == "repro.obs" else "tools.import"

        def exec_and_patch(module):
            if span == "obs.import" or not rec.in_import():
                rec.open(span)
                try:
                    exec_module(module)
                finally:
                    rec.close()
            else:
                exec_module(module)
            if name in TARGETS:
                rec.patch(module)

        loader.exec_module = exec_and_patch
        return spec


def main() -> int:
    booted = _clock()
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: spans.py OUT -- <vectra arguments>", file=sys.stderr)
        return 2
    rec = Recorder(sys.argv[1])
    rec.add("tools.startup", int(os.environ["PERFBENCH_T0_NS"]), booted)
    sys.meta_path.insert(0, PatchFinder(rec))
    code = 1
    try:
        rec.open("tools.import")
        try:
            from repro.tools import cli
        finally:
            rec.close()
        rec.open("unattributed.main")
        try:
            code = cli.main(sys.argv[3:])
        finally:
            rec.close()
    finally:
        modules_loaded = len(sys.modules)
        sys.stdout.flush()
        rec.write(modules_loaded)
    return code


if __name__ == "__main__":
    sys.exit(main())
