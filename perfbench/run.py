"""End-to-end benchmark of ``vectra``: the paper's methodology through the CLI.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # every workload
    python3 perfbench/run.py --pin                       # re-pin outputs

A single closed-loop driver starts one ``python -m repro.tools.cli``
process per program (``PYTHONPATH=src``, ``PYTHONHASHSEED=0``), one after
another, and checks each one's stdout byte for byte against the output
pinned in ``perfbench/expected/``.  The seed only permutes the order of the
invocations within a workload.

``--trace 0`` makes a fixed number of passes over the workload
(:data:`PASSES_AT_20S`, scaled by ``--seconds``) and prints the end-to-end
metrics.  Their times are host-normalised.  Other tenants of the host
move its speed by a third or more between runs (user CPU time too, so CPU
time is no refuge), which no number of passes averages away.  So the
driver runs fixed pure-Python work (:class:`HostProbe`) on each CPU
between invocations and set-ups, and divides the run's times by how much
slower than :data:`PROBE_REF_S` that work ran on average.  A time reads as
seconds on a host that runs the probe in :data:`PROBE_REF_S`; the summary
lines also print the raw times and the host factor.
``--trace 1`` makes one pass in which every invocation runs
twice, untraced and under ``perfbench/spans.py``, and prints the per-layer
metrics: each layer's self time, ``unattributed_s`` (the rest of the traced
wall time), the named calls' self times and the work counters.
``LAYERS.json`` maps each per-layer metric to the end-to-end metric and
workload it should move.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary with sample counts and ``failed_frac``.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from array import array
from typing import Dict, List, NamedTuple, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")
SPANS_PY = os.path.join(HERE, "spans.py")
TMP_BASE = ".perfbench_tmp"
GOLDEN = os.path.join("tests", "golden_metrics.json")
CLI = "src/repro/tools/cli.py"

SETUP_REPEATS = 5
#: Passes a run makes at --seconds 20, the run length BENCHMARK.json sets;
#: other lengths scale the count (at least one pass).  A fixed count,
#: rather than "until the time is up", keeps the host's momentary speed
#: from choosing how many samples a run takes.  Passes do not average
#: away the host's drift (see the host factor); they steady each
#: invocation's median.  A run takes 14-25 s on a 2-core Xeon VM in its
#: fast state and about half as long again in its slow one.
PASSES_AT_20S = {"paper-suite": 1, "scaled-traces": 3, "out-of-core": 3,
                 "offline-trace": 5}
INVOCATION_TIMEOUT_S = 150
#: After an invocation the run probes the host once per this many seconds
#: of its wall time (at least once), PROBE_SPACING_S apart: the host's
#: speed changes within a second, so spaced probes sample it better.
PROBE_EVERY_S = 1.0
PROBE_SPACING_S = 0.2
#: Time of one probe round on the 2-core Xeon VM the benchmark was defined
#: on, between its fast (about 5.5 ms) and slow (about 9.5 ms) states.
#: Only a scale: any fixed value gives the same ratios between commits.
PROBE_REF_S = 0.007
TRACE_PLACEHOLDER = "<TRACE>"
GENERATED_SOURCE = "pde_solver.c"

#: The 41 registered workloads at this commit, at default parameters.
PAPER_SUITE = [
    "bwaves_block_solver", "bwaves_jacobian", "bwaves_transformed",
    "cactus_leapfrog", "calculix_e_c3d", "calculix_frontmtx",
    "dealii_assembly", "gauss_seidel", "gauss_seidel_split", "gemsfdtd_nft",
    "gemsfdtd_update", "gromacs_inner", "gromacs_ns", "gromacs_transformed",
    "lbm_stream_collide", "leslie3d_flux", "milc_su3mv", "milc_transformed",
    "namd_computelist", "namd_pairlist", "pde_solver", "pde_solver_hoisted",
    "povray_bbox", "soplex_sparse_update", "sphinx3_mgau", "sphinx3_subvq",
    "tonto_integrals", "utdsp_fft_array", "utdsp_fft_pointer",
    "utdsp_fir_array", "utdsp_fir_pointer", "utdsp_iir_array",
    "utdsp_iir_pointer", "utdsp_latnrm_array", "utdsp_latnrm_pointer",
    "utdsp_lmsfir_array", "utdsp_lmsfir_pointer", "utdsp_mult_array",
    "utdsp_mult_pointer", "wrf_solve_em", "zeusmp_advx3",
]

#: (workload, parameters) of the larger programs.
SCALED = [
    ("pde_solver", ["block=24"]),
    ("utdsp_mult_array", ["n=28"]),
    ("gauss_seidel", ["n=48"]),
    ("milc_su3mv", ["sites=192"]),
    ("bwaves_block_solver", ["nx=32", "ny=16"]),
    ("milc_transformed", ["sites=384"]),
]
OUT_OF_CORE = [("utdsp_mult_array", ["n=36"]), ("pde_solver", ["block=24"])]
SPILL_OPTS = ["--segment-rows", "65536", "--jobs", "2"]
WARMUP = ["analyze", "utdsp_fir_array", "--jobs", "1"]

#: Not CPU time: numpy's import starts OpenBLAS threads that spin for a
#: while, and whether they spin on the idle second CPU (adding about 0.15 s
#: of CPU per invocation) or share the program's (adding wall time) is the
#: scheduler's choice, which moved paper-suite's CPU time by 30% between
#: stretches of the same host.  The summary still prints it, raw.
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cli_p50_s", "s"),
              ("cli_p75_s", "s"), ("peak_rss_mb", "MB")]
LAYERS = ["tools", "obs", "workloads", "frontend", "vectorizer", "interp",
          "profiler", "trace", "ddg", "analysis"]
#: Span names recorded by spans.py, and ``unattributed.exit`` (wall time
#: outside every span); each is reported as ``<name>_s``.
SPAN_NAMES = [
    "tools.startup", "tools.import", "unattributed.main",
    "unattributed.exit", "obs.import",
    "workloads.source", "workloads.analyze", "frontend.compile",
    "frontend.parse", "frontend.lower", "vectorizer.autovec",
    "vectorizer.packed", "profiler.hotloops", "interp.init",
    "interp.profile", "interp.rerun", "interp.run_and_trace",
    "interp.compile_build", "trace.to_ddg", "trace.finish",
    "trace.segment_worker", "trace.save", "trace.load", "ddg.build",
    "analysis.pool", "analysis.worker", "analysis.loop",
    "analysis.windowed", "analysis.loop_metrics", "analysis.algorithm1",
    "analysis.stride_unit", "analysis.stride_nonunit",
]
#: The most wall time a traced invocation may spend outside every span:
#: interpreter teardown and reaping after the last span, which average
#: 0.04-0.08 s per invocation on a 2-core Xeon VM.  More means the
#: recorder lost time.
EXIT_TOLERANCE_S = 0.5
COUNTERS = ["interp.runs", "interp.instructions", "interp.compile_builds",
            "trace.records_kept", "ddg.nodes", "ddg.edges"]


class Invocation(NamedTuple):
    argv: List[str]     # vectra arguments; {tmp}: unit dir, {run}: run dir
    expected: str       # stem of the pinned output in expected/
    pin_argv: Optional[List[str]] = None  # the in-RAM run that pins it


def _params(params: List[str]) -> List[str]:
    return [a for p in params for a in ("-p", p)]


def _stem(name: str, params: List[str]) -> str:
    return "-".join([name] + [p.replace("=", "") for p in params])


def workload_units(workload: str) -> List[List[Invocation]]:
    """The workload's units of work; each unit runs its invocations in
    order, and the seed permutes the units."""
    if workload == "paper-suite":
        return [[Invocation(["analyze", n, "--jobs", "1"], n)]
                for n in PAPER_SUITE]
    if workload == "scaled-traces":
        return [[Invocation(["analyze", n] + _params(p) + ["--jobs", "2"],
                            _stem(n, p))] for n, p in SCALED]
    if workload == "out-of-core":
        return [[Invocation(
            ["analyze", n] + _params(p)
            + ["--spill-dir", "{tmp}/spill"] + SPILL_OPTS, _stem(n, p),
            ["analyze", n] + _params(p) + ["--jobs", "2"])]
            for n, p in OUT_OF_CORE]
    if workload == "offline-trace":
        trace = "{tmp}/grid_loop.vtrace"
        return [[
            Invocation(["trace", "pde_solver", "--loop", "grid_loop",
                        "-o", trace], "trace-pde_solver-grid_loop"),
            Invocation(["analyze-trace", trace, "--source",
                        "{run}/" + GENERATED_SOURCE],
                       "analyze_trace-pde_solver-grid_loop"),
        ]]
    raise SystemExit(f"unknown workload {workload!r}")


WORKLOADS = ["paper-suite", "scaled-traces", "out-of-core", "offline-trace"]


# -- running one invocation --------------------------------------------------


class Result(NamedTuple):
    start_ns: int
    end_ns: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env(run_dir: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env.update(PYTHONPATH="src", PYTHONHASHSEED="0",
               TMPDIR=os.path.abspath(run_dir))
    return env


def spawn(cmd: List[str], env: Dict[str, str], out_dir: str,
          extra_env: Optional[Dict[str, str]] = None) -> Result:
    """Run ``cmd`` to completion; wall time from just before spawning
    until it is reaped, CPU and peak RSS from ``wait4`` (which counts the
    children it reaped, so pool workers are included)."""
    out_path = os.path.join(out_dir, "stdout")
    err_path = os.path.join(out_dir, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.monotonic_ns()
        if extra_env is not None:
            env = dict(env, PERFBENCH_T0_NS=str(t0), **extra_env)
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    os.unlink(out_path)
    os.unlink(err_path)
    return Result(t0, end, (end - t0) / 1e9, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


def vectra(argv: List[str]) -> List[str]:
    return [sys.executable, "-m", "repro.tools.cli"] + argv


# -- host-speed probe --------------------------------------------------------


def interp_work(n: int = 8000) -> int:
    """Fixed pure-Python work of the kind the program's own interpreter
    does: dict updates, tuple building, list appends, a sort."""
    table: Dict[int, int] = {}
    items = []
    acc = 0
    for i in range(n):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        items.append((key, i & 63))
        if i & 15 == 0:
            acc += len(str(i))
    items.sort()
    return acc + len(table) + items[-1][0]


class HostProbe:
    """Measures how fast the host runs fixed work, between invocations.

    A round is :func:`interp_work` plus a walk of dependent loads from a
    32 MB array, each at an index computed from the last value read, so
    that it waits for memory as the program's large traces and DDGs do
    (the index sequence, a full-period LCG over the array, resumes where
    the last walk stopped).  A sample runs one round on each CPU this
    process may use, pinned to one at a time: the host slows each virtual
    CPU on its own, as other tenants come and go on the cores under it.
    Samples are wall times, so they include steal (time the host takes a
    core away), which the program's wall time includes too."""

    BITS = 22

    def __init__(self) -> None:
        self.table = array("q", range(1 << self.BITS))
        self.pos = 1
        self.samples: List[float] = []

    def walk(self, steps: int = 10000) -> None:
        table, mask, i = self.table, (1 << self.BITS) - 1, self.pos
        for _ in range(steps):
            i = (table[i] * 2654435761 + 12345) & mask
        self.pos = i

    def sample(self) -> None:
        """Record the mean time of a round over the CPUs."""
        cpus = os.sched_getaffinity(0)
        wall = 0.0
        try:
            for core in sorted(cpus):
                os.sched_setaffinity(0, {core})
                t0 = time.perf_counter()
                interp_work()
                self.walk()
                wall += time.perf_counter() - t0
        finally:
            os.sched_setaffinity(0, cpus)
        self.samples.append(wall / len(cpus))

    def factor(self) -> float:
        """How much slower than :data:`PROBE_REF_S` the host ran, as the
        mean of every sample taken."""
        return statistics.mean(self.samples) / PROBE_REF_S


# -- output checks -----------------------------------------------------------


def expected_output(stem: str) -> str:
    with open(os.path.join(EXPECTED_DIR, stem + ".out"),
              encoding="utf-8") as fh:
        return fh.read()


def normalize(stdout: str, unit_dir: str) -> str:
    """Only the offline trace's temp path varies between runs."""
    return stdout.replace(f"{unit_dir}/grid_loop.vtrace", TRACE_PLACEHOLDER)


def golden_errors(stdout: str, name: str, golden: dict) -> List[str]:
    """Compare printed Table-1 rows with tests/golden_metrics.json (the
    rows print one decimal, the golden file two)."""
    want = golden.get(name)
    if want is None:
        return [f"{name}: not in {GOLDEN}"]
    rows = {}
    for line in stdout.splitlines()[1:]:
        cols = line.split()
        if len(cols) == 9:
            rows[cols[1]] = [float(c.rstrip("%")) for c in cols[3:]]
    errors = []
    if set(rows) != set(want):
        errors.append(f"{name}: loops {sorted(rows)} != {sorted(want)}")
    for loop, vals in rows.items():
        gold = want.get(loop)
        if gold is None:
            continue
        keys = ["packed", "concur", "unit", "unit_sz", "nonunit",
                "nonunit_sz"]
        for key, val in zip(keys, vals):
            if abs(val - gold[key]) > 0.051:
                errors.append(f"{name}/{loop}: {key} {val} != {gold[key]}")
    return errors


# -- a run -------------------------------------------------------------------


class Run:
    """One benchmark run: a fresh temp directory, set-up, timed passes."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.units = workload_units(workload)
        with open(GOLDEN) as fh:
            self.golden = json.load(fh)
        os.makedirs(TMP_BASE, exist_ok=True)
        self.run_dir = tempfile.mkdtemp(prefix="run-", dir=TMP_BASE)
        self.env = child_env(self.run_dir)
        self.unit_seq = 0
        self.errors: List[str] = []
        self.host = HostProbe()

    def close(self) -> None:
        """Remove the run's directory.  Units remove their own directories
        once measured, so anything but the generated sources left in it
        (or beside it) fails the run."""
        leftovers = set(os.listdir(self.run_dir)) - {GENERATED_SOURCE}
        if leftovers:
            self.errors.append(f"left behind in {self.run_dir}: "
                               f"{sorted(leftovers)}")
        shutil.rmtree(self.run_dir, ignore_errors=True)
        if os.path.exists(self.run_dir):
            self.errors.append(f"could not remove {self.run_dir}")
        try:
            os.rmdir(TMP_BASE)
        except OSError:
            leftovers = os.listdir(TMP_BASE)
            if leftovers:
                self.errors.append(f"left behind in {TMP_BASE}: {leftovers}")

    def write_sources(self) -> None:
        """The offline trace is analyzed against the generated source."""
        src = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.workloads import get_workload; "
             "sys.stdout.write(get_workload('pde_solver').source())"],
            env=self.env, check=True, capture_output=True, text=True)
        with open(os.path.join(self.run_dir, GENERATED_SOURCE), "w") as fh:
            fh.write(src.stdout)

    def setup_once(self) -> None:
        """Warm the bytecode cache, write generated sources, and make one
        warm-up invocation."""
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                       env=self.env, check=True, stdout=subprocess.DEVNULL)
        if self.workload == "offline-trace":
            self.write_sources()
        res = spawn(vectra(WARMUP), self.env, self.run_dir)
        if res.code != 0 or res.stdout != expected_output(WARMUP[1]):
            raise SystemExit(f"warm-up invocation failed:\n{res.stderr}")

    def setup(self) -> List[float]:
        """Set up :data:`SETUP_REPEATS` times, sampling the host before
        and after each set-up; returns the set-up times."""
        times = []
        self.host.sample()
        for _ in range(SETUP_REPEATS):
            t0 = time.monotonic()
            self.setup_once()
            times.append(time.monotonic() - t0)
            self.host.sample()
        return times

    def order(self) -> List[List[Invocation]]:
        units = list(self.units)
        self.rng.shuffle(units)
        return units

    def unit_dir(self) -> str:
        self.unit_seq += 1
        path = os.path.join(self.run_dir, f"u{self.unit_seq:05d}")
        os.mkdir(path)
        return path

    def argv(self, inv: Invocation, unit_dir: str) -> List[str]:
        return [a.format(tmp=unit_dir, run=self.run_dir) for a in inv.argv]

    def check(self, inv: Invocation, res: Result, unit_dir: str) -> bool:
        if res.code != 0:
            self.errors.append(f"{' '.join(inv.argv)}: exit {res.code}\n"
                               f"{res.stderr[-2000:]}")
            return False
        if normalize(res.stdout, unit_dir) != expected_output(inv.expected):
            self.errors.append(f"{' '.join(inv.argv)}: stdout differs from "
                               f"expected/{inv.expected}.out")
            return False
        if self.workload == "paper-suite":
            errs = golden_errors(res.stdout, inv.argv[1], self.golden)
            self.errors.extend(errs)
            return not errs
        return True

    def probe_after(self, res: Result) -> None:
        """Sample the host once per :data:`PROBE_EVERY_S` of the
        invocation's wall time (at least once), PROBE_SPACING_S apart."""
        for i in range(1 + int(res.wall_s / PROBE_EVERY_S)):
            if i:
                time.sleep(PROBE_SPACING_S)
            self.host.sample()

    def run_unit(self, unit: List[Invocation], traced: bool = False,
                 probed: bool = False):
        """Run one unit; returns ([(Result, spans doc or None, ok)], and the
        spill/trace file usage left in its directory).  ``probed`` samples
        the host after each invocation."""
        unit_dir = self.unit_dir()
        results = []
        for k, inv in enumerate(unit):
            argv = self.argv(inv, unit_dir)
            if traced:
                spans_path = os.path.join(unit_dir, f"spans-{k}.json")
                res = spawn([sys.executable, SPANS_PY, spans_path, "--"]
                            + argv, self.env, unit_dir, {})
                doc = load_spans(spans_path, argv)
            else:
                res, doc = spawn(vectra(argv), self.env, unit_dir), None
                if probed:
                    self.probe_after(res)
            ok = self.check(inv, res, unit_dir)
            results.append((res, doc, ok))
        files = dir_usage(unit_dir)
        shutil.rmtree(unit_dir)
        return results, files


def dir_usage(path: str) -> Dict[str, float]:
    spill = segments = trace = 0
    for root, _, names in os.walk(path):
        for name in names:
            size = os.path.getsize(os.path.join(root, name))
            if name.endswith(".vseg"):
                spill += size
                segments += 1
            elif name.endswith(".vtrace"):
                trace += size
    return {"trace.spill_mb": spill / 2**20, "trace.segments": segments,
            "trace.file_mb": trace / 2**20}


def load_spans(path: str, argv: List[str]) -> Optional[dict]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    doc["argv"] = argv
    doc["workers"] = []
    if os.path.exists(path + ".workers"):
        with open(path + ".workers") as fh:
            doc["workers"] = [json.loads(line) for line in fh]
    return doc


# -- metrics -----------------------------------------------------------------


def measure(run: Run, seconds: float) -> dict:
    """Set up, then make a fixed number of passes, sampling the host after
    every invocation.  Each invocation's wall time is the median over the
    passes, divided by the run's host factor (the mean of all its host
    samples: the host's speed changes within a second, so the samples next
    to one invocation say little, but the run's many samples estimate its
    average speed).  ``wall_s`` sums those over the workload's
    invocations, so the harness's own work between invocations (output
    checks, host samples, measuring and removing unit directories) is not
    counted; the percentiles are taken over the same per-invocation times.
    ``setup_s`` is the median set-up time, divided by the same factor."""
    setups = run.setup()
    samples: Dict[tuple, List[Result]] = {}      # argv -> its runs
    peak_rss = 0.0
    attempted = failed = 0
    passes = max(1, round(PASSES_AT_20S[run.workload] * seconds / 20))
    for _ in range(passes):
        for unit in run.order():
            results, _ = run.run_unit(unit, probed=True)
            for inv, (res, _, ok) in zip(unit, results):
                samples.setdefault(tuple(inv.argv), []).append(res)
                peak_rss = max(peak_rss, res.rss_mb)
                attempted += 1
                failed += not ok
    factor = run.host.factor()
    raw_walls = [statistics.median(r.wall_s for r in runs)
                 for runs in samples.values()]
    walls = sorted(w / factor for w in raw_walls)
    values = {
        "setup_s": (statistics.median(setups) / factor, len(setups)),
        "wall_s": (sum(walls), attempted),
        "cli_p50_s": (statistics.median(walls), attempted),
        "cli_p75_s": (percentile(walls, 3), attempted),
        "peak_rss_mb": (peak_rss, attempted),
    }
    units = dict(END_TO_END)
    raw_cpu = sum(statistics.median(r.cpu_s for r in runs)
                  for runs in samples.values())
    return {"attempted": attempted, "failed": failed, "passes": passes,
            "metrics": {name: {"value": v, "unit": units[name],
                               "samples": n}
                        for name, (v, n) in values.items()},
            "raw": {"setup_s": statistics.median(setups),
                    "wall_s": sum(raw_walls), "cpu_s": raw_cpu,
                    "host_factor": factor,
                    "host_samples": len(run.host.samples)}}


def percentile(values: List[float], quartile: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[quartile - 1]


def self_times(spans: List[list]) -> Dict[str, float]:
    """Self time per span name (seconds).  Raises ValueError unless every
    span lies within its parent and after its previous sibling, which is
    what keeps every self time non-negative."""
    child = [0] * len(spans)
    last_end: Dict[int, int] = {}       # parent index -> its last child's end
    for name, start, end, parent in spans:
        if end < start:
            raise ValueError(f"span {name} ends before it starts")
        if start < last_end.get(parent, start):
            raise ValueError(f"span {name} overlaps its previous sibling")
        last_end[parent] = end
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if start < p_start or end > p_end:
                raise ValueError(f"span {name} escapes its parent")
            child[parent] += end - start
    out: Dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start - covered) / 1e9
    return out


def attribute(doc: dict, res: Result) -> Dict[str, float]:
    """Self time per span name of one traced invocation's own process, and
    ``unattributed.exit``: its wall time outside every span, i.e. teardown
    and reaping after the last one.  Raises ValueError if the spans do not
    nest, fall outside the spawn-to-reap interval, or leave more than
    :data:`EXIT_TOLERANCE_S` uncovered."""
    spans = doc["spans"]
    own = self_times(spans)
    if (min(s for _, s, _, _ in spans) < res.start_ns
            or max(e for _, _, e, _ in spans) > res.end_ns):
        raise ValueError("spans fall outside the invocation")
    roots = sum(e - s for _, s, e, p in spans if p < 0) / 1e9
    own["unattributed.exit"] = res.wall_s - roots
    if own["unattributed.exit"] > EXIT_TOLERANCE_S:
        raise ValueError(f"spans cover {roots:.4f} s of a "
                         f"{res.wall_s:.4f} s invocation")
    return own


def trace_metrics(run: Run) -> dict:
    """One pass in which each unit runs untraced and traced, alternating
    which goes first."""
    run.setup()
    totals = {name: 0.0 for name in SPAN_NAMES}
    layer_self = {layer: 0.0 for layer in LAYERS + ["unattributed"]}
    counts = {name: 0 for name in COUNTERS}
    files = {"trace.spill_mb": 0.0, "trace.segments": 0,
             "trace.file_mb": 0.0}
    traced_wall = untraced_wall = 0.0
    modules = spans_recorded = attempted = failed = 0
    for i, unit in enumerate(run.order()):
        if i % 2:
            traced, unit_files = run.run_unit(unit, traced=True)
            plain, _ = run.run_unit(unit)
        else:
            plain, _ = run.run_unit(unit)
            traced, unit_files = run.run_unit(unit, traced=True)
        for key, val in unit_files.items():
            files[key] += val
        for (res0, _, ok0), (res, doc, ok) in zip(plain, traced):
            attempted += 2
            untraced_wall += res0.wall_s
            traced_wall += res.wall_s
            try:
                if doc is None:
                    raise ValueError("traced invocation wrote no spans")
                own = attribute(doc, res)
                parts = [self_times(part["spans"])
                         for part in doc["workers"]]
            except ValueError as exc:
                run.errors.append(f"{' '.join(doc['argv'])}: {exc}"
                                  if doc else str(exc))
                ok = False
            failed += (not ok0) + (not ok)
            if not ok:
                continue
            for name, secs in own.items():
                layer_self[name.partition(".")[0]] += secs
            modules = max(modules, doc["modules_loaded"])
            for part, part_self in zip([doc] + doc["workers"],
                                       [own] + parts):
                spans_recorded += len(part["spans"])
                for name, secs in part_self.items():
                    totals[name] += secs
                for name, n in part["counts"].items():
                    counts[name] += n
    metrics = {f"{layer}.self_s": (secs, "s")
               for layer, secs in layer_self.items()
               if layer != "unattributed"}
    metrics["unattributed_s"] = (layer_self["unattributed"], "s")
    metrics.update({f"{name}_s": (secs, "s")
                    for name, secs in totals.items()})
    metrics.update({name: (n, "count") for name, n in counts.items()})
    metrics["trace.keep_ratio"] = (
        counts["trace.records_kept"] / max(1, counts["interp.instructions"]),
        "ratio")
    metrics["tools.modules_loaded"] = (modules, "count")
    metrics["trace.spill_mb"] = (files["trace.spill_mb"], "MB")
    metrics["trace.segments"] = (files["trace.segments"], "count")
    metrics["trace.file_mb"] = (files["trace.file_mb"], "MB")
    metrics["bench.traced_wall_s"] = (traced_wall, "s")
    metrics["bench.untraced_wall_s"] = (untraced_wall, "s")
    metrics["bench.trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["bench.spans"] = (spans_recorded, "count")
    return {"attempted": attempted, "failed": failed, "passes": 1,
            "metrics": {name: {"value": v, "unit": u}
                        for name, (v, u) in metrics.items()}}


# -- entry points ------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    run = Run(workload, seed)
    try:
        result = trace_metrics(run) if trace else measure(run, seconds)
    finally:
        run.close()
    result["errors"] = run.errors
    return result


def summarize(workload: str, seed: int, trace: bool, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{workload}: seed {seed}, trace {int(trace)}, "
          f"{result['passes']} pass(es), {attempted} invocations, "
          f"failed_frac {failed / max(1, attempted):.4f} "
          f"(n={attempted})")
    metrics = result["metrics"]
    for name, m in metrics.items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        share = ""
        if name.endswith("self_s") or name == "unattributed_s":
            wall = metrics["bench.traced_wall_s"]["value"]
            share = f"  {100 * m['value'] / wall:5.1f}% of traced wall"
        print(f"  {name:32} {m['value']:14.6f} {m['unit']:6}{samples}{share}")
    for name, val in result.get("raw", {}).items():
        print(f"  raw {name:28} {val:14.6f}")
    for err in result["errors"]:
        print(f"error: {err}", file=sys.stderr)


def pin() -> int:
    """Re-pin expected/ from in-RAM runs of every invocation."""
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    run = Run("paper-suite", 0)
    try:
        run.write_sources()
        stems = {}
        for workload in WORKLOADS:
            for unit in workload_units(workload):
                unit_dir = run.unit_dir()
                for inv in unit:
                    argv = run.argv(inv, unit_dir)
                    if inv.pin_argv is not None:
                        argv = inv.pin_argv
                    res = spawn(vectra(argv), run.env, unit_dir)
                    if res.code != 0:
                        raise SystemExit(f"{argv}: exit {res.code}\n"
                                         f"{res.stderr}")
                    out = normalize(res.stdout, unit_dir)
                    if stems.setdefault(inv.expected, out) != out:
                        raise SystemExit(f"{inv.expected}: outputs differ")
                shutil.rmtree(unit_dir)
        for stem, out in stems.items():
            with open(os.path.join(EXPECTED_DIR, stem + ".out"), "w",
                      encoding="utf-8") as fh:
                fh.write(out)
        print(f"pinned {len(stems)} outputs in {EXPECTED_DIR}")
    finally:
        run.close()
    return 1 if run.errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the expected outputs from this tree")
    args = parser.parse_args(argv)
    if not os.path.isfile(CLI) or not os.path.isfile(GOLDEN):
        print(f"error: run from the repository root ({CLI} and {GOLDEN} "
              f"are needed)", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds,
                              bool(args.trace))
        summarize(workload, args.seed, bool(args.trace), result)
        correct = correct and not result["errors"] and not result["failed"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        metrics.update({prefix + name: {"value": m["value"],
                                         "unit": m["unit"]}
                        for name, m in result["metrics"].items()})
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
