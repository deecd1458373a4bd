"""The on-disk trace format: the segment store ``vectra trace`` writes.

A trace recorded to disk (``run_and_trace(..., spill_dir=DIR)``, which
is what ``vectra trace -o DIR`` calls) must read back record for record
and field for field, and a damaged store must fail with a
:class:`TraceError` on both the mmap and the buffered reader, never with
a partial load or a raw numpy/struct exception.
"""

import json
import os
import struct

import pytest

from repro.ddg import build_ddg
from repro.errors import TraceError
from repro.frontend import compile_source
from repro.interp import run_and_trace
from repro.trace.columnar import ColumnarSink
from repro.trace.store import MANIFEST_NAME, SegmentedSink, open_store

from tests.test_columnar import assert_ddgs_identical


SRC = """
double A[4];
int main() {
  int i;
  L: for (i = 0; i < 4; i++) A[i] = (double)i * 2.0;
  return 0;
}
"""

SEGMENT = "segment-00000.vseg"


@pytest.fixture
def module():
    return compile_source(SRC)


def _assert_records_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.node == y.node
        assert x.sid == y.sid
        assert int(x.opcode) == int(y.opcode)
        assert x.loop_id == y.loop_id
        assert tuple(x.deps) == tuple(y.deps)
        assert tuple(x.addrs) == tuple(y.addrs)
        assert x.addr == y.addr
        assert x.store_addr == y.store_addr


def _read_all(path, use_mmap):
    """Everything a reader does with a store: open, remap, assemble."""
    return open_store(path, use_mmap=use_mmap).to_ddg()


def _synthetic(path, dep_counts=(), addr_counts=()):
    """The same records through an in-RAM sink and a store at ``path``,
    with chosen dependence/address list lengths.  Node ids start past
    every dependence, so the producers are earlier nodes outside the
    window (kept as records, dropped from the DDG), plus the previous
    record when there is one."""
    n = max(len(dep_counts), len(addr_counts), 1)
    base = 1 << 17
    ram, disk = ColumnarSink(), SegmentedSink(path)
    for i in range(n):
        nd = dep_counts[i] if i < len(dep_counts) else 0
        na = addr_counts[i] if i < len(addr_counts) else 0
        deps = tuple(range(nd - 1)) + ((base + i - 1,) if nd else ())
        for sink in (ram, disk):
            sink.emit(base + i, i + 1, 3, -1, deps,
                      tuple(8 * k for k in range(na)), i * 8)
    return ram, disk.finish()


def _damage(store_dir, fn):
    seg = os.path.join(store_dir, SEGMENT)
    with open(seg, "rb") as fh:
        data = fh.read()
    with open(seg, "wb") as fh:
        fh.write(fn(data))
    return data


def test_round_trip_preserves_all_fields(module, tmp_path):
    ram = run_and_trace(module)
    disk = run_and_trace(module, spill_dir=str(tmp_path / "t"))
    assert len(disk) == len(ram)
    _assert_records_equal(ram.records, disk.records)


def test_round_trip_via_files(module, tmp_path):
    path = str(tmp_path / "t.vtrace")
    ram = run_and_trace(module)
    written = run_and_trace(module, spill_dir=path)
    back = open_store(path).trace(module)
    assert len(back) == len(written) == len(ram)
    assert_ddgs_identical(build_ddg(ram), build_ddg(back))


def test_spans_survive_round_trip(module, tmp_path):
    path = str(tmp_path / "t")
    run_and_trace(module, spill_dir=path)
    back = open_store(path).trace(module)
    loop = module.loop_by_name("L")
    assert len(back.loop_instances(loop.loop_id)) == 1


def test_bad_magic_rejected(module, tmp_path):
    path = str(tmp_path / "t")
    run_and_trace(module, spill_dir=path)
    _damage(path, lambda data: b"NOPE" + data[4:])
    for use_mmap in (True, False):
        with pytest.raises(TraceError, match="not a segment file"):
            _read_all(path, use_mmap)
    # A file in the retired VTRC format is named as such.
    old = tmp_path / "old.vtrc"
    old.write_bytes(b"VTRC" + struct.pack("<IQ", 2, 0))
    with pytest.raises(TraceError, match="re-record"):
        open_store(str(old))


def test_truncated_header_rejected(module, tmp_path):
    path = str(tmp_path / "t")
    run_and_trace(module, spill_dir=path)
    _damage(path, lambda data: data[:2])
    for use_mmap in (True, False):
        with pytest.raises(TraceError):
            _read_all(path, use_mmap)
    manifest = os.path.join(path, MANIFEST_NAME)
    with open(manifest) as fh:
        text = fh.read()
    with open(manifest, "w") as fh:
        fh.write(text[: len(text) // 2])
    with pytest.raises(TraceError, match="manifest"):
        open_store(path)


def test_truncated_record_rejected(module, tmp_path):
    path = str(tmp_path / "t")
    run_and_trace(module, spill_dir=path)
    _damage(path, lambda data: data[:-7])
    for use_mmap in (True, False):
        with pytest.raises(TraceError, match="truncated"):
            _read_all(path, use_mmap)


@pytest.mark.parametrize("count", [0, 1, 254, 255, 256, 1000, 65535, 65536])
def test_round_trip_at_count_boundaries(tmp_path, count):
    """Dependence and address counts round-trip at the u8 and u16
    boundaries and past them: the store keeps counts as int32."""
    ram, store = _synthetic(str(tmp_path / "t"), dep_counts=(count,),
                            addr_counts=(0, count))
    _assert_records_equal(ram.records, store.to_sink().records)
    assert_ddgs_identical(ram.to_ddg(), store.to_ddg())


def test_unknown_version_rejected(module, tmp_path):
    path = str(tmp_path / "t")
    run_and_trace(module, spill_dir=path)
    data = _damage(path, lambda data: data[:4] + struct.pack("<I", 3)
                   + data[8:])
    with pytest.raises(TraceError, match="version 3"):
        _read_all(path, True)
    _damage(path, lambda _: data)
    manifest = os.path.join(path, MANIFEST_NAME)
    with open(manifest) as fh:
        doc = json.load(fh)
    doc["version"] = 3
    with open(manifest, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(TraceError, match="version 3"):
        open_store(path)


def test_trailing_bytes_rejected_with_offset(tmp_path):
    """Bytes past the manifest's segment size mean a corrupted or
    concatenated file; the error gives both sizes, so the offset the
    junk starts at."""
    path = str(tmp_path / "t")
    _synthetic(path, dep_counts=(2, 0, 1))
    clean = _damage(path, lambda data: data + b"\x00" * 7)
    for use_mmap in (True, False):
        with pytest.raises(TraceError) as excinfo:
            _read_all(path, use_mmap)
        message = str(excinfo.value)
        assert "trailing" in message
        assert f"{len(clean) + 7} bytes on disk" in message
        assert f"manifest says {len(clean)}" in message
    _damage(path, lambda _: clean + clean)
    with pytest.raises(TraceError, match="trailing"):
        _read_all(path, True)


def test_truncation_at_every_offset_rejected(tmp_path):
    """Fuzz: every strict prefix of a segment file must raise
    TraceError on both readers — never a partial load, never an
    uncaught IndexError from the mmap'd columns."""
    path = str(tmp_path / "t")
    ram, _ = _synthetic(path, dep_counts=(3, 0, 1),
                        addr_counts=(0, 2, 257))
    data = _damage(path, lambda data: data)
    for cut in range(len(data)):
        _damage(path, lambda _: data[:cut])
        for use_mmap in (True, False):
            with pytest.raises(TraceError):
                _read_all(path, use_mmap)
    _damage(path, lambda _: data)
    for use_mmap in (True, False):
        assert_ddgs_identical(ram.to_ddg(), _read_all(path, use_mmap))


def test_windowed_subtrace_round_trip(module, tmp_path):
    """A windowed loop instance — the artifact ``vectra trace`` writes —
    reads back field for field, markers included."""
    loop = module.loop_by_name("L")
    ram = run_and_trace(module, loop=loop.loop_id, instances={0})
    sub = ram.subtrace(loop.loop_id, 0)
    disk = run_and_trace(module, loop=loop.loop_id, instances={0},
                         spill_dir=str(tmp_path / "t"))
    _assert_records_equal(sub.records, disk.records)
    assert len(disk.loop_instances(loop.loop_id)) == 1
