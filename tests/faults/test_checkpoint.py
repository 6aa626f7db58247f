"""CheckpointManager: the ``REPRO-CKPT v2`` format — atomic, durable save
and load, pruning with parts, and one-line refusal of every corrupt,
hostile or v1 file."""

from __future__ import annotations

import errno
import json
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.faults.checkpoint import (
    MAGIC,
    CheckpointError,
    CheckpointManager,
    open_section,
    write_durably,
    write_part,
)
from repro.pdm.arena import MAX_DIRECT_TRACK
from repro.util.items import deserialize, serialize

META = {"engine": "seq-em", "program": "sample-sort", "seed": 1}


def section(obj, rows: bytes = b"") -> tuple:
    """A section to save: the item of *obj*, then *rows*."""
    item = serialize(obj)
    return len(item) + len(rows), [item, rows]


SECTIONS = [
    section({"real": 0, "payload": list(range(100))}, b"\x07" * 512),
    section({"real": 1, "blob": b"\x00" * 257}),
]


def boundary(sections, **report) -> dict:
    return {"sections": sections, "finished": False, "report": report}


def read_back(ckpt, real: int) -> tuple:
    """One real's section of a loaded checkpoint → (item, row bytes)."""
    with open_section(ckpt.sections[real]) as (item, nbytes, read):
        rows = bytearray(nbytes)
        read(memoryview(rows))
    return item, bytes(rows)


def write_one(tmp_path, round_no=2, sections=SECTIONS, meta=META) -> CheckpointManager:
    cm = CheckpointManager(str(tmp_path / "ck"))
    cm.save(round_no, boundary(sections, rounds=round_no + 1), meta)
    return cm


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        cm = write_one(tmp_path)
        ckpt = cm.load(META)
        assert (ckpt.round, ckpt.finished, ckpt.report) == (2, False, {"rounds": 3})
        assert read_back(ckpt, 0) == ({"real": 0, "payload": list(range(100))}, b"\x07" * 512)
        assert read_back(ckpt, 1) == ({"real": 1, "blob": b"\x00" * 257}, b"")

    def test_load_without_meta_skips_fingerprint_check(self, tmp_path):
        cm = write_one(tmp_path)
        assert read_back(cm.load(), 1)[0]["blob"] == b"\x00" * 257

    def test_filenames_sort_by_round(self, tmp_path):
        cm = CheckpointManager(str(tmp_path / "ck"), keep=10)
        # round -1 (the post-setup initial checkpoint) must sort first
        for r in (-1, 0, 1, 2):
            cm.save(r, boundary(SECTIONS), META)
        assert [os.path.basename(p) for p in cm._snapshots()] == [
            "ckpt_000000.bin", "ckpt_000001.bin",
            "ckpt_000002.bin", "ckpt_000003.bin",
        ]
        assert cm.load(META).round == 2

    def test_no_tmp_files_left_behind(self, tmp_path):
        cm = write_one(tmp_path)
        assert not [n for n in os.listdir(cm.directory) if n.endswith(".tmp")]

    def test_prune_keeps_newest(self, tmp_path):
        cm = CheckpointManager(str(tmp_path / "ck"), keep=2)
        for r in range(5):
            cm.save(r, boundary(SECTIONS), META)
        names = sorted(os.listdir(cm.directory))
        assert names == ["ckpt_000004.bin", "ckpt_000005.bin"]
        assert cm.load(META).round == 4

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep"):
            CheckpointManager(str(tmp_path / "ck"), keep=0)

    def test_has_checkpoint(self, tmp_path):
        cm = CheckpointManager(str(tmp_path / "ck"))
        assert not cm.has_checkpoint
        cm.save(0, boundary(SECTIONS), META)
        assert cm.has_checkpoint

    def test_a_manifest_reads_its_parts_and_prunes_them(self, tmp_path):
        """A worker slice's part sits beside the manifest, which names it
        with each section's offset and CRC; pruning a boundary takes its
        parts along."""
        cm = CheckpointManager(str(tmp_path / "ck"), keep=1)
        for r in range(3):
            got = write_part(cm.directory, r, 1, SECTIONS)
            name, at = f"ckpt_{r + 1:06d}_w1.part", 0
            parts = []
            for nbytes, crc in got:
                parts.append((name, at, nbytes, crc))
                at += nbytes
            cm.save(r, boundary([section({"real": 0}), *parts]), META)
        assert sorted(os.listdir(cm.directory)) == ["ckpt_000003.bin", "ckpt_000003_w1.part"]
        ckpt = cm.load(META)
        assert read_back(ckpt, 0) == ({"real": 0}, b"")
        assert read_back(ckpt, 2) == ({"real": 1, "blob": b"\x00" * 257}, b"")

    def test_load_reads_the_boundary_it_is_given(self, tmp_path):
        cm = CheckpointManager(str(tmp_path / "ck"), keep=3)
        for r in range(3):
            cm.save(r, boundary(SECTIONS), META)
        assert cm.load(META, path=cm.path_for(0)).round == 0

    def test_a_relative_directory_reads_from_anywhere(self, tmp_path, monkeypatch):
        """The manager holds its directory absolute, so a section's path
        opens alike from another working directory (a node's)."""
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path)
        cm = CheckpointManager("ck")
        cm.save(0, boundary(SECTIONS), META)
        ckpt = cm.load(META)
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert all(os.path.isabs(where) for where, _at, _n in ckpt.sections)
        assert read_back(ckpt, 0)[1] == b"\x07" * 512

    @pytest.mark.parametrize("keep", [1, 2])
    def test_a_save_failing_halfway_leaves_the_previous_boundary(self, tmp_path, keep):
        """A save that dies mid-write (a full disk) leaves the newest
        boundary before it loadable, at keep=1 too."""
        cm = CheckpointManager(str(tmp_path / "ck"), keep=keep)
        for r in range(keep):
            cm.save(r, boundary(SECTIONS), META)

        def torn():
            yield b"\x07" * 100
            raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(OSError, match="No space"):
            cm.save(keep, boundary([(200, torn())]), META)
        ckpt = cm.load(META)
        assert ckpt.round == keep - 1
        assert read_back(ckpt, 1) == ({"real": 1, "blob": b"\x00" * 257}, b"")


def test_write_durably_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """The rename is durable too: the file is synced before it is put in
    place, and its directory after."""
    calls = []
    fsync, replace = os.fsync, os.replace

    def spy_fsync(fd):
        calls.append(("fsync", os.fstat(fd)))
        fsync(fd)

    def spy_replace(src, dst):
        calls.append(("replace", dst))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    path = tmp_path / "queue.json"
    write_durably(str(path), [b"{}", b"\n"])
    assert [kind for kind, _ in calls] == ["fsync", "replace", "fsync"]
    assert os.path.samestat(calls[0][1], os.stat(path))
    assert os.path.samestat(calls[2][1], os.stat(tmp_path))
    assert path.read_bytes() == b"{}\n"


class TestRefusal:
    """Every corruption mode refuses resume with a distinct, clear error."""

    def test_empty_directory(self, tmp_path):
        cm = CheckpointManager(str(tmp_path / "ck"))
        with pytest.raises(CheckpointError, match="no checkpoint found"):
            cm.load(META)

    def test_bad_magic(self, tmp_path):
        cm = write_one(tmp_path)
        path = cm.latest_path()
        blob = open(path, "rb").read()
        open(path, "wb").write(b"GARBAGE!" + blob[8:])
        with pytest.raises(CheckpointError, match="bad magic"):
            cm.load(META)

    def test_truncated_payload(self, tmp_path):
        cm = write_one(tmp_path)
        path = cm.latest_path()
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-20])
        with pytest.raises(CheckpointError, match="truncated"):
            cm.load(META)

    def test_truncated_before_header(self, tmp_path):
        cm = write_one(tmp_path)
        open(cm.latest_path(), "wb").write(MAGIC)
        with pytest.raises(CheckpointError, match="truncated"):
            cm.load(META)

    def test_garbled_payload(self, tmp_path):
        cm = write_one(tmp_path)
        path = cm.latest_path()
        blob = bytearray(open(path, "rb").read())
        blob[-40] ^= 0xFF  # flip one row byte of the last section
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="CRC-32 mismatch"):
            cm.load(META)

    def test_corrupt_header(self, tmp_path):
        cm = write_one(tmp_path)
        path = cm.latest_path()
        blob = open(path, "rb").read()
        nl = blob.index(b"\n", len(MAGIC))
        open(path, "wb").write(MAGIC + b"{not json" + blob[nl:])
        with pytest.raises(CheckpointError, match="corrupt header"):
            cm.load(META)

    def test_meta_mismatch(self, tmp_path):
        cm = write_one(tmp_path)
        other = dict(META, seed=2)
        with pytest.raises(CheckpointError, match="different run"):
            cm.load(other)

    def test_unpicklable_payload(self, tmp_path):
        """A section whose CRC holds but whose bytes are not a format-2
        item passes the load and is refused where it is decoded."""
        junk = b"T" + struct.pack("<Q", 64) + b"\xfe" * 64
        cm = write_one(tmp_path, sections=[(len(junk), [junk])])
        with pytest.raises(CheckpointError, match="does not decode"):
            read_back(cm.load(META), 0)

    def test_a_part_outside_the_directory_is_refused(self, tmp_path):
        cm = CheckpointManager(str(tmp_path / "ck"))
        cm.save(0, boundary([("../ckpt_000001_w1.part", 0, 4, 0)]), META)
        with pytest.raises(CheckpointError, match="foreign part"):
            cm.load(META)


# ----------------------------------------------------------- hostile bytes

#: the run a real v2 file comes from: an in-process sort, p = 2, whatever
#: the lane's worker count
SORT = ["sort", "--n", "4096", "--v", "4", "--p", "2", "--b", "64", "--engine", "par",
        "--workers", "0"]


@pytest.fixture(scope="module")
def real_file(tmp_path_factory):
    """A real ``REPRO-CKPT v2`` file (the finished boundary of ``SORT``)
    and its regions: ``(blob, {region: (start, end)})``."""
    from repro.cli import main

    ck = tmp_path_factory.mktemp("real") / "ck"
    assert main([*SORT, "--checkpoint", str(ck)]) == 0
    blob = (ck / sorted(os.listdir(ck))[-1]).read_bytes()
    body = blob.index(b"\n", len(MAGIC)) + 1
    table = json.loads(blob[len(MAGIC) + 9 : body - 1])["sections"]
    (_, first, _), (_, last, nbytes) = table[0], table[-1]
    item = struct.unpack_from("<cQ", blob, body + first)[1] + 9
    trailer = len(blob) - 4 * len(table)
    regions = {
        "header": (0, body),
        "items": (body + first, body + first + item),
        "rows": (body + first + item, body + last + nbytes),
        "crc": (trailer, len(blob)),
    }
    assert zlib.crc32(blob[body + first : body + first + table[0][2]]) == struct.unpack_from(
        "<I", blob, trailer
    )[0]
    return blob, regions


def _mutate(blob: bytes, regions: dict, kind: str, region: str, data) -> bytes:
    lo, hi = regions[region]
    at = data.draw(st.integers(lo, hi - 1))
    if kind == "truncate":
        return blob[:at]
    if kind == "flip":
        out = bytearray(blob)
        out[at] ^= 1 << data.draw(st.integers(0, 7))
        return bytes(out)
    # splice: bytes from anywhere in the file over the region
    n = data.draw(st.integers(1, 64))
    src = data.draw(st.integers(0, len(blob) - n))
    return blob[:at] + blob[src : src + n] + blob[at + n :]


def _item(blob: bytes):
    """Real 0's bookkeeping item in the real file *blob*."""
    body = blob.index(b"\n", len(MAGIC)) + 1
    first = json.loads(blob[len(MAGIC) + 9 : body - 1])["sections"][0][1]
    size = struct.unpack_from("<cQ", blob, body + first)[1] + 9
    return deserialize(blob[body + first : body + first + size])


def _with_item(blob: bytes, item) -> bytes:
    """*blob* with real 0's item replaced by *item*, and the section
    table, the header's CRC and the section's CRC made to match it."""
    body = blob.index(b"\n", len(MAGIC)) + 1
    doc = json.loads(blob[len(MAGIC) + 9 : body - 1])
    table = doc["sections"]
    first, nbytes = table[0][1:]
    size = struct.unpack_from("<cQ", blob, body + first)[1] + 9
    new = serialize(item)
    sec = new + blob[body + first + size : body + first + nbytes]
    table[0][2] = len(sec)
    for entry in table[1:]:
        entry[1] += len(new) - size
    text = json.dumps(doc, separators=(",", ":")).encode()
    trailer = len(blob) - 4 * len(table)
    crcs = [zlib.crc32(sec), *struct.unpack_from(f"<{len(table) - 1}I", blob, trailer + 4)]
    return b"".join([
        MAGIC, b"%08x %s\n" % (zlib.crc32(text), text), blob[body : body + first], sec,
        blob[body + first + nbytes : trailer], struct.pack(f"<{len(table)}I", *crcs),
    ])


def _resume(ck):
    from repro.algorithms.collectives import partition_array
    from repro.algorithms.sorting import SampleSort
    from repro.cgm.config import MachineConfig
    from repro.em.runner import em_run

    cfg = MachineConfig(N=4096, v=4, p=2, D=2, B=64)
    inputs = partition_array(np.zeros(4096, dtype=np.int64), 4)
    return em_run(SampleSort(), inputs, cfg, "par", checkpoint=str(ck), resume=True,
                  overrides={"workers": 0})


class TestHostileBytes:
    @pytest.mark.parametrize("rewritten", [False, True])
    def test_the_undamaged_file_resumes(self, real_file, tmp_path, rewritten):
        blob = real_file[0]
        if rewritten:  # real 0's item, as it was, under rebuilt CRCs
            blob = _with_item(blob, _item(blob))
        (tmp_path / "ckpt_000001.bin").write_bytes(blob)
        assert _resume(tmp_path).report.rounds > 0

    @given(
        kind=st.sampled_from(["truncate", "flip", "splice"]),
        region=st.sampled_from(["header", "items", "rows", "crc"]),
        data=st.data(),
    )
    def test_every_damaged_file_is_one_checkpoint_error(
        self, real_file, tmp_path_factory, kind, region, data
    ):
        """Truncated, bit-flipped or spliced anywhere — header, items, rows
        or CRC trailer — a real file is refused with one CheckpointError
        line, and reading it never allocates past its size."""
        blob, regions = real_file
        bad = _mutate(blob, regions, kind, region, data)
        assume(bad != blob)
        ck = tmp_path_factory.mktemp("hostile")
        (ck / "ckpt_000001.bin").write_bytes(bad)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError) as err:
                _resume(ck)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "\n" not in str(err.value)
        assert peak < len(blob) + (256 << 10)

    @given(data=st.data())
    def test_a_damaged_item_under_good_crcs_is_one_checkpoint_error(
        self, real_file, tmp_path_factory, data
    ):
        """Real 0's item rewritten — a field gone or of the wrong type,
        rows past the row space or out of order, a length or a disk
        short — with every CRC made to match: still one CheckpointError
        line, and nothing allocated past the file's size."""
        blob = real_file[0]
        item = _item(blob)
        rows, D = item["rows"], len(item["side"])
        cases = {
            "past the row space": {**item, "rows": np.r_[rows[:-1], MAX_DIRECT_TRACK * D]},
            "a length short": {**item, "lens": item["lens"][:-1]},
            "float rows": {**item, "rows": rows.astype(np.float64)},
            "descending rows": {**item, "rows": rows[::-1].copy()},
            "a disk short": {**item, "side": item["side"][:-1]},
        }
        for key in item:
            cases[f"no {key}"] = {k: v for k, v in item.items() if k != key}
            cases[f"{key} an int"] = {**item, key: 7}
            cases[f"{key} a string"] = {**item, key: "x"}
        ck = tmp_path_factory.mktemp("rewritten")
        bad = _with_item(blob, cases[data.draw(st.sampled_from(sorted(cases)))])
        (ck / "ckpt_000001.bin").write_bytes(bad)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError) as err:
                _resume(ck)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "\n" not in str(err.value)
        assert peak < len(blob) + (256 << 10)

    def test_cli_resume_of_a_damaged_file_exits_3_with_one_line(
        self, real_file, tmp_path, capsys
    ):
        from repro.cli import main

        blob, regions = real_file
        bad = bytearray(blob)
        bad[regions["rows"][0] + 100] ^= 0x10
        ck = tmp_path / "ck"
        ck.mkdir()
        (ck / "ckpt_000001.bin").write_bytes(bytes(bad))
        capsys.readouterr()
        rc = main([*SORT, "--checkpoint", str(ck), "--resume"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and err.count("\n") == 1 and "CRC-32" in err
