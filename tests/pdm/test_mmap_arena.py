"""The mmap arena's own machinery: spill-directory lifecycle (one spill
file per arena), growth by ftruncate plus a mapped window per chunk, quota
enforcement, resident-memory accounting, and the ``REPRO_ARENA`` selection
knob end to end through :class:`DiskArray`."""

from __future__ import annotations

import errno
import gc
import os
import re

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.pdm.arena import TrackArena
from repro.pdm.disk_array import DiskArray
from repro.pdm.block import BlockRun, Runs
from repro.pdm.mmap_arena import MmapTrackArena, make_arena
from repro.tune.runtime import RuntimeConfig, current
from repro.util.items import ITEM_BYTES
from repro.util.validation import ConfigurationError, SimulationError


class TestSpillLifecycle:
    def test_one_file_per_arena_under_run_scoped_dir(self, tmp_path, monkeypatch):
        """All disks share one spill file, their tracks interleaved as the
        linear row space ``track·D + disk``."""
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill"))
        a = MmapTrackArena(3, 8)
        assert os.path.dirname(a.spill_dir) == str(tmp_path / "spill")
        assert os.listdir(a.spill_dir) == ["tracks.bin"]
        a.put(2, 5, b"d2t5....")
        a.put(0, 6, b"d0t6....")
        with open(os.path.join(a.spill_dir, "tracks.bin"), "rb") as f:
            raw = f.read()
        assert raw[(5 * 3 + 2) * 8 :][:8] == b"d2t5...."
        assert raw[(6 * 3 + 0) * 8 :][:8] == b"d0t6...."
        a.close()
        assert not os.path.exists(a.spill_dir)

    def test_two_arenas_never_collide(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        a, b = MmapTrackArena(1, 8), MmapTrackArena(1, 8)
        assert a.spill_dir != b.spill_dir
        a.put(0, 0, b"AAAAAAAA")
        b.put(0, 0, b"BBBBBBBB")
        assert a.get(0, 0) == b"AAAAAAAA"
        assert b.get(0, 0) == b"BBBBBBBB"
        a.close()
        b.close()

    def test_close_is_idempotent_and_use_after_close_fails(self):
        a = MmapTrackArena(1, 8)
        a.close()
        a.close()
        with pytest.raises(SimulationError, match="after close"):
            a.put(0, 0, b"x")

    def test_gc_reclaims_abandoned_spill_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        a = MmapTrackArena(1, 8)
        a.put(0, 4, b"payload!")
        spill = a.spill_dir
        del a
        gc.collect()
        assert not os.path.exists(spill)


class TestGrowth:
    def test_growth_preserves_data_and_zero_fills(self):
        a = MmapTrackArena(1, 8)
        try:
            a.put(0, 0, b"AAAAAAAA")
            first = a._chunks[0]
            a.put(0, 2000, b"BBBBBBBB")  # adds several chunks
            assert a.get(0, 0) == b"AAAAAAAA"
            assert a.get(0, 2000) == b"BBBBBBBB"
            assert a.get(0, 1000) is None  # sparse hole: unoccupied
            # the first window was neither remapped nor copied
            assert a._chunks[0] is first and bytes(first[0]) == b"AAAAAAAA"
            # file size matches the chunks: 64, 128, ..., 2048 tracks
            fsize = os.path.getsize(os.path.join(a.spill_dir, "tracks.bin"))
            assert fsize == sum(len(c) for c in a._chunks) * 8 == a.spill_nbytes()
            assert [len(c) for c in a._chunks] == [64 << k for k in range(6)]
        finally:
            a.close()

    def test_resident_stays_bookkeeping_sized(self):
        """The mmap arena's resident accounting excludes track data —
        the O(buffers)-not-O(N) property the scale bench gates on."""
        a = MmapTrackArena(1, 1024)
        try:
            for t in range(512):
                a.put(0, t, b"\x01" * 1024)
            assert a.spill_nbytes() >= 512 * 1024
            assert a.resident_nbytes() < 64 * 1024  # masks + lengths only
            ram = TrackArena(1, 1024)
            ram.restore(0, a.snapshot(0))
            assert ram.resident_nbytes() > 512 * 1024  # RAM arena counts data
        finally:
            a.close()

    def test_quota_blocks_growth_not_existing_data(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_QUOTA", str(64 * 8))
        a = MmapTrackArena(1, 8)
        try:
            a.put(0, 10, b"x" * 8)  # first 64-row chunk: exactly at quota
            assert a.get(0, 10) == b"x" * 8
            with pytest.raises(SimulationError, match="spill quota exceeded"):
                a.put(0, 100, b"y" * 8)
            assert a.get(0, 10) == b"x" * 8  # refused growth left data intact
        finally:
            a.close()

    def test_quota_counts_all_disks(self, monkeypatch):
        """A chunk holds its tracks on every disk: the first one, 64 tracks
        of 2 disks, fits a 128-row quota whichever disk is written, and the
        second is refused whichever disk needs it."""
        monkeypatch.setenv("REPRO_SPILL_QUOTA", str(128 * 8))
        a = MmapTrackArena(2, 8)
        try:
            a.put(0, 0, b"x" * 8)
            a.put(1, 63, b"y" * 8)  # disk 1's rows came with the chunk
            with pytest.raises(SimulationError, match="spill quota"):
                a.put(1, 64, b"z" * 8)
            assert a.get(1, 63) == b"y" * 8 and a.spill_nbytes() == 128 * 8
        finally:
            a.close()


class TestOneFileTwoWriters:
    """``put`` writes through the mapping and ``scatter`` through the
    file descriptor; both land in one page cache, so every reader sees
    the last write, exactly as the RAM arena does."""

    BB = 16

    def _calls(self):
        bb = self.BB
        rows = [
            np.arange(k * 8 * bb, (k + 1) * 8 * bb, dtype=np.int64).astype(np.uint8)
            .reshape(8, bb) for k in range(4)
        ]
        # linear pieces (stream row, row track·2 + disk above the base,
        # blocks), each one pwrite: runs over both disks and a lone block
        mixed = ((0, 0, 3), (3, 9, 1), (4, 4, 4))
        dense = ((0, 4, 8),)
        return [
            ("put", 0, 3, b"early-put"),
            ("scatter", mixed, 0, rows[0]),          # overwrites the put on track 3
            ("put", 0, 2, b"late-put"),              # overwrites a scattered track
            ("scatter", dense, 60, rows[1]),         # crosses track 64: a new chunk
            ("put", 0, 63, b"x" * bb),
            ("scatter", mixed, 62, rows[2]),         # over the put and the grown rows
            ("restore", 1, {5: b"restored", 200: b"far"}),
            ("scatter", mixed, 4, rows[3]),          # after the restore
            ("put", 1, 5, b"last"),           # over a restored track
        ]

    def test_every_reader_agrees_with_a_ram_arena(self, tmp_path):
        bb = self.BB
        ram, mm = TrackArena(2, bb), MmapTrackArena(2, bb, spill_dir=str(tmp_path))
        try:
            for arena in (ram, mm):
                for op, *args in self._calls():
                    getattr(arena, op)(*args)
            for d in range(2):
                assert mm.snapshot(d) == ram.snapshot(d)
                for t in range(ram.max_track(d) + 2):
                    assert mm.get(d, t) == ram.get(d, t)
            with open(os.path.join(mm.spill_dir, "tracks.bin"), "rb") as f:
                raw = f.read()
            for k, lens in enumerate(ram._lens):
                for i in np.flatnonzero(lens >= 0).tolist():
                    lin = ram._bounds[k] + i
                    assert raw[lin * bb : (lin + 1) * bb] == bytes(ram._chunks[k][i]), lin
            rows = [call[-1] for call in self._calls() if call[0] == "scatter"]
            assert mm.get(0, 3) == bytes(rows[0][6])  # the scatter beat the put
            assert mm.get(0, 2) == b"late-put"  # the put beat the scatter
            assert mm.get(0, 63) == bytes(rows[2][2])  # over the put, past the growth
            assert mm.get(1, 200) == b"far" and mm.get(1, 5) == b"last"
            assert mm.get(1, 0) is None  # the restore dropped the scattered track
            pieces = self._calls()[1][1]
            for base in (0, 4, 62):
                want, got = np.empty((8, bb), np.uint8), np.empty((8, bb), np.uint8)
                ok = ram.gather(pieces, base, want)
                assert mm.gather(pieces, base, got) == ok == (base == 4)
                assert not ok or np.array_equal(want, got)
        finally:
            mm.close()


class TestSpillWriteFailures:
    """A spill write the volume refuses ends the run with one line and
    rc 3 and leaves no spill directory, in-process or in a worker."""

    ARGS = ["sort", "--n", "4096", "--v", "8", "--p", "2", "--b", "64",
            "--engine", "par", "--balanced", "--arena", "mmap"]

    @staticmethod
    def _full(*_args):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    @staticmethod
    def _short(_fd, bufs, _off):
        # claims half of what it was handed and writes nothing
        return (len(bufs) if isinstance(bufs, np.ndarray) else sum(map(len, bufs))) // 2

    @pytest.mark.parametrize("workers", ["0", "2"])
    @pytest.mark.parametrize("fault", ["full", "short"])
    def test_run_ends_with_one_line_and_no_spill_dir(
        self, tmp_path, monkeypatch, capsys, fault, workers
    ):
        from repro import cli

        spill = tmp_path / "spill"
        monkeypatch.setenv("REPRO_SPILL_DIR", str(spill))
        broken = self._full if fault == "full" else self._short
        monkeypatch.setattr(os, "pwrite", broken)
        monkeypatch.setattr(os, "pwritev", broken)
        assert cli.main(self.ARGS + ["--workers", workers]) == 3
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert re.search(r"cannot write disk \d+ track \d+ to spill dir \S*spill\S*: "
                         + ("No space left" if fault == "full" else "the write stayed short"),
                         last), err
        if workers == "0":
            assert err.startswith("error: cannot write disk") and err.count("\n") == 1
        gc.collect()
        assert not spill.exists() or not os.listdir(spill)


class TestChunkMapFailures:
    """A window the system will not map (out of descriptors: each window
    holds one) ends the run with one line naming the spill dir."""

    @staticmethod
    def _no_fds(*_args, **_kwargs):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    def test_arena_growth_names_spill_dir_and_windows(self, tmp_path, monkeypatch):
        arena = MmapTrackArena(2, 64, spill_dir=str(tmp_path))
        try:
            arena.put(0, 0, b"x" * 64)  # the first window maps
            held = len(arena._chunks)
            monkeypatch.setattr(np, "memmap", self._no_fds)
            with pytest.raises(SimulationError) as err:
                arena.put(0, arena._bounds[-1], b"y" * 64)
            msg = str(err.value)
            assert "\n" not in msg and arena.spill_dir in msg
            assert f"({held} windows held): Too many open files" in msg
        finally:
            arena.close()

    def test_in_process_run_exits_3_with_one_line(self, tmp_path, monkeypatch, capsys):
        from repro import cli

        spill = tmp_path / "spill"
        monkeypatch.setenv("REPRO_SPILL_DIR", str(spill))
        monkeypatch.setattr(np, "memmap", self._no_fds)
        assert cli.main(TestSpillWriteFailures.ARGS + ["--workers", "0"]) == 3
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: cannot map a chunk of \d+ bytes in spill dir \S*spill\S* "
            r"\(0 windows held\): Too many open files\n", err
        ), err
        gc.collect()
        assert not spill.exists() or not os.listdir(spill)


class TestSelection:
    def test_factory_honors_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARENA", "mmap")
        a = make_arena(1, 8)
        assert isinstance(a, MmapTrackArena)
        a.close()
        monkeypatch.setenv("REPRO_ARENA", "ram")
        assert type(make_arena(1, 8)) is TrackArena
        monkeypatch.delenv("REPRO_ARENA")
        assert type(make_arena(1, 8)) is TrackArena  # default

    def test_unknown_kind_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARENA", "tape")
        with pytest.raises(ConfigurationError, match="REPRO_ARENA"):
            current()
        monkeypatch.delenv("REPRO_ARENA")
        with pytest.raises(ConfigurationError, match="REPRO_ARENA.*tape"):
            RuntimeConfig.resolve(overrides={"arena": "tape"})

    def test_set_arena_kind_writes_env(self, monkeypatch):
        """(Named for the retired ``set_env``.)  The CLI's ``--arena``
        selects the backend as an override of one resolution: it beats the
        variable and leaves the environment as it was."""
        monkeypatch.setenv("REPRO_ARENA", "ram")
        assert RuntimeConfig.resolve(overrides={"arena": "mmap"}).arena == "mmap"
        assert os.environ["REPRO_ARENA"] == "ram"
        assert current().arena == "ram"

    def test_disk_array_bit_identity_across_arenas(self, monkeypatch):
        """The same write/read stream produces identical IOStats, counters
        and stored bytes on a RAM-arena and an mmap-arena DiskArray."""
        def run(kind: str):
            monkeypatch.setenv("REPRO_ARENA", kind)
            arr = DiskArray(D=3, B=2)
            bb = arr.block_bytes
            n = 40
            rng = np.random.default_rng(42)
            placed = list(zip(rng.integers(0, 3, n).tolist(), rng.integers(0, 12, n).tolist()))
            raw = rng.integers(0, 256, n * bb, dtype=np.uint8).tobytes()
            # random placements as one-block runs, then one long linear run
            arr.write_run(Runs(0, tuple((t * 3 + d, 1) for d, t in placed)), BlockRun(raw, n, bb))
            arr.write_run(Runs(9, ((2, n),)), BlockRun(raw[::-1], n, bb))
            uniq = sorted(set(placed))
            got = bytes(arr.read_run(Runs(0, tuple((t * 3 + d, 1) for d, t in uniq))))
            got += bytes(arr.read_run(Runs(9, ((2, n),))))
            state = (
                got,
                arr.stats.as_dict(),
                [d.snapshot_tracks() for d in arr.disks],
                [(d.blocks_read, d.blocks_written) for d in arr.disks],
            )
            arr.close()
            return state

        ram, mm = run("ram"), run("mmap")
        assert ram == mm


@pytest.mark.slow
def test_scale_smoke_under_spill_quota(monkeypatch):
    """An out-of-core sort completes under a small spill quota while the
    arena stays bookkeeping-resident (the CI arena-mmap lane's smoke)."""
    from repro.em.runner import em_sort, make_engine  # noqa: F401

    monkeypatch.setenv("REPRO_ARENA", "mmap")
    monkeypatch.setenv("REPRO_SPILL_QUOTA", str(256 << 20))
    n = 1 << 16
    data = np.random.default_rng(3).integers(0, 1 << 30, n, dtype=np.int64)
    cfg = MachineConfig(N=n, v=8, p=2, D=4, B=256)
    res = em_sort(data, cfg)
    assert np.array_equal(res.values, np.sort(data))
    assert res.report.io.parallel_ios > 0
    # a same-shape probe array confirms the storage the run used
    probe = DiskArray(cfg.D, cfg.B)
    assert isinstance(probe._arena, MmapTrackArena)
    probe._arena.put(0, 0, b"\x00" * cfg.B * ITEM_BYTES)
    assert probe._arena.resident_nbytes() < (1 << 20)
    probe.close()
