"""The double-buffered prefetch pipeline: ordering, buffer discipline,
drain semantics, error parity, and engine-level bit-identity with the
synchronous path (including under fault injection, which services every
access per-op and must bypass the pipeline entirely)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.collectives import partition_array
from repro.algorithms.sorting import SampleSort
from repro.cgm.config import MachineConfig
from repro.em.runner import em_run
from repro.faults.injector import FaultyDiskArray
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.pdm.disk_array import DiskArray
from repro.pdm.fastpath import BlockRun
from repro.pdm.pipeline import PREFETCH_BREAK_EVEN_BYTES, DoubleBufferedReader
from repro.tune.runtime import current
from repro.util.validation import SimulationError

BB_ITEMS = 2


def make_array(ntracks: int = 16, D: int = 2, per_op: bool = False) -> DiskArray:
    arr = (
        FaultyDiskArray(D, BB_ITEMS, FaultPlan().injector_for(0))
        if per_op
        else DiskArray(D=D, B=BB_ITEMS)
    )
    bb = arr.block_bytes
    n = D * ntracks
    payload = bytes(range(256)) * (n * bb // 256 + 1)
    disks = np.arange(n, dtype=np.int64) % D
    tracks = np.arange(n, dtype=np.int64) // D
    arr.write_run(disks, tracks, BlockRun(payload[: n * bb], n, bb))
    return arr, disks, tracks


class TestReader:
    def test_fifo_order_and_accounting_identity(self):
        """Prefetched reads return the same bytes and leave the same
        IOStats as the synchronous read_run sequence."""
        arr, disks, tracks = make_array()
        ref, _, _ = make_array()
        chunks = [slice(0, 8), slice(8, 20), slice(20, 32)]

        reader = DoubleBufferedReader()
        for i, c in enumerate(chunks):
            reader.submit(arr, disks[c], tracks[c], key=i)
        got = []
        for i, c in enumerate(chunks):
            flat, buf = reader.get(i)
            got.append(bytes(flat))
            reader.release(buf)
        reader.close()

        expect = [bytes(ref.read_run(disks[c], tracks[c])) for c in chunks]
        assert got == expect
        assert arr.stats.as_dict() == ref.stats.as_dict()
        assert [d.blocks_read for d in arr.disks] == [
            d.blocks_read for d in ref.disks
        ]

    def test_out_of_order_get_is_refused(self):
        arr, disks, tracks = make_array()
        reader = DoubleBufferedReader()
        reader.submit(arr, disks[:2], tracks[:2], key="a")
        reader.submit(arr, disks[2:4], tracks[2:4], key="b")
        with pytest.raises(RuntimeError, match="out-of-order"):
            reader.get("b")
        reader.close()

    def test_no_buffer_reuse_before_release(self):
        """With depth=2 the worker must not fill a third buffer until the
        consumer releases one; released buffers then re-enter the pool."""
        arr, disks, tracks = make_array()
        reader = DoubleBufferedReader(depth=2)
        for i in range(3):
            s = slice(i * 4, (i + 1) * 4)
            reader.submit(arr, disks[s], tracks[s], key=i)
        third = reader._pending[2]

        flat0, buf0 = reader.get(0)
        data0 = bytes(flat0)
        flat1, buf1 = reader.get(1)
        assert buf0 is not buf1
        # both buffers still held by the consumer -> no free slot
        assert not third.ready.wait(0.3)
        assert bytes(flat0) == data0, "unreleased buffer was overwritten"

        reader.release(buf0)
        assert third.ready.wait(5.0), "release did not unblock the prefetcher"
        flat2, buf2 = reader.get(2)
        assert buf2 is buf0, "released buffer should be recycled"
        assert buf2 is not buf1
        reader.release(buf1)
        reader.release(buf2)
        reader.close()

    def test_graceful_drain_on_early_termination(self):
        """close() with unconsumed submissions returns promptly, kills the
        worker thread, and leaves the array re-readable with clean stats."""
        arr, disks, tracks = make_array()
        reader = DoubleBufferedReader(depth=2)
        for i in range(6):
            s = slice(i * 4, (i + 1) * 4)
            reader.submit(arr, disks[s], tracks[s], key=i)
        flat, buf = reader.get(0)
        reader.release(buf)
        reader.close()
        reader.close()  # idempotent
        assert not reader._thread.is_alive()
        with pytest.raises(RuntimeError, match="closed"):
            reader.get(1)
        with pytest.raises(RuntimeError, match="closed"):
            reader.submit(arr, disks[:1], tracks[:1], key="x")
        # only the consumed read was accounted; the rest is re-readable
        ref, _, _ = make_array()
        ref.read_run(disks[:4], tracks[:4])
        assert arr.stats.as_dict() == ref.stats.as_dict()
        arr.read_run(disks[4:8], tracks[4:8])  # dropped prefetch re-reads fine

    def test_canonical_error_raised_at_get(self):
        """An unwritten track degrades to a miss in the worker and raises
        the reference error message on the consuming thread."""
        arr, disks, tracks = make_array()
        reader = DoubleBufferedReader()
        reader.submit(
            arr,
            np.asarray([0], dtype=np.int64),
            np.asarray([999], dtype=np.int64),
            key="bad",
        )
        with pytest.raises(
            SimulationError, match="read of unwritten track 999 on disk 0"
        ):
            reader.get("bad")
        reader.close()

    def test_reference_mode_degrades_to_synchronous(self):
        """A fault-injected array never answers a speculative gather:
        every prefetch is a miss and get() serves the read through the
        per-op loop with identical results and counters."""
        arr, disks, tracks = make_array(per_op=True)
        assert not arr.try_gather(disks[:6], tracks[:6], np.empty(6 * arr.block_bytes, np.uint8))
        ref, _, _ = make_array()
        reader = DoubleBufferedReader()
        reader.submit(arr, disks[:6], tracks[:6], key=0)
        flat, buf = reader.get(0)
        assert bytes(flat) == bytes(ref.read_run(disks[:6], tracks[:6]))
        assert arr.stats.as_dict() == ref.stats.as_dict()
        assert (reader.hits, reader.misses) == (0, 1)
        reader.release(buf)
        reader.close()

    def test_bad_depth_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            DoubleBufferedReader(depth=0)


# ------------------------------------------------------------ engine level

#: contexts of N/v items: 8 KiB and 128 KiB, both below the pipeline's
#: break-even (tests that want a reader at N_BIG lower the constant);
#: N_ABOVE over v=4 puts them a quarter above it
N = 1 << 13
N_BIG = 1 << 17
N_ABOVE = 5 * PREFETCH_BREAK_EVEN_BYTES // 8


@pytest.fixture
def low_break_even(monkeypatch):
    """Put the 128 KiB contexts of ``N_BIG`` above the break-even."""
    import repro.core.par_engine as pe

    monkeypatch.setattr(pe, "PREFETCH_BREAK_EVEN_BYTES", 64 << 10)


def _sort(n=N, v=8, **kw):
    cfg = MachineConfig(N=n, v=v, p=2, D=2, B=64)
    data = np.random.default_rng(11).integers(0, 1 << 30, n, dtype=np.int64)
    res = em_run(SampleSort(), partition_array(data, cfg.v), cfg, "par", **kw)
    return (
        [o.tobytes() for o in res.outputs],
        res.report.io.as_dict(),
        res.report.context_blocks_io,
        res.report.message_blocks_io,
    )


@pytest.fixture
def spy_readers(monkeypatch):
    """Every ``DoubleBufferedReader`` the in-process engine constructs, and
    the names of the ``repro-prefetch`` threads alive right after each."""
    import threading

    import repro.core.par_engine as pe

    created, threads = [], []

    class Spy(pe.DoubleBufferedReader):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            created.append(self)
            threads.extend(
                t.name for t in threading.enumerate() if t.name == "repro-prefetch"
            )

    monkeypatch.delenv("REPRO_FAULTS", raising=False)  # plans bypass the pipeline
    monkeypatch.delenv("REPRO_WORKERS", raising=False)  # Spy can't see into workers
    monkeypatch.setattr(pe, "DoubleBufferedReader", Spy)
    return created, threads


class TestEnginePrefetch:
    def test_prefetch_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFETCH", "0")
        assert not current().prefetch
        monkeypatch.setenv("REPRO_PREFETCH", "1")
        assert current().prefetch
        monkeypatch.delenv("REPRO_PREFETCH")
        assert current().prefetch  # default on

    def test_prefetch_bit_identity(self, monkeypatch, spy_readers, low_break_even):
        monkeypatch.setenv("REPRO_PREFETCH", "1")
        on = _sort(N_BIG)
        assert spy_readers[0]
        monkeypatch.setenv("REPRO_PREFETCH", "0")
        off = _sort(N_BIG)
        assert on == off

    def test_prefetch_engages(self, monkeypatch, spy_readers):
        """The pipeline really runs at the shipped constant: the reader sees
        every local pid once per round, and is torn down between rounds."""
        created, _threads = spy_readers
        monkeypatch.setenv("REPRO_PREFETCH", "1")
        _sort(N_ABOVE, v=4)
        assert created, "prefetcher never engaged"
        assert all(r._closed for r in created)
        assert all(not r._pending for r in created)

    @pytest.mark.parametrize("break_even", [1, None, 1 << 30])
    def test_break_even_decides_whether_a_reader_starts(
        self, monkeypatch, spy_readers, break_even
    ):
        """Granularity control: a round whose mean context read is below the
        break-even (``None``: the shipped constant, which the 8 KiB contexts
        of this run are under) constructs no reader, starts no thread and
        emits no ``prefetch`` event — and on either side of the constant the
        run is the synchronous run."""
        import threading

        import repro.core.par_engine as pe
        from repro.obs import JsonlRecorder

        assert pe.PREFETCH_BREAK_EVEN_BYTES == PREFETCH_BREAK_EVEN_BYTES
        created, threads = spy_readers
        if break_even is not None:
            monkeypatch.setattr(pe, "PREFETCH_BREAK_EVEN_BYTES", break_even)
        monkeypatch.setenv("REPRO_PREFETCH", "1")
        tracer = JsonlRecorder()
        on = _sort(tracer=tracer)
        events = tracer.counts().get("prefetch", 0)
        if break_even == 1:  # every round is above it
            assert created and threads and events == len(created)
        else:
            assert not created and not threads and not events
        assert not [t for t in threading.enumerate() if t.name == "repro-prefetch"]
        monkeypatch.setenv("REPRO_PREFETCH", "0")
        assert on == _sort()

    def test_fault_plans_bypass_the_pipeline(
        self, monkeypatch, spy_readers, low_break_even
    ):
        """Fault injection services every access per-op; with prefetch
        enabled the run must stay green, bit-identical, and pipeline-free
        (at a size whose contexts are above the break-even)."""
        created, _threads = spy_readers
        plan = FaultPlan(
            seed=13, p_transient_read=0.02, p_transient_write=0.02,
            retry=RetryPolicy(max_retries=6),
        )
        monkeypatch.setenv("REPRO_PREFETCH", "1")
        faulty_on = _sort(N_BIG, faults=plan)
        assert not created, "fault-injected run must not start a prefetcher"
        monkeypatch.setenv("REPRO_PREFETCH", "0")
        faulty_off = _sort(N_BIG, faults=plan)
        assert faulty_on == faulty_off
