"""Forked workers exchange packets on their own socketpairs (a mesh):
the coordinator relays none of them, and a peer that dies mid-exchange
is a worker crash the run heals from, like any other."""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest

from repro.algorithms.collectives import partition_array
from repro.algorithms.sorting import SampleSort
from repro.cgm.config import MachineConfig
from repro.core import workers
from repro.core.transport.session import SessionTransport
from repro.core.transport.tcp import Fleet
from repro.em.runner import em_run
from repro.obs.bus import EventBus
from repro.tune.runtime import RuntimeConfig
from repro.util.rng import make_rng

pytestmark = pytest.mark.usefixtures("worker_leak_guard")

# p=4 over three workers: slices of two, one and one reals
CFG = MachineConfig(N=1 << 12, v=8, p=4, D=2, B=32)
DATA = make_rng(41).integers(0, 2**40, 1 << 12)


def run_sort(runtime, balanced=False, **options):
    return em_run(
        SampleSort(), partition_array(DATA, 8), CFG, "par",
        balanced=balanced, runtime=runtime, **options,
    )


def counters(report) -> dict:
    return {
        "io": report.io.as_dict(),
        "io_max": report.io_max.as_dict(),
        "rounds": report.rounds,
        "supersteps": report.supersteps,
        "comm": report.comm_items,
        "cross": report.cross_items,
        "ctx_io": report.context_blocks_io,
        "msg_io": report.message_blocks_io,
        "ovf": report.overflow_blocks,
        "peak": report.peak_memory_items,
        "h": report.h_history,
    }


def local_runtime(**overrides):
    return RuntimeConfig.resolve(
        overrides={"workers": 3, "transport": "memory", **overrides}, environ={}
    )


def test_no_local_packet_goes_through_the_coordinator(monkeypatch):
    relayed, real_relay = [], Fleet._relay

    def relay(self, dest, pkt):
        relayed.append(dest)
        real_relay(self, dest, pkt)

    monkeypatch.setattr(Fleet, "_relay", relay)
    res = run_sort(local_runtime(), balanced=True, tracer=EventBus(monitor=False))
    assert np.array_equal(np.concatenate(res.outputs), np.sort(DATA))
    assert res.report.cross_items > 0
    assert relayed == []


@pytest.mark.parametrize("balanced", [False, True], ids=["direct", "balanced"])
def test_a_peer_killed_mid_exchange_heals(tmp_path, monkeypatch, balanced):
    """Worker 1 is SIGKILLed in round 1 right after its first packet
    left: worker 0 holds that packet, worker 2 waits for one that never
    comes (or writes into the dead socket).  The survivors end without
    an error reply, so the coordinator sees a crash and rewinds."""
    monkeypatch.setattr(workers, "_DEAD_GRACE", 2)
    spill, flag = tmp_path / "spill", tmp_path / "die"
    runtime = local_runtime(arena="mmap", spill_dir=str(spill))
    clean = counters(run_sort(runtime, balanced).report)

    flag.write_text("1")
    real_send = SessionTransport.send_packet

    def send_then_die(self, dest, r, phase, wire):
        real_send(self, dest, r, phase, wire)
        if self.worker_id == 1 and r == 1 and os.path.exists(flag):
            os.unlink(flag)
            os.kill(os.getpid(), signal.SIGKILL)

    # patched before the fork, so the children inherit it
    monkeypatch.setattr(SessionTransport, "send_packet", send_then_die)
    tracer = EventBus(monitor=False)
    healed = run_sort(
        runtime, balanced, checkpoint=str(tmp_path / "ck"), tracer=tracer
    )
    assert not flag.exists(), "the kill never fired"
    assert tracer.counts().get("worker_redispatch") == 1
    assert np.array_equal(np.concatenate(healed.outputs), np.sort(DATA))
    assert counters(healed.report) == clean
    assert os.listdir(spill) == []
