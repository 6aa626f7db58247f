"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import gc
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import settings

from repro.cgm.config import MachineConfig

# Deterministic property testing: examples are derived from the test body
# (derandomize), not a per-run entropy source, so CI and local runs explore
# the same cases and there are no flaky examples.  Select a different
# profile with HYPOTHESIS_PROFILE if exploratory fuzzing is wanted.
settings.register_profile(
    "repro-deterministic", derandomize=True, deadline=None, max_examples=60
)
settings.register_profile("repro-explore", deadline=None, max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro-deterministic"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_cfg() -> MachineConfig:
    """A machine comfortably inside every paper constraint."""
    return MachineConfig(N=1 << 14, v=8, D=2, B=64)


def all_engine_kinds() -> list[str]:
    return ["memory", "seq", "vm", "par"]


def cfg_for(kind: str, base: MachineConfig) -> MachineConfig:
    """Adapt a config to an engine kind (par needs p > 1)."""
    if kind == "par":
        return base.with_(p=max(2, min(4, base.v)))
    return base


# ------------------------------------------------------------ leak guard


def _child_pids() -> set[int]:
    """Direct children of this process (all threads), zombies included."""
    pids: set[int] = set()
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:
            continue  # thread exited between listdir and open
    return pids


def _socket_fds() -> set[str]:
    """``socket:[inode]`` of every socket this process has open."""
    found = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue  # closed between listdir and readlink
        if target.startswith("socket:"):
            found.add(target)
    return found


def _arena_dirs() -> set[str]:
    bases = {tempfile.gettempdir(), os.environ.get("REPRO_SPILL_DIR") or ""}
    return {
        os.path.join(base, name)
        for base in bases
        if os.path.isdir(base)
        for name in os.listdir(base)
        if name.startswith("repro-arena-")
    }


def _worker_surface() -> dict[str, set]:
    return {
        "child process": _child_pids(),
        "socket": _socket_fds(),
        "/dev/shm entry": set(os.listdir("/dev/shm")),
        "spill dir": _arena_dirs(),
    }


@pytest.fixture
def worker_leak_guard():
    """What a test of the worker surface may not leave behind: a child
    process, an open socket, a shared-memory segment or an mmap-arena
    spill directory — on success, failure, kill and crash paths alike.

    Requested through ``pytestmark = pytest.mark.usefixtures(...)`` so it
    is set up before (and torn down after) a test's own fixtures, e.g.
    the in-process node daemons.  Daemon session threads finish closing
    their sockets a moment after ``shutdown()`` returns, hence the short
    settle loop.
    """
    before = _worker_surface()
    yield
    deadline = time.monotonic() + 5.0
    while True:
        gc.collect()  # an engine's array<->arena cycle holds its spill dir
        after = _worker_surface()
        leaks = {
            what: sorted(after[what] - before[what])
            for what in after
            if after[what] - before[what]
        }
        if not leaks or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert not leaks, f"left behind: {leaks}"
