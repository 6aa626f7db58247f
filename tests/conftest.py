"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import gc
import os
import sys
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


# ------------------------------------------------------------ fault lane

#: tests whose runs must stay clean under ``--fault-plan`` (recorded
#: documents and counters, clean-vs-faulted comparisons)
NO_FAULT_PLAN = "no_fault_plan"

#: True while a test marked ``no_fault_plan`` runs
_RUN_CLEAN = pytest.StashKey[bool]()


def pytest_addoption(parser):
    parser.addoption(
        "--fault-plan",
        metavar="PATH",
        default=None,
        help="run every fault-capable engine that make_engine builds without "
        f"an explicit plan under this fault-plan JSON (tests marked "
        f"{NO_FAULT_PLAN} excepted); logical counters must not move",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        f"{NO_FAULT_PLAN}: this test's runs stay clean under --fault-plan",
    )
    path = config.getoption("--fault-plan")
    if path:
        _inject_fault_plan(path, config)


def _inject_fault_plan(path: str, config) -> None:
    """Wrap ``make_engine`` for the session, wherever a module holds it, so
    an engine built with no plan of its own gets *path*'s (a frozen value,
    loaded once: a bad plan fails the session at start-up)."""
    from repro.em import runner
    from repro.faults.plan import FaultPlan

    plan = FaultPlan.from_json(path)
    original = runner.make_engine

    def make_engine(*args, **kwargs):
        eng = original(*args, **kwargs)
        clean = config.stash.get(_RUN_CLEAN, False)
        if not clean and eng.faults is None and eng.supports_faults:
            eng.faults = plan
        return eng

    for mod in list(sys.modules.values()):
        if getattr(mod, "make_engine", None) is original:
            mod.make_engine = make_engine


@pytest.fixture(autouse=True)
def _fault_plan_opt_out(request):
    stash = request.config.stash
    stash[_RUN_CLEAN] = request.node.get_closest_marker(NO_FAULT_PLAN) is not None
    yield
    stash[_RUN_CLEAN] = False


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
