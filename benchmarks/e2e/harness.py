"""Timing method, span tracer and host probes of the end-to-end benchmark.

Nothing here imports ``repro``: this module is the measuring instrument,
``workloads.py`` is what it measures.

**Calibrated seconds.**  On a shared 2-core host the raw median of one
unchanged op moves 12-42 % between runs (CPU time moves with it), so raw
seconds cannot gate anything.  The harness therefore runs a frozen
calibration kernel between every two ops and reports

    calibrated = wall * CALIB_NOMINAL_S / mean(calib before, calib after)

``CALIB_NOMINAL_S`` never changes, so the unit stays "seconds on a
nominal host" and two runs of the same code agree.  The kernel is three
equal parts shaped like the simulator's own work (bulk numpy, pure
interpreter, dispatch-bound small-array numpy).  A busy neighbour slows
them differently (interpreter and dispatch by up to 70 %, bulk by 40 %),
so each workload weighs the parts by a frozen *mix* that says which kind
of work its op is made of (``OpClock``).
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
import json
import os
import resource
import statistics
import sys
import threading
import time
from typing import Any, Callable, Iterable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: everything the benchmark writes goes here (git-ignored)
OUT_DIR = os.path.join(ROOT, "bench_out", "e2e")


def benchmark_spec() -> dict[str, Any]:
    """The root ``BENCHMARK.json``: the one list of workload and metric
    names, units and bounds that the runs print and the driver reads."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


#: fixed forever: the calibration kernel's time on the nominal host
CALIB_NOMINAL_S = 0.020

# kernel sizes: frozen, and folded into Calibrator.checksum so an edit shows
_CALIB_SEED = 20260929
_CALIB_N = 1 << 17          # seeded int64 array
_CALIB_SORT_N = 44_000      # np.sort prefix
_CALIB_ARGSORT_N = 36_000   # stable argsort slice
_CALIB_LOOP_N = 41_000      # interpreter iterations with dict inserts
_CALIB_DISPATCH_N = 600     # iterations of 9 small-array numpy calls
_CALIB_SMALL = 16           # small-array length


class Calibrator:
    """The frozen calibration kernel; ``run()`` times its three parts."""

    def __init__(self) -> None:
        rng = np.random.default_rng(_CALIB_SEED)
        self._a = rng.integers(0, 2**40, _CALIB_N)
        self._idx = rng.permutation(_CALIB_N)
        self._small = [
            np.sort(rng.integers(0, 1000, _CALIB_SMALL)) for _ in range(8)
        ]
        h = hashlib.sha256()
        h.update(
            repr(
                (
                    _CALIB_SEED, _CALIB_N, _CALIB_SORT_N, _CALIB_ARGSORT_N,
                    _CALIB_LOOP_N, _CALIB_DISPATCH_N, _CALIB_SMALL,
                )
            ).encode("ascii")
        )
        h.update(self._a.tobytes())
        h.update(self._idx.tobytes())
        for s in self._small:
            h.update(s.tobytes())
        #: sha256 over the kernel's sizes and inputs (printed by run.py)
        self.checksum = h.hexdigest()
        #: every kernel time taken (all three parts), in order (host.calib_*)
        self.samples: list[float] = []

    def _bulk(self) -> int:
        a = self._a
        s = np.sort(a[:_CALIB_SORT_N])
        o = np.argsort(a[_CALIB_SORT_N : _CALIB_SORT_N + _CALIB_ARGSORT_N],
                       kind="stable")
        g = a[self._idx]
        c = np.concatenate((s, g))
        d = c.copy()
        return int(s[0]) + int(o[0]) + int(d[-1])

    @staticmethod
    def _interp() -> int:
        d: dict[int, int] = {}
        acc = 0
        for i in range(_CALIB_LOOP_N):
            acc = (acc * 31 + i) & 0xFFFF
            d[acc] = i
        return len(d)

    def _dispatch(self) -> int:
        small = self._small
        x = small[0]
        tot = 0
        for i in range(_CALIB_DISPATCH_N):
            y = small[i & 7]
            z = np.minimum(x + y, y)
            w = z[2:10]
            m = np.concatenate((w, y))
            tot += int(w.sum()) + int(np.searchsorted(y, 500))
            tot += int(np.bincount(m & 3, minlength=4)[0]) + int(m.max())
            np.cumsum(w)
        return tot

    def run(self) -> tuple[float, float, float]:
        """Wall seconds of the bulk, interpreter and dispatch parts."""
        t0 = time.perf_counter()
        self._bulk()
        t1 = time.perf_counter()
        self._interp()
        t2 = time.perf_counter()
        self._dispatch()
        t3 = time.perf_counter()
        self.samples.append(t3 - t0)
        return t1 - t0, t2 - t1, t3 - t2


Mix = tuple[float, float, float]  # weights of the bulk, interpreter, dispatch parts

EQUAL_MIX: Mix = (1.0, 1.0, 1.0)


def mixed(parts: tuple[float, float, float], mix: Mix) -> float:
    """Kernel seconds under *mix*, scaled so the equal mix is the plain sum
    (the parts are sized alike, so every mix is ``CALIB_NOMINAL_S`` on the
    nominal host)."""
    return 3.0 * sum(w * p for w, p in zip(mix, parts)) / sum(mix)


def calibration_factor(calib_before: float, calib_after: float) -> float:
    """Multiplier that turns an op's raw seconds into calibrated seconds."""
    return CALIB_NOMINAL_S / ((calib_before + calib_after) / 2.0)


def median(values: Iterable[float]) -> float:
    return float(statistics.median(values))


def iqr_rel(values: list[float]) -> float:
    """Interquartile distance over the median (the driver's spread)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that still has at
    least *beyond* samples above it; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * beyond:
        return 50.0, median(ordered)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


# ---------------------------------------------------------------- spans


class Span:
    """One traced call: name, start, end, parent — kept in memory."""

    __slots__ = ("name", "start", "end", "parent", "tid", "child_s", "raised")

    def __init__(self, name: str, parent: "Span | None", tid: int) -> None:
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.tid = tid
        self.child_s = 0.0
        #: the traced call ended in an exception (a poll that timed out)
        self.raised = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part direct child spans cover."""
        return self.duration - self.child_s

    @property
    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


_MISSING = object()


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``add(owner, attr, name)`` registers a public function or method to
    be wrapped; ``install()`` swaps the wrappers in and ``uninstall()``
    puts back exactly what was there (an inherited method is deleted from
    the subclass again rather than copied onto it).  Spans nest per
    thread; a span opened on another thread (pool workers, the prefetch
    thread) is a root there.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._clock = clock
        self._local = threading.local()
        self._targets: list[tuple[Any, str, Any, Any]] = []
        self.installed = False

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        span.start = self._clock()
        return span

    def finish(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        while stack and stack.pop() is not span:  # unwound by an exception
            pass
        if span.parent is not None:
            span.parent.child_s += span.duration

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        begin, finish = self.begin, self.finish

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = begin(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                finish(span)

        return traced

    # -- patching ------------------------------------------------------------

    def add(self, owner: Any, attr: str, name: str) -> None:
        """Register ``owner.attr`` (module function or class method)."""
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name)
        self._targets.append((owner, attr, vars(owner).get(attr, _MISSING), wrapper))

    def add_function(self, fn: Callable[..., Any], name: str) -> None:
        """Register a module-level function in every loaded module that
        binds it (``from x import f`` copies the binding into the importer)."""
        wrapper = self.wrap(fn, name)
        for mod in list(sys.modules.values()):
            if mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._targets.append((mod, attr, fn, wrapper))

    def install(self) -> None:
        if self.installed:
            return
        for owner, attr, _orig, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        for owner, attr, orig, _wrapper in reversed(self._targets):
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self.installed = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- views ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span (name, start, end, parent index, thread)."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s.name, s.start, s.end,
             -1 if s.parent is None else index[id(s.parent)], s.tid]
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "tid"],
                       "spans": rows}, fh)


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + s.self_s
    return out


def entry_calls(spans: Iterable[Span], layer: str) -> int:
    """Calls *into* a layer: spans named ``layer`` or ``layer.*`` whose
    parent is outside it (a nested call inside the layer is not counted)."""

    def inside(name: str) -> bool:
        return name == layer or name.startswith(layer + ".")

    return sum(
        1 for s in spans
        if inside(s.name) and (s.parent is None or not inside(s.parent.name))
    )


# ---------------------------------------------------------- host probes

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_pids() -> set[int]:
    """Direct children of this process (all threads), zombies included."""
    pids: set[int] = set()
    base = "/proc/self/task"
    for tid in os.listdir(base):
        try:
            with open(f"{base}/{tid}/children") as fh:
                pids.update(int(p) for p in fh.read().split())
        except OSError:
            continue  # thread exited between listdir and open
    return pids


def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime


def cpu_seconds(live_children: Iterable[int] = ()) -> float:
    """User+sys CPU of this process, every reaped child, and the named
    still-running children (a daemon cannot be reaped mid-run)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return total + sum(_proc_cpu_s(pid) for pid in live_children)


def _proc_peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(live_children: Iterable[int] = ()) -> float:
    """This process's peak RSS plus the largest child's peak (reaped
    children via ``RUSAGE_CHILDREN``, live ones via ``VmHWM``)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = max((_proc_peak_rss_kb(pid) for pid in live_children), default=0)
    return (own + max(kids, live)) / 1024.0


def shm_segments() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def listening_sockets() -> set[str]:
    """Local addresses of every TCP socket in LISTEN state."""
    out: set[str] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as fh:
                next(fh)
                for line in fh:
                    cols = line.split()
                    if cols[3] == "0A":
                        out.add(cols[1])
        except (OSError, StopIteration):
            continue
    return out


class LeakGuard:
    """What an op may not leave behind: a spill dir, a shared-memory
    segment, a listening socket or a child process.  ``arm()`` records
    the state that is allowed to persist (the daemon and its socket, the
    multiprocessing resource tracker); ``leaks()`` names anything new."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.arm()

    def arm(self) -> None:
        self._children = child_pids()
        self._shm = shm_segments()
        self._listen = listening_sockets()

    def leaks(self) -> list[str]:
        found = []
        if os.path.isdir(self.spill_dir):
            found += [f"spill:{name}" for name in os.listdir(self.spill_dir)]
        found += [f"child:{pid}" for pid in sorted(child_pids() - self._children)]
        found += [f"shm:{name}" for name in sorted(shm_segments() - self._shm)]
        found += [f"listen:{a}" for a in sorted(listening_sockets() - self._listen)]
        return found


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and the children it starts on one CPU.

    For the workloads whose op is one process.  The seq engine's prefetch
    thread and the main thread hand the GIL back and forth; left to the
    scheduler they land on the same vCPU or on two, and a hand-off across
    vCPUs costs twice as much (12 vs 25 us measured here) or, when the
    host has parked the idle vCPU, far more.  Whole runs of one unchanged
    op then read 0.42 s or 0.59 s with identical calibration-kernel times,
    because the single-threaded kernel never pays for a wake-up.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# ------------------------------------------------------------ op timing


def steal_seconds() -> float:
    """Seconds the hypervisor ran someone else on the vCPUs this process
    may use (``steal`` of /proc/stat; 0 where the kernel has no such
    column).  Measured in the same run, it is the one part of the host's
    noise that need not be estimated."""
    cpus = os.sched_getaffinity(0)
    ticks = 0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if not line.startswith("cpu"):
                    break
                fields = line.split()
                if fields[0][3:].isdigit() and int(fields[0][3:]) in cpus:
                    ticks += int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / _CLK_TCK


def _net(wall: float, stolen: float) -> float:
    """Wall seconds minus stolen ones; the tick-granular steal counter
    can overshoot a short interval, so at most half is ever removed."""
    return wall - min(stolen, wall / 2.0)


@dataclass(slots=True)
class Sample:
    """One timed op: raw wall, stolen and CPU seconds plus the factor
    that turns seconds on this host, now, into calibrated seconds."""

    wall: float
    stolen: float
    cpu: float
    factor: float

    @property
    def wall_cal(self) -> float:
        # steal is summed over vCPUs, so an op that kept k of them busy lost
        # stolen / k of its wall time.  Guest CPU time excludes steal (a
        # pinned one-process op reads cpu = wall - stolen), hence k below.
        busy = max(1.0, (self.cpu + self.stolen) / self.wall)
        return _net(self.wall, self.stolen / busy) * self.factor

    @property
    def cpu_cal(self) -> float:
        return self.cpu * self.factor


class OpClock:
    """Times ops between calibration-kernel runs.

    The kernel run after op *i* is also the run before op *i+1* (only the
    untimed verification sits between them), so each op is bracketed by
    two kernel times taken in the same host state as the op itself.
    Stolen time is subtracted from the op and from the kernel alike.
    *mix* weighs the kernel's parts the way the workload's op uses them.
    """

    def __init__(self, calib: Calibrator, mix: Mix = EQUAL_MIX,
                 live_children: Callable[[], Iterable[int]] = lambda: ()) -> None:
        self.calib = calib
        self.mix = mix
        self._live = live_children
        self._last = self._kernel()

    def _kernel(self) -> float:
        s0 = steal_seconds()
        parts = self.calib.run()
        total = sum(parts)
        return mixed(parts, self.mix) * _net(total, steal_seconds() - s0) / total

    def refresh(self) -> None:
        """Re-take the 'before' kernel time after a pause between ops."""
        self._last = self._kernel()

    def timed(self, fn: Callable[[], Any]) -> tuple[Any, Sample]:
        before = self._last
        cpu0 = cpu_seconds(self._live())
        s0 = steal_seconds()
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        stolen = steal_seconds() - s0
        cpu = cpu_seconds(self._live()) - cpu0
        after = self._last = self._kernel()
        return result, Sample(wall, stolen, cpu, calibration_factor(before, after))
