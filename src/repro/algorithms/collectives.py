"""Collective communication patterns as small CGM programs and helpers.

CGM communication happens *between* rounds, so a collective is a pattern
spanning rounds rather than a blocking call.  The programs here are used
directly in tests/examples and serve as the smallest non-trivial loads for
the engines; the helpers (:func:`partition_array`, :func:`bucket_by_dest`)
are the partitioning idioms every Figure 5 algorithm uses inside its round
callbacks.

The Group B/C one-call wrappers (:mod:`repro.algorithms.geometry.api`,
:mod:`repro.algorithms.graphs.api`) share the last section: every engine
run they make goes through :func:`run_stage`, and all of them return a
:class:`StageResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.cgm.config import MachineConfig
from repro.cgm.metrics import CostReport
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape
from repro.util.validation import ConfigurationError


def partition_array(arr: np.ndarray, v: int) -> list[np.ndarray]:
    """Split *arr* into v nearly equal contiguous slices (CGM input layout).

    The first ``len(arr) % v`` processors receive one extra element, so
    sizes differ by at most one.
    """
    return [np.array(chunk) for chunk in np.array_split(arr, v)]


def slice_bounds(n: int, v: int, pid: int) -> tuple[int, int]:
    """Global [start, end) of processor *pid*'s slice under array_split."""
    base, extra = divmod(n, v)
    start = pid * base + min(pid, extra)
    return start, start + base + (1 if pid < extra else 0)


def owner_of_index(idx: np.ndarray | int, n: int, v: int):
    """Processor owning global index *idx* under the array_split layout."""
    base, extra = divmod(n, v)
    idx = np.asarray(idx)
    cut = extra * (base + 1)
    small = idx < cut
    owner = np.where(
        small,
        idx // max(base + 1, 1),
        extra + (idx - cut) // max(base, 1) if base else extra,
    )
    return owner if owner.ndim else int(owner)


def bucket_by_dest(dests: np.ndarray, payloads: np.ndarray, v: int) -> dict[int, np.ndarray]:
    """Group *payloads* rows by destination processor (vectorized).

    Returns {dest: payload-rows} with empty destinations omitted — the
    all-to-all idiom of every partition-based CGM algorithm.
    """
    order = np.argsort(dests, kind="stable")
    sorted_dests = dests[order]
    sorted_payloads = payloads[order]
    out: dict[int, np.ndarray] = {}
    boundaries = np.searchsorted(sorted_dests, np.arange(v + 1))
    for d in range(v):
        lo, hi = boundaries[d], boundaries[d + 1]
        if hi > lo:
            out[d] = sorted_payloads[lo:hi]
    return out


class Broadcast(CGMProgram):
    """Root sends its value to everyone.  lambda = 1."""

    name = "broadcast"

    def __init__(self, root: int = 0) -> None:
        self.root = root

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        ctx["pid"] = pid
        ctx["value"] = local_input

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        if r == 0:
            if ctx["pid"] == self.root:
                for dest in range(env.v):
                    if dest != self.root:
                        env.send(dest, ctx["value"])
            return False
        msgs = env.messages()
        if msgs:
            ctx["value"] = msgs[0].payload
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["value"]


class AllGather(CGMProgram):
    """Everyone ends with the list of all processors' values.  lambda = 1."""

    name = "all-gather"

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        ctx["pid"] = pid
        ctx["value"] = local_input

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        if r == 0:
            for dest in range(env.v):
                if dest != ctx["pid"]:
                    env.send(dest, ctx["value"])
            return False
        gathered: list[Any] = [None] * env.v
        gathered[ctx["pid"]] = ctx["value"]
        for m in env.messages():
            gathered[m.src] = m.payload
        ctx["gathered"] = gathered
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["gathered"]


class PrefixSum(CGMProgram):
    """Exclusive prefix sums of one scalar per processor.  lambda = 2.

    Round 0 gathers local sums at processor 0; round 1 scatters each
    processor's exclusive prefix; round 2 records it.
    """

    name = "prefix-sum"

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        ctx["pid"] = pid
        ctx["value"] = local_input

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        pid = ctx["pid"]
        if r == 0:
            env.send(0, float(ctx["value"]), tag="up")
            return False
        if r == 1:
            if pid == 0:
                vals = [0.0] * env.v
                for m in env.messages(tag="up"):
                    vals[m.src] = m.payload
                acc = 0.0
                for dest in range(env.v):
                    env.send(dest, acc, tag="down")
                    acc += vals[dest]
            return False
        for m in env.messages(tag="down"):
            ctx["prefix"] = m.payload
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["prefix"]


class AllToAll(CGMProgram):
    """Each processor sends a distinct payload to every other processor.

    Used in tests as the canonical full h-relation; ``make_payload(pid,
    dest)`` customizes contents.
    """

    name = "all-to-all"

    def __init__(self, make_payload=None) -> None:
        self.make_payload = make_payload or (lambda pid, dest: (pid, dest))

    def setup(self, ctx: Context, pid: int, shape: Shape, local_input: Any) -> None:
        ctx["pid"] = pid

    def round(self, r: int, ctx: Context, env: RoundEnv) -> bool:
        if r == 0:
            for dest in range(env.v):
                env.send(dest, self.make_payload(ctx["pid"], dest))
            return False
        ctx["received"] = {m.src: m.payload for m in env.messages()}
        return True

    def finish(self, ctx: Context) -> Any:
        return ctx["received"]


# ------------------------------------------------- Group B/C wrapper stages


@dataclass
class StageResult:
    """Assembled output of a Group B/C wrapper, with one cost report and
    one machine config (the one that actually ran) per engine run.

    Chained CGM algorithms are themselves CGM algorithms, so the stages'
    lambdas (and hence I/O counts) add.
    """

    values: Any
    reports: list[CostReport] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)
    cfgs: list[MachineConfig] = field(default_factory=list)

    @classmethod
    def of(cls, values: Any, *stages: "StageResult", **extra: Any) -> "StageResult":
        """*values* with the accounting of *stages*, in run order."""
        return cls(
            values,
            [r for s in stages for r in s.reports],
            extra,
            [c for s in stages for c in s.cfgs],
        )

    @property
    def total_parallel_ios(self) -> int:
        return sum(r.io.parallel_ios for r in self.reports)

    @property
    def total_rounds(self) -> int:
        return sum(r.rounds for r in self.reports)


def run_stage(
    program: CGMProgram,
    arrays: np.ndarray | tuple[np.ndarray, ...],
    cfg: MachineConfig,
    engine: str | None = None,
    n: int | None = None,
    **options: Any,
) -> StageResult:
    """One engine run of a wrapper; ``values`` are the per-processor outputs.

    *arrays* is the stage's input, split evenly over the v virtual
    processors (a tuple of arrays gives each processor a tuple of slices).
    The caller's machine is re-targeted at the stage's id-space size *n*
    (default: the size of the first array; it may be smaller than v — tiny
    stages leave some processors empty) and ``M`` goes back to its default
    for that size.  *options* are :func:`repro.em.runner.make_engine`'s.
    """
    from repro.em.runner import em_run  # imports this module

    if isinstance(arrays, tuple):
        first = arrays[0]
        inputs = list(zip(*(partition_array(a, cfg.v) for a in arrays)))
    else:
        first = arrays
        inputs = partition_array(arrays, cfg.v)
    stage_cfg = cfg.with_(N=max(1, int(first.size if n is None else n)), M=None)
    res = em_run(program, inputs, stage_cfg, engine, **options)
    return StageResult(res.outputs, [res.report], {}, [res.cfg])


def refuse_checkpoint(wrapper: str, options: dict[str, Any]) -> None:
    """Wrappers that make several engine runs take no checkpoint: a snapshot
    is fingerprinted by program and machine shape, not by input, so two
    stages running the same program would resume each other's."""
    if options.get("checkpoint") is not None or options.get("resume"):
        raise ConfigurationError(
            f"{wrapper} is several engine runs and takes no checkpoint=/resume=; "
            "checkpoint its single-run stages, one directory each"
        )
