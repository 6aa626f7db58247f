"""One-call external-memory operations built on the simulation engines.

These are the functions a downstream user calls::

    cfg = MachineConfig(N=n, v=16, p=2, D=2, B=512)
    out = em_sort(data, cfg)                     # parallel EM sort
    out.values                                    # the sorted array
    out.report.io.parallel_ios                    # PDM cost of the run

``engine=`` selects the backend: ``"seq"`` (Algorithm 2, default when
p == 1), ``"par"`` (Algorithm 3), ``"memory"`` (pure CGM reference), or
``"vm"`` (the Figure 3 LRU-paging baseline).  Every other run option
(tracer, metrics, faults, checkpoint, resume, runtime, profile,
overrides) is declared once, on :func:`make_engine`;
``em_run``, the ``em_*`` helpers and the Group B/C wrappers of
:mod:`repro.algorithms` forward them, so a knob chosen for one run is an
argument of that run and never a write to ``os.environ``.

The paper's Section 3 obtains sort / permute / transpose "by simulating
known CGM algorithms": an operation is a CGM program plus a
distribution of its input over the v virtual processors.  :data:`OPS`
is that definition, one row per Figure-5 Group-A operation — program,
estimated round count, seeded input generator, splitter, assembler and
NumPy reference.  ``em_sort`` / ``em_permute`` / ``em_transpose``, the
tuner's ``build_workload``, the service's ``execute_spec`` and the CLI's
``sort`` / ``permute`` / ``transpose`` commands are all lookups in it,
so a fourth operation is one more row.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Mapping

import numpy as np

from repro.algorithms.collectives import partition_array
from repro.algorithms.permutation import CGMPermute
from repro.algorithms.sorting import SampleSort
from repro.algorithms.transpose import CGMTranspose
from repro.cgm.config import MachineConfig
from repro.cgm.engine import Engine, InMemoryEngine, RunResult
from repro.cgm.metrics import CostReport
from repro.cgm.program import CGMProgram
from repro.core.par_engine import ParEMEngine
from repro.core.vm_engine import VMEngine
from repro.faults.checkpoint import CheckpointManager
from repro.faults.plan import FaultPlan
from repro.obs.bus import EventBus, NullRecorder
from repro.obs.metrics import MetricsRegistry
from repro.tune.runtime import RuntimeConfig
from repro.util.validation import ConfigurationError

_ENGINES = {
    "seq": partial(ParEMEngine, seq=True),
    "par": ParEMEngine,
    "memory": InMemoryEngine,
    "vm": VMEngine,
}


def default_engine(p: int) -> str:
    """The backend a run gets when none is named: Algorithm 2 on one real
    processor, Algorithm 3 on several."""
    return "seq" if p == 1 else "par"


def make_engine(
    cfg: MachineConfig,
    engine: str | None = None,
    balanced: bool = False,
    tracer: EventBus | NullRecorder | None = None,
    metrics: MetricsRegistry | None = None,
    faults: FaultPlan | str | None = None,
    checkpoint: CheckpointManager | str | None = None,
    resume: bool = False,
    runtime: RuntimeConfig | None = None,
    profile: str | dict | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> Engine:
    """Engine factory; ``None`` picks seq/par EM (:func:`default_engine`).

    Every ``REPRO_*`` knob is resolved here, once, into one per-run
    :class:`~repro.tune.runtime.RuntimeConfig` snapshot (precedence:
    *overrides* > environment > tuned profile > default) that the engine,
    all its storage and its worker processes hold for the whole run —
    flipping an environment variable between two runs re-resolves cleanly,
    never half-applies.  Malformed knob values raise a named
    :class:`~repro.tune.knobs.KnobError` instead of a bare traceback.

    *overrides* maps knob field names to explicit values for this run
    (the CLI's ``--workers`` / ``--arena`` / ``--transport`` / ``--nodes``;
    ``None`` entries are skipped); *runtime* pins an explicit pre-resolved
    snapshot (the tuner's probes), with *overrides* applied on top of it;
    *profile* applies a tuned-profile JSON document (path or loaded dict)
    under the environment, as does ``REPRO_PROFILE`` when neither argument
    is given.

    The ``par`` backend on p > 1 runs on a fleet of worker processes when
    the resolved ``workers`` knob asks for more than one; the fleet size
    is computed here, once: the knob capped at p, or under the tcp
    transport when *overrides* names no count and the knob is at most one,
    one worker session per node plus slice 0 in this process — an
    explicit ``workers`` 0 runs in-process whatever the transport.

    Resilience knobs (EM backends only): *faults* is a
    :class:`~repro.faults.plan.FaultPlan` (or a path to its JSON form)
    injected into every disk array; *checkpoint* a
    :class:`~repro.faults.checkpoint.CheckpointManager` (or directory)
    that snapshots the run at every round boundary; *resume* restores the
    newest snapshot instead of running setup.  A fault plan reaches a run
    only as this argument (``--faults`` on the CLI, a job spec's
    ``faults`` section): no knob or environment variable injects one.

    When no *tracer* is passed, the resolved ``trace`` knob (``REPRO_TRACE``,
    or ``overrides={"trace": ...}``) can install a live
    :class:`~repro.obs.bus.EventBus` (a true token records in memory; a
    path value streams JSON lines there) — off, the default stays the
    zero-cost :data:`~repro.obs.bus.NULL_RECORDER`.  A *metrics* registry
    is attached to the run's bus (:meth:`MetricsRegistry.attach
    <repro.obs.metrics.MetricsRegistry.attach>`), so with no tracer the run
    records into an in-memory bus the registry folds.
    """
    prof_doc: dict | None = None
    if runtime is not None:
        rt = runtime.with_overrides(overrides)
    else:
        rt = RuntimeConfig.resolve(overrides)
        if profile is None and rt.profile:
            profile = rt.profile
        if profile is not None:
            from repro.tune.profile import config_from_profile, load_profile

            prof_doc = load_profile(profile) if isinstance(profile, str) else profile
            rt = RuntimeConfig.resolve(overrides, profile=config_from_profile(prof_doc))
    if tracer is None and rt.trace is not None:
        in_memory = rt.trace.lower() in ("1", "true", "yes", "on")
        tracer = EventBus(sink=None if in_memory else rt.trace)
    if metrics is not None:
        if tracer is None or not tracer.enabled:
            tracer = EventBus(monitor=False)
        metrics.attach(tracer)
    if engine is None:
        engine = default_engine(cfg.p)
    try:
        cls = _ENGINES[engine]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {sorted(_ENGINES)}"
        ) from None
    eng: Engine | None = None
    if engine == "par" and cfg.p > 1:
        workers = rt.workers
        named = (overrides or {}).get("workers") is not None
        if rt.transport == "tcp" and workers <= 1 and not named:
            # spanning machines requires the worker coordinator; with no
            # explicit count, run one worker session per configured node,
            # and slice 0 here (k - 1 nodes for k workers)
            from repro.core.transport import require_nodes

            workers = len(require_nodes(rt.nodes)) + 1
        workers = min(workers, cfg.p)
        if workers > 1:
            from repro.core.workers import ProcessParEngine

            eng = ProcessParEngine(cfg, workers, balanced=balanced, tracer=tracer)
    if eng is None:
        eng = cls(cfg, balanced=balanced, tracer=tracer)
    eng.runtime = rt
    if isinstance(faults, str):
        faults = FaultPlan.from_json(faults)
    eng.faults = faults
    if checkpoint is not None:
        eng.checkpoint = (
            checkpoint
            if isinstance(checkpoint, CheckpointManager)
            else CheckpointManager(checkpoint)
        )
    eng.resume = bool(resume)
    if prof_doc is not None:
        measured = prof_doc.get("search", {}).get("transport")
        if measured and measured != rt.transport:
            import warnings

            warnings.warn(
                f"tuned profile was measured under the {measured!r} transport "
                f"but this run uses {rt.transport!r}; its wall-clock choices "
                "may not transfer (logical counters are unaffected)",
                UserWarning,
                stacklevel=2,
            )
    if prof_doc is not None and tracer is not None and tracer.enabled:
        # surface the applied profile before run_begin: repro analyze
        # counts pre-superstep kinds as setup events and reports the
        # chosen configuration + rationale alongside the run
        tracer.emit(
            "tuned_config",
            config=dict(prof_doc.get("config", {})),
            machine=dict(prof_doc.get("machine", {})),
            rationale=list(prof_doc.get("rationale", [])),
            fingerprint=prof_doc.get("fingerprint", ""),
        )
    return eng


def em_run(
    program: CGMProgram,
    inputs: list[Any],
    cfg: MachineConfig,
    engine: str | None = None,
    balanced: bool = False,
    **options: Any,
) -> RunResult:
    """Run any CGM program on the selected backend (*options* are
    :func:`make_engine`'s)."""
    return make_engine(cfg, engine, balanced, **options).run(program, inputs)


# ------------------------------------------------------------ the op table

#: generated Group-A items are drawn from [0, _HIGH)
_HIGH = 2**50


def _values(rng: np.random.Generator, n: int) -> tuple[np.ndarray]:
    return (rng.integers(0, _HIGH, n),)


def _values_and_destinations(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    return rng.integers(0, _HIGH, n), rng.permutation(n).astype(np.int64)


def _matrix(
    rng: np.random.Generator, n: int, rows: int | None = None
) -> tuple[np.ndarray]:
    """An n-item matrix of *rows* rows (default: the largest power of two
    that is at most sqrt(n) and divides n)."""
    if rows is None:
        rows = 1 << ((max(n, 2).bit_length() - 1) // 2)
        while n % rows:
            rows >>= 1
    return (rng.integers(0, _HIGH, (rows, n // rows)),)


def _split_pairs(values: np.ndarray, destinations: np.ndarray, v: int) -> list[Any]:
    return list(zip(partition_array(values, v), partition_array(destinations, v)))


def _split_bands(matrix: np.ndarray, v: int) -> list[Any]:
    k, ell = matrix.shape
    inputs = []
    row0 = 0
    for band in np.array_split(matrix, v, axis=0):
        inputs.append((band, row0, k, ell))
        row0 += band.shape[0]
    return inputs


def _concatenate(outputs: list[Any], *raw: np.ndarray) -> np.ndarray:
    return np.concatenate(outputs)


def _stack_bands(outputs: list[Any], matrix: np.ndarray) -> np.ndarray:
    bands = [o for o in outputs if o.size]
    return np.vstack(bands) if bands else np.zeros(matrix.shape[::-1], dtype=np.int64)


def _permuted(values: np.ndarray, destinations: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    out[destinations] = values
    return out


@dataclass(frozen=True)
class Op:
    """One Group-A operation: its CGM program and the four decisions that
    turn ``(seed, n)`` into a verified run.  *raw* below is the tuple of
    arrays the matching ``em_<op>`` takes (``(data,)``, ``(values,
    destinations)``, ``(matrix,)``)."""

    program: type[CGMProgram]
    #: estimated CGM rounds (ranks the tuner's candidates; need not be exact)
    rounds: int
    #: past participle for report lines ("sorted 4096 items")
    past: str
    #: ``generate(rng, n) -> raw``: the deterministic input
    generate: Callable[..., tuple]
    #: ``split(*raw, v)``: one input per virtual processor
    split: Callable[..., list[Any]]
    #: ``assemble(outputs, *raw)``: the per-processor outputs as one array
    assemble: Callable[..., np.ndarray]
    #: ``reference(*raw)``: the expected result, from NumPy alone
    reference: Callable[..., np.ndarray]


OPS: dict[str, Op] = {
    "sort": Op(SampleSort, 3, "sorted", _values, partition_array, _concatenate, np.sort),
    "permute": Op(
        CGMPermute, 2, "permuted", _values_and_destinations, _split_pairs,
        _concatenate, _permuted,
    ),
    "transpose": Op(
        CGMTranspose, 2, "transposed", _matrix, _split_bands, _stack_bands,
        np.transpose,
    ),
}


def output_sha256(values: np.ndarray) -> str:
    """Canonical content hash of a result: dtype + shape + C-order bytes."""
    arr = np.ascontiguousarray(values)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}:{arr.shape}".encode("ascii"))
    h.update(arr.tobytes())
    return h.hexdigest()


@dataclass
class EMResult:
    """An EM operation's output plus its full cost accounting."""

    values: Any
    result: RunResult

    @property
    def report(self) -> CostReport:
        return self.result.report

    @property
    def cfg(self) -> MachineConfig:
        return self.result.cfg


def em_op(
    name: str,
    raw: tuple,
    cfg: MachineConfig,
    engine: str | None = None,
    balanced: bool = False,
    **options: Any,
) -> EMResult:
    """Run ``OPS[name]`` on the *raw* arrays: split, simulate, assemble."""
    op = OPS[name]
    res = em_run(op.program(), op.split(*raw, cfg.v), cfg, engine, balanced, **options)
    return EMResult(op.assemble(res.outputs, *raw), res)


def em_sort(
    data: np.ndarray,
    cfg: MachineConfig,
    engine: str | None = None,
    balanced: bool = False,
    **options: Any,
) -> EMResult:
    """Sort *data* with the simulated CGM sample sort (O(N/(pDB)) I/Os)."""
    return em_op("sort", (np.asarray(data),), cfg, engine, balanced, **options)


def em_permute(
    values: np.ndarray,
    destinations: np.ndarray,
    cfg: MachineConfig,
    engine: str | None = None,
    balanced: bool = False,
    **options: Any,
) -> EMResult:
    """Permute int64 *values*: output[destinations[i]] = values[i].

    *destinations* must be a permutation of 0..N-1 (Algorithm 4 of the
    paper — O(N/(pDB)) I/Os vs the PDM's min(N/D, sort) lower bound).
    """
    values = np.asarray(values)
    destinations = np.asarray(destinations, dtype=np.int64)
    if values.shape != destinations.shape:
        raise ConfigurationError("values and destinations must have equal length")
    return em_op("permute", (values, destinations), cfg, engine, balanced, **options)


def em_transpose(
    matrix: np.ndarray,
    cfg: MachineConfig,
    engine: str | None = None,
    balanced: bool = False,
    **options: Any,
) -> EMResult:
    """Transpose a k x ell int64 matrix (O(N/(pDB)) I/Os)."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ConfigurationError("em_transpose needs a 2-D matrix")
    return em_op("transpose", (matrix,), cfg, engine, balanced, **options)
