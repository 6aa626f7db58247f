"""Cost-model-driven configuration search: the engine behind ``repro tune``.

Two stages, per the granularity-control recipe: first the Theorem 2/3
analytic cost (:func:`repro.core.theory.predicted_parallel_ios`) ranks
the whole (v, B, D, workers) candidate grid and prunes it to a short
list — the model is exact for the simulation's I/O counts, so most of
the space never needs to be run — then short measured wall-clock probes
at a reduced problem size decide among the survivors, because constant
factors (NumPy batch width, process spawn cost, the worker exchange) are
exactly what the asymptotic model cannot see.

The all-defaults configuration is always probed, so the winner's
measured probe time is ≤ the defaults' by construction.

What a workload *is* — its program, seeded input, split over v and
estimated round count — is its row of :data:`repro.em.runner.OPS`:
:class:`WorkloadSpec` accepts the table's keys, :func:`build_workload`
is the row's ``generate`` + ``split``, :func:`analytic_cost` reads its
``rounds``.

Probes pin their configuration via per-run :class:`RuntimeConfig`
snapshots (``make_engine(..., runtime=...)``) — nothing is written to
``os.environ``, so tuning is hermetic even under the CI env lanes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cgm.config import MachineConfig
from repro.core.theory import predicted_parallel_ios
from repro.em.runner import OPS, make_engine
from repro.tune.profile import TunedProfile
from repro.tune.runtime import RuntimeConfig
from repro.util.validation import ConfigurationError
from repro.util.rng import make_rng

#: the candidate grid repro tune explores (pruned analytically before probing)
V_GRID = (4, 8, 16)
B_GRID = (64, 256, 512)
D_GRID = (1, 2, 4)

#: the committed defaults (MachineConfig + knob registry) as one candidate
DEFAULTS = {"v": 8, "B": 256, "D": 2, "workers": 0}


def default_candidate() -> "Candidate":
    """The all-defaults configuration (always probed, never pruned)."""
    return Candidate(
        v=DEFAULTS["v"], B=DEFAULTS["B"], D=DEFAULTS["D"],
        workers=DEFAULTS["workers"],
    )


@dataclass(frozen=True)
class WorkloadSpec:
    """What to tune for: one operation at one size on p real processors."""

    op: str              #: sort | permute | transpose
    n: int               #: target problem size in items
    seed: int = 0
    p: int = 1

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ConfigurationError(
                f"unknown workload op {self.op!r}; choose from {sorted(OPS)}"
            )
        if self.n < 1:
            raise ConfigurationError(f"workload n must be positive, got {self.n}")

    def as_dict(self) -> dict[str, Any]:
        return {"op": self.op, "n": self.n, "seed": self.seed, "p": self.p}


def fig5_group_a_workload(n: int = 1 << 16, seed: int = 0) -> WorkloadSpec:
    """The Figure 5 Group A sorting workload (the CI tune smoke target)."""
    return WorkloadSpec(op="sort", n=n, seed=seed, p=1)


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: machine shape + knob values."""

    v: int
    B: int
    D: int
    workers: int = 0

    def label(self) -> str:
        return f"v={self.v} B={self.B} D={self.D} workers={self.workers}"

    def runtime(self) -> RuntimeConfig:
        return RuntimeConfig(workers=self.workers, arena="ram")

    def knob_config(self) -> dict[str, Any]:
        """The profile's ``config`` section for this candidate."""
        rt = self.runtime()
        return {"workers": rt.workers, "arena": rt.arena}


@dataclass
class TuneResult:
    """The tuner's full decision record."""

    profile: TunedProfile
    chosen: Candidate
    probes: list[tuple[Candidate, float]] = field(default_factory=list)
    pruned: int = 0
    total: int = 0


# ----------------------------------------------------------------- workloads


def build_workload(
    spec: WorkloadSpec, cfg: MachineConfig, n: "int | None" = None
) -> tuple[Any, list[Any]]:
    """Deterministic (program, inputs) for *spec* at size *n* on *cfg*:
    the op table's generator and splitter."""
    op = OPS[spec.op]
    raw = op.generate(make_rng(spec.seed), spec.n if n is None else n)
    return op.program(), op.split(*raw, cfg.v)


def probe_config(spec: WorkloadSpec, cand: Candidate, n: int) -> MachineConfig:
    return MachineConfig(N=n, v=cand.v, p=spec.p, D=cand.D, B=cand.B, seed=spec.seed)


def _measure_wallclock(
    spec: WorkloadSpec, cand: Candidate, n: int, reps: int
) -> float:
    """Best-of-*reps* run time of the probe workload under *cand*."""
    cfg = probe_config(spec, cand, n)
    program, inputs = build_workload(spec, cfg, n)
    rt = cand.runtime()
    make_engine(cfg, runtime=rt).run(program, inputs)  # warmup
    best = float("inf")
    for _ in range(max(1, reps)):
        eng = make_engine(cfg, runtime=rt)
        t0 = time.perf_counter()
        eng.run(program, inputs)
        best = min(best, time.perf_counter() - t0)
    return best


# --------------------------------------------------------------------- search


def enumerate_candidates(spec: WorkloadSpec) -> list[Candidate]:
    """The valid grid: p <= v, p | v, probe shape constructible."""
    workers_grid = (0,) if spec.p == 1 else (0, min(2, spec.p))
    out = []
    for v in V_GRID:
        if v < spec.p or v % spec.p:
            continue
        for B in B_GRID:
            for D in D_GRID:
                for workers in workers_grid:
                    out.append(Candidate(v=v, B=B, D=D, workers=workers))
    if not out:
        raise ConfigurationError(
            f"no tuning candidates admit p={spec.p} (need p <= v and p | v "
            f"for some v in {V_GRID})"
        )
    return out


def analytic_cost(spec: WorkloadSpec, cand: Candidate) -> float:
    """Theorem 3 predicted parallel I/Os for the full-size workload."""
    mu = -(-spec.n // cand.v)
    return predicted_parallel_ios(
        cand.v, spec.p, cand.D, cand.B,
        rounds=OPS[spec.op].rounds, mu_items=mu, h_items=mu,
    )


MeasureFn = Callable[[WorkloadSpec, Candidate, int, int], float]


def tune(
    spec: WorkloadSpec,
    probe_n: "int | None" = None,
    reps: int = 2,
    top_k: int = 4,
    measure: "MeasureFn | None" = None,
    tracer: Any = None,
) -> TuneResult:
    """Choose a configuration for *spec*; returns profile + decision record.

    *measure* is injectable (tests pass a deterministic cost function);
    the default runs real probes via :func:`_measure_wallclock`.  With a
    deterministic *measure*, the produced profile is byte-stable: no
    timestamps, stable candidate ordering, deterministic tie-breaks.
    """
    measure_fn: MeasureFn = _measure_wallclock if measure is None else measure
    n_probe = min(spec.n, 1 << 14) if probe_n is None else min(spec.n, probe_n)
    rationale: list[str] = []

    candidates = enumerate_candidates(spec)
    ranked = sorted(
        range(len(candidates)), key=lambda i: (analytic_cost(spec, candidates[i]), i)
    )
    keep = {i for i in ranked[: max(1, top_k)]}
    defaults: "Candidate | None" = default_candidate() if (
        DEFAULTS["v"] % spec.p == 0
    ) else None
    if defaults is not None and defaults in candidates:
        keep.add(candidates.index(defaults))
    else:
        defaults = None
    probe_set = [candidates[i] for i in sorted(keep)]
    pruned = len(candidates) - len(probe_set)
    rationale.append(
        f"analytic: Theorem 3 cost pruned {pruned}/{len(candidates)} candidates; "
        f"probing {len(probe_set)} (top {top_k} by predicted parallel I/Os"
        + (", plus the all-defaults config)" if defaults else ")")
    )
    if tracer is not None:
        tracer.emit(
            "tune_begin", workload=spec.as_dict(), candidates=len(candidates),
            probed=len(probe_set), probe_n=n_probe,
        )

    probes: list[tuple[Candidate, float]] = []
    for cand in probe_set:
        cost = measure_fn(spec, cand, n_probe, reps)
        probes.append((cand, cost))
        rationale.append(
            f"probe: {cand.label()}: {cost * 1e3:.3f} ms at n={n_probe} "
            f"(predicted {analytic_cost(spec, cand):.0f} parallel I/Os)"
        )
        if tracer is not None:
            tracer.emit(
                "tune_probe", candidate=cand.label(), wall_s=cost,
                predicted_ios=analytic_cost(spec, cand),
            )

    best_i = min(range(len(probes)), key=lambda i: (probes[i][1], i))
    chosen = probes[best_i][0]
    rationale.append(f"chose {chosen.label()}: fastest measured probe")

    profile = TunedProfile(
        workload=spec.as_dict(),
        machine={"v": chosen.v, "B": chosen.B, "D": chosen.D},
        config=chosen.knob_config(),
        rationale=rationale,
        search={
            "candidates": len(candidates),
            "pruned": pruned,
            "probed": len(probe_set),
            "probe_n": n_probe,
            "reps": reps,
            "top_k": top_k,
            # the carrier the probes ran on (each is pinned to its
            # candidate's runtime); apply-time warns if a run uses another
            "transport": chosen.runtime().transport,
        },
    )
    if tracer is not None:
        tracer.emit(
            "tune_end", chosen=chosen.label(), config=profile.config,
            machine=profile.machine,
        )
    return TuneResult(
        profile=profile, chosen=chosen, probes=probes,
        pruned=pruned, total=len(candidates),
    )
