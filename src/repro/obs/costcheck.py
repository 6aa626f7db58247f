"""Cross-checking measured costs against the Theorem 2/3 predictions.

Theorem 2 (p=1) and Theorem 3 (p processors) price one simulated CGM
algorithm with lambda communication rounds and context size mu = O(N/v):

* **supersteps** — the real machine executes ``lambda * v/p`` compound
  supersteps (Lemma 4's blow-up; doubled in balanced mode by the relay
  superstep of Algorithm 1);
* **I/O** — each simulated virtual processor reads and writes its context
  and its message traffic once per round, all fully D-parallel, giving
  ``(v/p) * lambda * O((mu + h)/(D*B))`` parallel I/Os per real processor
  — the ``(v/p) * G * O(lambda*mu/(D*B))`` I/O-time term;
* **communication** — only traffic between *different* real processors
  touches the network, at most the h-relation volume per round.

:func:`crosscheck_report` evaluates a measured
:class:`~repro.cgm.metrics.CostReport` against these predictions inside a
constant-factor envelope ``[predicted/c, predicted*c]``.  The constants
the theorems hide are real (serialization envelopes, context state beyond
the input share, partial stripes), so callers pin ``c`` explicitly; the
test suite pins ``c = 8`` for balanced sorting and fails if a regression
pushes measured I/O outside the envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.cgm.config import MachineConfig
from repro.cgm.metrics import EM_ENGINES, CostReport
from repro.core.theory import predicted_parallel_ios

#: default constant-factor envelope for the asymptotic (I/O, comm) checks.
DEFAULT_ENVELOPE = 8.0


@dataclass(frozen=True)
class CostCheck:
    """One measured-vs-predicted comparison."""

    name: str
    measured: float
    predicted: float
    lo: float
    hi: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.lo <= self.measured <= self.hi

    def describe(self) -> str:
        status = "ok" if self.ok else "VIOLATED"
        return (
            f"[{status:>8}] {self.name}: measured {self.measured:g} vs "
            f"predicted {self.predicted:g} (envelope [{self.lo:g}, {self.hi:g}])"
            + (f"  — {self.detail}" if self.detail else "")
        )


@dataclass
class CostCrossCheck:
    """All checks for one run."""

    engine: str
    checks: list[CostCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CostCheck]:
        return [c for c in self.checks if not c.ok]

    def __getitem__(self, name: str) -> CostCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def render(self) -> str:
        head = f"cost cross-check [{self.engine}]: " + (
            "all checks passed" if self.ok else f"{len(self.failures())} VIOLATED"
        )
        return "\n".join([head] + ["  " + c.describe() for c in self.checks])


# ---------------------------------------------------------------- predictions


def predicted_supersteps(
    cfg: MachineConfig, rounds: int, engine: str, balanced: bool = False
) -> int:
    """Exact real-machine superstep count implied by Lemma 4.

    ``par-em`` executes v/p compound supersteps per CGM round; every other
    backend executes one.  Balanced routing doubles both (the relay).
    """
    per_round = cfg.vprocs_per_real if engine == "par-em" else 1
    return rounds * per_round * (2 if balanced else 1)


def theorem3_predicted_ios(
    cfg: MachineConfig, rounds: int, balanced: bool = False
) -> float:
    """Theorem 2/3 parallel-I/O count per real processor.

    ``(v/p) * lambda * ((2*ceil(mu/B) + 2*ceil(h/B)) / D)`` — context and
    message traffic each read and written once per simulated virtual
    processor per round.  Balanced mode routes message traffic twice
    (source -> intermediate -> destination), doubling the message term.
    """
    base = predicted_parallel_ios(
        cfg.v, cfg.p, cfg.D, cfg.B, rounds, cfg.mu, cfg.h
    )
    if balanced:
        msg_only = predicted_parallel_ios(cfg.v, cfg.p, cfg.D, cfg.B, rounds, 0, cfg.h)
        base += msg_only
    return base


def superstep_io_budget(machine: Mapping[str, Any], balanced: bool) -> float | None:
    """Theorem 2/3 parallel I/Os of one CGM round of the run whose
    ``run_begin`` header gives *machine* (N, v, p, D, B, M), summed over the
    p reals as ``superstep_end`` counts them; ``None`` for a bad header."""
    if not all(isinstance(machine.get(k), int) for k in ("N", "v", "p", "D", "B")):
        return None
    try:
        cfg = MachineConfig(
            N=machine["N"], v=machine["v"], p=machine["p"], D=machine["D"],
            B=machine["B"], M=machine.get("M"),
        )
    except Exception:
        return None  # replayed or hand-edited header: observe, don't judge
    return theorem3_predicted_ios(cfg, 1, balanced) * cfg.p


def theorem3_io_envelope(
    cfg: MachineConfig, rounds: int, c: float = DEFAULT_ENVELOPE, balanced: bool = False
) -> tuple[float, float]:
    """The ``[pred/c, pred*c]`` per-processor envelope the tests pin."""
    pred = theorem3_predicted_ios(cfg, rounds, balanced)
    return pred / c, pred * c


# ---------------------------------------------------------------- the checker


def crosscheck_report(
    report: CostReport,
    cfg: MachineConfig,
    balanced: bool = False,
    c: float = DEFAULT_ENVELOPE,
) -> CostCrossCheck:
    """Compare *report* against the Theorem 2/3 cost model.

    Checks (``c`` is the constant-factor envelope):

    * ``supersteps`` — exact (Lemma 4 is not asymptotic);
    * ``io_per_proc`` — busiest processor's parallel I/Os in the Theorem
      2/3 envelope (skipped for non-EM engines, which issue no I/O);
    * ``io_total`` — summed parallel I/Os in p times that envelope;
    * ``network_items`` — cross-processor traffic at most ``c * lambda *
      v * h`` items (and exactly 0 when p == 1).
    """
    out = CostCrossCheck(engine=report.engine)
    rounds = report.rounds

    pred_ss = predicted_supersteps(cfg, rounds, report.engine, balanced)
    out.checks.append(
        CostCheck(
            "supersteps",
            measured=report.supersteps,
            predicted=pred_ss,
            lo=pred_ss,
            hi=pred_ss,
            detail=f"lambda={rounds}, v/p={cfg.vprocs_per_real}, balanced={balanced}",
        )
    )

    if report.engine in EM_ENGINES:
        pred_io = theorem3_predicted_ios(cfg, rounds, balanced)
        lo, hi = pred_io / c, pred_io * c
        measured_max = report.io_max.parallel_ios or report.io.parallel_ios
        out.checks.append(
            CostCheck(
                "io_per_proc",
                measured=measured_max,
                predicted=pred_io,
                lo=lo,
                hi=hi,
                detail=f"(v/p)*lambda*(mu+h)/(DB) with mu={cfg.mu}, h={cfg.h}, c={c:g}",
            )
        )
        out.checks.append(
            CostCheck(
                "io_total",
                measured=report.io.parallel_ios,
                predicted=pred_io * cfg.p,
                lo=lo * cfg.p,
                hi=hi * cfg.p,
                detail=f"p={cfg.p} processors",
            )
        )

    pred_net = rounds * cfg.v * cfg.h
    hi_net = 0.0 if cfg.p == 1 else c * pred_net
    out.checks.append(
        CostCheck(
            "network_items",
            measured=report.cross_items,
            predicted=0 if cfg.p == 1 else pred_net,
            lo=0.0,
            hi=hi_net,
            detail="cross-real-processor traffic only"
            + (" (p=1: must be zero)" if cfg.p == 1 else ""),
        )
    )
    return out
