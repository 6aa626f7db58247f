"""Wall-clock speedup of the vectorized run service vs the per-op loop.

Every other bench gates *modeled* cost — parallel I/O counts, which are
deterministic and machine-independent.  This one gates the *simulator's
own* running time: a clean run (whole runs serviced as batched NumPy
gather/scatters) against the same run under an **empty**
:class:`~repro.faults.plan.FaultPlan` (every access through the PDM
specification loop, one ``parallel_io`` per batch, nothing injected), on
the same workloads two of the paper benches use, scaled up until the I/O
layer dominates:

* ``fig5_sort`` — Figure 5 Group A sorting at N=2^18 (the group-A bench
  sweeps up to 2^16 with B=64; here B=16 so the stream has enough blocks
  per superstep for vectorization to matter, exactly the regime Fig. 8's
  block-size sweep explores);
* ``theorem3_p{2,4}`` — the Theorem 3 processor-scaling sort on the
  in-process parallel engine.

Both lanes must produce bit-identical outputs and logical ``IOStats`` —
asserted here on every run, and the deterministic counters recorded in
the store are gated exactly by ``repro bench --compare``.  The speedup
ratio is recorded under ``timings`` so the perf-smoke CI lane can gate it
with the one-sided ``--timing-floor`` check (absolute seconds go to
``extra``: provenance, never gated).

An in-test floor guards local runs too: ``REPRO_WALLCLOCK_FLOOR``
(default 1.5) is deliberately far below the committed baseline's ratios —
wall-clock is fuzzy, the floor only has to catch "bulk reads silently
fell back to the per-track loop".

The timings double as the telemetry bus's disabled-path perf smoke: the
bench pins ``REPRO_TRACE`` off and asserts the engines run on the
zero-cost ``NULL_RECORDER``, so the ``--timing-floor`` gate in CI also
catches an accidentally always-on bus (its per-event overhead would sink
the measured speedups).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort, make_engine
from repro.faults.plan import FaultPlan
from repro.obs.bench_store import measured_from_report
from repro.util.rng import make_rng

from conftest import print_table


@pytest.fixture(autouse=True)
def _trace_pinned_off(monkeypatch):
    """Timings gate the untraced clean run; a stray REPRO_TRACE would skew
    them and an ambient REPRO_FAULTS would put both lanes on the per-op loop."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_FAULTS", raising=False)

V, D, B = 8, 2, 16
REPS = 3

#: name -> (N, p, engine)
CONFIGS = {
    "fig5_sort": (1 << 18, 1, "seq"),
    "theorem3_p2": (1 << 17, 2, "par"),
    "theorem3_p4": (1 << 17, 4, "par"),
}


def _floor() -> float:
    try:
        return float(os.environ.get("REPRO_WALLCLOCK_FLOOR", "1.5"))
    except ValueError:
        return 1.5


def _timed_run(data: np.ndarray, cfg: MachineConfig, engine: str, per_op: bool):
    """Best-of-REPS wall time and the last result on one service lane."""
    faults = FaultPlan() if per_op else None
    em_sort(data, cfg, engine=engine, faults=faults)  # warmup (allocator, caches)
    best = float("inf")
    res = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        res = em_sort(data, cfg, engine=engine, faults=faults)
        best = min(best, time.perf_counter() - t0)
    return best, res


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_wallclock_speedup(name, bench_store):
    N, p, engine = CONFIGS[name]
    data = make_rng(0).integers(0, 2**50, N)
    cfg = MachineConfig(N=N, v=V, p=p, D=D, B=B)

    # disabled-path guarantee: the timed engines must see the no-op
    # recorder — the timing floor below then also gates bus-off overhead
    assert make_engine(cfg, engine).tracer.enabled is False, (
        "wall-clock bench must run untraced (is REPRO_TRACE set?)"
    )

    fast_s, fast = _timed_run(data, cfg, engine, per_op=False)
    ref_s, ref = _timed_run(data, cfg, engine, per_op=True)

    # the run API is an implementation of the same model, not a variant:
    # outputs and every logical cost counter must be bit-identical
    assert np.array_equal(fast.values, ref.values)
    assert np.array_equal(fast.values, np.sort(data))
    fast_m = measured_from_report(fast.report)
    ref_m = measured_from_report(ref.report)
    assert fast_m == ref_m, f"{name}: IOStats diverged between lanes"
    assert fast.report.io.as_dict() == ref.report.io.as_dict()

    speedup = ref_s / fast_s
    floor = _floor()
    print_table(
        f"wall-clock: {name} (N={N}, p={p}, B={B}, engine={engine})",
        ["lane", "best of {}".format(REPS), "speedup"],
        [
            ["per-op (empty plan)", f"{ref_s * 1e3:.1f} ms", ""],
            ["clean", f"{fast_s * 1e3:.1f} ms", f"{speedup:.2f}x"],
        ],
    )
    bench_store.record(
        name,
        cfg=cfg,
        report=fast.report,
        timings={"speedup": speedup},
        extra={"fast_s": fast_s, "ref_s": ref_s, "engine": engine, "reps": REPS},
    )
    assert speedup >= floor, (
        f"{name}: clean run only {speedup:.2f}x over the per-op lane "
        f"(floor {floor}) — did bulk reads fall back to the per-track loop?"
    )
