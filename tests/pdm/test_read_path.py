"""The one synchronous read path at contexts of ~2 MiB — the only runs the
retired prefetch pipeline ever served.

``data/read_path_golden.json`` was written at the last commit that had the
pipeline, with its reader *on* (the default there): output hash, every
``IOStats`` counter, the context/message block totals and the trace-event
kind sequence (minus the retired ``prefetch`` kind, and minus the physical
``arena_grow``, whose count follows the arena's storage layout: one event
per doubling of a disk's rows then, one per chunk of the linear track
store now) of ``em_sort`` at N=2^20, v=4, D=2, B=64 on ``seq`` and
in-process ``par`` p=2, both arenas.
The synchronous engine must reproduce the four records bit-for-bit — and
must do it on the calling thread alone.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort, output_sha256
from repro.obs import EventBus
from repro.tune.runtime import RuntimeConfig

GOLDEN = Path(__file__).parent / "data" / "read_path_golden.json"
N = 1 << 20
CASES = [(e, a) for e in ("seq", "par") for a in ("ram", "mmap")]


def _run(engine: str, arena: str, **options):
    cfg = MachineConfig(N=N, v=4, p=2 if engine == "par" else 1, D=2, B=64)
    data = np.random.default_rng(17).integers(0, 1 << 50, N, dtype=np.int64)
    # an explicit snapshot: no CI lane's REPRO_* switch reaches this run
    rt = RuntimeConfig.resolve(overrides={"arena": arena}, environ={})
    return em_sort(data, cfg, engine, runtime=rt, **options)


def record(engine: str, arena: str) -> dict:
    tracer = EventBus(monitor=False)
    res = _run(engine, arena, tracer=tracer)
    return {
        "output_sha256": output_sha256(res.values),
        "io": res.report.io.as_dict(),
        "context_blocks_io": res.report.context_blocks_io,
        "message_blocks_io": res.report.message_blocks_io,
        "kinds": _logical([ev["kind"] for ev in tracer.events]),
    }


def _logical(kinds: list[str]) -> list[str]:
    return [k for k in kinds if k not in ("prefetch", "arena_grow")]


@pytest.mark.no_fault_plan  # recorded from clean runs
@pytest.mark.parametrize("engine,arena", CASES)
def test_synchronous_reads_reproduce_the_prefetched_runs(engine, arena):
    golden = json.loads(GOLDEN.read_text())[f"{engine}-{arena}"]
    golden["kinds"] = _logical(golden["kinds"])
    assert record(engine, arena) == golden


@pytest.mark.parametrize("engine", ["seq", "par"])
def test_an_engine_run_starts_no_thread(engine, monkeypatch):
    """Thread count before, during (sampled from the program's round
    callback) and after a run at the golden size is one number."""
    from repro.algorithms.sorting import SampleSort

    during: list[int] = []
    inner = SampleSort.round

    def sampling_round(self, *args, **kwargs):
        during.append(threading.active_count())
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(SampleSort, "round", sampling_round)
    before = threading.active_count()
    _run(engine, "ram")
    assert during and set(during) == {before}
    assert threading.active_count() == before
