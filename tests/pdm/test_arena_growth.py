"""Growth of the linear track store: chunks, not doublings.

The per-disk matrices the arena used to keep grew by doubling with a full
copy, so each ``sort_io`` array reached 131,072 tracks per disk to hold
66,705.  The chunked row space appends 64, 128, 256, ... tracks up to one
full chunk (about 2 MiB of rows) and full chunks after that, so what an
array holds ends in the chunk that holds its highest written row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import OPS, make_engine
from repro.obs import EventBus
from repro.pdm.arena import TrackArena, chunk_tracks
from repro.tune.runtime import RuntimeConfig


def _sort_arenas(n: int, tracer=None) -> list[TrackArena]:
    cfg = MachineConfig(N=n, v=8, D=2, B=16)
    rt = RuntimeConfig.resolve(overrides={"arena": "ram"}, environ={})
    eng = make_engine(cfg, "seq", runtime=rt, tracer=tracer)
    data = np.random.default_rng(5).integers(0, 1 << 50, n)
    res = eng.run(OPS["sort"].program(), OPS["sort"].split(data, cfg.v))
    assert (np.diff(np.concatenate(res.outputs)) >= 0).all()
    return [arr._arena for arr in eng.arrays.values()]


@pytest.mark.parametrize("n", [1 << 12, 1 << 16])
def test_a_sorts_rows_end_in_the_chunk_of_its_highest_row(n):
    """Regression: no doubling slack.  The last chunk of every array of a
    small ``em_sort`` holds its highest written row, and every chunk is at
    most one full chunk long."""
    for a in _sort_arenas(n):
        top = max(a.max_track(d) * a.D + d for d in range(a.D))
        bounds = a._bounds
        assert bounds[-2] <= top < bounds[-1]
        full = chunk_tracks(a.D, a.block_bytes) * a.D
        sizes = np.diff(bounds).tolist()
        assert sizes == [min(64 * a.D << k, full) for k in range(len(sizes))]
        assert a.resident_nbytes() == bounds[-1] * (a.block_bytes + 4)


def test_one_arena_grow_event_per_chunk_sums_to_the_arena():
    """``arena_grow`` comes once per added chunk; the last ``nbytes`` per
    ``(real, disk)`` — ``disk`` being the chunk's number — sum to the
    arena's size, which is how the benchmark reads ``pdm.spill_bytes``."""
    bus = EventBus(monitor=False)
    (arena,) = _sort_arenas(1 << 14, tracer=bus)
    grows = [ev for ev in bus.events if ev["kind"] == "arena_grow"]
    assert [ev["disk"] for ev in grows] == list(range(len(arena._bounds) - 1))
    last = {(ev["real"], ev["disk"]): ev["nbytes"] for ev in grows}
    assert sum(last.values()) == arena._bounds[-1] * arena.block_bytes
    assert [ev["tracks"] * arena.D for ev in grows] == np.diff(arena._bounds).tolist()
