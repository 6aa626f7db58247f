"""Out-of-core scale: the mmap arena versus the fig5 in-RAM regime.

The fig5 reproductions stop at N = 2^16 because the RAM arena materializes
every simulated track in host memory.  This suite pushes N two orders of
magnitude past that (``REPRO_SCALE`` multiplies the fig5 ceiling; default
128 -> N = 2^23, nightly runs raise it further) and pins the two claims
that make out-of-core simulation trustworthy:

* **bit-identity** — the mmap arena's run produces the same sorted bytes
  and the same IOStats dict as the RAM arena's, block for block.  Moving
  storage out of core changes *where* tracks live, never what the
  simulated PDM observes (the Guidesort-style invariance argument).
* **bounded residency** — the mmap arena's host-memory footprint is
  bookkeeping (the per-row length ledger, 4 bytes a track per disk) while the
  track data itself lives in spill files: O(buffers), not O(N).

``BENCH_scale.json`` (written via the shared bench store) records I/O
counts, wall time and the resident/spill split.  Its point names carry N,
so a baseline holds for one ``REPRO_SCALE``: the committed
``benchmarks/baselines/BENCH_scale.json`` is the CI multiplier's (32), and
the ``arena-mmap`` job gates its run against it with ``repro bench
--compare`` — the I/O counts of both arenas, never the timings.  The
nightly deep run (512x) is an artifact.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.algorithms.collectives import partition_array
from repro.algorithms.sorting import SampleSort
from repro.cgm.config import MachineConfig
from repro.em.runner import make_engine
from repro.util.rng import make_rng

from conftest import print_table

V = 8
FIG5_N = 1 << 16  # the largest fig5 config


def scale_factor() -> int:
    """``REPRO_SCALE`` multiplier over the fig5 ceiling (default 128)."""
    try:
        s = int(os.environ.get("REPRO_SCALE", "128"))
    except ValueError:
        s = 128
    return max(s, 1)


def scale_cfg() -> MachineConfig:
    n = FIG5_N * scale_factor()
    # B grows with N so the track count (and per-track bookkeeping) stays
    # modest; D=4 exercises wider parallel I/O than the fig5 configs
    b = max(64, n >> 10)
    return MachineConfig(N=n, v=V, D=4, B=b)


def _run_sort(cfg: MachineConfig, data: np.ndarray, kind: str) -> dict:
    """One seq-EM sample sort under an arena backend; returns observables."""
    eng = make_engine(cfg, "seq", overrides={"arena": kind})
    t0 = time.perf_counter()
    res = eng.run(SampleSort(), partition_array(data, cfg.v))
    wall = time.perf_counter() - t0
    arenas = [a._arena for a in eng.arrays.values()]
    out = {
        "values": np.concatenate(res.outputs),
        "io": res.report.io.as_dict(),
        "report": res.report,
        "wall_s": wall,
        "resident_bytes": sum(a.resident_nbytes() for a in arenas),
        "spill_bytes": sum(a.spill_nbytes() for a in arenas),
    }
    for a in arenas:
        a.close()
    return out


def test_scale_sort_ram_vs_mmap_bit_identity(bench_store):
    cfg = scale_cfg()
    data = make_rng(cfg.N).integers(0, 2**50, cfg.N)
    data_bytes = int(data.nbytes)

    ram = _run_sort(cfg, data, "ram")
    mm = _run_sort(cfg, data, "mmap")

    # acceptance gate 1: the PDM observes an identical machine
    assert np.array_equal(ram["values"], mm["values"])
    assert np.array_equal(ram["values"], np.sort(data))
    assert ram["io"] == mm["io"], "IOStats must be bit-identical across arenas"

    # acceptance gate 2: out-of-core residency is O(buffers), not O(N) —
    # the mmap arena keeps only bookkeeping resident while the RAM arena
    # holds every simulated track in host memory
    assert mm["spill_bytes"] >= data_bytes
    assert mm["resident_bytes"] < max(1 << 20, data_bytes // 16)
    assert ram["resident_bytes"] >= mm["spill_bytes"] // 2

    rows = []
    for kind, r in (("ram", ram), ("mmap", mm)):
        rows.append([
            kind,
            f"{cfg.N:,}",
            r["io"]["parallel_ios"],
            f"{r['resident_bytes'] / 1e6:.1f}",
            f"{r['spill_bytes'] / 1e6:.1f}",
            f"{r['wall_s']:.2f}",
        ])
        bench_store.record(
            f"sort/{kind}/N={cfg.N}",
            cfg=cfg,
            report=r["report"],
            predicted={
                "scale_over_fig5": scale_factor(),
                "wall_s": round(r["wall_s"], 3),
                "arena_resident_bytes": r["resident_bytes"],
                "arena_spill_bytes": r["spill_bytes"],
                "data_bytes": data_bytes,
            },
        )
    print_table(
        f"Out-of-core scale: N = {scale_factor()}x fig5, bit-identical I/O",
        ["arena", "N", "parallel I/Os", "resident MB", "spill MB", "wall s"],
        rows,
    )


def test_scale_io_stays_linear(bench_store):
    """The O(N/(pDB)) shape survives the out-of-core regime: doubling N
    (at fixed B) roughly doubles parallel I/Os on the mmap arena."""
    base = FIG5_N * min(scale_factor(), 32)
    b = max(64, base >> 10)
    prev = None
    rows = []
    for n in (base, base * 2):
        cfg = MachineConfig(N=n, v=V, D=4, B=b)
        data = make_rng(n).integers(0, 2**50, n)
        r = _run_sort(cfg, data, "mmap")
        assert np.array_equal(r["values"], np.sort(data))
        ios = r["io"]["parallel_ios"]
        ratio = ios / prev if prev else float("nan")
        rows.append([f"{n:,}", ios, f"{ratio:.2f}"])
        bench_store.record(f"linearity/N={n}", cfg=cfg, report=r["report"])
        if prev is not None:
            assert 1.5 < ratio < 3.0, "I/O growth left the linear regime"
        prev = ios
    print_table(
        "Out-of-core I/O linearity (mmap arena, doubling N)",
        ["N", "parallel I/Os", "x prev"],
        rows,
    )
