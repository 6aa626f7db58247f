"""Distributed transport bench: the tcp worker exchange versus memory.

The multi-node coordinator relays every worker packet through TCP
sockets, so this suite pins the two claims that make the distributed
backend trustworthy (the Rahn et al. distributed-sorting regime, scaled
to CI):

* **bit-identity** — a fig5-shaped parallel sort produces the same
  sorted bytes and the same IOStats dict whether the exchange rides the
  in-process memory transport or a real socket pair.  The network moves
  bytes, never logical cost.
* **accounted traffic** — every session counts the packet frames it
  receives (``repro_transport_bytes_total``); the wire byte count is
  reported alongside wall time so nightly artifacts track framing
  overhead over time.

Nodes come from ``REPRO_NODES`` when the workflow started real
``repro node`` daemons (the nightly 2-node step); otherwise the module
hosts two in-process :class:`~repro.core.transport.node.NodeServer`
threads so ``pytest benchmarks/`` works standalone.  ``REPRO_SCALE``
multiplies the fig5 ceiling (default 2 -> N = 2^17).

``BENCH_dist.json`` records I/O counts, wall time and packet bytes.  The
committed ``benchmarks/baselines/BENCH_dist.json`` is the default scale's
(2) run on self-hosted node threads; ``repro bench --compare`` gates only
its ``measured`` counters, which are exact.  Wall time and wire bytes sit
in ``predicted`` and are not gated: they depend on the machine and the
transport's buffers.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.algorithms.collectives import partition_array
from repro.algorithms.sorting import SampleSort
from repro.cgm.config import MachineConfig
from repro.em.runner import make_engine
from repro.obs.metrics import MetricsRegistry
from repro.tune.runtime import RuntimeConfig
from repro.util.rng import make_rng

from conftest import print_table

V, D, B = 8, 2, 64
FIG5_N = 1 << 16
WORKERS = 2


def scale_factor() -> int:
    try:
        s = int(os.environ.get("REPRO_SCALE", "2"))
    except ValueError:
        s = 2
    return max(s, 1)


def dist_cfg() -> MachineConfig:
    return MachineConfig(N=FIG5_N * scale_factor(), v=V, p=4, D=D, B=B)


def _node_list():
    """(nodes string, servers-to-shutdown): env daemons or self-hosted."""
    raw = os.environ.get("REPRO_NODES", "").strip()
    if raw:
        return raw, []
    from repro.core.transport.node import NodeServer

    servers = [NodeServer().start_thread() for _ in range(2)]
    return ",".join(s.address for s in servers), servers


def _run_sort(cfg: MachineConfig, data: np.ndarray, rt: RuntimeConfig) -> dict:
    registry = MetricsRegistry()
    eng = make_engine(cfg, "par", runtime=rt, metrics=registry)
    t0 = time.perf_counter()
    res = eng.run(SampleSort(), partition_array(data, cfg.v))
    wall = time.perf_counter() - t0
    received = {
        s["labels"]["node"]: s["value"]
        for s in registry.snapshot()
        .get("repro_transport_bytes_total", {})
        .get("series", [])
    }
    return {
        "values": np.concatenate(res.outputs),
        "io": res.report.io.as_dict(),
        "report": res.report,
        "wall_s": wall,
        "wire_bytes": sum(received.values()),
        "nodes": sorted(received),
    }


def test_dist_sort_tcp_vs_memory_bit_identity(bench_store):
    cfg = dist_cfg()
    data = make_rng(cfg.N).integers(0, 2**50, cfg.N)
    base_rt = RuntimeConfig.from_env().replace(workers=WORKERS)

    nodes, servers = _node_list()
    try:
        mem = _run_sort(cfg, data, base_rt.replace(transport="memory", nodes=None))
        tcp = _run_sort(cfg, data, base_rt.replace(transport="tcp", nodes=nodes))
    finally:
        for s in servers:
            s.shutdown()

    # acceptance gate: the PDM observes an identical machine either way
    assert np.array_equal(mem["values"], tcp["values"])
    assert np.array_equal(mem["values"], np.sort(data))
    assert mem["io"] == tcp["io"], "IOStats must be bit-identical across transports"
    assert tcp["wire_bytes"] > 0, "the tcp run never touched a socket"

    rows = []
    for kind, r in (("memory", mem), ("tcp", tcp)):
        rows.append([
            kind,
            f"{cfg.N:,}",
            r["io"]["parallel_ios"],
            f"{r['wire_bytes'] / 1e6:.2f}",
            f"{r['wall_s']:.2f}",
        ])
        bench_store.record(
            f"sort/{kind}/N={cfg.N}",
            cfg=cfg,
            report=r["report"],
            predicted={
                "scale_over_fig5": scale_factor(),
                "workers": WORKERS,
                "n_nodes": len(r["nodes"]) or None,
                "wall_s": round(r["wall_s"], 3),
                "wire_bytes": r["wire_bytes"],
            },
        )
    print_table(
        f"Distributed transport: N = {scale_factor()}x fig5, bit-identical I/O",
        ["transport", "N", "parallel I/Os", "wire MB", "wall s"],
        rows,
    )
