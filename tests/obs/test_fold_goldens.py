"""Byte-for-byte goldens for the views over a recorded trace.

``data/fold/`` holds four single-run traces and what ``repro top --once``,
``repro analyze`` and ``repro analyze --critical-path`` printed for them
when they were recorded, plus the ``model_drift`` events (every field but
``ts``) that a squeezed envelope raises in-stream over one traced
``biconnected_components`` call.  The traces were written by::

    repro sort --n 4096 --v 4 --b 64 --trace seq_sort.jsonl
    repro sort --n 4096 --v 4 --p 2 --b 64 --engine par --workers 2 \\
        --trace workers_sort.jsonl
    repro sort --n 16384 --v 8 --p 2 --b 64 --engine par \\
        --faults benchmarks/fault_plans/ci_transient.json --trace fault_sort.jsonl

and ``squeezed_sort.jsonl`` by ``em_sort`` (N = 4096, v = 4, p = 2, D = 2,
B = 64, par, ``make_rng(1)`` input) on ``EventBus(envelope_c=0.01)``.
Any change to how a view reads the stream must leave these bytes alone.
"""

from __future__ import annotations

import json
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro import cli
from repro.cgm.config import MachineConfig
from repro.obs.bus import EventBus

DATA = Path(__file__).resolve().parent / "data" / "fold"
TRACES = ("seq_sort", "workers_sort", "fault_sort", "squeezed_sort")
VIEWS = {
    "top": ["top", "--once"],
    "analyze": ["analyze"],
    "critical": ["analyze", "--critical-path"],
}


def biconnected_trace(envelope_c: float = 0.01) -> EventBus:
    """One ``biconnected_components`` call (10 engine runs) on one bus:
    a connected 120-vertex graph, par, v = 4, p = 2, D = 2, B = 16."""
    from repro.algorithms.graphs import biconnected_components

    n = 120
    G = nx.gnm_random_graph(n, 210, seed=1)
    comps = list(nx.connected_components(G))
    for a, b in zip(comps, comps[1:]):
        G.add_edge(min(a), min(b))
    bus = EventBus(envelope_c=envelope_c)
    cfg = MachineConfig(N=n, v=4, p=2, D=2, B=16)
    biconnected_components(np.array(G.edges()), n, cfg, engine="par", tracer=bus)
    return bus


def drift_events(bus: EventBus) -> list[dict]:
    return [
        {k: v for k, v in ev.items() if k != "ts"}
        for ev in bus.events
        if ev["kind"] == "model_drift"
    ]


def view_output(capsys, trace: str, view: str) -> str:
    rc = cli.main(VIEWS[view] + [str(DATA / f"{trace}.jsonl")])
    return f"rc={rc}\n" + capsys.readouterr().out


@pytest.mark.parametrize("view", sorted(VIEWS))
@pytest.mark.parametrize("trace", TRACES)
def test_view_of_a_recorded_trace_is_unchanged(capsys, trace, view):
    want = (DATA / f"{trace}.{view}.txt").read_text(encoding="utf-8")
    assert view_output(capsys, trace, view) == want


# a recording of clean runs: the ``io_fault`` events a ``--fault-plan``
# lane interleaves would shift every pinned sequence number
@pytest.mark.no_fault_plan
def test_in_stream_drift_events_are_unchanged():
    """Every field but ``seq`` as recorded.  ``seq`` also counts the
    physical ``arena_grow`` events, whose number follows the arena's
    storage layout (one per chunk of the linear track store now, one per
    doubling of a disk's rows when the golden was written), so where an
    event sits is pinned instead as: right after the ``superstep_end`` it
    reacted to."""
    want = json.loads((DATA / "biconnected_drift.json").read_text(encoding="utf-8"))
    bus = biconnected_trace()
    unsequenced = [{k: v for k, v in ev.items() if k != "seq"} for ev in drift_events(bus)]
    assert unsequenced == [{k: v for k, v in ev.items() if k != "seq"} for ev in want]
    for before, ev in zip(bus.events, bus.events[1:]):
        if ev["kind"] == "model_drift":
            assert before["kind"] == "superstep_end"
            assert (before["round"], before["superstep"]) == (ev["round"], ev["superstep"])
