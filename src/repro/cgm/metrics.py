"""Cost accounting: the BSP-style cost model of the paper (appendix 6.2/6.4).

Every engine produces a :class:`CostReport`.  Modeled time decomposes as

    T = t_comp + g * (communication volume) + G * (parallel I/Os) + L * X

where X is the number of supersteps executed on the *real* machine (the
sequential/parallel EM engines execute v/p compound supersteps per CGM
round, so X = lambda * v/p — Theorem 3's superstep blow-up is visible in
the report).  Computation time is measured as wall-clock time spent inside
the algorithm's round callbacks; on a p-processor target the engine takes
the per-superstep **max over real processors** so the report reflects
parallel, not summed, time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.pdm.io_stats import IOStats


@dataclass
class RoundMetrics:
    """Per-CGM-round accounting."""

    round_index: int
    h_in: int = 0            #: max items received by any virtual processor
    h_out: int = 0           #: max items sent by any virtual processor
    messages: int = 0        #: number of point-to-point messages
    comm_items: int = 0      #: total items communicated (all messages)
    cross_items: int = 0     #: items that crossed real-processor boundaries
    comp_wall_s: float = 0.0 #: parallel wall time of round callbacks
    io: IOStats = field(default_factory=IOStats)

    @property
    def h(self) -> int:
        return max(self.h_in, self.h_out)


#: names of the external-memory engines (Algorithms 2 and 3), whose I/O
#: counters are the paper's PDM costs
EM_ENGINES = ("seq-em", "par-em")


@dataclass
class CostReport:
    """Whole-run accounting for one engine execution."""

    engine: str
    rounds: int = 0                 #: lambda — CGM rounds executed
    supersteps: int = 0             #: X — real-machine supersteps
    comp_wall_s: float = 0.0        #: parallel computation wall time
    comm_items: int = 0             #: total communicated items
    cross_items: int = 0            #: items over the real network
    h_history: list[int] = field(default_factory=list)
    io: IOStats = field(default_factory=IOStats)     #: summed over real procs
    io_max: IOStats = field(default_factory=IOStats) #: max over real procs
    peak_memory_items: int = 0
    page_faults: int = 0            #: VM engine only
    per_round: list[RoundMetrics] = field(default_factory=list)
    context_blocks_io: int = 0      #: blocks moved for context swapping
    message_blocks_io: int = 0      #: blocks moved for message traffic
    overflow_blocks: int = 0        #: staggered-slot overflows (see ParEMEngine)
    #: physical-layer fault accounting (:class:`repro.faults.FaultStats`)
    #: when the run was fault-injected, else None.  Kept separate from
    #: ``io`` on purpose: the logical PDM counters above are bit-identical
    #: between clean and fault-injected runs.
    fault_stats: Any = None

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CostReport":
        """The report whose fields, and theirs, *doc* holds as dicts (a
        checkpoint's)."""
        io = {key: IOStats(**doc[key]) for key in ("io", "io_max")}
        rounds = [RoundMetrics(**{**m, "io": IOStats(**m["io"])})
                  for m in doc["per_round"]]
        return cls(**{**doc, **io, "per_round": rounds})

    def add_round(self, m: RoundMetrics) -> None:
        self.rounds += 1
        self.comp_wall_s += m.comp_wall_s
        self.comm_items += m.comm_items
        self.cross_items += m.cross_items
        self.h_history.append(m.h)
        self.per_round.append(m)

    # -- modeled times ---------------------------------------------------------

    def t_comm(self, g: float, per_item: bool = True) -> float:
        """Modeled communication time: g per cross-network item."""
        return g * self.cross_items

    def t_io(self, G: float) -> float:
        """Modeled I/O time: G per parallel I/O (max over real procs —
        disks on different processors run concurrently)."""
        ios = self.io_max.parallel_ios or self.io.parallel_ios
        return G * ios

    def t_sync(self, L: float) -> float:
        return L * self.supersteps

    def modeled_time(self, g: float, G: float, L: float) -> float:
        """Total modeled time (excludes Python interpreter overhead: the
        computation term is the measured callback wall time)."""
        return self.comp_wall_s + self.t_comm(g) + self.t_io(G) + self.t_sync(L)

    def summary(self) -> str:
        return (
            f"[{self.engine}] rounds={self.rounds} supersteps={self.supersteps} "
            f"parallel_ios={self.io.parallel_ios} (max/proc {self.io_max.parallel_ios}) "
            f"blocks={self.io.blocks_total} comm_items={self.comm_items} "
            f"cross_items={self.cross_items} peak_mem={self.peak_memory_items} "
            f"faults={self.page_faults} comp_wall={self.comp_wall_s:.4f}s"
        )
