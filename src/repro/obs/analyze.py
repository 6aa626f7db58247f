"""Trace analysis: turn a recorded event stream into per-superstep answers.

PR 1's recorder produces raw events; this module aggregates them back into
the quantities the paper argues about, per real-machine superstep group
(one ``superstep_begin``/``superstep_end`` pair per CGM round):

* measured parallel I/Os and blocks moved, split into **context** vs.
  **message** traffic (the two terms of Theorem 2/3's ``(mu + h)/(D*B)``);
* the **I/O width distribution** (how D-parallel the I/Os were, when the
  trace carries ``width_hist``);
* the **compute / I/O / network time split**: measured callback wall time
  against modeled I/O time (``G``-equivalent from the 1998 disk model) and
  modeled network time (``g`` per cross-processor item);
* the **critical-path real processor** — the processor whose callbacks
  dominated each superstep's wall time;
* measured-vs-predicted per-superstep I/O: each round is held to the
  Theorem 2/3 envelope ``[pred/c, pred*c]`` of the run it belongs to (the
  ``run_begin`` in force when the round closes, scaled by ``p`` because the
  trace's counters sum over real processors), and violations are flagged.

:meth:`TraceAnalysis.feed` is the one fold over the event stream: every
verdict and view reads it.  :func:`analyze_events` and :func:`analyze_file`
feed a finished trace, ``repro top`` feeds a live one and prints
:meth:`TraceAnalysis.render_top`, and ``EventBus(monitor=True)`` feeds its
own events in-stream, emitting ``model_drift`` the moment a closing round
exceeds its budget ``pred*c``.  The fold holds one small row per round,
so at most :data:`~repro.cgm.engine.MAX_ROUNDS` (10,000) rows per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.cgm.metrics import EM_ENGINES
from repro.util.tables import format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.bus import EventBus


@dataclass
class SuperstepAgg:
    """Aggregated view of one real-machine superstep group (one CGM round)."""

    round: int
    superstep: int                  #: cumulative superstep count at group end
    parallel_ios: int = 0
    blocks: int = 0
    ctx_blocks: int = 0
    msg_blocks: int = 0
    net_items: int = 0
    net_events: int = 0
    h_in: int = 0
    h_out: int = 0
    compute_s: float = 0.0          #: critical path (max over real procs)
    compute_sum_s: float = 0.0      #: summed callback wall time
    critical_real: int = 0
    round_wall_s: float = 0.0       #: measured wall time of the whole round
    drift: bool = False             #: a model_drift event flagged this round
    per_real_wall: dict[int, float] = field(default_factory=dict)
    per_real_ctx: dict[int, int] = field(default_factory=dict)
    per_real_msg: dict[int, int] = field(default_factory=dict)
    per_real_net: dict[int, int] = field(default_factory=dict)
    width_hist: list[int] = field(default_factory=list)
    predicted_ios: float | None = None
    io_lo: float | None = None
    io_hi: float | None = None

    @property
    def mean_width(self) -> float:
        if self.width_hist and sum(self.width_hist):
            ops = sum(self.width_hist)
            return sum(w * c for w, c in enumerate(self.width_hist)) / ops
        return self.blocks / self.parallel_ios if self.parallel_ios else 0.0

    @property
    def io_ok(self) -> bool:
        """Within the Theorem 2/3 envelope (vacuously true when unpredicted)."""
        if self.io_lo is None or self.io_hi is None:
            return True
        return self.io_lo <= self.parallel_ios <= self.io_hi


@dataclass
class TraceAnalysis:
    """The fold over a trace: :meth:`feed` it events, read it any time.

    Header fields describe the latest ``run_begin``; rows accumulate over
    every run of the stream, each with its own run's envelope.  With
    *drift_bus* set, a row closing above its envelope emits ``model_drift``
    on that bus (which feeds it back here, right after its row).
    """

    engine: str = "?"
    program: str = "?"
    balanced: bool = False
    machine: dict[str, Any] = field(default_factory=dict)
    workers: int | None = None
    envelope_c: float = 8.0
    rows: list[SuperstepAgg] = field(default_factory=list)
    setup_events: int = 0           #: events before the first superstep_begin
    total_events: int = 0
    #: run_end's whole-run counters (None for truncated traces)
    total_parallel_ios: int | None = None
    run_supersteps: int | None = None
    #: real processor -> OS worker, from worker-tagged events
    real_worker: dict[int, int] = field(default_factory=dict)
    #: real processor -> node address, from node-tagged events (tcp runs)
    real_node: dict[int, str] = field(default_factory=dict)
    #: out-of-core telemetry (arena_grow events)
    arena_grows: int = 0
    arena_resident_peak: int = 0
    arena_spill_peak: int = 0
    arena_backend: str | None = None
    #: model_drift events seen in the stream
    drift_count: int = 0
    #: the tuned-profile announcement make_engine emitted before run_begin
    #: (config/machine/rationale/fingerprint), None for untuned runs
    tuned: dict[str, Any] | None = None
    #: the bus a closing row over budget raises ``model_drift`` on
    drift_bus: "EventBus | None" = field(default=None, repr=False)
    #: fold state: the open round and the current run's Theorem 2/3 budget
    _cur: SuperstepAgg | None = field(default=None, repr=False)
    _seen_first: bool = field(default=False, repr=False)
    _pred: float | None = field(default=None, repr=False)

    # -- the fold -------------------------------------------------------------

    def feed(self, ev: dict[str, Any]) -> None:
        """Fold one recorder event (see :mod:`repro.obs.bus`) into the view."""
        self.total_events += 1
        kind = ev.get("kind")
        cur = self._cur
        if kind == "run_begin":
            self.engine = str(ev.get("engine", "?"))
            self.program = str(ev.get("program", "?"))
            self.balanced = bool(ev.get("balanced", False))
            self.machine = {k: ev.get(k) for k in ("N", "v", "p", "D", "B", "M")}
            self.workers = ev.get("workers")
            self._pred = None
            if self.is_em:
                from repro.obs.costcheck import superstep_io_budget

                # None for a malformed/hand-edited header: rows go unjudged
                self._pred = superstep_io_budget(self.machine, self.balanced)
        elif kind == "superstep_begin":
            self._seen_first = True
            self._cur = SuperstepAgg(
                round=int(ev.get("round", len(self.rows))),
                superstep=int(ev.get("superstep", len(self.rows))),
            )
        elif kind == "superstep_end":
            if cur is None:
                # end without begin: synthesize a group so nothing is lost
                cur = SuperstepAgg(
                    round=int(ev.get("round", len(self.rows))),
                    superstep=int(ev.get("superstep", len(self.rows))),
                )
            self._close(cur, ev)
        elif kind == "run_end":
            self.total_parallel_ios = int(ev.get("parallel_ios", 0) or 0)
            self.run_supersteps = int(ev.get("supersteps", 0) or 0)
        elif kind == "tuned_config":
            self.tuned = {
                "config": dict(ev.get("config", {}) or {}),
                "machine": dict(ev.get("machine", {}) or {}),
                "rationale": [str(x) for x in (ev.get("rationale", []) or [])],
                "fingerprint": str(ev.get("fingerprint", "") or ""),
            }
            if not self._seen_first:
                self.setup_events += 1
        elif kind == "model_drift":
            # sequenced just after the superstep_end it reacted to
            self.drift_count += 1
            if self.rows:
                self.rows[-1].drift = True
        elif kind == "arena_grow":
            self.arena_grows += 1
            self.arena_resident_peak = max(
                self.arena_resident_peak, int(ev.get("resident_nbytes", 0) or 0)
            )
            self.arena_spill_peak = max(
                self.arena_spill_peak, int(ev.get("spill_nbytes", 0) or 0)
            )
            backend = ev.get("backend")
            if backend:
                self.arena_backend = str(backend)
        elif cur is not None:
            self._place(cur, kind, ev)
        elif not self._seen_first:
            self.setup_events += 1

    def _close(self, cur: SuperstepAgg, ev: dict[str, Any]) -> None:
        """Finish a round at its ``superstep_end`` and judge it."""
        self._cur = None
        cur.superstep = int(ev.get("superstep", cur.superstep))
        cur.parallel_ios = int(ev.get("parallel_ios", 0) or 0)
        cur.blocks = int(ev.get("blocks", 0) or 0)
        cur.h_in = int(ev.get("h_in", 0) or 0)
        cur.h_out = int(ev.get("h_out", 0) or 0)
        cur.round_wall_s = float(ev.get("wall_s", 0.0) or 0.0)
        wh = ev.get("width_hist")
        if isinstance(wh, list):
            cur.width_hist = [int(x) for x in wh]
        walls = cur.per_real_wall
        if walls:
            cur.critical_real = max(walls.items(), key=lambda kv: kv[1])[0]
            cur.compute_s = walls[cur.critical_real]
        self.rows.append(cur)
        pred = self._pred
        if pred is None:
            return
        cur.predicted_ios = pred
        cur.io_lo = pred / self.envelope_c
        cur.io_hi = budget = pred * self.envelope_c
        # only the upper edge is an alarm: a round cheaper than predicted is
        # not worth interrupting a run for (the verdicts stay two-sided)
        if self.drift_bus is not None and cur.parallel_ios > budget:
            self.drift_bus.emit(
                "model_drift",
                round=ev.get("round"),
                superstep=ev.get("superstep"),
                parallel_ios=cur.parallel_ios,
                predicted_ios=pred,
                budget=budget,
                envelope_c=self.envelope_c,
            )

    def _place(self, cur: SuperstepAgg, kind: Any, ev: dict[str, Any]) -> None:
        """Charge an event inside an open round to its real processor."""
        real = int(ev.get("real", ev.get("src_real", 0)) or 0)
        # an event that names no real processor (a kind this version
        # does not know, from an older trace) places nothing
        placed = "real" in ev or "src_real" in ev
        worker = ev.get("worker")
        if placed and worker is not None:
            self.real_worker[real] = int(worker)
        node = ev.get("node")
        if placed and node is not None:
            self.real_node[real] = str(node)
        if kind in ("context_read", "context_write"):
            blocks = int(ev.get("blocks", 0) or 0)
            cur.ctx_blocks += blocks
            cur.per_real_ctx[real] = cur.per_real_ctx.get(real, 0) + blocks
        elif kind in ("message_read", "message_write"):
            blocks = int(ev.get("blocks", 0) or 0)
            cur.msg_blocks += blocks
            cur.per_real_msg[real] = cur.per_real_msg.get(real, 0) + blocks
        elif kind == "network_transfer":
            items = int(ev.get("items", 0) or 0)
            cur.net_items += items
            cur.net_events += 1
            cur.per_real_net[real] = cur.per_real_net.get(real, 0) + items
        elif kind == "compute_round":
            wall = float(ev.get("wall_s", 0.0) or 0.0)
            cur.per_real_wall[real] = cur.per_real_wall.get(real, 0.0) + wall
            cur.compute_sum_s += wall

    # -- verdicts -------------------------------------------------------------

    @property
    def is_em(self) -> bool:
        return self.engine in EM_ENGINES

    def violations(self) -> list[SuperstepAgg]:
        return [r for r in self.rows if not r.io_ok]

    @property
    def ok(self) -> bool:
        return not self.violations()

    # -- modeled times --------------------------------------------------------

    def _io_time(self, row: SuperstepAgg) -> float:
        from repro.pdm.io_stats import DiskServiceModel

        B = int(self.machine.get("B", 64))
        return row.parallel_ios * DiskServiceModel().parallel_io_time(B)

    def _net_time(self, row: SuperstepAgg) -> float:
        # modeled at g seconds per cross-processor item, normalized so the
        # column is comparable across traces: g defaults to 1 cost unit,
        # which is not seconds — report item count * 1e-6 s/item equivalent
        return row.net_items * 1e-6

    # -- critical path --------------------------------------------------------

    def lane_label(self, real: int) -> str:
        """``rN`` for real processor N, ``rN/wM`` when worker-tagged,
        plus ``@host:port`` when the worker ran on a remote node."""
        w = self.real_worker.get(real)
        base = f"r{real}" if w is None else f"r{real}/w{w}"
        node = self.real_node.get(real)
        return base if node is None else f"{base}@{node}"

    def lane_seconds(self, row: SuperstepAgg) -> dict[int, float]:
        """Per-real-processor lane time for one superstep group.

        Measured compute wall time plus modeled I/O time (the lane's
        context+message blocks at full-D parallelism) plus modeled network
        time — the same attribution the aggregate columns use, resolved
        per lane so stragglers are visible.
        """
        from repro.pdm.io_stats import DiskServiceModel

        unit = DiskServiceModel().parallel_io_time(int(self.machine.get("B") or 64))
        D = max(1, int(self.machine.get("D") or 1))
        reals = (
            set(row.per_real_wall)
            | set(row.per_real_ctx)
            | set(row.per_real_msg)
            | set(row.per_real_net)
        )
        lanes: dict[int, float] = {}
        for real in sorted(reals):
            blocks = row.per_real_ctx.get(real, 0) + row.per_real_msg.get(real, 0)
            lanes[real] = (
                row.per_real_wall.get(real, 0.0)
                + (blocks / D) * unit
                + row.per_real_net.get(real, 0) * 1e-6
            )
        return lanes

    def critical_path(self, top: int = 5) -> dict[str, Any]:
        """Comm/comp/I/O attribution, stragglers, and top-K slowest rounds.

        The totals tie out bit-identically to the run's ``IOStats``: the
        per-superstep ``parallel_ios`` counters plus the setup/teardown
        I/O issued outside superstep groups sum to ``run_end``'s
        whole-run counter.
        """
        rows: list[dict[str, Any]] = []
        for r in self.rows:
            lanes = self.lane_seconds(r)
            if lanes:
                crit_real = max(lanes.items(), key=lambda kv: kv[1])[0]
                crit_s = lanes[crit_real]
                mean = sum(lanes.values()) / len(lanes)
                straggler = crit_s / mean if mean > 0 else 1.0
            else:
                crit_real, crit_s, straggler = 0, 0.0, 1.0
            rows.append(
                {
                    "round": r.round,
                    "superstep": r.superstep,
                    "parallel_ios": r.parallel_ios,
                    "comp_s": r.compute_s,
                    "io_s": self._io_time(r),
                    "comm_s": self._net_time(r),
                    "wall_s": r.round_wall_s,
                    "critical_real": crit_real,
                    "critical_lane": self.lane_label(crit_real),
                    "critical_lane_s": crit_s,
                    "straggler": straggler,
                    "lanes": {self.lane_label(k): v for k, v in lanes.items()},
                    "drift": r.drift,
                }
            )
        slowest = sorted(
            rows,
            key=lambda d: (d["wall_s"] or d["critical_lane_s"], d["parallel_ios"]),
            reverse=True,
        )[: max(0, top)]
        superstep_ios = sum(r.parallel_ios for r in self.rows)
        total = self.total_parallel_ios
        lane_totals: dict[int, dict[str, Any]] = {}

        def _lane_total(real: int) -> dict[str, Any]:
            return lane_totals.setdefault(
                real,
                {"comp_s": 0.0, "ctx_blocks": 0, "msg_blocks": 0, "net_items": 0},
            )

        for r in self.rows:
            for real, wall in r.per_real_wall.items():
                _lane_total(real)["comp_s"] += wall
            for real, blk in r.per_real_ctx.items():
                _lane_total(real)["ctx_blocks"] += blk
            for real, blk in r.per_real_msg.items():
                _lane_total(real)["msg_blocks"] += blk
            for real, items in r.per_real_net.items():
                _lane_total(real)["net_items"] += items
        return {
            "rows": rows,
            "slowest": [d["round"] for d in slowest],
            "lanes": {self.lane_label(k): v for k, v in sorted(lane_totals.items())},
            "totals": {
                "superstep_parallel_ios": superstep_ios,
                "setup_parallel_ios": (
                    None if total is None else total - superstep_ios
                ),
                "run_parallel_ios": total,
            },
            "drift_count": self.drift_count,
        }

    def render_critical_path(self, top: int = 5) -> str:
        cp = self.critical_path(top=top)
        head = (
            f"critical path: engine={self.engine} program={self.program} "
            f"({len(self.rows)} superstep group(s))"
        )
        rows = []
        for d in cp["rows"]:
            rows.append(
                [
                    d["round"],
                    d["parallel_ios"],
                    f"{d['comp_s'] * 1e3:.2f}",
                    f"{d['io_s'] * 1e3:.1f}",
                    f"{d['comm_s'] * 1e3:.2f}",
                    f"{d['wall_s'] * 1e3:.1f}",
                    d["critical_lane"],
                    f"{d['straggler']:.2f}x",
                    "DRIFT" if d["drift"] else "",
                ]
            )
        table = format_table(
            "per-superstep comm/comp/I/O attribution (modeled io*, measured comp/wall)",
            ["round", "par-I/Os", "comp ms", "io ms*", "comm ms", "wall ms",
             "crit lane", "strag", "drift"],
            rows,
        )
        lane_rows = [
            [label, f"{lt['comp_s'] * 1e3:.2f}", lt["ctx_blocks"],
             lt["msg_blocks"], lt["net_items"]]
            for label, lt in cp["lanes"].items()
        ]
        lanes_table = format_table(
            "per-lane totals (rN = real processor, wM = OS worker, "
            "@host:port = node)",
            ["lane", "comp ms", "ctx blk", "msg blk", "net items"],
            lane_rows,
        )
        foot = []
        if cp["slowest"]:
            foot.append(
                "top-%d slowest rounds (by measured wall): %s"
                % (len(cp["slowest"]),
                   ", ".join(str(r) for r in cp["slowest"]))
            )
        t = cp["totals"]
        if t["run_parallel_ios"] is not None:
            foot.append(
                f"totals: {t['superstep_parallel_ios']} parallel I/Os in "
                f"supersteps + {t['setup_parallel_ios']} in setup/teardown "
                f"= {t['run_parallel_ios']} (IOStats run total)"
            )
        else:
            foot.append(
                f"totals: {t['superstep_parallel_ios']} parallel I/Os in "
                "supersteps (truncated trace: no run_end counter)"
            )
        if cp["drift_count"]:
            foot.append(
                f"model drift: {cp['drift_count']} superstep(s) exceeded the "
                "Theorem 2/3 parallel-I/O budget during the run"
            )
        foot.append(
            "* io/comm modeled (DiskServiceModel / 1e-6 s per item); "
            "comp and wall are measured"
        )
        return head + "\n\n" + table + "\n" + lanes_table + "\n" + "\n".join(foot)

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "program": self.program,
            "balanced": self.balanced,
            "machine": self.machine,
            "envelope_c": self.envelope_c,
            "ok": self.ok,
            "violations": len(self.violations()),
            "total_parallel_ios": self.total_parallel_ios,
            "drift_count": self.drift_count,
            "tuned": self.tuned,
            "real_worker": {str(k): v for k, v in sorted(self.real_worker.items())},
            "real_node": {str(k): v for k, v in sorted(self.real_node.items())},
            "arena": {
                "grows": self.arena_grows,
                "resident_peak_nbytes": self.arena_resident_peak,
                "spill_peak_nbytes": self.arena_spill_peak,
                "backend": self.arena_backend,
            },
            "critical_path": self.critical_path(),
            "supersteps": [
                {
                    "round": r.round,
                    "superstep": r.superstep,
                    "parallel_ios": r.parallel_ios,
                    "blocks": r.blocks,
                    "ctx_blocks": r.ctx_blocks,
                    "msg_blocks": r.msg_blocks,
                    "net_items": r.net_items,
                    "compute_s": r.compute_s,
                    "critical_real": r.critical_real,
                    "mean_width": r.mean_width,
                    "predicted_ios": r.predicted_ios,
                    "io_lo": r.io_lo,
                    "io_hi": r.io_hi,
                    "io_ok": r.io_ok,
                }
                for r in self.rows
            ],
        }

    def render(self) -> str:
        mach = self.machine
        head = (
            f"trace analysis: engine={self.engine} program={self.program} "
            f"balanced={self.balanced}\n"
            f"machine: N={mach.get('N')} v={mach.get('v')} p={mach.get('p')} "
            f"D={mach.get('D')} B={mach.get('B')} M={mach.get('M')}\n"
            f"{len(self.rows)} superstep group(s), {self.total_events} events "
            f"({self.setup_events} before the first superstep)"
        )
        rows = []
        for r in self.rows:
            rows.append(
                [
                    r.round,
                    r.parallel_ios,
                    r.ctx_blocks,
                    r.msg_blocks,
                    f"{r.mean_width:.2f}",
                    f"{r.compute_s * 1e3:.2f}",
                    f"{self._io_time(r) * 1e3:.1f}",
                    r.net_items,
                    f"r{r.critical_real}",
                    "-" if r.predicted_ios is None else f"{r.predicted_ios:.0f}",
                    "ok" if r.io_ok else "VIOLATED",
                ]
            )
        table = format_table(
            "per-superstep aggregation (I/O counts sum over real processors)",
            [
                "round",
                "par-I/Os",
                "ctx blk",
                "msg blk",
                "width",
                "comp ms",
                "io ms*",
                "net items",
                "crit",
                "pred I/O",
                "envelope",
            ],
            rows,
        )
        total_ios = sum(r.parallel_ios for r in self.rows)
        total_ctx = sum(r.ctx_blocks for r in self.rows)
        total_msg = sum(r.msg_blocks for r in self.rows)
        foot = [
            f"totals: {total_ios} parallel I/Os "
            f"({total_ctx} context blocks, {total_msg} message blocks), "
            f"{sum(r.net_items for r in self.rows)} network items",
            "* modeled on 1998-class disks (DiskServiceModel); compute is measured",
        ]
        if self.arena_grows:
            foot.append(
                f"out-of-core: {self.arena_grows} arena grow(s) "
                f"[{self.arena_backend or 'ram'}], resident peak "
                f"{self.arena_resident_peak / 1e6:.1f} MB, spill peak "
                f"{self.arena_spill_peak / 1e6:.1f} MB"
            )
        if self.drift_count:
            foot.append(
                f"model drift: {self.drift_count} live budget violation(s) "
                "flagged by the streaming conformance monitor"
            )
        if self.tuned is not None:
            knobs = " ".join(
                f"{k}={v}" for k, v in sorted(self.tuned["config"].items())
            )
            fp = self.tuned["fingerprint"]
            foot.append(
                "tuned profile applied"
                + (f" [{fp[:12]}]" if fp else "")
                + (f": {knobs}" if knobs else "")
            )
            for line in self.tuned["rationale"]:
                foot.append(f"  - {line}")
        if self.is_em:
            nviol = len(self.violations())
            foot.append(
                f"Theorem 2/3 per-superstep I/O envelope (c={self.envelope_c:g}): "
                + ("all supersteps within envelope" if self.ok else f"{nviol} VIOLATED")
            )
        else:
            foot.append(
                f"engine {self.engine!r} issues no PDM I/O — envelope check skipped"
            )
        return head + "\n\n" + table + "\n" + "\n".join(foot)

    # -- repro top --------------------------------------------------------------

    @property
    def finished(self) -> bool:
        """A ``run_end`` has been folded."""
        return self.run_supersteps is not None

    def render_top(self, window: int = 8) -> str:
        """The ``repro top`` dashboard: machine shape, the last *window*
        rounds with their parallel I/Os and wall time, running totals,
        arena health and any ``model_drift`` alarms."""
        head = f"repro top — {self.program} on {self.engine}"
        if self.workers:
            head += f" ({self.workers} workers)"
        lines = [head]
        shape = {k: v for k, v in self.machine.items() if k != "M" and v is not None}
        if shape:
            lines.append("machine: " + "  ".join(f"{k}={v}" for k, v in shape.items()))
        total = self.total_parallel_ios
        lines.append(
            f"supersteps: {len(self.rows)}   parallel I/Os: "
            f"{sum(r.parallel_ios for r in self.rows)}"
            + (f" / {total} total" if total is not None else "")
            + f"   events: {self.total_events}"
        )
        shown = self.rows[-window:] if window > 0 else []
        if shown:
            lines.append("")
            lines.append(f"{'round':>6} {'superstep':>9} {'par I/Os':>9} "
                         f"{'wall (s)':>9}  flags")
            for r in shown:
                lines.append(
                    f"{r.round:>6} {r.superstep:>9} {r.parallel_ios:>9} "
                    f"{r.round_wall_s:>9.4f}  {'DRIFT' if r.drift else ''}"
                )
        if self.arena_grows:
            spill_peak = self.arena_spill_peak
            spill = f", spill peak {spill_peak} B" if spill_peak else ""
            lines.append(
                f"arena: {self.arena_grows} growth events, resident peak "
                f"{self.arena_resident_peak} B{spill}"
            )
        if self.drift_count:
            lines.append(
                f"model drift: {self.drift_count} superstep(s) exceeded the "
                "Theorem 2/3 I/O envelope"
            )
        lines.append("status: " + ("finished" if self.finished else "running"))
        return "\n".join(lines) + "\n"


def analyze_events(
    events: list[dict[str, Any]], envelope_c: float = 8.0
) -> TraceAnalysis:
    """Aggregate recorder *events* (see :mod:`repro.obs.bus`) per superstep."""
    out = TraceAnalysis(envelope_c=envelope_c)
    for ev in events:
        out.feed(ev)
    return out


def analyze_file(path: str, envelope_c: float = 8.0) -> TraceAnalysis:
    """Analyze a ``--trace`` JSON-lines file (jsonl format, not chrome)."""
    from repro.obs.live import iter_jsonl

    try:
        events = list(iter_jsonl(path))
    except Exception as exc:
        raise ValueError(f"{path}: not a readable JSON-lines trace: {exc}") from exc
    if events and not any(isinstance(e, dict) and "kind" in e for e in events):
        raise ValueError(
            f"{path}: no recorder events found — is this a chrome-format "
            "trace? analyze needs the jsonl format (--trace-format jsonl)"
        )
    return analyze_events([e for e in events if isinstance(e, dict)], envelope_c)
