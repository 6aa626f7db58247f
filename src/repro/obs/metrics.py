"""Lightweight labeled metrics: counters, gauges, timers, high-water marks.

The event bus (:mod:`repro.obs.bus`) answers *what happened when*; this
module answers *how much, per dimension*.  A :class:`MetricsRegistry` is a
fold over the bus: :meth:`MetricsRegistry.attach` adds one synchronous
listener that turns each run's ``run_begin`` / ``compute_round`` /
``superstep_end`` / ``fault_stats`` / ``run_end`` events into labeled
series keyed by engine, program and machine shape (v/p/D/B), so repeated
runs — a benchmark sweep, a CLI session, a long-lived service — accumulate
into one queryable surface that exports as Prometheus text or a JSON
snapshot.
Engines know nothing of it: they emit one stream, and ``/metrics`` and
``--metrics`` are views over that stream.

Series kinds:

* :class:`Counter` — monotonically increasing (``inc``);
* :class:`Gauge` — last-write-wins (``set``);
* :class:`Timer` — accumulates ``observe(seconds)`` into sum + count
  (exported Prometheus-style as ``_sum``/``_count``);
* :class:`HighWaterMark` — keeps the maximum ever ``update``-d.

Usage::

    reg = MetricsRegistry()
    em_sort(data, cfg, metrics=reg)       # make_engine attaches reg to the bus
    reg.counter("repro_service_jobs_total").labels(tenant="a").inc()
    print(reg.render_prometheus())
    json.dumps(reg.snapshot())
"""

from __future__ import annotations

import json
import threading
import weakref
from typing import TYPE_CHECKING, Any, TextIO

from repro.cgm.metrics import EM_ENGINES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.bus import EventBus

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Series:
    """One (metric, label-set) time series."""

    __slots__ = ("labels", "value", "_lock")

    def __init__(self, labels: dict[str, str]) -> None:
        self.labels = labels
        self.value: float = 0.0
        self._lock = threading.Lock()

    def as_dict(self) -> dict[str, Any]:
        return {"labels": self.labels, "value": self.value}


class Counter(_Series):
    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:  # pool and HTTP threads fold into one series
            self.value += amount


class Gauge(_Series):
    def set(self, value: float) -> None:
        self.value = float(value)


class HighWaterMark(_Series):
    def update(self, value: float) -> None:
        with self._lock:
            self.value = max(self.value, float(value))


class Timer(_Series):
    """Accumulating duration series (sum of seconds + observation count)."""

    __slots__ = ("count",)

    def __init__(self, labels: dict[str, str]) -> None:
        super().__init__(labels)
        self.count: int = 0

    def observe(self, seconds: float) -> None:
        with self._lock:
            self.value, self.count = self.value + float(seconds), self.count + 1

    def as_dict(self) -> dict[str, Any]:
        return {"labels": self.labels, "sum": self.value, "count": self.count}


#: Prometheus type names per series class.
_PROM_TYPE = {Counter: "counter", Gauge: "gauge", HighWaterMark: "gauge", Timer: "summary"}


class Metric:
    """A named family of series, one per distinct label set."""

    def __init__(self, name: str, series_cls: type[_Series], help: str = "") -> None:
        _check_name(name)
        self.name = name
        self.help = help
        self.series_cls = series_cls
        self._series: dict[_LabelKey, _Series] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: Any) -> Any:
        """The child series for this label set (created on first use)."""
        key = _label_key(labels)
        child = self._series.get(key)
        if child is None:
            with self._lock:
                child = self._series.setdefault(
                    key, self.series_cls({k: v for k, v in key})
                )
        return child

    @property
    def series(self) -> list[_Series]:
        return list(self._series.values())

    @property
    def kind(self) -> str:
        return _PROM_TYPE[self.series_cls]


def _check_name(name: str) -> None:
    ok = name and (name[0].isalpha() or name[0] == "_") and all(
        c.isalnum() or c == "_" for c in name
    )
    if not ok:
        raise ValueError(f"invalid metric name {name!r} (want [a-zA-Z_][a-zA-Z0-9_]*)")


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    """A sample value: an integral one exactly, any other as ``repr``."""
    value = float(value)
    return str(int(value)) if value.is_integer() else repr(value)


def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class MetricsRegistry:
    """Create-or-get metric families; export the whole surface at once."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._buses: "weakref.WeakSet[EventBus]" = weakref.WeakSet()
        self._lock = threading.Lock()

    def attach(self, bus: "EventBus", **scope: Any) -> None:
        """Fold every run *bus* carries into this registry.

        Adds one synchronous listener (idempotent per bus: a preempted job
        resumed on its own bus keeps the one it has).  *scope* labels — a
        served job's ``tenant`` and ``job`` — are merged into every series
        the fold writes.
        """
        if bus in self._buses:
            return
        self._buses.add(bus)
        bus.add_listener(_RunFold(self, scope).on_event)

    # -- family constructors (idempotent) ------------------------------------

    def _get(self, name: str, cls: type[_Series], help: str) -> Metric:
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.setdefault(name, Metric(name, cls, help))
        if m.series_cls is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {m.kind}, "
                f"cannot re-register as {_PROM_TYPE[cls]}"
            )
        return m

    def counter(self, name: str, help: str = "") -> Metric:
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Metric:
        return self._get(name, Gauge, help)

    def timer(self, name: str, help: str = "") -> Metric:
        return self._get(name, Timer, help)

    def highwater(self, name: str, help: str = "") -> Metric:
        return self._get(name, HighWaterMark, help)

    # -- introspection --------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Metric:
        return self._metrics[name]

    @property
    def metrics(self) -> list[Metric]:
        return list(self._metrics.values())

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-able dump of every family and series."""
        return {
            m.name: {
                "kind": m.kind,
                "help": m.help,
                "series": [s.as_dict() for s in m.series],
            }
            for m in self._metrics.values()
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for m in self._metrics.values():
            if m.help:
                lines.append(f"# HELP {m.name} {_escape(m.help)}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            for s in m.series:
                tags = _fmt_labels(s.labels)
                if isinstance(s, Timer):
                    lines.append(f"{m.name}_sum{tags} {_fmt_value(s.value)}")
                    lines.append(f"{m.name}_count{tags} {s.count}")
                else:
                    lines.append(f"{m.name}{tags} {_fmt_value(s.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path_or_file: str | TextIO) -> None:
        """Write the registry to *path*: ``.json`` gets the snapshot dict,
        anything else the Prometheus text format."""
        if hasattr(path_or_file, "write"):
            path_or_file.write(self.render_prometheus())  # type: ignore[union-attr]
            return
        if str(path_or_file).endswith(".json"):
            with open(path_or_file, "w", encoding="utf-8") as fh:
                json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        else:
            with open(path_or_file, "w", encoding="utf-8") as fh:
                fh.write(self.render_prometheus())


#: every family the fold writes: name -> (series kind, help)
_FAMILIES = {
    "repro_rounds_total": ("counter", "CGM rounds executed"),
    "repro_parallel_ios_total": ("counter", "PDM parallel I/O operations"),
    "repro_blocks_total": ("counter", "disk blocks moved"),
    "repro_comm_items_total": ("counter", "items communicated"),
    "repro_cross_items_total": ("counter", "items over the real network"),
    "repro_compute_seconds": ("timer", "measured round-callback wall time"),
    "repro_h_relation_max_items": ("highwater", "largest h-relation seen"),
    "repro_superstep_parallel_ios": (
        "gauge", "parallel I/Os per superstep group (one CGM round)"
    ),
    "repro_page_faults_total": ("counter", "LRU pager faults (VM baseline)"),
    "repro_context_blocks_total": ("counter", "blocks moved for context swapping"),
    "repro_message_blocks_total": ("counter", "blocks moved for message traffic"),
    "repro_overflow_blocks_total": ("counter", "staggered-slot overflow spills"),
    "repro_io_retries_total": ("counter", "single-track accesses re-attempted"),
    "repro_io_faults_total": ("counter", "injected disk faults"),
    "repro_disk_deaths_total": ("counter", "disks declared dead"),
    "repro_degraded_ios_total": (
        "counter", "parallel I/Os served by remapped survivors"
    ),
    "repro_lost_width_total": ("counter", "disk-parallelism width lost to remapping"),
    "repro_migrated_blocks_total": ("counter", "blocks evacuated from dead disks"),
    "repro_transport_packets_total": ("counter", "worker-exchange packets by node"),
    "repro_transport_bytes_total": (
        "counter",
        "bytes of the exchange packet frames a node received "
        "(host:port, or local/<w> for a forked worker)",
    ),
    "repro_runs_total": ("counter", "engine executions"),
    "repro_supersteps": ("gauge", "real-machine supersteps of the last run"),
    "repro_peak_memory_items": ("highwater", "peak internal-memory footprint"),
}
#: the update each series kind takes
_APPLY = {"counter": "inc", "gauge": "set", "timer": "observe", "highwater": "update"}
#: the event kinds the fold reads
_FOLDED = frozenset(
    {"run_begin", "superstep_begin", "compute_round", "superstep_end",
     "fault_stats", "run_end"}
)
#: (family, event field) pairs summed per round, and per EM run
_ROUND_SUMS = (
    ("repro_parallel_ios_total", "parallel_ios"),
    ("repro_blocks_total", "blocks"),
    ("repro_comm_items_total", "comm_items"),
    ("repro_cross_items_total", "cross_items"),
)
_BLOCK_SUMS = (
    ("repro_context_blocks_total", "context_blocks"),
    ("repro_message_blocks_total", "message_blocks"),
    ("repro_overflow_blocks_total", "overflow_blocks"),
)
#: (family, ``fault_stats`` field, extra labels)
_FAULT_SUMS: tuple[tuple[str, str, dict[str, str]], ...] = (
    ("repro_io_retries_total", "retries", {}),
    ("repro_io_faults_total", "transient_read_faults", {"kind": "transient_read"}),
    ("repro_io_faults_total", "transient_write_faults", {"kind": "transient_write"}),
    ("repro_io_faults_total", "torn_writes", {"kind": "torn_write"}),
    ("repro_disk_deaths_total", "dead_disks", {}),
    ("repro_degraded_ios_total", "degraded_ios", {}),
    ("repro_lost_width_total", "lost_width", {}),
    ("repro_migrated_blocks_total", "migrated_blocks", {}),
)


class _RunFold:
    """One bus's listener: folds each run's events into a registry.

    ``run_begin`` fixes the labels of the run's series, ``compute_round``
    adds callback wall time per real processor, ``superstep_end`` writes
    the per-round families (a worker fleet's traffic too), ``fault_stats``
    the fault counters and ``run_end`` the other end-of-run ones.  The
    scope labels are merged into every series.
    """

    def __init__(self, registry: MetricsRegistry, scope: dict[str, Any]) -> None:
        self.reg = registry
        self.scope = {k: str(v) for k, v in scope.items()}
        self.labels: dict[str, Any] = dict(self.scope)
        self.machine: dict[str, Any] = self.labels
        self.wall: dict[int, float] = {}
        #: the update methods of this run's series under its labels, by family
        self._run: dict[str, Any] = {}

    def _update(self, name: str, labels: dict[str, Any]) -> Any:
        """The update method of family *name*'s series for *labels*."""
        kind, help = _FAMILIES[name]
        series = getattr(self.reg, kind)(name, help).labels(**labels)
        return getattr(series, _APPLY[kind])

    def _put(self, name: str, value: float) -> None:
        """Update *name*'s series under the run's labels, looked up once a
        run (a served job's run adds its series on every round otherwise)."""
        update = self._run.get(name)
        if update is None:
            update = self._run[name] = self._update(name, self.labels)
        update(value)

    def on_event(self, ev: dict[str, Any]) -> None:
        kind, put = ev["kind"], self._put
        if kind not in _FOLDED:
            return
        if kind == "compute_round":
            self.wall[ev["real"]] = self.wall.get(ev["real"], 0.0) + ev["wall_s"]
        elif kind == "superstep_begin":
            self.wall = {}
        elif kind == "superstep_end":
            put("repro_rounds_total", 1)
            for name, key in _ROUND_SUMS:
                put(name, ev[key])
            # the round's critical path: callback time summed per real, maxed
            put("repro_compute_seconds", max(self.wall.values(), default=0.0))
            put("repro_h_relation_max_items", max(ev["h_in"], ev["h_out"]))
            at = {**self.labels, "superstep": ev["superstep"], "round": ev["round"]}
            self._update("repro_superstep_parallel_ios", at)(ev["parallel_ios"])
            if "transport" in ev:
                self._transport(ev["transport"])
        elif kind == "run_begin":
            self.machine = {
                **self.scope, "engine": ev["engine"],
                "p": ev["p"], "D": ev["D"], "B": ev["B"],
            }
            self.labels = {**self.machine, "algorithm": ev["program"], "v": ev["v"]}
            self._run = {}
        elif kind == "fault_stats":
            for name, key, extra in _FAULT_SUMS:
                self._update(name, {**self.machine, **extra})(ev[key])
        elif kind == "run_end":
            self._run_end(ev)

    def _transport(self, traffic: dict[str, Any]) -> None:
        tags = {**self.scope, "transport": traffic["kind"]}
        for node, counts in traffic["packets"].items():
            for direction in ("sent", "recv"):
                at = {**tags, "node": node, "direction": direction}
                self._update("repro_transport_packets_total", at)(counts[direction])
        for node, n in traffic["bytes"].items():
            self._update("repro_transport_bytes_total", {**tags, "node": node})(n)

    def _run_end(self, ev: dict[str, Any]) -> None:
        if "page_items" in ev:  # the VM baseline's pager
            pager = {
                **self.scope, "engine": ev["engine"], "page_items": ev["page_items"]
            }
            self._update("repro_page_faults_total", pager)(ev["page_faults"])
        if ev["engine"] in EM_ENGINES:
            for name, key in _BLOCK_SUMS:
                self._update(name, self.machine)(ev[key])
        self._put("repro_runs_total", 1)
        self._put("repro_supersteps", ev["supersteps"])
        self._put("repro_peak_memory_items", ev["peak_memory_items"])
