"""Lightweight labeled metrics: counters, gauges, timers, high-water marks.

The event recorder (:mod:`repro.obs.bus`) answers *what happened when*;
this module answers *how much, per dimension*: every engine run folds its
cost accounting into a :class:`MetricsRegistry` as labeled series keyed by
engine, program and machine shape (v/p/D/B), so repeated runs — a
benchmark sweep, a CLI session, a long-lived service — accumulate into one
queryable surface that exports as Prometheus text or a JSON snapshot.

Design mirrors the tracer: the default :data:`NULL_REGISTRY` is a disabled
no-op and every engine call site is guarded on ``metrics.enabled``, so an
unmetered run never allocates a label set or touches a dict.

Series kinds:

* :class:`Counter` — monotonically increasing (``inc``);
* :class:`Gauge` — last-write-wins (``set``);
* :class:`Timer` — accumulates ``observe(seconds)`` into sum + count
  (exported Prometheus-style as ``_sum``/``_count``);
* :class:`HighWaterMark` — keeps the maximum ever ``update``-d.

Usage::

    reg = MetricsRegistry()
    reg.counter("repro_parallel_ios_total").labels(engine="seq-em").inc(42)
    print(reg.render_prometheus())
    json.dumps(reg.snapshot())
"""

from __future__ import annotations

import json
from typing import Any, TextIO

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Series:
    """One (metric, label-set) time series."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: dict[str, str]) -> None:
        self.labels = labels
        self.value: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {"labels": self.labels, "value": self.value}


class Counter(_Series):
    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge(_Series):
    def set(self, value: float) -> None:
        self.value = float(value)


class HighWaterMark(_Series):
    def update(self, value: float) -> None:
        if value > self.value:
            self.value = float(value)


class Timer(_Series):
    """Accumulating duration series (sum of seconds + observation count)."""

    __slots__ = ("count",)

    def __init__(self, labels: dict[str, str]) -> None:
        super().__init__(labels)
        self.count: int = 0

    def observe(self, seconds: float) -> None:
        self.value += float(seconds)
        self.count += 1

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

    def labels(self, **labels: Any) -> Any:
        """The child series for this label set (created on first use)."""
        key = _label_key(labels)
        child = self._series.get(key)
        if child is None:
            child = self.series_cls({k: v for k, v in key})
            self._series[key] = child
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


def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class MetricsRegistry:
    """Create-or-get metric families; export the whole surface at once."""

    enabled: bool = True

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # -- family constructors (idempotent) ------------------------------------

    def _get(self, name: str, cls: type[_Series], help: str) -> Metric:
        m = self._metrics.get(name)
        if m is None:
            m = Metric(name, cls, help)
            self._metrics[name] = m
        elif m.series_cls is not cls:
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
            for m in self.metrics
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for m in self.metrics:
            if m.help:
                lines.append(f"# HELP {m.name} {_escape(m.help)}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            for s in m.series:
                tags = _fmt_labels(s.labels)
                if isinstance(s, Timer):
                    lines.append(f"{m.name}_sum{tags} {s.value:g}")
                    lines.append(f"{m.name}_count{tags} {s.count}")
                else:
                    lines.append(f"{m.name}{tags} {s.value:g}")
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


class _ScopedMetric(Metric):
    """A family view that merges fixed labels into every series lookup.

    Caller-supplied labels win on collision so a scoped view can never
    silently shadow an explicit label.
    """

    def __init__(self, metric: Metric, scope: dict[str, str]) -> None:
        super().__init__(metric.name, metric.series_cls, metric.help)
        self._metric = metric
        self._scope = scope

    def labels(self, **labels: Any) -> Any:
        return self._metric.labels(**{**self._scope, **labels})


class ScopedRegistry(MetricsRegistry):
    """A :class:`MetricsRegistry` view that injects fixed labels.

    The job server hands each worker a scope carrying the job's tenant
    (and job id) so every engine-emitted series — parallel I/Os, rounds,
    compute seconds — lands in the shared registry with per-tenant
    labels, queryable straight off ``/metrics``.  Family registration,
    series storage and export all stay on the underlying registry; only
    ``labels()`` lookups are rewritten.
    """

    def __init__(self, registry: MetricsRegistry, **scope: Any) -> None:
        super().__init__()
        self.registry = registry
        self.scope = {k: str(v) for k, v in scope.items()}
        self.enabled = registry.enabled

    def _get(self, name: str, cls: type[_Series], help: str) -> Metric:
        return _ScopedMetric(self.registry._get(name, cls, help), self.scope)

    def __contains__(self, name: str) -> bool:
        return name in self.registry

    def __getitem__(self, name: str) -> Metric:
        return self.registry[name]

    @property
    def metrics(self) -> list[Metric]:
        return self.registry.metrics

    def snapshot(self) -> dict[str, Any]:
        return self.registry.snapshot()

    def render_prometheus(self) -> str:
        return self.registry.render_prometheus()


class _NullSeries(_Series):
    """Accepts every mutation, records nothing."""

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def update(self, value: float) -> None:
        pass

    def observe(self, seconds: float) -> None:
        pass


class _NullMetric(Metric):
    def __init__(self) -> None:
        super().__init__("_null", _NullSeries)
        self._child = _NullSeries({})

    def labels(self, **labels: Any) -> Any:
        return self._child


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every family is a shared no-op.

    Engines check ``metrics.enabled`` before composing label dicts, so
    with this registry installed no series is ever materialized.
    """

    enabled = False

    def _get(self, name: str, cls: type[_Series], help: str) -> Metric:
        return _NULL_METRIC

    def snapshot(self) -> dict[str, Any]:
        return {}

    def render_prometheus(self) -> str:
        return ""


#: shared disabled registry — engines default to this singleton.
NULL_REGISTRY = NullRegistry()
