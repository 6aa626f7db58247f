"""Chrome trace-event export: visual timelines of an engine run.

Converts the flat events of :class:`repro.obs.bus.EventBus` into
the Chrome trace-event format (the JSON-array flavour), loadable in
``chrome://tracing`` or https://ui.perfetto.dev.

Mapping:

* ``superstep_begin``/``superstep_end`` become ``B``/``E`` duration pairs
  on a dedicated "superstep" track (tid 0);
* ``span_begin``/``span_end`` (the telemetry bus's explicit spans) become
  ``B``/``E`` pairs on the same track, nesting inside their superstep;
* ``compute_round`` becomes a complete ``X`` event whose duration is the
  measured callback wall time, on the virtual processor's own track;
* context/message/network/arena/drift events become instant
  ``i`` events carrying their tags in ``args``.

Lane assignment: single-process traces use one Chrome *process* per real
processor (``pid = real``), as before.  Traces from the multi-process
backend carry ``worker`` tags (see :func:`repro.obs.bus.replay_events`)
and get one Chrome process lane per OS worker — ``pid = 1 + worker``,
with the coordinator's own events (superstep boundaries, checkpoints) on
``pid 0`` — plus ``process_name`` metadata so the viewer labels the
lanes, instead of collapsing every worker into one unreadable track.

Timestamps are microseconds (the format's unit), taken from each event's
``ts`` field.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

#: event kinds rendered as thread-scoped instants.
_INSTANT_KINDS = {
    "context_read",
    "context_write",
    "message_write",
    "message_read",
    "network_transfer",
    "run_begin",
    "run_end",
    "arena_grow",
    "model_drift",
}


def _us(ev: dict[str, Any]) -> float:
    return float(ev.get("ts", 0.0)) * 1e6


def _cat(kind: str) -> str:
    if "message" in kind or "context" in kind or kind == "arena_grow":
        return "io"
    if kind == "model_drift":
        return "model"
    return "net"


def to_chrome_events(events: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Translate recorder events into Chrome trace-event dicts.

    Robust to imperfect traces: events are stably sorted by timestamp
    first (the viewers require non-decreasing ``ts`` for ``B``/``E``
    pairing), and a ``superstep_begin`` with no matching end — a crashed
    or truncated run — is auto-closed at the trace's last timestamp so the
    duration still renders instead of poisoning the whole track.
    """
    events = sorted(events, key=_us)
    last_ts = _us(events[-1]) if events else 0.0
    worker_mode = any("worker" in ev for ev in events)
    lanes: dict[int, str] = {}

    def _lane(ev: dict[str, Any]) -> int:
        if worker_mode:
            w = ev.get("worker")
            if w is not None:
                pid = 1 + int(w)
                lanes.setdefault(pid, f"worker {int(w)}")
                return pid
            lanes.setdefault(0, "coordinator")
            return 0
        return int(ev.get("real", ev.get("src_real", 0)) or 0)

    open_begins: list[dict[str, Any]] = []
    out: list[dict[str, Any]] = []
    for ev in events:
        kind = ev["kind"]
        ts = _us(ev)
        args = {
            k: v
            for k, v in ev.items()
            if k not in ("kind", "ts", "seq") and v is not None
        }
        if kind in ("superstep_begin", "span_begin"):
            name = (
                f"superstep {ev.get('superstep', '?')}"
                if kind == "superstep_begin"
                else str(ev.get("name", "span"))
            )
            begin = {
                "name": name,
                "cat": "superstep" if kind == "superstep_begin" else "span",
                "ph": "B",
                "ts": ts,
                "pid": _lane(ev),
                "tid": 0,
                "args": args,
            }
            out.append(begin)
            open_begins.append(begin)
        elif kind in ("superstep_end", "span_end"):
            if open_begins:
                open_begins.pop()
            name = (
                f"superstep {ev.get('superstep', '?')}"
                if kind == "superstep_end"
                else str(ev.get("name", "span"))
            )
            out.append(
                {
                    "name": name,
                    "cat": "superstep" if kind == "superstep_end" else "span",
                    "ph": "E",
                    "ts": ts,
                    "pid": _lane(ev),
                    "tid": 0,
                    "args": args,
                }
            )
        elif kind == "compute_round":
            dur = float(ev.get("wall_s", 0.0)) * 1e6
            out.append(
                {
                    "name": f"compute pid={ev.get('pid', '?')}",
                    "cat": "compute",
                    "ph": "X",
                    "ts": max(0.0, ts - dur),
                    "dur": dur,
                    "pid": _lane(ev),
                    "tid": 1 + int(ev.get("pid", 0)),
                    "args": args,
                }
            )
        elif kind in _INSTANT_KINDS:
            tid = (
                0
                if kind == "model_drift"
                else 1 + int(ev.get("pid", ev.get("dest", 0)) or 0)
            )
            out.append(
                {
                    "name": kind,
                    "cat": _cat(kind),
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": _lane(ev),
                    "tid": tid,
                    "args": args,
                }
            )
        # unknown kinds are dropped rather than emitting invalid phases
    # auto-close dangling begins, innermost first (E events pair LIFO)
    for begin in reversed(open_begins):
        out.append(
            {
                "name": begin["name"],
                "cat": begin["cat"],
                "ph": "E",
                "ts": max(last_ts, begin["ts"]),
                "pid": begin["pid"],
                "tid": 0,
                "args": {"auto_closed": True},
            }
        )
    if worker_mode and lanes:
        # name the per-worker process lanes; prepended so out[-1] stays
        # the trace's final real event (auto-closer included)
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0.0,
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
            for pid, label in sorted(lanes.items())
        ]
        out = meta + out
    return out


def write_chrome_trace(
    events: list[dict[str, Any]], path_or_file: str | TextIO
) -> int:
    """Write *events* as a Chrome trace JSON array; returns count written."""
    chrome = to_chrome_events(events)
    if hasattr(path_or_file, "write"):
        json.dump(chrome, path_or_file)  # type: ignore[arg-type]
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            json.dump(chrome, fh)
    return len(chrome)
