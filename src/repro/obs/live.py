"""``repro top``: a live textual view of a running simulation.

:class:`TopView` is an incremental aggregator: feed it bus events one at
a time (:meth:`TopView.feed`) and :meth:`TopView.render` produces a
compact dashboard at any point mid-run — machine shape, the last few
supersteps with their parallel-I/O and wall-clock cost, running totals,
arena health and any ``model_drift`` alarms.  It never holds
the full trace, so it can watch arbitrarily long runs at O(window)
memory.

Two stdlib event sources feed it:

* :func:`iter_jsonl` — read a JSON-lines trace file, optionally in
  ``follow`` mode (tail a live ``REPRO_TRACE=<path>`` / ``EventBus``
  sink as the engine appends to it); the one JSON-lines reader, which
  ``repro analyze`` reads through as well;
* :func:`iter_sse` — consume a Server-Sent-Events stream over HTTP: the
  per-job ``/jobs/<id>/events`` stream of ``repro serve``.
"""

from __future__ import annotations

import json
import time
import urllib.request
from collections import deque
from typing import Any, Iterator


def iter_jsonl(
    path: str,
    follow: bool = False,
    poll_s: float = 0.2,
    idle_timeout_s: "float | None" = None,
) -> Iterator[dict[str, Any]]:
    """Yield events from a JSON-lines trace file.

    With ``follow=True`` the iterator tails the file like ``tail -f``,
    sleeping *poll_s* between attempts; it stops after a ``run_end``
    event, or once *idle_timeout_s* passes with no new data (``None`` =
    wait forever).  A partial trailing line (a writer mid-flush) is
    retried in follow mode, and read as the last event otherwise.
    """
    with open(path, "r", encoding="utf-8") as fh:
        buf = ""
        idle_since = time.monotonic()
        while True:
            chunk = fh.readline()
            if chunk:
                buf += chunk
                if not buf.endswith("\n"):
                    continue  # partial line; wait for the rest
                line, buf = buf.strip(), ""
                if not line:
                    continue
                ev = json.loads(line)
                idle_since = time.monotonic()
                yield ev
                if follow and ev.get("kind") == "run_end":
                    return
                continue
            if not follow:
                if buf.strip():
                    yield json.loads(buf)
                return
            if (
                idle_timeout_s is not None
                and time.monotonic() - idle_since >= idle_timeout_s
            ):
                return
            time.sleep(poll_s)


def iter_sse(url: str, timeout_s: float = 30.0) -> Iterator[dict[str, Any]]:
    """Yield events from the SSE stream at *url* (a job's ``/jobs/<id>/events``).

    Parses ``data:`` frames as JSON, skips comments/keepalives, and
    stops on an ``event: end`` frame, a closed connection, or a socket
    read blocking longer than *timeout_s*.
    """
    req = urllib.request.Request(url, headers={"Accept": "text/event-stream"})
    with urllib.request.urlopen(req, timeout=timeout_s) as resp:
        event_type = "trace"
        data_lines: list[str] = []
        for raw in resp:
            line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
            if line.startswith(":"):
                continue  # keepalive comment
            if line.startswith("event:"):
                event_type = line[len("event:"):].strip()
                continue
            if line.startswith("data:"):
                data_lines.append(line[len("data:"):].strip())
                continue
            if line == "":  # frame boundary
                if event_type == "end":
                    return
                if data_lines:
                    yield json.loads("\n".join(data_lines))
                event_type = "trace"
                data_lines = []


class TopView:
    """Incremental run dashboard; ``feed`` events, ``render`` anytime."""

    def __init__(self, window: int = 8) -> None:
        self.window = window
        self.machine: dict[str, Any] = {}
        self.engine: "str | None" = None
        self.program: "str | None" = None
        self.workers: "int | None" = None
        self.rounds: deque[dict[str, Any]] = deque(maxlen=window)
        self.supersteps = 0
        self.total_ios = 0
        self.run_total_ios: "int | None" = None
        self.events_seen = 0
        self.drifts: list[dict[str, Any]] = []
        self.arena_grows = 0
        self.arena_resident_peak = 0
        self.arena_spill_peak = 0
        self.finished = False

    def feed(self, ev: dict[str, Any]) -> None:
        self.events_seen += 1
        kind = ev.get("kind")
        if kind == "run_begin":
            self.engine = ev.get("engine")
            self.program = ev.get("program")
            self.workers = ev.get("workers")
            self.machine = {
                k: ev[k] for k in ("N", "v", "p", "D", "B") if k in ev
            }
        elif kind == "superstep_end":
            self.supersteps += 1
            ios = int(ev.get("parallel_ios", 0) or 0)
            self.total_ios += ios
            self.rounds.append(
                {
                    "round": ev.get("round"),
                    "superstep": ev.get("superstep"),
                    "parallel_ios": ios,
                    "wall_s": float(ev.get("wall_s", 0.0) or 0.0),
                    "drift": False,
                }
            )
        elif kind == "model_drift":
            self.drifts.append(ev)
            for row in reversed(self.rounds):
                if row["round"] == ev.get("round"):
                    row["drift"] = True
                    break
        elif kind == "arena_grow":
            self.arena_grows += 1
            self.arena_resident_peak = max(
                self.arena_resident_peak, int(ev.get("resident_nbytes", 0) or 0)
            )
            self.arena_spill_peak = max(
                self.arena_spill_peak, int(ev.get("spill_nbytes", 0) or 0)
            )
        elif kind == "run_end":
            self.finished = True
            total = ev.get("parallel_ios")
            if total is not None:
                self.run_total_ios = int(total)

    def render(self) -> str:
        head = f"repro top — {self.program or '?'} on {self.engine or '?'}"
        if self.workers:
            head += f" ({self.workers} workers)"
        lines = [head]
        if self.machine:
            lines.append(
                "machine: "
                + "  ".join(f"{k}={v}" for k, v in self.machine.items())
            )
        lines.append(
            f"supersteps: {self.supersteps}   parallel I/Os: {self.total_ios}"
            + (
                f" / {self.run_total_ios} total"
                if self.run_total_ios is not None
                else ""
            )
            + f"   events: {self.events_seen}"
        )
        if self.rounds:
            lines.append("")
            lines.append(f"{'round':>6} {'superstep':>9} {'par I/Os':>9} "
                         f"{'wall (s)':>9}  flags")
            for row in self.rounds:
                lines.append(
                    f"{row['round'] if row['round'] is not None else '?':>6} "
                    f"{row['superstep'] if row['superstep'] is not None else '?':>9} "
                    f"{row['parallel_ios']:>9} "
                    f"{row['wall_s']:>9.4f}  "
                    f"{'DRIFT' if row['drift'] else ''}"
                )
        if self.arena_grows:
            spill = (
                f", spill peak {self.arena_spill_peak} B"
                if self.arena_spill_peak
                else ""
            )
            lines.append(
                f"arena: {self.arena_grows} growth events, resident peak "
                f"{self.arena_resident_peak} B{spill}"
            )
        if self.drifts:
            lines.append(
                f"model drift: {len(self.drifts)} superstep(s) exceeded the "
                "Theorem 2/3 I/O envelope"
            )
        lines.append("status: " + ("finished" if self.finished else "running"))
        return "\n".join(lines) + "\n"
