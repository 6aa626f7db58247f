"""The event sources of ``repro top`` and ``repro analyze``.

``repro top`` feeds a :class:`~repro.obs.analyze.TraceAnalysis` one event
at a time and prints :meth:`~repro.obs.analyze.TraceAnalysis.render_top`
at any point mid-run.  It holds one small row per round, not the trace:
at most :data:`~repro.cgm.engine.MAX_ROUNDS` (10,000) rows per run.

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
