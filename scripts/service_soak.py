#!/usr/bin/env python
"""Job-service soak: hammer a live ``repro serve`` with a mixed batch.

Submits ``--jobs`` specs (default 20) over HTTP in two waves — a unique
wave of mixed ops, sizes, tenants and priorities, then a duplicate wave
resubmitting earlier specs under a different tenant — and asserts the
service-level metrics are non-degenerate:

* every submission was accepted and finished ``done``;
* every duplicate was answered from the result cache (hits > 0, and the
  duplicate wave returned 200/hit immediately, not 202);
* the queue actually backed up at some point (max sampled depth > 0),
  i.e. the soak exercised queueing, not just a fast pass-through.

Run against an external server with ``--url``; with no URL the script
starts an in-process server on a private port and tears it down after.
Exit code 0 on success, 1 on any degenerate metric, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from repro.service.client import get_job, request_json, submit_job

#: seconds any one request may take
_TIMEOUT_S = 30.0


def _wave(count: int, offset: int = 0) -> list[dict]:
    ops = ("sort", "permute", "transpose")
    return [
        {
            "op": ops[i % len(ops)],
            "n": 4096 << (i % 3),
            "seed": i // 3,
            "machine": {"v": 8, "D": 2, "B": 64},
            "tenant": f"soak{i % 3}",
            "priority": i % 4,
        }
        for i in range(offset, offset + count)
    ]


def _scrape(url: str) -> str:
    """The Prometheus text, which ``request_json`` hands back as ``raw``."""
    _, _, body = request_json("GET", f"{url}/metrics", timeout_s=_TIMEOUT_S)
    return body.get("raw", "")


def _metric(text: str, name: str) -> float:
    total = 0.0
    for m in re.finditer(
        rf"^{re.escape(name)}(?:{{[^}}]*}})? ([0-9.eE+-]+)$", text, re.M
    ):
        total += float(m.group(1))
    return total


def _submit(url: str, spec: dict) -> tuple[int, dict, dict]:
    status, headers, body = submit_job(url, spec, _TIMEOUT_S)
    while status == 429:  # backpressure is legitimate under load
        time.sleep(1.0)
        status, headers, body = submit_job(url, spec, _TIMEOUT_S)
    return status, headers, body


def _await_terminal(url: str, ids: list[str], deadline: float) -> dict[str, str]:
    pending, states = set(ids), {}
    while pending and time.monotonic() < deadline:
        for job_id in sorted(pending):
            doc = get_job(url, job_id, _TIMEOUT_S)
            if doc["state"] in ("done", "failed", "cancelled"):
                states[job_id] = doc["state"]
                pending.discard(job_id)
        if pending:
            time.sleep(0.25)
    for job_id in pending:
        states[job_id] = "stuck"
    return states


def soak(url: str, jobs: int, timeout_s: float) -> int:
    deadline = time.monotonic() + timeout_s
    n_dup = max(1, jobs // 3)
    unique = _wave(jobs - n_dup)
    failures: list[str] = []

    # wave 1: unique specs, sampling queue depth between submissions
    ids, max_depth = [], 0.0
    for spec in unique:
        status, _, body = _submit(url, spec)
        if status not in (200, 202):
            print(f"error: submission refused ({status}): {body}", file=sys.stderr)
            return 1
        ids.append(body["id"])
        max_depth = max(max_depth, _metric(_scrape(url), "repro_service_queue_depth"))
    states = _await_terminal(url, ids, deadline)
    not_done = {j: s for j, s in states.items() if s != "done"}

    # wave 2: duplicates under a fresh tenant — the fingerprint ignores
    # scheduling identity, so every one must be served from the cache
    stale_dups = 0
    for spec in unique[:n_dup]:
        status, headers, body = _submit(url, {**spec, "tenant": "dup"})
        if status != 200 or headers.get("X-Repro-Cache") != "hit":
            stale_dups += 1
            if body.get("id"):
                states.update(_await_terminal(url, [body["id"]], deadline))

    metrics = _scrape(url)
    submitted = _metric(metrics, "repro_service_jobs_submitted_total")
    hits = _metric(metrics, "repro_service_cache_hits_total")
    misses = _metric(metrics, "repro_service_cache_misses_total")

    print(
        f"soak: {jobs} submitted ({len(unique)} unique + {n_dup} dup), "
        f"bad states={len(not_done)}, stale dups={stale_dups}; "
        f"cache hits={hits:.0f} misses={misses:.0f}; "
        f"max queue depth={max_depth:.0f}"
    )
    if not_done:
        failures.append(f"jobs not done: {not_done}")
    if stale_dups:
        failures.append(f"{stale_dups} duplicate(s) missed the result cache")
    if submitted < jobs:
        failures.append(f"submitted counter degenerate: {submitted} < {jobs}")
    if hits < n_dup:
        failures.append(f"cache hit counter degenerate: {hits} < {n_dup}")
    if misses <= 0:
        failures.append("cache miss counter degenerate: nothing was computed")
    if max_depth <= 0:
        failures.append("queue depth never rose above zero: soak did not queue")
    for f in failures:
        print(f"error: {f}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None,
                        help="running server (default: start one in-process)")
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument("--pool", type=int, default=2,
                        help="worker pool size for the in-process server")
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--state-dir", default="soak_state")
    args = parser.parse_args(argv)
    if args.jobs < 3:
        parser.error("--jobs must be >= 3 (the batch needs a duplicate wave)")

    if args.url:
        return soak(args.url.rstrip("/"), args.jobs, args.timeout)

    from repro.service.server import JobServer, ServiceCore

    core = ServiceCore(state_dir=args.state_dir, pool_size=args.pool)
    server = JobServer(core).start()
    print(f"soaking in-process server at {server.url}")
    try:
        return soak(server.url, args.jobs, args.timeout)
    finally:
        core.drain(timeout=30.0)
        server.close()


if __name__ == "__main__":
    sys.exit(main())
