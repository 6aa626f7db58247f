"""The worker-exchange :class:`Transport` interface.

Algorithm 3's real processors exchange exactly one packet per peer per
phase — that all-to-all is both the data plane and the superstep
barrier.  A :class:`Transport` owns how those packets move between the
OS processes (or machines) hosting the reals; everything above it (the
bundling, staging, and cost accounting of the
:class:`~repro.core.par_engine.ParEMEngine` slice that receives it as
``net``) is transport-agnostic, which is what keeps logical ``IOStats``
bit-identical across backends.

Concrete transports:

* :class:`~repro.core.transport.local.MemoryTransport` — per-worker
  ``multiprocessing`` queues, payloads pickled inline;
* :class:`~repro.core.transport.local.ShmTransport` — the queue path
  plus one ``shared_memory`` segment per bulk packet (the PR-5 path);
* :class:`~repro.core.transport.tcp.TcpWorkerTransport` — length-
  prefixed, checksummed frames over a socket to the coordinator, which
  relays peer packets between ``repro node`` daemons.

The exchange protocol (:meth:`Transport.exchange`) is shared: send one
encoded packet to every peer, then block until one packet per peer of
the *same* ``(round, phase)`` has arrived, buffering any packet from a
peer that raced ahead into a later phase.
"""

from __future__ import annotations

import queue
from typing import Any

from repro.util.validation import ConfigurationError, SimulationError

#: seconds a blocked packet/command read waits between abort-flag polls.
POLL_S = 0.25


class TransportError(SimulationError):
    """A worker-exchange transport failed at runtime (CLI exit code 3).

    Configuration mistakes (a malformed ``REPRO_NODES``, a missing node
    list) raise :class:`~repro.tune.knobs.KnobError` /
    :class:`~repro.util.validation.ConfigurationError` instead — the
    usage-error taxonomy (exit code 2).
    """


class TransportAbort(SimulationError):
    """Raised inside a worker when the coordinator signalled shutdown."""


def parse_nodes(raw: str) -> list[tuple[str, int]]:
    """``host:port,host:port,...`` -> validated (host, port) pairs.

    Raises :class:`ValueError` with a message suitable for the knob
    registry's one-line ``KnobError`` wrapping.
    """
    nodes: list[tuple[str, int]] = []
    for entry in raw.split(","):
        entry = entry.strip()
        if not entry:
            continue
        host, sep, port_s = entry.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"node {entry!r} is not host:port (use host:port,host:port,...)"
            )
        try:
            port = int(port_s)
        except ValueError:
            raise ValueError(f"node {entry!r} has a non-integer port") from None
        if not 0 < port < 65536:
            raise ValueError(f"node {entry!r} port must be in [1, 65535]")
        nodes.append((host, port))
    if not nodes:
        raise ValueError("no nodes listed (use host:port,host:port,...)")
    return nodes


def render_nodes(nodes: list[tuple[str, int]]) -> str:
    return ",".join(f"{h}:{p}" for h, p in nodes)


def require_nodes(nodes: "str | None") -> list[tuple[str, int]]:
    """The validated node list the tcp transport needs, or a clean error."""
    if not nodes:
        raise ConfigurationError(
            "transport 'tcp' needs a node list: set REPRO_NODES=host:port,... "
            "(one 'repro node' daemon per entry)"
        )
    try:
        return parse_nodes(nodes)
    except ValueError as exc:  # pragma: no cover - knob parsing catches first
        raise ConfigurationError(f"invalid REPRO_NODES: {exc}") from None


def poll_get(q: Any, abort: Any, what: str) -> Any:
    """Blocking queue read that honours the shared abort flag."""
    while True:
        if abort.is_set():
            raise TransportAbort(f"aborted while waiting for {what}")
        try:
            return q.get(timeout=POLL_S)
        except queue.Empty:
            continue


class Transport:
    """One worker's view of the simulated network.

    Subclasses implement the four primitives (:meth:`connect`,
    :meth:`send_packet`, :meth:`recv_packet`, :meth:`close`) plus
    optionally the packet codec (:meth:`_encode` / :meth:`_decode`, the
    shm bulk path) and :meth:`release` (post-staging segment cleanup).
    ``exchange`` is shared and defines the one-packet-per-peer-per-phase
    semantics every backend must preserve.
    """

    #: registry name ("memory" | "shm" | "tcp"), for traces and metrics
    kind = "abstract"

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        #: packets from peers that raced ahead, keyed by (round, phase)
        self._buffer: dict[tuple[int, int], dict[int, tuple]] = {}
        self.packets_sent = 0
        self.packets_received = 0

    # ------------------------------------------------------------ primitives

    def connect(self) -> None:
        """Establish the link to every peer (no-op for local transports)."""

    def send_packet(self, dest: int, r: int, phase: int, wire: tuple) -> None:
        raise NotImplementedError

    def recv_packet(self, what: str) -> tuple:
        """One ``(round, phase, src, wire)`` from any peer (blocking)."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear the link down (idempotent)."""

    # ----------------------------------------------------------------- codec

    def _encode(self, items: list) -> tuple:
        """Wire form of one packet; the default inlines the items."""
        return ("inl", items)

    def _decode(self, wire: tuple) -> list:
        kind = wire[0]
        if kind != "inl":  # pragma: no cover - protocol bug
            raise TransportError(f"unknown wire packet kind {kind!r}")
        return wire[1]

    def release(self) -> None:
        """Free resources backing packets whose payloads have been staged."""

    # -------------------------------------------------------------- protocol

    def exchange(self, outgoing: dict[int, list], r: int, phase: int) -> list:
        """Send one packet to every peer, receive one from each; returns
        the concatenated remote items in ascending-peer order."""
        for w in sorted(outgoing):
            self.send_packet(w, r, phase, self._encode(outgoing[w]))
            self.packets_sent += 1
        expected = set(outgoing)
        got = self._buffer.pop((r, phase), {})
        while expected - set(got):
            rr, pp, src, wire = self.recv_packet(f"round {r} phase {phase} packets")
            self.packets_received += 1
            if (rr, pp) == (r, phase):
                got[src] = wire
            else:
                self._buffer.setdefault((rr, pp), {})[src] = wire
        merged: list = []
        for src in sorted(got):
            merged.extend(self._decode(got[src]))
        return merged
