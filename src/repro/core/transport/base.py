"""The worker-exchange contract and the one wire it rides.

Algorithm 3's real processors exchange exactly one packet per peer per
phase — that all-to-all is both the data plane and the superstep
barrier.  A :class:`Transport` owns how those packets move between the
OS processes (or machines) hosting the reals; everything above it (the
bundling, staging, and cost accounting of the
:class:`~repro.core.par_engine.ParEMEngine` slice that receives it as
``net``) is transport-agnostic, which is what keeps logical ``IOStats``
bit-identical across backends.  :meth:`Transport.exchange` defines the
protocol; the simulator runs one implementation,
:class:`~repro.core.transport.session.SessionTransport`, and tests drive
slices over a queue-backed stand-in built on the same primitives.

Wire format of a session socket (both directions, socketpair or TCP): a
12-byte header ``>4sII`` of magic ``RPTP``, CRC-32 of the payload, and
payload length, then the pickled payload — :func:`send_frame` /
:func:`recv_frame`, the only two functions under ``repro.core`` that
pickle.
"""

from __future__ import annotations

import contextlib
import pickle
import socket
import struct
import zlib
from typing import Any

from repro.util.validation import ConfigurationError, SimulationError

#: seconds the coordinator waits for a reply between liveness checks.
POLL_S = 0.25

_MAGIC = b"RPTP"
_HEADER = struct.Struct(">4sII")
#: refuse absurd frame lengths before allocating (corrupt/foreign peer).
MAX_FRAME_BYTES = 1 << 31
_UNLOCKED = contextlib.nullcontext()


class TransportError(SimulationError):
    """A worker-exchange transport failed at runtime (CLI exit code 3).

    Configuration mistakes (a malformed ``REPRO_NODES``, a missing node
    list) raise :class:`~repro.tune.knobs.KnobError` /
    :class:`~repro.util.validation.ConfigurationError` instead — the
    usage-error taxonomy (exit code 2).
    """


class TransportAbort(SimulationError):
    """Raised inside a worker when the coordinator hung up on it."""


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


def send_frame(sock: socket.socket, obj: Any, lock=None) -> int:
    """Pickle *obj*, frame it, write it; returns bytes on the wire.

    Header and payload go out as one gather write (no concatenated
    copy of a multi-megabyte payload); *lock* serializes the writers of
    one socket so frames never interleave.  A payload over
    :data:`MAX_FRAME_BYTES`, which every receiver refuses, raises
    :class:`TransportError` before a byte is written.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame length {len(payload)} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    header = _HEADER.pack(_MAGIC, zlib.crc32(payload) & 0xFFFFFFFF, len(payload))
    with lock or _UNLOCKED:
        sent = sock.sendmsg([header, payload])
        if sent < len(header):  # pragma: no cover - a 12-byte short write
            sock.sendall(header[sent:])
            sent = len(header)
        if sent < len(header) + len(payload):
            sock.sendall(memoryview(payload)[sent - len(header) :])
    return len(header) + len(payload)


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise TransportError(
                f"connection closed while reading {what}"
                + (" (mid-frame)" if got else "")
            )
        got += k
    return buf


def recv_frame(sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES) -> Any:
    """One framed object off the socket; validates magic, length (at most
    *max_bytes*, checked before anything is allocated) and checksum."""
    magic, crc, length = _HEADER.unpack(
        _recv_exact(sock, _HEADER.size, "a frame header")
    )
    if magic != _MAGIC:
        raise TransportError(
            f"bad frame magic {magic!r} (not a repro transport peer?)"
        )
    if length > max_bytes:
        raise TransportError(
            f"frame length {length} exceeds the {max_bytes}-byte bound"
        )
    payload = _recv_exact(sock, length, f"a {length}-byte frame payload")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise TransportError("frame checksum mismatch (corrupt stream)")
    return pickle.loads(payload)


class Transport:
    """One worker's view of the simulated network.

    Subclasses implement the two primitives (:meth:`send_packet`,
    :meth:`recv_packet`); ``exchange`` is shared and defines the
    one-packet-per-peer-per-phase semantics every implementation must
    preserve.  A packet's wire form is its items list itself.
    """

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        #: packets from peers that raced ahead, keyed by (round, phase)
        self._buffer: dict[tuple[int, int], dict[int, list]] = {}
        self.packets_sent = 0
        self.packets_received = 0

    # ------------------------------------------------------------ primitives

    def send_packet(self, dest: int, r: int, phase: int, wire: list) -> None:
        raise NotImplementedError

    def recv_packet(self, what: str) -> tuple:
        """One ``(round, phase, src, wire)`` from any peer (blocking)."""
        raise NotImplementedError

    # -------------------------------------------------------------- protocol

    def exchange(self, outgoing: dict[int, list], r: int, phase: int) -> list:
        """Send one packet to every peer, receive one from each; returns
        the concatenated remote items in ascending-peer order."""
        for w in sorted(outgoing):
            self.send_packet(w, r, phase, outgoing[w])
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
            merged.extend(got[src])
        return merged
