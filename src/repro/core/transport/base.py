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
12-byte header ``>4sII`` of magic ``RPT2``, CRC-32 of the payload, and
payload length, then the payload: an index of little-endian u64 words
(buffer count *k*, pickle-stream length, *k* buffer lengths), the
protocol-5 pickle stream, and the *k* out-of-band buffers (arrays,
``BlockRun`` payloads), every piece zero-padded to 8 bytes so each
buffer comes back as an aligned view of the one received payload —
:func:`send_frame` / :func:`recv_frame`, the only two functions under
``repro.core`` that pickle.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import socket
import struct
import zlib
from typing import Any

from repro.util.validation import ConfigurationError, SimulationError

#: seconds the coordinator waits for a reply between liveness checks.
POLL_S = 0.25

_MAGIC = b"RPT2"
_HEADER = struct.Struct(">4sII")
_PAD = memoryview(bytes(8))
_IOV_MAX = os.sysconf("SC_IOV_MAX")
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

    Arrays and ``BlockRun`` payloads leave as their own buffers, never
    copied into the pickle stream; header, index, stream and buffers go
    out as gather writes of at most ``IOV_MAX`` pieces.  *lock*
    serializes the writers of one socket so frames never interleave.  A
    payload over :data:`MAX_FRAME_BYTES`, which every receiver refuses,
    raises :class:`TransportError` before a byte is written.
    """
    bufs: list = []
    meta = pickle.dumps(obj, protocol=5, buffer_callback=bufs.append)
    pieces = [memoryview(meta)] + [b.raw() for b in bufs]
    sizes = [p.nbytes for p in pieces]
    iov = [memoryview(struct.pack(f"<{len(sizes) + 1}Q", len(bufs), *sizes))]
    for piece in pieces:
        iov.append(piece)
        if piece.nbytes % 8:
            iov.append(_PAD[: -piece.nbytes % 8])
    length = sum(v.nbytes for v in iov)
    if length > MAX_FRAME_BYTES:
        raise TransportError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    crc = 0
    for v in iov:
        crc = zlib.crc32(v, crc)
    iov.insert(0, memoryview(_HEADER.pack(_MAGIC, crc, length)))
    with lock or _UNLOCKED:
        i = 0
        while i < len(iov):
            sent = sock.sendmsg(iov[i : i + _IOV_MAX])
            while i < len(iov) and sent >= iov[i].nbytes:
                sent -= iov[i].nbytes
                i += 1
            if sent:
                iov[i] = iov[i][sent:]
    return _HEADER.size + length


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        # one wait for the rest of the frame: each return to the
        # interpreter takes the GIL back from a computing thread
        k = sock.recv_into(view[got:], n - got, socket.MSG_WAITALL)
        if not k:
            raise TransportError(
                f"connection closed while reading {what}"
                + (" (mid-frame)" if got else "")
            )
        got += k
    return buf


def recv_frame(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES, sized: bool = False
) -> Any:
    """One framed object off the socket (with its bytes on the wire if
    *sized*); validates length (at most *max_bytes*, checked before
    anything is allocated), magic, checksum and index.  Every buffer the
    object holds is a view of the one payload this read allocates."""
    magic, crc, length = _HEADER.unpack(
        _recv_exact(sock, _HEADER.size, "a frame header")
    )
    if length > max_bytes:
        raise TransportError(
            f"frame length {length} exceeds the {max_bytes}-byte bound"
        )
    if magic != _MAGIC:
        raise TransportError(
            f"bad frame magic {magic!r}, want {_MAGIC!r} "
            "(not a repro transport peer, or another release)"
        )
    payload = _recv_exact(sock, length, f"a {length}-byte frame payload")
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise TransportError("frame checksum mismatch (corrupt stream)")
    count = struct.unpack_from("<Q", payload)[0] if length >= 16 else None
    if count is None or count > length // 8 - 2:
        raise TransportError(f"frame index does not fit its {length}-byte payload")
    view, pos, pieces = memoryview(payload), 8 * (count + 2), []
    for size in struct.unpack_from(f"<{count + 1}Q", payload, 8):
        if pos + size > length:
            raise TransportError(f"frame index does not fit its {length}-byte payload")
        pieces.append(view[pos : pos + size])
        pos += size + (-size % 8)
    obj = pickle.loads(pieces[0], buffers=pieces[1:])
    return (obj, _HEADER.size + length) if sized else obj


class Transport:
    """One worker's view of the simulated network.

    Subclasses implement the two primitives (:meth:`send_packet`,
    :meth:`recv_packet`); ``exchange`` is shared and defines the
    one-packet-per-peer-per-phase semantics every implementation must
    preserve.  A packet's wire form is ``(done, sent, items)``.
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

    def exchange(self, outgoing: dict, r: int, phase: int, done: bool, sent: bool):
        """Send one packet to every peer, receive one from each; returns
        the concatenated remote items in ascending-peer order, and whether
        every slice is *done* and any *sent* (the flags ride the packets).
        A peer's items leave *outgoing* once sent: none is held meanwhile."""
        expected = set(outgoing)
        for w in sorted(expected):
            self.send_packet(w, r, phase, (done, sent, outgoing.pop(w)))
            self.packets_sent += 1
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
            peer_done, peer_sent, items = got[src]
            done &= peer_done
            sent |= peer_sent
            merged.extend(items)
        return merged, done, sent
