"""Pluggable worker-exchange transports for the multi-process backend.

``REPRO_TRANSPORT`` selects how Algorithm 3's real-processor packets
move: ``memory`` (queues, inline pickling), ``shm`` (queues + shared-
memory bulk segments — the default, today's behavior), or ``tcp``
(``repro node`` daemons on ``REPRO_NODES``, spanning machines).  All
three carry the same packets under the same one-per-peer-per-phase
barrier, so logical cost counters are bit-identical across them.
"""

from repro.core.transport.base import (
    POLL_S,
    Transport,
    TransportAbort,
    TransportError,
    parse_nodes,
    poll_get,
    render_nodes,
    require_nodes,
)
from repro.core.transport.local import MemoryTransport, ShmTransport
from repro.core.transport.tcp import TcpFleet, TcpWorkerTransport
from repro.tune.knobs import TRANSPORT_KINDS  # the REPRO_TRANSPORT vocabulary

__all__ = [
    "POLL_S",
    "Transport",
    "TransportAbort",
    "TransportError",
    "MemoryTransport",
    "ShmTransport",
    "TcpWorkerTransport",
    "TcpFleet",
    "TRANSPORT_KINDS",
    "parse_nodes",
    "poll_get",
    "render_nodes",
    "require_nodes",
]
