"""The worker exchange of the multi-process backend: one session
protocol (:func:`repro.core.workers.serve_session` on a socket to the
coordinator's :class:`~repro.core.transport.tcp.Fleet`), opened two ways.

``REPRO_TRANSPORT`` selects how the sockets are opened: ``memory``
(forked workers on socketpairs, packets peer to peer, the default;
``shm`` is another spelling of it) or ``tcp`` (``repro node`` daemons on
``REPRO_NODES``, packets relayed).  Every packet rides its frame on
either, under the same one-per-peer-per-phase barrier, so logical cost
counters are bit-identical across them.
"""

from repro.core.transport.base import (
    Transport,
    TransportAbort,
    TransportError,
    parse_nodes,
    render_nodes,
    require_nodes,
)
from repro.core.transport.tcp import TcpFleet

__all__ = [
    "Transport",
    "TransportAbort",
    "TransportError",
    "TcpFleet",
    "parse_nodes",
    "render_nodes",
    "require_nodes",
]
