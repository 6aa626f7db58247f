"""The worker exchange of the multi-process backend: one session
protocol (:func:`repro.core.workers.serve_session` on a socket, relayed
by the coordinator's :class:`~repro.core.transport.tcp.Fleet`), opened
two ways.

``REPRO_TRANSPORT`` selects how the sockets are opened and whether bulk
payloads bypass them: ``memory`` (forked workers on socketpairs,
everything framed inline), ``shm`` (the same, plus shared-memory
segments for bulk payloads — the default), or ``tcp`` (``repro node``
daemons on ``REPRO_NODES``, spanning machines).  All three carry the
same packets under the same one-per-peer-per-phase barrier, so logical
cost counters are bit-identical across them.
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
