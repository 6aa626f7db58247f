"""The Coarse Grained Multicomputer (CGM) model.

A CGM algorithm is an alternating sequence of local-computation rounds and
communication rounds (h-relations with h = Theta(N/v)) over ``v``
processors, each holding Theta(N/v) data.  This package defines:

* :class:`MachineConfig` — the EM-CGM parameter set (N, v, p, M, D, B, g,
  G, L) with the paper's constraint checks;
* :class:`CGMProgram` / :class:`Context` / :class:`RoundEnv` /
  :class:`Shape` — the API CGM algorithms are written against;
* :class:`InMemoryEngine` — the reference executor (a "real" CGM with
  unbounded memory), against which the external-memory engines in
  :mod:`repro.core` are differentially tested.
"""

from repro.cgm.config import MachineConfig
from repro.cgm.engine import Engine, InMemoryEngine, RunResult
from repro.cgm.message import Message
from repro.cgm.metrics import CostReport, RoundMetrics
from repro.cgm.program import CGMProgram, Context, RoundEnv, Shape

__all__ = [
    "MachineConfig",
    "Engine",
    "InMemoryEngine",
    "RunResult",
    "Message",
    "CostReport",
    "RoundMetrics",
    "CGMProgram",
    "Context",
    "RoundEnv",
    "Shape",
]
