"""Fault injection and checkpoint/resume for the EM simulation.

See :mod:`repro.faults.plan` (what goes wrong), :mod:`repro.faults.injector`
(how the disk layer suffers and survives it) and
:mod:`repro.faults.checkpoint` (how a run persists and resumes).
"""

from repro.faults.checkpoint import CheckpointError, CheckpointManager
from repro.faults.injector import (
    DiskFault,
    FaultInjector,
    FaultStats,
    FaultyDiskArray,
)
from repro.faults.plan import (
    FAULT_KINDS,
    DiskDeath,
    FaultPlan,
    RetryPolicy,
    ScheduledFault,
)

__all__ = [
    "FAULT_KINDS",
    "CheckpointError",
    "CheckpointManager",
    "DiskDeath",
    "DiskFault",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FaultyDiskArray",
    "RetryPolicy",
    "ScheduledFault",
]
