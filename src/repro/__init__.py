"""repro — EM-CGM: I/O-efficient external-memory algorithms by simulating
coarse grained parallel algorithms.

Reproduction of Dehne, Dittrich, Hutchinson, Maheshwari, *"Reducing I/O
Complexity by Simulating Coarse Grained Parallel Algorithms"* (IPPS 1999).

Quickstart::

    import numpy as np
    from repro import MachineConfig, em_sort

    data = np.random.default_rng(0).integers(0, 2**40, 1 << 16)
    cfg = MachineConfig(N=data.size, v=8, D=2, B=256)
    result = em_sort(data, cfg)
    assert np.array_equal(result.values, np.sort(data))
    print(result.report.summary())   # parallel I/O count, rounds, ...

The layers, bottom-up:

* :mod:`repro.pdm` — the Parallel Disk Model substrate (simulated disks,
  parallel-I/O accounting, LRU paging baseline);
* :mod:`repro.cgm` — the CGM machine model and program API;
* :mod:`repro.core` — the paper's contribution: BalancedRouting and the
  deterministic sequential/parallel EM simulation engines;
* :mod:`repro.algorithms` — the CGM algorithm library of Figure 5
  (sorting, permutation, transpose; geometry/GIS; graphs);
* :mod:`repro.em` — the user-facing EM API plus classical PDM baselines;
* :mod:`repro.bsp` — BSP/BSP* cost models and the Section 5 conversions;
* :mod:`repro.cache` — the Section 5 cache-memory extension.
"""

from repro.cgm import (
    CGMProgram,
    Context,
    InMemoryEngine,
    MachineConfig,
    Message,
    RoundEnv,
    RunResult,
)
from repro.core import ParEMEngine, VMEngine
from repro.em.runner import em_permute, em_run, em_sort, em_transpose

__version__ = "1.0.0"

__all__ = [
    "CGMProgram",
    "Context",
    "InMemoryEngine",
    "MachineConfig",
    "Message",
    "RoundEnv",
    "RunResult",
    "ParEMEngine",
    "VMEngine",
    "em_permute",
    "em_run",
    "em_sort",
    "em_transpose",
    "__version__",
]
