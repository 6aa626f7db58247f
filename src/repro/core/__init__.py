"""The paper's contribution: deterministic CGM -> EM-CGM simulation.

* :mod:`repro.core.balanced` — Algorithm 1 (BalancedRouting) and the
  Theorem 1 / Lemma 1 / Lemma 2 bounds;
* :mod:`repro.core.layouts` — consecutive and staggered disk formats
  (Figure 2) and the DiskWrite FIFO scheduler;
* :mod:`repro.core.par_engine` — Algorithm 3 (ParCompoundSuperstep):
  p-processor external-memory simulation, and Algorithm 2
  (SeqCompoundSuperstep) as its p = 1 case;
* :mod:`repro.core.vm_engine` — the Figure 3 virtual-memory baseline;
* :mod:`repro.core.optimality` — c-optimality / work-optimality /
  I/O-efficiency predicates (appendix 6.4);
* :mod:`repro.core.theory` — PDM lower bounds and the Figure 6/7
  parameter-space analysis.
"""

from repro.core.balanced import (
    balanced_message_bounds,
    lemma1_min_problem_size,
    lemma2_feasible,
    reassemble,
    regroup_phase_b,
    split_phase_a,
)
from repro.core.par_engine import ParEMEngine
from repro.core.vm_engine import VMEngine

__all__ = [
    "balanced_message_bounds",
    "lemma1_min_problem_size",
    "lemma2_feasible",
    "reassemble",
    "regroup_phase_b",
    "split_phase_a",
    "ParEMEngine",
    "VMEngine",
]
