"""Auto-tuning and centralized runtime-knob management.

Every ``REPRO_*`` environment variable the simulator honors is declared
once in :mod:`repro.tune.knobs` (:class:`~repro.tune.knobs.KnobSpec`),
parsed by one hardened validator, and resolved into a per-run
:class:`~repro.tune.runtime.RuntimeConfig` snapshot with the precedence
``CLI flag > environment > tuned profile > default``.  Consumers
(:mod:`repro.pdm.mmap_arena`, :mod:`repro.core.workers`,
:mod:`repro.em.runner`, :mod:`repro.obs.bus`) delegate here — a lint
gate keeps raw ``os.environ`` knob reads out of the rest of the tree.

On top of the knob layer, :mod:`repro.tune.tuner` implements ``repro
tune``: Theorem 2/3 analytic pruning of the (v, B, D) candidate space
followed by short measured wall-clock probes, persisting the winner as a
schema-versioned :mod:`repro.tune.profile` JSON document that
``em_run``/the CLI apply automatically.
"""

from repro.tune.knobs import (
    KNOBS,
    KnobError,
    KnobSpec,
    render_knob_table,
)
from repro.tune.runtime import RuntimeConfig, current

__all__ = [
    "KNOBS",
    "KnobError",
    "KnobSpec",
    "RuntimeConfig",
    "current",
    "render_knob_table",
]
