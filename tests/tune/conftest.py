"""Hermetic environment for the tuning tests.

CI runs the whole suite under knob lanes (``REPRO_WORKERS=2``,
``REPRO_ARENA=mmap``, ``REPRO_FAULTS=...``).  These
tests pin exact precedence and resolution semantics, so every inherited
``REPRO_*`` variable is cleared around each of them — what a lane
exports must not change what ``RuntimeConfig.resolve`` is asserted to
return.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def _clear_repro_env(monkeypatch):
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        monkeypatch.delenv(var, raising=False)
    yield
