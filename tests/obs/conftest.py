"""The fold goldens are recordings of clean runs.

``test_in_stream_drift_events_are_unchanged`` pins each ``model_drift``
event's sequence number; under ``--fault-plan`` the ``io_fault`` events
interleaved before it shift those numbers, so that test runs clean, as
if it were marked ``no_fault_plan`` (the golden module stays as
recorded).
"""

from __future__ import annotations

import pytest

_CLEAN_RECORDINGS = ("test_fold_goldens.py::test_in_stream_drift_events_are_unchanged",)


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.endswith(_CLEAN_RECORDINGS):
            item.add_marker(pytest.mark.no_fault_plan)
