"""A fault plan is an argument of the run.

No variable injects one: a process that inherits ``REPRO_FAULTS`` runs
clean, so a served job's document matches its cache key.  The CI fault
lane is pytest's ``--fault-plan PATH`` option (``tests/conftest.py``),
which these tests drive in a child pytest to show what it reaches.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort
from repro.service.pool import execute_spec
from repro.service.spec import JobSpec

ROOT = Path(__file__).resolve().parents[2]
PLAN = str(ROOT / "benchmarks" / "fault_plans" / "ci_transient.json")


@pytest.mark.no_fault_plan
def test_an_inherited_repro_faults_injects_nothing(monkeypatch):
    spec = JobSpec.from_dict(
        {"op": "sort", "n": 4096, "machine": {"v": 8, "D": 2, "B": 64}}
    )
    clean = execute_spec(spec)
    data = np.random.default_rng(0).integers(0, 2**40, 4096)
    cfg = MachineConfig(N=4096, v=8, D=2, B=64)

    monkeypatch.setenv("REPRO_FAULTS", PLAN)
    ambient = execute_spec(spec)
    for doc in (clean, ambient):
        doc.pop("elapsed_s")
    assert ambient == clean
    assert "fault_stats" not in ambient["counters"]
    assert em_sort(data, cfg, engine="seq").report.fault_stats is None


#: run in a child pytest under ``--fault-plan``: what the option reaches
_PROBE = '''
import numpy as np
import pytest

from repro.cgm.config import MachineConfig
from repro.em.runner import em_sort, make_engine
from repro.faults.plan import FaultPlan

CFG = MachineConfig(N=4096, v=4, D=2, B=64)
DATA = np.random.default_rng(0).integers(0, 2**40, 4096)


def test_an_unmarked_seq_run_is_faulted():
    assert em_sort(DATA, CFG, engine="seq").report.fault_stats is not None


def test_a_memory_engine_run_stays_clean():
    assert make_engine(CFG, "memory").faults is None
    assert em_sort(DATA, CFG, engine="memory").report.fault_stats is None


def test_an_explicit_plan_wins():
    plan = FaultPlan()
    assert make_engine(CFG, "seq", faults=plan).faults is plan


@pytest.mark.no_fault_plan
def test_a_marked_run_is_clean():
    assert em_sort(DATA, CFG, engine="seq").report.fault_stats is None
'''


def test_the_fault_plan_option_reaches_exactly_the_unmarked_runs(tmp_path):
    (tmp_path / "test_probe.py").write_text(_PROBE)
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    }
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-p", "tests.conftest", "--fault-plan", PLAN, "test_probe.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "4 passed" in proc.stdout
