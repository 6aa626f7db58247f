#!/usr/bin/env python
"""Re-record the tier-1 fixtures that hold *recorded bytes or counters*.

    PYTHONPATH=src python scripts/rerecord_fixtures.py PR_TAG

Run it from the repository root, in the commit that changes what the
simulated disks hold (the item format, a layout).  It rewrites

* ``tests/pdm/data/read_path_golden.json``,
* ``tests/service/data/result_docs_<PR_TAG>.json`` (from the specs of the
  newest ``result_docs_*.json``, which it then removes), and
* ``tests/faults/data/listrank_ckpt_<PR_TAG>/`` — a ListRanking checkpoint
  preempted after round 6 plus the uninterrupted run's ``expected.json``
  (the newest such directory is the frozen-format golden that
  ``tests/faults/test_resume.py`` resumes; it was re-recorded as
  ``listrank_ckpt_v2`` when checkpoints became ``REPRO-CKPT v2``),

and refuses to write anything whose **output hash** differs from the old
recording: counters may move in such a commit, outputs may not.  Rename
the references in ``tests/test_cli.py`` / ``tests/faults/test_resume.py``
by hand; the previous checkpoint directory is left in place (the older
ones, ``listrank_ckpt_pr15`` and ``_pr22``, are v1 files: the negative
fixtures of the refusal tests).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))  # the tests' own recorders are reused below


def _dump(path: Path, doc: dict, **layout) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, **layout))
    print(f"wrote {path.relative_to(ROOT)}")


def read_path_golden() -> None:
    from tests.pdm.test_read_path import CASES, GOLDEN, record

    old = json.loads(GOLDEN.read_text())
    new = {f"{e}-{a}": record(e, a) for e, a in CASES}
    for key, rec in new.items():
        assert rec["output_sha256"] == old[key]["output_sha256"], key
        assert rec["kinds"] == old[key]["kinds"], key
        print(f"  {key}: parallel_ios {old[key]['io']['parallel_ios']} -> "
              f"{rec['io']['parallel_ios']}, output_sha256 unchanged")
    _dump(GOLDEN, new, separators=(",", ":"))  # the long kind lists on one line


def result_docs(tag: str) -> None:
    from repro.cli import main

    data = ROOT / "tests" / "service" / "data"
    (old_path,) = sorted(data.glob("result_docs_*.json"))
    old = json.loads(old_path.read_text())
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, entry in old.items():
            spec_path = Path(tmp) / f"{name}.json"
            spec_path.write_text(json.dumps(entry["spec"]))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["submit", str(spec_path), "--local", "--json"]) == 0
            doc = json.loads(out.getvalue())
            doc.pop("fingerprint")
            doc["result"].pop("fingerprint")
            doc["result"].pop("elapsed_s")
            before, after = entry["document"]["result"], doc["result"]
            assert after["output_sha256"] == before["output_sha256"], name
            print(f"  {name}: parallel_ios {before['counters']['io']['parallel_ios']} "
                  f"-> {after['counters']['io']['parallel_ios']}, output_sha256 unchanged")
            new[name] = {"document": doc, "spec": entry["spec"]}
    new_path = data / f"result_docs_{tag}.json"
    _dump(new_path, new, indent=1)
    if old_path != new_path:
        old_path.unlink()


def listrank_checkpoint(tag: str) -> None:
    from repro.algorithms.collectives import partition_array
    from repro.algorithms.graphs.list_ranking import ListRanking
    from repro.cgm.config import MachineConfig
    from repro.em.runner import make_engine, output_sha256
    from repro.util.validation import PreemptedError
    from tests.faults.test_resume import B, D, V, counters

    data = ROOT / "tests" / "faults" / "data"
    old = json.loads(
        (sorted(data.glob("listrank_ckpt_*"))[-1] / "expected.json").read_text()
    )
    n, seed, stop = old["n"], old["seed"], old["preempted_after_round"]
    order = np.random.default_rng(seed).permutation(n)
    succ = np.full(n, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    weights = (succ >= 0).astype(np.float64)
    cfg = MachineConfig(N=n, v=V, D=D, B=B).with_(M=None)
    inputs = list(zip(partition_array(succ, V), partition_array(weights, V)))

    whole = make_engine(cfg, "seq").run(ListRanking(), inputs)
    digest = output_sha256(np.concatenate(whole.outputs))
    assert digest == old["output_sha256"]
    print(f"  listrank n={n}: parallel_ios {old['counters']['io']['parallel_ios']} -> "
          f"{whole.report.io.parallel_ios}, output_sha256 unchanged")

    target = data / f"listrank_ckpt_{tag}"
    target.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        eng = make_engine(cfg, "seq", checkpoint=tmp)
        rounds = iter(range(stop + 1))
        eng.preempt = lambda: next(rounds) == stop
        try:
            eng.run(ListRanking(), inputs)
        except PreemptedError:
            pass
        newest = sorted(Path(tmp).glob("ckpt_*.bin"))[-1]
        assert newest.name == f"ckpt_{stop + 1:06d}.bin", newest
        shutil.copy(newest, target / newest.name)
    _dump(target / "expected.json", {
        "counters": counters(whole.report), "n": n, "output_sha256": digest,
        "preempted_after_round": stop, "seed": seed,
    }, indent=1)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    read_path_golden()
    result_docs(sys.argv[1])
    listrank_checkpoint(sys.argv[1])
