"""Lint: every ``REPRO_*`` environment read goes through the knob registry,
and the retired I/O-path switch stays retired.

The tentpole's centralization contract — ad-hoc ``os.environ`` reads of
runtime knobs are how the inconsistent-caching bug happened, so outside
``repro.tune`` none may exist.  (CI runs the same greps as workflow
steps; these tests keep the guarantees enforced locally too.)
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

#: an os.environ read or subscript whose key literal is a REPRO_ variable
_PATTERN = re.compile(r"os\.environ(\.get)?\s*[(\[]\s*[\"']REPRO_")

#: the reference/fast-path fork: its knob, engine flags and module setters
_IO_FORK = re.compile(r"REPRO_FASTPATH|_fastpath|set_enabled|set_arena_kind")


def _offenders(pattern: re.Pattern, skip_tune: bool) -> list[str]:
    src_root = Path(repro.__file__).resolve().parent
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        if skip_tune and src_root / "tune" in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(src_root)}:{lineno}: {line.strip()}")
    return offenders


def test_one_io_path_no_fastpath_switch_anywhere():
    offenders = _offenders(_IO_FORK, skip_tune=False)
    assert not offenders, (
        "the reference/fast-path fork was retired (one I/O path; the per-op "
        "lane is an empty FaultPlan):\n" + "\n".join(offenders)
    )


def test_no_raw_repro_environ_access_outside_tune():
    offenders = _offenders(_PATTERN, skip_tune=True)
    assert not offenders, (
        "raw REPRO_* environment access outside repro.tune (use "
        "repro.tune.runtime.current()/RuntimeConfig or knobs.set_env):\n"
        + "\n".join(offenders)
    )
