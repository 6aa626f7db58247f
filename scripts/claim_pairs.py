#!/usr/bin/env python
"""Measure a claimed gain the way ``benchmarks/e2e/README.md`` asks.

    python scripts/claim_pairs.py PARENT_DIR CHANGE_DIR --pairs 10 --seed 31 \\
        [--workload rounds_listrank ...] [--claim op_p50_s@rounds_listrank] \\
        [--json runs.json]

Runs the frozen benchmark (the ``command`` of each checkout's own
``BENCHMARK.json``, ``--trace 0``) from two checkouts in alternating order
— parent first in even pairs, change first in odd ones — and prints, for
every end-to-end metric, both medians and quartiles, the relative change
of the medians ``(change - parent) / parent``, the pairs the change won,
and two verdicts:

* ``gain``: the rule for a *claimed* metric — the change wins at least nine
  tenths of the pairs (ties count for neither side) and the medians differ
  by more than the parent's own interquartile distance;
* ``regression``: the rule for every *other* metric — ``worse`` when the
  change's median is worse than the parent's by more than the metric's
  bound, ``unresolved`` when either side's spread is wider than the bound
  (unless every change run beats every parent run), else ``within bound``.
  A count reads ``identical``, or ``improved`` when both sides are constant
  across their runs and the change's constant is strictly better, or
  ``DIFFERS`` for anything else (a count that rises, or that varies).

Without ``--workload`` every workload named in ``BENCHMARK.json`` runs.
``--claim METRIC@WORKLOAD`` turns the table into a verdict: exit code 1
unless that cell's ``gain`` is ``yes`` and no other cell reads ``worse`` or
``DIFFERS`` (``unresolved`` and ``improved`` cells are listed but do not fail).

It only invokes the benchmark; it never imports or edits it.  Use a seed
that was not used while the change was written.  Exit code 1 when a run
fails or reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, bench: dict, workload: str, seed: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{checkout}: {workload} exited {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"] or doc["failed"]:
        raise SystemExit(f"{checkout}: {workload}: {doc['failed']} of "
                         f"{doc['attempted']} ops failed")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def show(q: tuple[float, float, float]) -> str:
    return " / ".join(f"{x:.5g}" for x in q)


def judge(spec: dict, parent: list[float], change: list[float]) -> dict:
    """Both rules for one metric over the paired runs."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (pm - cm)  # positive: the change is better
    gain = wins >= 0.9 * len(parent) and gap > p3 - p1
    if spec["unit"] == "count":
        if parent == change:
            regression = "identical"
        elif len({*parent}) == len({*change}) == 1 and sign * change[0] < sign * parent[0]:
            regression = "improved"
        else:
            regression = "DIFFERS"
    elif -gap > spec["bound"] * abs(pm):
        regression = "worse"
    elif (max(p3 - p1, c3 - c1) > spec["bound"] * abs(pm)
          and not max(sign * c for c in change) < min(sign * p for p in parent)):
        regression = "unresolved"
    else:
        regression = "within bound"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3),
            "rel": (cm - pm) / abs(pm) if pm else 0.0, "wins": wins,
            "ties": ties, "gain": gain, "regression": regression}


def claim_verdict(claim: str, table: dict[str, dict[str, dict]]) -> tuple[int, list[str]]:
    """Exit code and summary lines for ``--claim METRIC@WORKLOAD`` over
    ``table[workload][metric]`` (the :func:`judge` results of every cell)."""
    metric, _, workload = claim.partition("@")
    cell = table.get(workload, {}).get(metric)
    met = bool(cell and cell["gain"])
    lines = [f"claim {claim}: " + ("gain" if met else
                                   "NOT met" if cell else "NOT measured")]
    failed = not met
    for w, rows in table.items():
        for m, v in rows.items():
            if (m, w) != (metric, workload) and v["regression"] in (
                "worse", "DIFFERS", "unresolved", "improved"
            ):
                lines.append(f"  {m}@{w}: {v['regression']}")
                failed |= v["regression"] in ("worse", "DIFFERS")
    return int(failed), lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload of BENCHMARK.json")
    ap.add_argument("--claim", metavar="METRIC@WORKLOAD",
                    help="exit 1 unless this cell is a gain and no other is worse")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--json", help="also write every run's metrics here")
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    benches = {}
    for side, path in sides.items():
        with open(os.path.join(path, "BENCHMARK.json")) as fh:
            benches[side] = json.load(fh)

    workloads = args.workload or [w["name"] for w in benches["change"]["workloads"]]
    if args.claim is not None:  # a typo must not cost the whole session
        metric, _, workload = args.claim.partition("@")
        metrics = [spec["name"] for spec in benches["change"]["end_to_end"]]
        if metric not in metrics or workload not in workloads:
            ap.error(f"--claim {args.claim}: want METRIC@WORKLOAD with METRIC in "
                     f"{metrics} and WORKLOAD in {workloads}")
    everything: dict[str, dict[str, list[dict]]] = {}
    table: dict[str, dict[str, dict]] = {}
    for workload in workloads:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                print(f"{workload} pair {k + 1}/{args.pairs}: {side} ...", flush=True)
                runs[side].append(
                    run_once(sides[side], benches[side], workload, args.seed)
                )
        everything[workload] = runs
        print(f"\n{workload}, seed {args.seed}, {args.pairs} alternating pairs "
              "(q1 / median / q3)")
        print(f"{'metric':18s} {'parent':>32s} {'change':>32s} {'rel':>8s} "
              f"{'wins':>5s} {'ties':>4s}  {'gain':4s}  regression")
        for spec in benches["change"]["end_to_end"]:
            name = spec["name"]
            v = table.setdefault(workload, {})[name] = judge(
                spec, [r[name] for r in runs["parent"]],
                [r[name] for r in runs["change"]])
            print(f"{name:18s} {show(v['parent']):>32s} {show(v['change']):>32s} "
                  f"{v['rel']:+8.2%} {v['wins']:5d} {v['ties']:4d}  "
                  f"{'yes' if v['gain'] else 'no':4s}  {v['regression']}")
        print()
        if args.json:  # after every workload: an interrupted session keeps its runs
            with open(args.json, "w") as fh:
                json.dump({"seed": args.seed, "runs": everything}, fh, indent=1)
    if args.claim is None:
        return 0
    rc, lines = claim_verdict(args.claim, table)
    print("\n".join(lines))
    return rc


if __name__ == "__main__":
    sys.exit(main())
