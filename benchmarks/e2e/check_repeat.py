"""Do two runs of the same code agree within the benchmark's own bounds?

Runs every workload twice — first pass in order, second pass in reverse
order, so neither run of a workload always follows the same neighbour —
and prints, for each workload and end-to-end metric, the two values,
their relative difference and the bound from ``BENCHMARK.json``.  Exits 1
if a timing differs by more than its bound, if a ``sim_*`` count differs
at all, or if any op failed.

    python benchmarks/e2e/check_repeat.py [--seed S] [--workload NAME ...]

If a timing fails here, lengthen the run (more ops in ``workloads.py``)
rather than widen the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import harness as hz


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(hz.HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=hz.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    bench = hz.benchmark_spec()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    names = args.workload or names

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for order in (names, names[::-1]):
        for name in order:
            print(f"running {name} ...", flush=True)
            runs[name].append(run_once(name, args.seed, bench["run_seconds"]))

    bad = 0
    print(f"{'workload':16s} {'metric':18s} {'run 1':>14s} {'run 2':>14s} "
          f"{'rel diff':>9s} {'bound':>7s}")
    for name in names:
        first, second = runs[name]
        for spec in bench["end_to_end"]:
            a = first["metrics"][spec["name"]]["value"]
            b = second["metrics"][spec["name"]]["value"]
            rel = abs(b - a) / a
            exact = spec["unit"] == "count"
            fail = (a != b) if exact else rel > spec["bound"]
            bad += fail
            bound = "exact" if exact else f"{spec['bound']:.2f}"
            print(f"{name:16s} {spec['name']:18s} {a:14.6g} {b:14.6g} "
                  f"{rel:9.4f} {bound:>7s}{'  FAIL' if fail else ''}")
        for k, run in enumerate((first, second), 1):
            ratio = run["failed"] / run["attempted"]
            fail = ratio != 0 or not run["correct"]
            bad += fail
            print(f"{name:16s} {'fail_ratio':18s} run {k}: {run['failed']} of "
                  f"{run['attempted']} ops failed{'  FAIL' if fail else ''}")
    print("repeatable within bounds" if not bad else f"{bad} check(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
