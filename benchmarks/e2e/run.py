"""End-to-end benchmark: ``python benchmarks/e2e/run.py --workload NAME``.

Prints every metric by name with its unit, then one JSON object on the
last line (``correct``, ``attempted``, ``failed``, ``metrics``).  Exits 1
if any output was wrong.  ``--trace 0`` (default) is the untraced run
that produces the end-to-end metrics; ``--trace 1`` is the separate
traced run that produces the per-layer metrics (see ``layers.py``).

Without ``--workload`` all four workloads run in turn.  See README.md in
this directory for the definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import tempfile
import time
from typing import Any

import harness as hz

#: cold starts per run (``setup_s`` is their median)
COLD_STARTS = 7
MIN_COLD_STARTS = 3
#: safety valves, as multiples of ``--seconds`` since the run began: the
#: measured loop stops at the first, the cold starts at the second.  The op
#: counts are sized so that neither fires on a host up to ~1.6x slower than
#: the reference; they exist so that a badly overloaded host cannot push a
#: run past the driver's time limit, and a run that used one says so.
OPS_DEADLINE = 1.6
COLD_DEADLINE = 2.0

#: glibc moves malloc's mmap and trim thresholds as a program runs, so whether
#: a 2 MB array comes from the heap or from a fresh mapping depends on the
#: allocation history: peak RSS of one unchanged workload jumped 76 -> 90 MB
#: at a random op.  Pinned at the values the dynamic thresholds converge to
#: (one arena, nothing below 32 MB mapped, no trimming), peak RSS repeats to
#: +-0.5 MB and op times are unchanged.  The hash seed is pinned with them.
PINNED_ENV = {
    "MALLOC_ARENA_MAX": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
    "PYTHONHASHSEED": "0",
}


def bootstrap(pin: bool = True) -> None:
    """Pin the environment before ``repro`` is imported: no ambient
    ``REPRO_*`` knob, temp files inside the checkout, ``src`` importable,
    and (*pin*) — by starting this interpreter again if need be, since
    malloc and the hash seed read the environment once — ``PINNED_ENV``."""
    if not os.path.isdir(os.path.join(hz.SRC, "repro")):
        raise SystemExit(f"error: {hz.SRC}/repro not found — nothing to benchmark")
    if pin and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = os.path.join(hz.OUT_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None  # re-read TMPDIR
    os.environ["PYTHONPATH"] = hz.SRC
    for path in (hz.SRC, hz.HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def cold_start_child(name: str, seed: int) -> int:
    """``--cold-start``: this fresh interpreter builds the workload, runs
    one op and reports when the op finished (monotonic clock, comparable
    with the parent's) and whether it verified."""
    from workloads import WORKLOADS, work_dir

    wl = WORKLOADS[name](seed, work_dir(name, seed))
    try:
        wl.setup(1)
        wl.start()
        result = wl.op(0)
        t_done = time.monotonic()
        ok, _sim = wl.check(0, result)
    finally:
        wl.close()
    print(json.dumps({"t_done": t_done, "ok": ok}))
    return 0


def run_untraced(name: str, seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    """The end-to-end run: warm-up, the measured ops, then the cold starts."""
    from workloads import WARMUP_OP, WORKLOADS, scaled_ops, work_dir

    t_start = time.perf_counter()
    wl = WORKLOADS[name](seed, work_dir(name, seed))
    if wl.one_process:
        hz.pin_to_one_cpu()
    n_ops = scaled_ops(wl.ops, seconds, smoke)
    attempted = failed = 0
    notes: list[str] = []
    try:
        wl.setup(n_ops)
        wl.start()
        calib = hz.Calibrator()
        # warm-up: caches fill and lazy imports finish before timing
        ok, _sim = wl.check(WARMUP_OP, wl.op(WARMUP_OP))
        attempted += 1
        failed += not ok
        guard = hz.LeakGuard(wl.spill_dir)
        gc.collect()
        gc.freeze()  # set-up objects never get rescanned during the ops

        clock = hz.OpClock(calib, wl.calib_mix, wl.live_children)
        samples: list[hz.Sample] = []
        sims = []
        for i in range(n_ops):
            result, sample = clock.timed(lambda: wl.op(i))
            ok, sim = wl.check(i, result)
            leaks = guard.leaks()
            attempted += 1
            if not ok or leaks:
                failed += 1
                notes.append(f"op {i}: " + (", ".join(leaks) if ok else "wrong output"))
            samples.append(sample)
            sims.append(sim)
            if i + 1 < n_ops and time.perf_counter() - t_start > OPS_DEADLINE * seconds:
                notes.append(f"deadline: stopped after {i + 1} of {n_ops} ops")
                break
        sims_agree = not wl.same_sim_every_op or len(set(sims)) == 1
        if not sims_agree:
            notes.append(f"sim counters differ between ops: {sorted(set(sims))}")

        rss = hz.peak_rss_mb(wl.live_children())
        wl.stop()  # one busy daemon at a time during the cold starts
        cold: list[hz.Sample] = []
        clock.refresh()
        n_cold = 1 if smoke else COLD_STARTS
        for k in range(n_cold):
            (secs, ok), bracket = clock.timed(lambda: wl.cold_start(k))
            attempted += 1
            if not ok:
                failed += 1
                notes.append(f"cold start {k}: failed")
            # the bracket also spans the teardown: take the start's share
            share = secs / bracket.wall
            cold.append(hz.Sample(secs, bracket.stolen * share, bracket.cpu * share,
                                  bracket.factor))
            if (MIN_COLD_STARTS <= len(cold) < n_cold
                    and time.perf_counter() - t_start > COLD_DEADLINE * seconds):
                notes.append(f"deadline: stopped after {len(cold)} cold starts")
                break
    finally:
        wl.close()

    walls = [s.wall_cal for s in samples]
    raw = [s.wall for s in samples]
    pct, tail_cal = hz.tail(walls)
    _pct, tail_raw = hz.tail(raw)
    sim = sims[0]
    metrics = {
        "setup_s": (hz.median([c.wall_cal for c in cold]), "s"),
        "op_p50_s": (hz.median(walls), "s"),
        "cpu_s_per_op": (hz.median([s.cpu_cal for s in samples]), "s"),
        "peak_rss_mb": (rss, "MB"),
        "sim_parallel_ios": (sim[0], "count"),
        "sim_comm_items": (sim[1], "count"),
        "sim_supersteps": (sim[2], "count"),
    }
    info = {
        "fail_ratio": (failed / attempted, "ratio"),
        "ops": (len(samples), "count"),
        "cold_starts": (len(cold), "count"),
        "op_tail_s": (tail_cal, "s"),
        "op_tail_pct": (pct, "%"),
        "host.setup_raw_s": (hz.median([c.wall for c in cold]), "s"),
        "host.op_p50_raw_s": (hz.median(raw), "s"),
        "host.stolen_rel": (sum(s.stolen for s in samples) / sum(raw), "ratio"),
        "host.op_tail_raw_s": (tail_raw, "s"),
        "host.calib_p50_s": (hz.median(calib.samples), "s"),
        "host.calib_spread_rel": (hz.iqr_rel(calib.samples), "ratio"),
        "host.nproc": (os.cpu_count() or 1, "count"),
    }
    return {
        "workload": name, "seed": seed, "metrics": metrics, "info": info,
        "attempted": attempted, "failed": failed,
        "correct": failed == 0 and sims_agree,
        "notes": notes, "calib_checksum": calib.checksum, "calib_mix": wl.calib_mix,
    }


def report(result: dict[str, Any]) -> None:
    """Human-readable metrics, then the one-line JSON result."""
    mix = ":".join(f"{w:g}" for w in result["calib_mix"])
    print(f"# workload {result['workload']}  seed {result['seed']}  "
          f"calibration kernel sha256 {result['calib_checksum'][:16]} mix {mix}")
    for section in ("metrics", "info"):
        for key, (value, unit) in result.get(section, {}).items():
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"{key:32s} {shown:>14s} {unit}")
    for note in result["notes"]:
        print(f"! {note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in result["metrics"].items()
        },
    }))


def main(argv: list[str] | None = None) -> int:
    names = [w["name"] for w in hz.benchmark_spec()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names,
                    help="default: all four in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="scales the frozen op counts (default: their nominal size)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    choices=(0, 1), help="1 = the traced, per-layer run")
    ap.add_argument("--smoke", action="store_true",
                    help="ops / 10 and one cold start (harness self-test)")
    ap.add_argument("--cold-start", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # a cold start is what a user's fresh interpreter does: no second exec
    bootstrap(pin=not args.cold_start)
    if args.cold_start:
        return cold_start_child(args.workload, args.seed)
    from workloads import NOMINAL_SECONDS

    seconds = NOMINAL_SECONDS if args.seconds is None else args.seconds
    all_correct = True
    for name in [args.workload] if args.workload else names:
        if args.trace:
            from layers import run_traced

            result = run_traced(name, args.seed, seconds, args.smoke)
        else:
            result = run_untraced(name, args.seed, seconds, args.smoke)
        report(result)
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
