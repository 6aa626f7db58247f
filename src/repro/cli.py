"""Command-line interface: run EM-CGM experiments without writing code.

Usage (after ``pip install -e .``):

    python -m repro sort      --n 65536 --v 8 --d 2 --b 512 --engine seq
    python -m repro permute   --n 32768 --v 8 --engine seq --balanced
    python -m repro transpose --n 32768 --v 8          # or --rows 128 --cols 256
    python -m repro delaunay  --n 2000 --v 4
    python -m repro cc        --n 1000 --edges 2000 --v 8
    python -m repro listrank  --n 5000 --v 8 --engine par --p 2
    python -m repro theory    --v 100 1000 10000 --b 1000
    python -m repro machine   --n 65536 --v 8 --d 2 --b 512

Every run prints the PDM cost accounting (parallel I/Os, rounds,
supersteps, h-relation history) and verifies the output against an
independent reference before reporting success.

The six run commands are one handler (``cmd_run``) over one flag set
(machine, backend, run, output); each brings only its run step — input
generator, the call, the reference check.  ``sort`` / ``permute`` /
``transpose`` share the step driven by :data:`repro.em.runner.OPS`: the
input comes from the table's generator, so ``repro sort --n N --seed S
...`` is the same run — same data, counters and output hash — as ``repro
submit --local`` of the spec ``{"op": "sort", "n": N, "seed": S, ...}``.
Flags reach the run as ``make_engine`` options (``_engine_options``); nothing
here writes ``os.environ``.  Flags are registered in groups, and a
command registers only the groups it reads.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.cgm.config import MachineConfig
from repro.pdm.io_stats import DiskServiceModel
from repro.tune.knobs import ARENA_KINDS, TRANSPORT_KINDS, KnobError
from repro.util.validation import ConfigurationError, SimulationError


class _TrackedStore(argparse.Action):
    """``store`` that records which flags the user typed explicitly.

    A ``--profile`` only fills machine parameters the user did *not*
    give on the command line (CLI flag > tuned profile), so the parser
    needs to distinguish a default from an explicit value.  The set is
    created lazily per-parse on the namespace — a shared default set
    would leak explicitness across parses.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        explicit = getattr(namespace, "_explicit", None)
        if explicit is None:
            explicit = set()
            setattr(namespace, "_explicit", explicit)
        explicit.add(self.dest)


def _machine_options(p: argparse.ArgumentParser, n_default: int = 1 << 14) -> None:
    """The simulated machine and its input: what ``_config`` reads."""
    p.add_argument("--n", type=int, default=n_default, help="problem size (items)")
    p.add_argument(
        "--v", type=int, default=8, action=_TrackedStore, help="virtual processors"
    )
    p.add_argument("--p", type=int, default=1, help="real processors")
    p.add_argument(
        "--d", type=int, default=2, action=_TrackedStore, help="disks per processor"
    )
    p.add_argument(
        "--b", type=int, default=256, action=_TrackedStore,
        help="block size (items)",
    )
    p.add_argument("--m", type=int, default=None, help="memory per processor (items)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--profile",
        metavar="PROFILE.json",
        default=None,
        help="apply a tuned profile written by 'repro tune': fills "
        "--v/--d/--b you did not give explicitly and applies its runtime "
        "knobs, the worker count included (explicit flags and env vars "
        "still win)",
    )


def _backend_options(p: argparse.ArgumentParser) -> None:
    """Which engine simulates the machine, and its storage and transport."""
    p.add_argument(
        "--engine",
        choices=["memory", "vm", "seq", "par"],
        default=None,
        help="backend (default: seq for p=1, par otherwise)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run the par backend's real processors in this many OS "
        "processes (0 = single-process simulation; capped at p); "
        "overrides REPRO_WORKERS for this run",
    )
    p.add_argument(
        "--arena",
        choices=ARENA_KINDS,
        default=None,
        help="track-arena storage backend: preallocated host memory (ram, "
        "the default) or memory-mapped spill files for out-of-core runs "
        "(mmap); overrides REPRO_ARENA for this run",
    )
    p.add_argument(
        "--transport",
        choices=TRANSPORT_KINDS,
        default=None,
        help="worker-exchange transport for the multi-process backend: "
        "forked workers on socketpairs (memory, the default; shm is another "
        "spelling of it) or 'repro node' daemons over TCP (tcp); overrides "
        "REPRO_TRANSPORT for this run",
    )
    p.add_argument(
        "--nodes",
        metavar="HOST:PORT,...",
        default=None,
        help="node daemons the tcp transport dials, one per worker "
        "session (slice 0 runs here); overrides REPRO_NODES for this run",
    )


def _run_options(p: argparse.ArgumentParser) -> None:
    """Routing and resilience of a run (``make_engine`` options)."""
    p.add_argument("--balanced", action="store_true", help="route via Algorithm 1")
    p.add_argument(
        "--faults",
        metavar="PLAN.json",
        default=None,
        help="inject disk faults from a JSON fault plan (seq/par engines; "
        "see repro.faults.FaultPlan)",
    )
    p.add_argument(
        "--checkpoint",
        metavar="DIR",
        default=None,
        help="snapshot the run into DIR at every round boundary so a "
        "killed run can be resumed (seq/par engines)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="restore the newest snapshot in --checkpoint DIR and "
        "continue instead of starting over",
    )


def _listen_options(p: argparse.ArgumentParser, port: int, port_help: str) -> None:
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument("--port", type=int, default=port, help=port_help)


def _trace_options(p: argparse.ArgumentParser, what: str) -> None:
    p.add_argument("--trace", metavar="PATH", default=None, help=what)
    p.add_argument(
        "--trace-format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="trace output format: JSON-lines events or a Chrome "
        "trace-event array for chrome://tracing (default: jsonl)",
    )


def _output_options(p: argparse.ArgumentParser) -> None:
    """What a run writes besides its report."""
    _trace_options(p, "record a superstep/I/O/network event trace to PATH")
    p.add_argument(
        "--crosscheck",
        action="store_true",
        help="check measured costs against the Theorem 2/3 predictions "
        "and print the per-disk parallelism histograms",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the run's metrics registry to PATH "
        "(.json -> JSON snapshot, anything else -> Prometheus text)",
    )


def _apply_profile(args) -> None:
    """Fill non-explicit machine parameters from ``--profile``.

    The loaded document is stashed on the namespace so the run also
    applies the profile's knob section (``_engine_options``).
    """
    path = getattr(args, "profile", None)
    if path is None:
        return
    from repro.tune.profile import load_profile

    doc = load_profile(path)
    args._profile_doc = doc
    explicit = getattr(args, "_explicit", set())
    machine = doc["machine"]
    for dest, key in (("v", "v"), ("d", "D"), ("b", "B")):
        if dest not in explicit:
            setattr(args, dest, int(machine[key]))


def _config(args, n: int | None = None) -> MachineConfig:
    return MachineConfig(
        N=n if n is not None else args.n,
        v=args.v,
        p=args.p,
        D=args.d,
        B=args.b,
        M=args.m,
        seed=args.seed,
    )


def _make_tracer(args):
    """An EventBus when --trace was given, else None (zero-cost path).

    The bus exports the run as JSON lines or a Chrome trace and folds its
    own events into a ``TraceAnalysis``, so every ``--trace`` run gets the
    in-stream drift check for free.
    """
    if args.trace is None:
        return None
    try:
        # fail before the run, not after: a long simulation shouldn't
        # complete only to lose its trace to an unwritable path
        with open(args.trace, "w", encoding="utf-8"):
            pass
    except OSError as exc:
        raise SystemExit(f"error: cannot write trace to {args.trace!r}: {exc}")
    from repro.obs.bus import EventBus

    return EventBus()


def _write_trace(args, tracer) -> None:
    if tracer is None:
        return
    if args.trace_format == "chrome":
        n = tracer.write_chrome(args.trace)
    else:
        n = tracer.write_jsonl(args.trace)
    print(f"  trace            : {n} events -> {args.trace} ({args.trace_format})")


def _make_metrics(args):
    """A live MetricsRegistry when --metrics was given, else None."""
    if args.metrics is None:
        return None
    from repro.obs.metrics import MetricsRegistry

    return MetricsRegistry()


def _write_metrics(args, registry) -> None:
    if registry is None:
        return
    registry.write(args.metrics)
    kind = "json snapshot" if str(args.metrics).endswith(".json") else "prometheus text"
    print(f"  metrics          : {len(registry.metrics)} families -> {args.metrics} ({kind})")


def _crosscheck(args, report, cfg: MachineConfig) -> None:
    if not args.crosscheck:
        return
    from repro.obs.costcheck import crosscheck_report
    from repro.obs.histograms import DiskHistograms

    print()
    print(crosscheck_report(report, cfg, balanced=args.balanced).render())
    if report.io.parallel_ios:
        print(DiskHistograms.from_stats(report.io, cfg.D).render())


def _report(label: str, report, cfg: MachineConfig) -> None:
    model = DiskServiceModel()
    print(f"\n{label}")
    print(f"  machine          : {cfg.describe()}")
    print(f"  CGM rounds       : {report.rounds}   supersteps: {report.supersteps}")
    print(f"  communication    : {report.comm_items} items ({report.cross_items} over the network)")
    if report.io.parallel_ios:
        print(
            f"  parallel I/Os    : {report.io.parallel_ios} total, "
            f"{report.io_max.parallel_ios} on the busiest processor"
        )
        print(f"  disk utilization : {report.io.utilization(cfg.D):.1%}")
        if report.io.width_histogram:
            from repro.obs.histograms import DiskHistograms

            h = DiskHistograms.from_stats(report.io, cfg.D)
            print(
                f"  full-D parallel  : {h.full_width_fraction:.1%} of I/Os "
                f"touch all {cfg.D} disks (mean width {h.mean_width:.2f})"
            )
        print(
            f"  modeled I/O time : "
            f"{report.io_max.parallel_ios * model.parallel_io_time(cfg.B):.2f}s "
            f"(1998-class disks)"
        )
    if report.page_faults:
        print(f"  page faults      : {report.page_faults}")
    if report.overflow_blocks:
        print(f"  overflow blocks  : {report.overflow_blocks} (consider --balanced)")
    if report.fault_stats is not None and report.fault_stats.any:
        print(f"  injected faults  : {report.fault_stats.summary()}")


def _engine_options(args, tracer=None, metrics=None) -> dict:
    """``make_engine``'s options as a run command's flags give them: the
    backend flags are explicit knob overrides of this one run."""
    return dict(
        balanced=args.balanced,
        tracer=tracer,
        metrics=metrics,
        faults=args.faults,
        checkpoint=args.checkpoint,
        resume=args.resume,
        profile=getattr(args, "_profile_doc", None),
        overrides={
            "workers": args.workers, "arena": args.arena,
            "transport": args.transport, "nodes": args.nodes,
        },
    )


def _verdict(ok: bool) -> str:
    return "OK" if ok else "MISMATCH"


# A run step generates its input from (seed, n), runs it as the flags say and
# checks the output against a reference computed without the simulator.
# Returns (values, report, config that ran, ok, headline).


def _run_op(args, tracer=None, metrics=None):
    """``sort`` / ``permute`` / ``transpose``: ``OPS[args.op]``.  The data,
    the counters and the output hash are those of ``repro submit --local``
    for the same ``(op, n, seed, machine)``."""
    from repro.em.runner import OPS, em_op
    from repro.util.rng import make_rng

    op = OPS[args.op]
    n, shape = args.n, {}
    rows, cols = getattr(args, "rows", None), getattr(args, "cols", None)
    if (rows is None) != (cols is None):
        raise ConfigurationError("--rows and --cols go together")
    if rows is not None:
        n, shape = rows * cols, {"rows": rows}
    raw = op.generate(make_rng(args.seed), n, **shape)
    res = em_op(
        args.op, raw, _config(args, n), args.engine,
        **_engine_options(args, tracer, metrics),
    )
    ok = bool(np.array_equal(res.values, op.reference(*raw)))
    dims = "x".join(map(str, raw[0].shape))
    what = f"{op.past} {dims}" + (" items" if raw[0].ndim == 1 else "")
    return res.values, res.report, res.cfg, ok, f"{what}: {_verdict(ok)}"


def _run_delaunay(args, tracer=None, metrics=None):
    from scipy.spatial import Delaunay

    import repro.algorithms.geometry as geo

    pts = np.random.default_rng(args.seed).random((args.n, 2))
    res = geo.delaunay_2d(
        pts, _config(args, n=3 * args.n), args.engine,
        **_engine_options(args, tracer, metrics),
    )
    ref = {tuple(sorted(map(int, t))) for t in Delaunay(pts).simplices}
    ok = {tuple(t) for t in res.values} == ref
    headline = (
        f"Delaunay of {args.n} points -> {len(res.values)} triangles: {_verdict(ok)}"
        + (" [exact fallback fired]" if res.extra["fallback"] else "")
    )
    return res.values, res.reports[0], res.cfgs[0], ok, headline


def _run_cc(args, tracer=None, metrics=None):
    import networkx as nx

    from repro.algorithms.graphs import connected_components

    n_edges = 2 * args.n if args.edges is None else args.edges
    G = nx.gnm_random_graph(args.n, n_edges, seed=args.seed)
    edges = (
        np.array(G.edges()) if G.number_of_edges() else np.zeros((0, 2), dtype=np.int64)
    )
    res = connected_components(
        edges, args.n, _config(args), args.engine,
        **_engine_options(args, tracer, metrics),
    )
    ok = all(
        {res.values[u] for u in cc} == {min(cc)} for cc in nx.connected_components(G)
    )
    headline = (
        f"connected components of G({args.n}, {n_edges}) -> "
        f"{len(set(res.values.tolist()))} components: {_verdict(ok)}"
    )
    return res.values, res.reports[0], res.cfgs[0], ok, headline


def _run_listrank(args, tracer=None, metrics=None):
    from repro.algorithms.graphs import list_rank

    order = np.random.default_rng(args.seed).permutation(args.n)
    succ = np.full(args.n, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    res = list_rank(
        succ, _config(args), engine=args.engine,
        **_engine_options(args, tracer, metrics),
    )
    expect = np.empty(args.n)
    expect[order] = np.arange(args.n - 1, -1, -1)
    ok = bool(np.array_equal(res.values, expect))
    headline = f"list ranking of {args.n} nodes: {_verdict(ok)}"
    return res.values, res.reports[0], res.cfgs[0], ok, headline


def cmd_run(args) -> int:
    from repro.em.runner import output_sha256

    tracer = _make_tracer(args)
    registry = _make_metrics(args)
    values, report, cfg, ok, headline = args.run(args, tracer, registry)
    _report(headline, report, cfg)
    print(f"  output sha256    : {output_sha256(values)}")
    _write_trace(args, tracer)
    _write_metrics(args, registry)
    _crosscheck(args, report, cfg)
    return 0 if ok else 1


def cmd_theory(args) -> int:
    from repro.core.theory import log_term_bound_c, min_problem_size

    print(f"minimum problem size for log-term <= c  (B = {args.b} items)")
    print(f"{'v':>8} {'c=2':>12} {'c=3':>12} {'c=4':>12}")
    for v in args.v:
        print(
            f"{v:>8}"
            + "".join(f"{min_problem_size(v, args.b, c):>12.3g}" for c in (2, 3, 4))
        )
    if args.check:
        N, v = args.check
        print(
            f"\nrealized log term at N={N}, v={v}, M=N/v: "
            f"{log_term_bound_c(int(N), int(v), args.b):.3f}"
        )
    return 0


def cmd_machine(args) -> int:
    cfg = _config(args)
    print(cfg.describe())
    print("\npaper constraint report (kappa = 3):")
    for name, d in cfg.constraint_report(kappa=3.0).items():
        print(f"  [{'ok' if d['ok'] else 'VIOLATED':>8}] {name}   ({d['detail']})")
    model = DiskServiceModel()
    print(f"\nsuggested G for B={cfg.B}: {model.suggest_G(cfg.B):.0f} ops/parallel-I/O")
    return 0


def cmd_analyze(args) -> int:
    from repro.obs.analyze import analyze_file

    try:
        analysis = analyze_file(args.trace, envelope_c=args.envelope)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(analysis.to_dict(), indent=2, sort_keys=True))
    elif args.critical_path:
        print(analysis.render_critical_path(top=args.top))
    else:
        print(analysis.render())
    return 0 if analysis.ok else 1


def _print_frame(frame: str, clear: bool) -> None:
    if clear and sys.stdout.isatty():
        print("\x1b[2J\x1b[H", end="")
    print(frame, flush=True)


def cmd_top(args) -> int:
    import time

    from repro.obs.analyze import TraceAnalysis
    from repro.obs.live import iter_jsonl, iter_sse

    if (args.trace is None) == (args.url is None):
        print("error: give a trace file or --url (exactly one)", file=sys.stderr)
        return 2
    view = TraceAnalysis()
    if args.url is not None:
        events = iter_sse(args.url)
    else:
        events = iter_jsonl(
            args.trace, follow=args.follow, idle_timeout_s=args.idle_timeout
        )
    last = 0.0
    try:
        for ev in events:
            view.feed(ev)
            if args.once:
                continue
            now = time.monotonic()
            if now - last >= args.interval:
                _print_frame(view.render_top(args.window), clear=True)
                last = now
    except KeyboardInterrupt:
        pass
    except BrokenPipeError:
        raise  # main() ends the command quietly; not an I/O error to report
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_frame(view.render_top(args.window), clear=not args.once)
    return 0


def _exit_broken_pipe() -> int:
    """Downstream pager/head closed the pipe: not an error.  Point stdout
    at devnull so the interpreter's exit flush doesn't raise again."""
    import os

    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def _bind_error(host: str, port: int, exc: OSError) -> int:
    """One-line bind failure, exit code 2 (usage-error convention).

    ``EADDRINUSE`` gets its own message naming the port — the common
    operator mistake (a previous server still running) should not read
    like an internal failure, let alone a traceback.
    """
    import errno

    if exc.errno == errno.EADDRINUSE:
        print(
            f"error: port {port} on {host} is already in use "
            f"(is another server running? pick a different --port)",
            file=sys.stderr,
        )
    else:
        print(f"error: cannot bind {host}:{port}: {exc}", file=sys.stderr)
    return 2


def cmd_node(args) -> int:
    from repro.core.transport.node import serve_node

    try:
        return serve_node(args.host, args.port)
    except OSError as exc:
        return _bind_error(args.host, args.port, exc)


def cmd_serve(args) -> int:
    """The multi-tenant job server (``repro serve``); SIGTERM drains."""
    import signal
    import threading

    from repro.service.server import JobServer, ServiceCore

    core = ServiceCore(
        state_dir=args.state_dir,
        pool_size=args.pool,
        queue_capacity=args.queue_cap,
        tenant_quota=args.tenant_quota,
        cache_capacity=args.cache_cap,
    )
    try:
        server = JobServer(core, host=args.host, port=args.port).start()
    except OSError as exc:
        core.drain(timeout=5.0)
        return _bind_error(args.host, args.port, exc)

    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda signum, frame: stop.set())
    print(
        f"serving on {server.url}  "
        f"(submit: POST {server.url}/jobs, metrics: {server.url}/metrics)",
        flush=True,
    )
    print(
        f"  pool={args.pool} queue={args.queue_cap} "
        f"tenant-quota={args.tenant_quota} cache={args.cache_cap} "
        f"state={core.state_dir}",
        flush=True,
    )
    while not stop.is_set():
        stop.wait(0.5)
    persisted = core.drain(timeout=args.drain_timeout)
    server.close()
    states: dict[str, int] = {}
    for job in core.jobs.values():
        states[job.state] = states.get(job.state, 0) + 1
    summary = " ".join(f"{k}={v}" for k, v in sorted(states.items())) or "none"
    print(f"drained: persisted {persisted} job(s), jobs seen: {summary}", flush=True)
    return 0


def cmd_submit(args) -> int:
    """Submit a spec file to a running ``repro serve`` (or run it locally)."""
    import json as _json

    from repro.service.client import (
        ServiceClientError,
        run_spec_local,
        stream_job,
        submit_job,
        wait_job,
    )

    if args.spec == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"error: cannot read spec {args.spec!r}: {exc}", file=sys.stderr)
            return 2
    try:
        doc = _json.loads(raw)
    except _json.JSONDecodeError as exc:
        print(f"error: spec is not JSON: {exc}", file=sys.stderr)
        return 2

    if args.local:
        # the CI service lane's bit-identity reference: same executor,
        # same result document, no server involved
        result = run_spec_local(doc)
        print(_json.dumps(result, indent=None if args.json else 2, sort_keys=True))
        return 0 if result["result"]["ok"] else 1

    try:
        status, headers, body = submit_job(args.url, doc, timeout_s=args.timeout)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if status not in (200, 202):
        retry = headers.get("Retry-After")
        hint = f" (Retry-After: {retry}s)" if retry else ""
        print(
            f"error: server refused the job ({status}): "
            f"{body.get('error', body)}{hint}",
            file=sys.stderr,
        )
        return 2
    cache = headers.get("X-Repro-Cache", "miss")
    job_id = body["id"]
    if not args.json:
        print(f"job {job_id} {body['state']} (cache: {cache})", flush=True)
    if args.stream:
        try:
            for ev in stream_job(args.url, job_id, timeout_s=args.timeout):
                print(_json.dumps(ev), flush=True)
        except ServiceClientError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    if not (args.wait or args.stream):
        if args.json:
            print(_json.dumps(body, sort_keys=True))
        return 0
    try:
        final = wait_job(args.url, job_id, timeout_s=args.timeout)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    final["cache"] = cache
    if args.json:
        print(_json.dumps(final, sort_keys=True))
    else:
        result = final.get("result") or {}
        print(
            f"job {job_id} {final['state']}"
            + (
                f"  ok={result.get('ok')} ios="
                f"{result.get('counters', {}).get('io', {}).get('parallel_ios')}"
                f" sha={str(result.get('output_sha256'))[:12]}"
                if result
                else ""
            )
        )
    if final["state"] != "done":
        print(
            f"error: job ended {final['state']}: {final.get('error', '')}",
            file=sys.stderr,
        )
        return 1
    return 0 if (final.get("result") or {}).get("ok") else 1


def _benchmarks_dir(args) -> "str | None":
    """Locate the benchmarks/ directory (source checkout layout)."""
    import os

    candidates = []
    if getattr(args, "benchmarks_dir", None):
        candidates.append(args.benchmarks_dir)
    here = os.path.dirname(os.path.abspath(__file__))
    candidates.append(os.path.join(here, "..", "..", "benchmarks"))
    candidates.append(os.path.join(os.getcwd(), "benchmarks"))
    for c in candidates:
        c = os.path.abspath(c)
        if os.path.isdir(c):
            return c
    return None


def _bench_suites(bench_dir: str) -> dict[str, str]:
    """suite name -> module path for every ``bench_*.py``."""
    import glob
    import os

    out = {}
    for path in sorted(glob.glob(os.path.join(bench_dir, "bench_*.py"))):
        stem = os.path.splitext(os.path.basename(path))[0]
        out[stem.removeprefix("bench_")] = path
    return out


def cmd_bench(args) -> int:
    import os
    import subprocess

    if args.compare:
        from repro.obs.bench_store import compare, load

        try:
            old, new = load(args.compare[0]), load(args.compare[1])
            result = compare(old, new, io_rtol=args.io_rtol)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.render())
        return 0 if result.ok else 1

    bench_dir = _benchmarks_dir(args)
    if bench_dir is None:
        print(
            "error: benchmarks/ directory not found — run from a source "
            "checkout or pass --benchmarks-dir",
            file=sys.stderr,
        )
        return 2
    suites = _bench_suites(bench_dir)
    if args.list:
        for name in suites:
            print(name)
        return 0
    wanted = args.suites or ["all"]
    if wanted == ["all"]:
        selected = list(suites.values())
    else:
        missing = [s for s in wanted if s not in suites]
        if missing:
            print(
                f"error: unknown suite(s) {', '.join(missing)}; "
                f"available: {', '.join(suites)}",
                file=sys.stderr,
            )
            return 2
        selected = [suites[s] for s in wanted]
    env = dict(os.environ)
    env["REPRO_BENCH_DIR"] = os.path.abspath(args.out)
    src_root = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "pytest", *selected,
        "-q", "-s", "--benchmark-disable", "-p", "no:cacheprovider",
    ]
    proc = subprocess.run(cmd, cwd=os.path.dirname(bench_dir), env=env)
    return proc.returncode


def cmd_tune(args) -> int:
    from repro.tune.knobs import render_knob_table
    from repro.tune.tuner import WorkloadSpec, tune

    if args.list_knobs:
        print(render_knob_table())
        return 0
    tracer = _make_tracer(args)
    spec = WorkloadSpec(op=args.op, n=args.n, seed=args.seed, p=args.p)
    res = tune(
        spec,
        probe_n=args.probe_n,
        reps=args.reps,
        top_k=args.top_k,
        tracer=tracer,
    )
    path = res.profile.save(args.out)
    if args.json:
        import json

        print(json.dumps(res.profile.document(), indent=2, sort_keys=True))
    else:
        print(f"tuned {spec.op} (n={spec.n}, p={spec.p}, seed={spec.seed})")
        print(f"  candidates       : {res.total} ({res.pruned} pruned analytically)")
        print(f"  chosen           : {res.chosen.label()}")
        for line in res.profile.rationale:
            print(f"  - {line}")
        print(f"  profile          : {path}")
        print(f"  apply with       : --profile {path}")
        print(
            f"  knobs only       : REPRO_PROFILE={path} "
            "(keeps the command's machine shape)"
        )
    if tracer is not None:
        _write_trace(args, tracer)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__
    from repro.em.runner import OPS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="EM-CGM: external-memory algorithms by simulating "
        "coarse grained parallel algorithms (Dehne et al., IPPS 1999)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_steps = dict.fromkeys(OPS, _run_op) | {
        "delaunay": _run_delaunay, "cc": _run_cc, "listrank": _run_listrank,
    }
    for name, run in run_steps.items():
        p = sub.add_parser(name)
        _machine_options(p)
        _backend_options(p)
        _run_options(p)
        _output_options(p)
        p.set_defaults(fn=cmd_run, run=run, op=name)
    p = sub.choices["transpose"]
    p.add_argument("--rows", type=int, default=None, help="matrix rows (with --cols)")
    p.add_argument(
        "--cols", type=int, default=None,
        help="matrix columns; --rows x --cols replaces --n and its default shape",
    )
    sub.choices["cc"].add_argument(
        "--edges", type=int, default=None, help="edge count (default: 2n)"
    )

    p = sub.add_parser("machine")
    _machine_options(p, n_default=1 << 16)
    p.set_defaults(fn=cmd_machine)

    p = sub.add_parser("theory")
    p.add_argument("--v", type=int, nargs="+", default=[10, 100, 1000, 10000])
    p.add_argument("--b", type=int, default=1000)
    p.add_argument("--check", type=float, nargs=2, metavar=("N", "V"), default=None)
    p.set_defaults(fn=cmd_theory)

    p = sub.add_parser(
        "analyze",
        help="per-superstep aggregation of a --trace jsonl file, checked "
        "against the Theorem 2/3 I/O envelopes",
    )
    p.add_argument("trace", help="trace file written by --trace (jsonl format)")
    p.add_argument(
        "--envelope",
        type=float,
        default=8.0,
        metavar="C",
        help="constant-factor envelope [pred/C, pred*C] (default: 8)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of tables")
    p.add_argument(
        "--critical-path",
        action="store_true",
        help="per-superstep comp/I/O/comm attribution with per-worker "
        "lanes, straggler analysis and the top slowest supersteps",
    )
    p.add_argument(
        "--top",
        type=int,
        default=5,
        metavar="K",
        help="supersteps listed in the --critical-path slowest table (default 5)",
    )
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "top",
        help="live textual dashboard of a running (or recorded) trace",
    )
    p.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="jsonl trace file (e.g. a REPRO_TRACE=<path> streaming sink)",
    )
    p.add_argument(
        "--url",
        default=None,
        help="SSE stream to read instead of a file, taken as given: a "
        "served job's events, e.g. http://127.0.0.1:8799/jobs/j00001/events",
    )
    p.add_argument(
        "--follow",
        action="store_true",
        help="tail the trace file as the engine appends to it; tailing "
        "stops at the first run_end",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="consume the whole source, print one final frame",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between frame redraws (default 1)",
    )
    p.add_argument(
        "--window", type=int, default=8, help="recent supersteps shown (default 8)"
    )
    p.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="S",
        help="with --follow: stop after S seconds without new events",
    )
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser(
        "node",
        help="host one worker of a distributed run: accepts a coordinator "
        "over TCP (see --transport tcp / REPRO_NODES), validates its "
        "handshake (protocol, release, RuntimeConfig fingerprint), and "
        "runs the worker command loop; SIGTERM exits 0 cleanly",
    )
    _listen_options(p, 9876, "bind port (0 = auto-pick; the chosen port is printed)")
    p.set_defaults(fn=cmd_node)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant simulation job server: POST /jobs specs, "
        "bounded per-tenant queue with backpressure, checkpoint-preemptible "
        "worker pool, fingerprint result cache, per-job SSE streams; "
        "SIGTERM drains (checkpoint + persist the queue) and exits 0",
    )
    _listen_options(p, 8799, "bind port (0 = auto-pick)")
    p.add_argument(
        "--pool", type=int, default=2, metavar="N",
        help="worker threads executing jobs (default 2)",
    )
    p.add_argument(
        "--queue-cap", type=int, default=64, metavar="N",
        help="pending-job bound before 429 backpressure (default 64)",
    )
    p.add_argument(
        "--tenant-quota", type=int, default=16, metavar="N",
        help="max queued+running jobs per tenant (default 16)",
    )
    p.add_argument(
        "--cache-cap", type=int, default=256, metavar="N",
        help="result-cache entries (default 256)",
    )
    p.add_argument(
        "--state-dir", default="repro_serve_state", metavar="DIR",
        help="checkpoints + persisted queue live here (default "
        "./repro_serve_state); restart on the same dir resumes drained jobs",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="seconds SIGTERM waits for in-flight jobs to checkpoint",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a job-spec JSON file to a running 'repro serve' "
        "(or --local to run the same spec in-process for comparison)",
    )
    p.add_argument("spec", help="path to the spec JSON ('-' reads stdin)")
    p.add_argument(
        "--url", default="http://127.0.0.1:8799",
        help="base URL of the job server",
    )
    p.add_argument(
        "--wait", action="store_true",
        help="follow the job's event stream until it reaches a terminal state",
    )
    p.add_argument(
        "--stream", action="store_true",
        help="stream the job's SSE events to stdout (implies --wait)",
    )
    p.add_argument(
        "--local", action="store_true",
        help="run the spec in-process through the server's executor "
        "instead of submitting (the CI bit-identity reference)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the final job document as JSON"
    )
    p.add_argument(
        "--timeout", type=float, default=300.0, metavar="S",
        help="overall wait/stream timeout in seconds",
    )
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser(
        "tune",
        help="choose a machine shape + runtime-knob configuration for one "
        "workload: Theorem 2/3 analytic pruning, then measured wall-clock "
        "probes; writes a reusable tuned-profile JSON",
    )
    p.add_argument(
        "--op",
        choices=list(OPS),
        default="sort",
        help="workload operation to tune for (default: sort)",
    )
    p.add_argument(
        "--n", type=int, default=1 << 16,
        help="target problem size in items (default: 65536, the fig5 "
        "group-A scale)",
    )
    p.add_argument("--p", type=int, default=1, help="real processors")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out",
        default="tuned_profile.json",
        metavar="PROFILE.json",
        help="where to write the tuned profile (default: tuned_profile.json)",
    )
    p.add_argument(
        "--probe-n",
        type=int,
        default=None,
        metavar="N",
        help="probe problem size (default: min(n, 16384))",
    )
    p.add_argument(
        "--reps", type=int, default=2, help="probe repetitions, best-of (default 2)"
    )
    p.add_argument(
        "--top-k",
        type=int,
        default=4,
        help="candidates kept after analytic pruning (default 4)",
    )
    p.add_argument(
        "--json", action="store_true", help="print the profile document as JSON"
    )
    p.add_argument(
        "--list-knobs",
        action="store_true",
        help="print the registry of every REPRO_* knob and exit",
    )
    _trace_options(
        p, "record the tuner's decision events (tune_begin/tune_probe/tune_end) to PATH"
    )
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser(
        "bench",
        help="run benchmark suites headlessly (writes BENCH_<suite>.json) "
        "or gate two result files with --compare",
    )
    p.add_argument(
        "suites",
        nargs="*",
        help="suite names (see --list) or 'all' (default)",
    )
    p.add_argument("--list", action="store_true", help="list available suites")
    p.add_argument(
        "--out", default="bench_out", help="directory for BENCH_*.json artifacts"
    )
    p.add_argument("--benchmarks-dir", default=None, help="override benchmarks/ path")
    p.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="regression gate: compare a new BENCH json against a baseline",
    )
    p.add_argument(
        "--io-rtol",
        type=float,
        default=0.0,
        help="relative tolerance on measured counters (default 0 = exact)",
    )
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fn = getattr(args, "fn", None)
    if fn is None:
        # unreachable with required=True, but argparse quirks (e.g. a bare
        # abbreviation match) must not fall through to an AttributeError
        parser.print_usage(sys.stderr)
        return 2
    try:
        _apply_profile(args)
        rc = fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
        return rc
    except BrokenPipeError:
        return _exit_broken_pipe()
    except KnobError as exc:
        # a malformed REPRO_* value (flag or profile entry too) is a usage
        # error: one line naming the variable, exit code 2, never a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, ConfigurationError) as exc:
        # configuration mistakes (bad fault plan, --resume without a
        # snapshot, refused corrupt checkpoint) and simulation failures
        # (exhausted retries, dead workers) exit non-zero with the
        # message, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
