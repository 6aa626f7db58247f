"""Lint: every ``REPRO_*`` environment read goes through the knob registry
and nothing writes the environment, the retired I/O-path switch and
prefetch thread stay retired, there is one compound superstep (one round
loop, one routing step, no worker engine class), the Figure-5 Group-A
operations have one definition (the op table), and every Figure-5 run has
one front door (options are ``make_engine`` arguments the wrappers forward;
one CLI run handler), what the simulated disks hold is one tagged format
that nothing on its path pickles, a checkpoint is each real's arena rows
(no pickle in ``repro.faults``, no snapshot merged, split, shipped on a row
or kept in memory), and a worker is one session on one wire
(no multiprocessing queue or event, one ``dumps``/``loads`` pair), a
preemption probe — which turns per-round checkpoint writes into one write
on demand — is installed by the job service's pool alone, and telemetry
has one recorder class, one HTTP server and one JSON-lines reader, a
subscription one consumer method (a batch per wake-up), a local worker
packet one carrier (its frame; no shared-memory segment), the trace
one fold that every view and the drift check read, and the machine is the
paper's (the worker count is the ``workers`` knob alone, and no engine
runs a constraint pass nobody reads), a balanced-routing chunk is its
bundle bytes (no chunk value type in the codec), a program sees a
``Shape`` (N, v, seed), never the machine (four engine classes; Algorithm
2 is ``ParEMEngine`` at p = 1), and a value decodes into views of its
buffer only where the engine owns that buffer.

The tentpole's centralization contract — ad-hoc ``os.environ`` reads of
runtime knobs are how the inconsistent-caching bug happened, so outside
``repro.tune`` none may exist.  This file is the one home of these
checks: the CI lint job runs it.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

#: an os.environ read or subscript whose key literal is a REPRO_ variable
_PATTERN = re.compile(r"os\.environ(\.get)?\s*[(\[]\s*[\"']REPRO_")

#: the reference/fast-path fork: its knob, engine flags and module setters
_IO_FORK = re.compile(r"REPRO_FASTPATH|_fastpath|set_enabled|set_arena_kind")

#: addresses as arrays: the per-call run check, the two memo size cliffs, the
#: expanded-bytes plan key and the module that outlived its fork
_ADDRESS_ARRAYS = re.compile(
    r"_as_run|ADDRESS_MEMO_MAX_BLOCKS|PLAN_MEMO_MAX_BLOCKS|disks\.tobytes\(\)"
    r"|pdm\.fastpath"
)

#: the prefetch pipeline: its knob, reader, threshold and superstep hooks
_READ_FORK = re.compile(
    r"REPRO_PREFETCH|DoubleBufferedReader|PREFETCH_BREAK_EVEN"
    r"|_begin_superstep|_end_superstep|_prefetch_on"
)

#: the second round loop and what came with it, the coordinator's per-round
#: command, plus the fifth recorder class
_ROUND_FORK = re.compile(
    r"_WorkerEngine|execute_local_round|_round_boundary|_storage_reals"
    r"|_dispatch_round|NullBus|NULL_BUS"
)

#: the per-package spellings of a Group-A operation the op table replaced
_OP_FORK = re.compile(
    r"reference_output|\b_assemble\b|_note_trace_unsupported"
    r"|cmd_sort|cmd_permute|cmd_transpose"
)

#: the environment write path, the per-command B/C handlers, the per-module
#: stage-config helpers and result classes, and the one-sided timing gate
_SIDE_DOORS = re.compile(
    r"set_env|apply_to_env|cmd_delaunay|cmd_cc|cmd_listrank|_stage_cfg|_adapt_cfg"
    r"|class GeoResult|timing_floor"
)

#: an assignment into os.environ (subscript store, or the mutating methods)
_ENV_WRITE = re.compile(
    r"os\.environ\[[^]]*\]\s*=[^=]|os\.environ\.(update|setdefault|pop)\b"
    r"|\bos\.putenv\b"
)


#: ListRanking's second sender, the seq_engine re-export, the pickle item tag
_CODEC_FORK = re.compile(r"_send_grouped_float|core\.seq_engine|_TAG_PICKLE")


#: the second worker plumbing: multiprocessing queues and events, the three
#: transport classes, the queue-fed process entry point, the spawn fallback
_WIRE_FORK = re.compile(
    r"ctx\.Queue|multiprocessing\.Queue|mp\.Queue|ctx\.Event|mp\.Event"
    r"|MemoryTransport|ShmTransport|TcpWorkerTransport|_worker_main"
    r"|get_context\(\"spawn\"\)"
)


#: the retired recorder classes, the second HTTP server and its skeleton,
#: the environment-side trace switch and the second JSON-lines reader
_TELEMETRY_FORK = re.compile(
    r"JsonlRecorder|TraceRecorder|ObsServer|HttpListener|HttpHandler"
    r"|serve-metrics|serve_metrics|bus_from_env|trace_env_spec|read_jsonl"
)

#: the per-event subscription reader
_PER_EVENT_READ = re.compile(r"Subscription\.get|\bsub\.get\(")

#: the shared-memory bulk path: its module, threshold knob and segment sweep
_SECOND_CARRIER = re.compile(
    r"shared_memory|SharedMemory|_posixshmem|shm_threshold|shm_bytes"
    r"|REPRO_SHM_BYTES|unlink_segment|_sweep_segments"
)

#: the second and third folds over the event stream: the dashboard
#: aggregator, the conformance monitor and the post-hoc envelope pass
_SECOND_FOLD = re.compile(r"class TopView|ConformanceMonitor|_attach_predictions")

#: the engines' second telemetry sink: the null and scoped registries, the
#: backend-specific emitters and an engine-held registry
_SECOND_SINK = re.compile(
    r"NULL_REGISTRY|NullRegistry|ScopedRegistry|_ScopedMetric|emit_fault_metrics"
    r"|_emit_transport_metrics|self\.metrics\b|eng\.metrics"
)

#: the machine's second worker count and its unread constraint pass: the
#: per-run warnings, the config's count, the engines' validate switch
_MACHINE_EXTRAS = re.compile(
    r"constraint_warnings|\bcfg\.workers\b|\bvalidate\s*(:\s*bool|=)"
)

#: a config built with a worker count, in a script, a bench or a workflow
_CONFIG_WORKERS = re.compile(r"(MachineConfig|\.with_)\([^)]*\bworkers\s*=")

#: the ambient fault plan: its variable and the snapshot field it filled
_AMBIENT_PLAN = re.compile(r"REPRO_FAULTS|\b(rt|runtime)\.faults\b")

#: the decoded chunk record, its encoder and its lazy type lookup
_CHUNK_VALUE = re.compile(r"class Chunk\b|chunk_at|_enc_chunk|_chunk_type")

#: the decode whose arrays are views of the buffer it is handed
_OWNED_DECODE = re.compile(r"\bdecode_owned\b")

#: the per-disk track store: its piece planner, the plan's per-disk pieces
#: and the spill file per disk
_PER_DISK_STORE = re.compile(r"\b_extent\b|\.extents\b|disk\{d\}\.bin")


#: the second copy of a boundary: the slices' snapshot merge and split,
#: the in-memory last snapshot and the switch that took it every round,
#: and a snapshot riding a row (the CI lint job greps the same names)
_SNAPSHOT_COPY = re.compile(
    r"merge_backends|split_backend|_last_ckpt|snapshot_every_round|[\"']snapshot[\"']"
)


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
        "lane is tests/spec_array.py):\n" + "\n".join(offenders)
    )
    # nor does a fault plan bring a second path: no per-access service
    # loop in the injector, no gather hook for it to override
    src_root = Path(repro.__file__).resolve().parent
    for pkg, pattern in (("faults", r"def _service\b"), ("pdm", r"def _gather\("),
                         ("faults", r"def _gather\(")):
        holders = [p.name for p in sorted((src_root / pkg).rglob("*.py"))
                   if re.search(pattern, p.read_text())]
        assert not holders, (pattern, holders)


def test_one_synchronous_read_path_no_prefetch_thread():
    offenders = _offenders(_READ_FORK, skip_tune=False)
    assert not offenders, (
        "context reads are synchronous read_run calls; Engine._execute_round "
        "calls nothing around the vproc loop for a backend:\n"
        + "\n".join(offenders)
    )
    src_root = Path(repro.__file__).resolve().parent
    threadless = sorted((src_root / "pdm").rglob("*.py")) + [
        src_root / "core" / "par_engine.py"
    ]
    assert not [p for p in threadless if "threading" in p.read_text()]


def test_the_per_disk_split_is_planned_not_recomputed():
    """(Named for the per-disk split the arena's movers once recomputed,
    then took from the plan.)  A run is one slice of the linear row space,
    so no stream is split per disk at all: ``TrackArena.scatter``/``gather``
    take the plan's linear pieces, and the ``flatnonzero(disks == d)``
    compare lives nowhere under ``repro.pdm``."""
    import inspect

    from repro.pdm import arena

    for mover in (arena.TrackArena.scatter, arena.TrackArena.gather):
        assert "flatnonzero" not in inspect.getsource(mover), mover
    holders = [
        path.name
        for path in sorted(Path(arena.__file__).parent.glob("*.py"))
        if re.search(r"flatnonzero\(\s*disks\s*==", path.read_text())
    ]
    assert holders == []


def test_one_linear_track_store():
    offenders = _offenders(_PER_DISK_STORE, skip_tune=False)
    assert not offenders, (
        "a disk array's tracks are one linear row space track·D + disk, held "
        "in chunks (one spill file per mmap arena); a stream moves as its "
        "runs' linear pieces:\n" + "\n".join(offenders)
    )


def test_addresses_are_arithmetic_and_arenas_come_uncleared():
    offenders = _offenders(_ADDRESS_ARRAYS, skip_tune=False)
    assert not offenders, (
        "a bulk stream is addressed by pdm.block.Runs and planned from that "
        "small key; BlockRun lives in pdm.block:\n" + "\n".join(offenders)
    )
    pdm = Path(repro.__file__).resolve().parent / "pdm"
    cleared = [p.name for p in sorted(pdm.glob("*.py")) if "np.zeros((cap" in p.read_text()]
    assert not cleared, f"a grown track matrix is np.empty (unused rows are never read): {cleared}"


def test_one_disk_codec_and_nothing_on_its_path_pickles():
    offenders = _offenders(_CODEC_FORK, skip_tune=False)
    assert not offenders, (
        "ListRanking has one grouped sender, Algorithm 2 is ParEMEngine in "
        "core.par_engine, items have one format:\n" + "\n".join(offenders)
    )
    src_root = Path(repro.__file__).resolve().parent
    codec_path = [
        src_root / "util" / "items.py",
        src_root / "core" / "balanced.py",
        src_root / "core" / "par_engine.py",
        *sorted((src_root / "cgm").rglob("*.py")),
        *sorted((src_root / "algorithms").rglob("*.py")),
    ]
    pickling = [
        str(p.relative_to(src_root)) for p in codec_path if "pickle" in p.read_text()
    ]
    assert not pickling, (
        "contexts and bundles are encoded by repro.util.items (tagged tree, "
        f"no object reconstruction): {pickling}"
    )
    assert not (src_root / "core" / "seq_engine.py").exists()


def test_one_worker_session_on_one_wire():
    import inspect

    from repro.core import workers
    from repro.core.transport import base, tcp

    offenders = _offenders(_WIRE_FORK, skip_tune=False)
    assert not offenders, (
        "a worker is serve_session on a socket, local or remote; the fleet "
        "relays frames:\n" + "\n".join(offenders)
    )
    # the only two calls under repro.core that pickle are the frame
    # writer's dumps and the frame reader's loads
    core = Path(repro.__file__).resolve().parent / "core"
    calls = [
        call for path in sorted(core.rglob("*.py"))
        for call in re.findall(r"pickle\.(?:dumps|loads)\(", path.read_text())
    ]
    assert sorted(calls) == ["pickle.dumps(", "pickle.loads("]
    assert "pickle.dumps(" in inspect.getsource(base.send_frame)
    assert "pickle.loads(" in inspect.getsource(base.recv_frame)
    # one command loop with one caller ...
    callers = [
        path.name for path in sorted(core.rglob("*.py"))
        if re.search(r"(?<!def )\brun_worker_session\(", path.read_text())
    ]
    assert callers == ["workers.py"]
    assert inspect.getsource(workers).count("run_worker_session(") == 2  # def + call
    assert "run_worker_session(" in inspect.getsource(workers.serve_session)
    # ... which takes four commands: workers clock their own rounds, and a
    # boundary snapshot rides each round's report
    commands = re.findall(
        r'op == "(\w+)"', inspect.getsource(workers.run_worker_session)
    )
    assert sorted(commands) == ["finish", "restore", "setup", "stop"]
    # ... and one fleet: the two spellings only say how a session is
    # opened (and what opening it left to collect), whether it still
    # lives, and what it is called
    for fleet, allowed in (
        (workers.LocalFleet, {"_open", "_reap", "alive"}),
        (tcp.TcpFleet, {"_open", "event_tags"}),
    ):
        own = {
            name for name, member in vars(fleet).items()
            if inspect.isfunction(member) and name != "__init__"
        }
        assert own == allowed, (fleet.__name__, own)


def test_a_checkpoint_is_each_reals_arena_rows():
    offenders = _offenders(_SNAPSHOT_COPY, skip_tune=False)
    assert not offenders, (
        "a checkpoint is one file (or a manifest and its parts) of each "
        "real's section; nothing merges, splits, ships or keeps a second "
        "copy:\n" + "\n".join(offenders)
    )
    faults = Path(repro.__file__).resolve().parent / "faults"
    pickling = [p.name for p in sorted(faults.glob("*.py")) if "pickle" in p.read_text()]
    assert not pickling, f"repro.faults reads and writes no pickle: {pickling}"


def test_only_the_served_job_carries_a_preempt_probe():
    """A run with a probe persists a snapshot only when the probe fires; a
    run without one persists every boundary.  The CLI, ``em_run``, the
    fault lane and the benchmark suites keep the second contract because
    the one assignment of ``Engine.preempt`` is ``execute_spec``'s."""
    stores = _offenders(re.compile(r"\.preempt\s*(:[^=]+)?=[^=]"), skip_tune=False)
    # the attribute's declaration (``= None``) and the pool's one store
    assert [s.split(":")[0] for s in stores] == [
        "cgm/engine.py", "service/pool.py"
    ], stores


def test_one_compound_superstep():
    from repro.cgm.engine import Engine
    from repro.core import par_engine, workers

    offenders = _offenders(_ROUND_FORK, skip_tune=False)
    assert not offenders, (
        "the worker slice is ParEMEngine and the exchange is a hook of "
        "Engine._execute_round:\n" + "\n".join(offenders)
    )
    # the worker runs the very loop the in-process run does ...
    assert par_engine.ParEMEngine._execute_round is Engine._execute_round
    # ... routes with the one _put_messages (VMEngine's is a different
    # machine, in a different module) ...
    sources = [Path(m.__file__).read_text() for m in (par_engine, workers)]
    assert sum(src.count("def _put_messages") for src in sources) == 1
    # ... and the only engine workers.py defines is the coordinator
    engines = [
        c for c in vars(workers).values()
        if isinstance(c, type) and issubclass(c, Engine)
        and c.__module__ == workers.__name__
    ]
    assert engines == [workers.ProcessParEngine]


def test_one_definition_of_the_group_a_operations():
    from repro.em import runner
    from repro.tune.knobs import KNOBS

    offenders = _offenders(_OP_FORK, skip_tune=False)
    assert not offenders, (
        "sort/permute/transpose are rows of repro.em.runner.OPS; the CLI "
        "runs them with one handler:\n" + "\n".join(offenders)
    )
    # the transpose band split and the generated value range are decisions
    # of the table alone (the graph/geometry commands' own generators in
    # repro.algorithms are not Group-A operations)
    src_root = Path(repro.__file__).resolve().parent
    files = [src_root / "cli.py"] + sorted(
        path for pkg in ("em", "tune", "service")
        for path in (src_root / pkg).rglob("*.py")
    )
    band_split = re.compile(r"np\.array_split\(.*axis=0")
    value_range = re.compile(r"2\s*\*\*\s*(50|48)\b")
    for pattern in (band_split, value_range):
        holders = [p for p in files if pattern.search(p.read_text())]
        assert holders == [Path(runner.__file__).resolve()], (pattern.pattern, holders)
    # ... and the table added nothing to the configuration surface
    assert len(KNOBS) == 8


def test_one_front_door_for_every_figure_5_run():
    import inspect

    from repro import algorithms, cli
    from repro.algorithms import collectives

    offenders = _offenders(_SIDE_DOORS, skip_tune=False)
    assert not offenders, (
        "run options are make_engine arguments (overrides=, not os.environ), "
        "forwarded by every Group B/C wrapper through collectives.run_stage, "
        "and all six CLI run commands are cmd_run:\n" + "\n".join(offenders)
    )
    assert not _offenders(_ENV_WRITE, skip_tune=False)
    # every engine run of a wrapper goes through the one stage helper ...
    algo_root = Path(algorithms.__file__).resolve().parent
    callers = [
        str(path.relative_to(algo_root))
        for path in sorted(algo_root.rglob("*.py"))
        if re.search(r"\bem_run\(", path.read_text())
    ]
    assert callers == ["collectives.py"]
    assert inspect.getsource(collectives).count("em_run(") == 1
    # ... one class holds values/reports/extra ...
    holders = [
        path.name
        for path in sorted(algo_root.rglob("*.py"))
        if re.search(r"^\s+reports: list\[", path.read_text(), re.M)
    ]
    assert holders == ["collectives.py"]
    # ... and the six run commands share one handler
    assert inspect.getsource(cli).count("def cmd_") == 10


def test_one_telemetry_surface():
    offenders = _offenders(_TELEMETRY_FORK, skip_tune=False)
    assert not offenders, (
        "EventBus is the one recorder (NULL_RECORDER the disabled path), "
        "repro serve the one HTTP server, obs.live.iter_jsonl the one "
        "JSON-lines reader:\n" + "\n".join(offenders)
    )
    obs = Path(repro.__file__).resolve().parent / "obs"
    assert not (obs / "server.py").exists()
    assert not (obs / "trace.py").exists()


def test_a_subscription_has_one_consumer_method():
    """``Subscription.take`` hands over a batch per wake-up; the per-event
    reader, which woke its thread once per event, must not come back."""
    from repro.obs.bus import Subscription

    offenders = _offenders(_PER_EVENT_READ, skip_tune=False)
    assert not offenders, (
        "a subscriber reads with Subscription.take (one wake-up per batch):\n"
        + "\n".join(offenders)
    )
    assert not hasattr(Subscription, "get") and not hasattr(Subscription, "__iter__")


def test_one_local_carrier():
    """Every local packet rides its frame through the relay: no segment to
    create, name, unlink or sweep, no codec hooks on ``Transport``, and no
    threshold knob (``memory`` and ``shm`` spell one carrier)."""
    from repro.core.transport.base import Transport
    from repro.tune.knobs import KNOBS

    offenders = _offenders(_SECOND_CARRIER, skip_tune=False)
    assert not offenders, (
        "a local worker packet has one carrier, its frame:\n" + "\n".join(offenders)
    )
    assert not {"_encode", "_decode", "release"} & set(dir(Transport))
    assert len(KNOBS) == 8


def test_one_telemetry_stream_out_of_the_engines():
    """Engines emit one stream; a metrics registry is a fold over it
    (``MetricsRegistry.attach``), so no engine constructor takes one."""
    import inspect

    from repro.cgm.engine import Engine, InMemoryEngine
    from repro.core.par_engine import ParEMEngine
    from repro.core.vm_engine import VMEngine
    from repro.core.workers import ProcessParEngine

    offenders = _offenders(_SECOND_SINK, skip_tune=False)
    assert not offenders, (
        "engines emit one telemetry stream; metrics are a fold over the "
        "bus:\n" + "\n".join(offenders)
    )
    for cls in (Engine, InMemoryEngine, ParEMEngine, VMEngine,
                ProcessParEngine):
        assert "metrics" not in inspect.signature(cls).parameters, cls


def test_no_raw_repro_environ_access_outside_tune():
    offenders = _offenders(_PATTERN, skip_tune=True)
    assert not offenders, (
        "raw REPRO_* environment access outside repro.tune (use "
        "repro.tune.runtime.current(), or make_engine(overrides=...) to set "
        "one for a run):\n" + "\n".join(offenders)
    )


def test_one_fold_over_the_event_stream():
    """``repro analyze``, ``repro top`` and the in-stream drift check all
    read ``TraceAnalysis.feed``; the bus's monitor is that fold."""
    from repro.obs.analyze import TraceAnalysis
    from repro.obs.bus import EventBus

    offenders = _offenders(_SECOND_FOLD, skip_tune=False)
    assert not offenders, (
        "the trace has one fold, obs.analyze.TraceAnalysis.feed:\n"
        + "\n".join(offenders)
    )
    obs = Path(repro.__file__).resolve().parent / "obs"
    assert not (obs / "conformance.py").exists()
    assert isinstance(EventBus().monitor, TraceAnalysis)


def test_the_machine_is_the_papers():
    """``MachineConfig`` is the paper's (N, v, p, D, B, M, g, G, L) plus the
    seed: how many processes simulate the reals is the ``workers`` knob
    alone, and no engine runs the constraint check nothing read
    (``cfg.validate(strict=True)`` stays for a caller that wants it)."""
    import dataclasses
    import inspect

    from repro.cgm.config import MachineConfig
    from repro.cgm.engine import Engine, InMemoryEngine
    from repro.core.par_engine import ParEMEngine
    from repro.core.vm_engine import VMEngine
    from repro.core.workers import ProcessParEngine
    from repro.em.runner import make_engine
    from repro.tune.knobs import KNOBS

    root = Path(__file__).resolve().parents[2]
    offenders = _offenders(_MACHINE_EXTRAS, skip_tune=False) + [
        f"{path.relative_to(root)}:{lineno}: {line.strip()}"
        for top in ("src", "benchmarks", "scripts", "examples", ".github/workflows")
        for path in sorted((root / top).rglob("*"))
        if path.suffix in (".py", ".yml")
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if _CONFIG_WORKERS.search(line)
    ]
    assert not offenders, (
        "the worker count is the workers knob and the constraint check is "
        "the caller's:\n" + "\n".join(offenders)
    )
    assert [f.name for f in dataclasses.fields(MachineConfig)] == [
        "N", "v", "p", "D", "B", "M", "g", "G", "L", "seed"
    ]
    config = (root / "src" / "repro" / "cgm" / "config.py").read_text()
    assert not re.search(r"^\s+(workers|strict)\s*:", config, re.M)
    for fn in (make_engine, Engine, InMemoryEngine, ParEMEngine, VMEngine,
               ProcessParEngine):
        assert "validate" not in inspect.signature(fn).parameters, fn
    assert len(KNOBS) == 8


def test_a_fault_plan_is_an_argument_of_the_run():
    """A plan reaches a run only as ``make_engine(faults=...)``, ``--faults``
    or a spec's ``faults`` section: no variable, registry entry or snapshot
    field injects one into every run a process makes."""
    import dataclasses

    from repro.tune.knobs import KNOB_BY_NAME
    from repro.tune.runtime import RuntimeConfig

    offenders = _offenders(_AMBIENT_PLAN, skip_tune=False)
    assert not offenders, (
        "a fault plan is an argument of the run, not a knob:\n" + "\n".join(offenders)
    )
    assert "faults" not in KNOB_BY_NAME
    assert "faults" not in {f.name for f in dataclasses.fields(RuntimeConfig)}
    knobs = (Path(repro.__file__).resolve().parent / "tune" / "knobs.py").read_text()
    assert not re.search(r'(KnobSpec\(|^)\s*"faults",', knobs, re.M)


def test_a_chunk_is_its_bundle_bytes():
    """Balanced routing writes ``C`` nodes with ``chunk_node``/``chunk_list``
    and reads them with ``chunk_index``: no chunk record, no encoder for
    one, and ``deserialize`` refuses the tag."""
    offenders = _offenders(_CHUNK_VALUE, skip_tune=False)
    assert not offenders, (
        "a chunk is its bundle bytes, not a value of the codec:\n"
        + "\n".join(offenders)
    )


def test_a_program_sees_a_shape_not_a_machine():
    """No program class under ``repro.algorithms`` or in ``em/runner.py``
    takes or reads a ``MachineConfig``: its hooks get the ``Shape``, and a
    round's ``RoundEnv`` carries the shape, not a machine."""
    import ast
    import importlib
    import inspect

    import repro.core.workers  # noqa: F401  (registers ProcessParEngine)
    from repro.cgm.engine import Engine
    from repro.cgm.program import CGMProgram, RoundEnv

    src_root = Path(repro.__file__).resolve().parent
    files = sorted((src_root / "algorithms").rglob("*.py")) + [src_root / "em" / "runner.py"]
    offenders, programs = [], 0
    for path in files:
        rel = path.relative_to(src_root.parent).with_suffix("")
        module = importlib.import_module(".".join(rel.parts).removesuffix(".__init__"))
        for node in ast.parse(path.read_text()).body:
            cls = getattr(module, getattr(node, "name", ""), None)
            if not (isinstance(node, ast.ClassDef) and isinstance(cls, type)
                    and issubclass(cls, CGMProgram)):
                continue
            programs += 1
            for sub in ast.walk(node):
                named = (
                    (isinstance(sub, ast.Name) and sub.id in ("cfg", "MachineConfig"))
                    or (isinstance(sub, ast.Attribute) and sub.attr == "cfg")
                    or (isinstance(sub, ast.arg) and sub.arg == "cfg")
                )
                if named:
                    offenders.append(f"{path.relative_to(src_root)}:{sub.lineno}: {node.name}")
    assert programs >= 15
    assert not offenders, (
        "a program depends on (N, v, seed) only, so its hooks take the "
        "Shape:\n" + "\n".join(offenders)
    )
    assert "cfg" not in RoundEnv.__slots__ and "shape" in RoundEnv.__slots__
    for hook in (CGMProgram.setup, CGMProgram.max_message_items):
        assert "shape" in inspect.signature(hook).parameters, hook
    attr = "env." + "cfg"
    root = Path(__file__).resolve().parents[2]
    assert not [
        p.name for top in ("src", "tests", "benchmarks", "examples", "scripts")
        for p in sorted((root / top).rglob("*.py")) if attr in p.read_text()
    ]
    # the engines are the one place a machine becomes a shape; Algorithm 2
    # is ParEMEngine at p = 1, so four engine classes remain
    engines = set()
    todo = [Engine]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("repro."):
                engines.add(sub.__name__)
                todo.append(sub)
    assert engines == {"InMemoryEngine", "ParEMEngine", "VMEngine", "ProcessParEngine"}


def test_a_value_decodes_into_its_buffer_only_where_the_engine_owns_it():
    """``decode_owned`` hands the buffer to the value it decodes (its arrays
    are views of it), so it is called only where that buffer is fresh and
    no one else's: a disk engine's context and inbox reads and balanced
    reassembly's per-message word buffer."""
    found = _offenders(_OWNED_DECODE, skip_tune=False)
    callers = {o.split(":")[0] for o in found} - {"util/items.py"}
    assert callers == {"core/par_engine.py", "core/balanced.py"}, (
        "decode_owned is called only by core/par_engine.py and "
        "core/balanced.py:\n" + "\n".join(found)
    )
