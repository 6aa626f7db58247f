"""CLI tests: every subcommand runs, verifies, and reports."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.live import iter_jsonl


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_subcommand_exits_nonzero_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_defaults(self):
        args = build_parser().parse_args(["sort"])
        assert args.v == 8 and args.d == 2 and args.engine is None

    def test_engine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sort", "--engine", "quantum"])

    @pytest.mark.parametrize("cmd", ["delaunay", "cc", "listrank", "machine"])
    @pytest.mark.parametrize(
        "flag",
        [["--trace", "x.jsonl"], ["--metrics", "m.prom"], ["--faults", "p.json"],
         ["--checkpoint", "ck"], ["--resume"], ["--crosscheck"], ["--balanced"],
         ["--workers", "2"]],
    )
    def test_commands_reject_flags_they_never_read(self, cmd, flag, capsys):
        """A command registers only the option groups it reads.  ``machine``
        reads none of these; the graph/geometry commands once accepted and
        ignored them, then rejected them, and now read every one — they are
        ``cmd_run`` with the flag set of sort/permute/transpose."""
        if cmd == "machine":
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--n", "200", *flag])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            return

        def parsed(command):
            args = build_parser().parse_args([command, "--n", "200", *flag])
            own = ("command", "op", "run", "edges")  # its name, run step, cc's extra
            return {k: v for k, v in vars(args).items() if k not in own}

        assert parsed(cmd) == parsed("sort")


class TestCommands:
    def test_sort(self, capsys):
        assert main(["sort", "--n", "4096", "--v", "4", "--b", "64"]) == 0
        out = capsys.readouterr().out
        assert "sorted 4096 items: OK" in out
        assert "parallel I/Os" in out

    def test_sort_balanced(self, capsys):
        assert main(["sort", "--n", "4096", "--v", "4", "--b", "64", "--balanced"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_permute(self, capsys):
        assert main(["permute", "--n", "4096", "--v", "4", "--b", "64"]) == 0
        assert "permuted 4096 items: OK" in capsys.readouterr().out

    def test_transpose(self, capsys):
        assert main(["transpose", "--rows", "32", "--cols", "64", "--v", "4", "--b", "32"]) == 0
        assert "transposed 32x64: OK" in capsys.readouterr().out

    def test_delaunay(self, capsys):
        assert main(["delaunay", "--n", "400", "--v", "4", "--b", "32"]) == 0
        assert "triangles: OK" in capsys.readouterr().out

    def test_cc(self, capsys):
        assert main(["cc", "--n", "200", "--edges", "300", "--v", "4", "--b", "32"]) == 0
        assert "components: OK" in capsys.readouterr().out

    def test_listrank(self, capsys):
        assert main(["listrank", "--n", "500", "--v", "4", "--b", "32"]) == 0
        assert "list ranking of 500 nodes: OK" in capsys.readouterr().out

    def test_listrank_par(self, capsys):
        assert main(["listrank", "--n", "400", "--v", "8", "--p", "2", "--b", "16"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_theory_with_check(self, capsys):
        assert main(["theory", "--v", "100", "--check", "1e7", "100"]) == 0
        out = capsys.readouterr().out
        assert "c=2" in out and "2.000" in out

    def test_machine_reports_constraints(self, capsys):
        assert main(["machine", "--n", "1024", "--v", "32"]) == 0
        out = capsys.readouterr().out
        assert "VIOLATED" in out  # tiny N breaks the paper constraints
        assert "suggested G" in out

    def test_vm_engine(self, capsys):
        assert main(["sort", "--n", "4096", "--v", "4", "--b", "64", "--engine", "vm"]) == 0
        assert "page faults" in capsys.readouterr().out


class TestObservabilityFlags:
    BASE = ["sort", "--n", "4096", "--v", "4", "--b", "64"]

    def test_trace_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(self.BASE + ["--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "trace" in out and str(path) in out
        events = list(iter_jsonl(str(path)))
        kinds = {e["kind"] for e in events}
        assert {"run_begin", "superstep_begin", "compute_round", "run_end"} <= kinds

    def test_trace_chrome(self, tmp_path):
        path = tmp_path / "trace.json"
        assert main(self.BASE + ["--trace", str(path), "--trace-format", "chrome"]) == 0
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert isinstance(doc, list) and doc

    def test_crosscheck_passes_on_sort(self, capsys):
        assert main(self.BASE + ["--crosscheck"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "width histogram" in out

    def test_crosscheck_balanced(self, capsys):
        assert main(self.BASE + ["--balanced", "--crosscheck"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_trace_par_includes_network_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        args = ["sort", "--n", "4096", "--v", "4", "--p", "2", "--b", "64",
                "--trace", str(path)]
        assert main(args) == 0
        kinds = {e["kind"] for e in iter_jsonl(str(path))}
        assert "network_transfer" in kinds
        assert {"superstep_begin", "context_read", "message_write"} <= kinds

    def test_transpose_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        args = ["transpose", "--rows", "32", "--cols", "64", "--v", "4",
                "--b", "32", "--trace", str(path)]
        assert main(args) == 0
        assert list(iter_jsonl(str(path)))

    def test_full_width_report_line(self, capsys):
        assert main(self.BASE) == 0
        assert "full-D parallel" in capsys.readouterr().out

    def test_metrics_prometheus_and_json(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        assert main(self.BASE + ["--metrics", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE repro_parallel_ios_total counter" in text
        assert 'engine="seq-em"' in text
        jpath = tmp_path / "m.json"
        assert main(self.BASE + ["--metrics", str(jpath)]) == 0
        doc = json.loads(jpath.read_text())
        assert doc["repro_runs_total"]["series"][0]["value"] == 1


class TestAnalyzeCommand:
    def _trace(self, tmp_path, extra=()):
        path = tmp_path / "trace.jsonl"
        assert main(["sort", "--n", "4096", "--v", "4", "--b", "64",
                     "--trace", str(path), *extra]) == 0
        return path

    def test_analyze_traced_sort_within_envelope(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-superstep aggregation" in out
        assert "all supersteps within envelope" in out

    def test_analyze_json_output(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["supersteps"]

    def test_analyze_tight_envelope_fails(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        assert main(["analyze", str(path), "--envelope", "1.0001"]) == 1

    def test_analyze_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{ not json\n")
        assert main(["analyze", str(bad)]) == 2

    def test_analyze_critical_path(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["sort", "--n", "8192", "--v", "8", "--p", "2",
                     "--b", "64", "--trace", str(path)]) == 0
        report = capsys.readouterr().out
        total = next(
            ln for ln in report.splitlines() if "parallel I/Os" in ln
        ).split(":")[1].split()[0]
        assert main(["analyze", str(path), "--critical-path", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "comm/comp/I/O attribution" in out
        assert "per-lane totals" in out and "r0" in out and "r1" in out
        assert f"= {total} (IOStats run total)" in out
        assert "top-2 slowest rounds" in out


class TestLiveCommands:
    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(["sort", "--n", "4096", "--v", "4", "--b", "64",
                     "--trace", str(path)]) == 0
        return str(path)

    def test_top_once_renders_final_frame(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["top", path, "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top — sample-sort" in out
        assert "status: finished" in out

    def test_top_requires_exactly_one_source(self, capsys):
        assert main(["top"]) == 2
        assert main(["top", "x.jsonl", "--url", "http://h"]) == 2

    def test_top_reads_a_final_unterminated_line(self, tmp_path, capsys):
        """The last event of a trace cut before its newline is an event:
        ``top --once`` used to drop it and report a finished run as running."""
        path = tmp_path / "cut.jsonl"
        path.write_text(
            json.dumps({"seq": 0, "kind": "run_begin", "engine": "seq-em"}) + "\n"
            + json.dumps({"seq": 1, "kind": "run_end", "parallel_ios": 7})
        )
        assert main(["top", str(path), "--once"]) == 0
        assert "status: finished" in capsys.readouterr().out

    def test_serve_metrics_is_retired(self, capsys):
        """``repro serve`` is the one HTTP surface; the old command is a
        usage error like any unknown one."""
        with pytest.raises(SystemExit) as exc:
            main(["serve-metrics", "--port", "0"])
        assert exc.value.code == 2
        assert "invalid choice: 'serve-metrics'" in capsys.readouterr().err


def test_closed_stdout_is_not_an_error():
    """``repro sort ... | head`` must not end in a BrokenPipeError traceback:
    with the read end of stdout already closed the command exits 0, silently."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "sort", "--n", "4096", "--v", "4",
             "--b", "64"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


class TestBenchCommand:
    def _docs(self, tmp_path, ios=100):
        from repro.obs.bench_store import BenchStore

        store = BenchStore("suite")
        store.record("pt", measured={"parallel_ios": ios})
        return store.write(str(tmp_path))

    def test_compare_identical_ok(self, tmp_path, capsys):
        old = self._docs(tmp_path / "a")
        new = self._docs(tmp_path / "b")
        assert main(["bench", "--compare", old, new]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_perturbed_fails(self, tmp_path, capsys):
        old = self._docs(tmp_path / "a", ios=100)
        new = self._docs(tmp_path / "b", ios=110)
        assert main(["bench", "--compare", old, new]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_io_rtol(self, tmp_path):
        old = self._docs(tmp_path / "a", ios=100)
        new = self._docs(tmp_path / "b", ios=110)
        assert main(["bench", "--compare", old, new, "--io-rtol", "0.2"]) == 0

    def test_compare_invalid_doc_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        good = self._docs(tmp_path)
        assert main(["bench", "--compare", str(bad), good]) == 2

    def test_list_suites(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3_vm_vs_em" in out and "theorem3_scaling" in out

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "no_such_suite"]) == 2


class TestResilienceFlags:
    """--faults / --checkpoint / --resume, and their error exits (rc 3)."""

    BASE = ["sort", "--n", "4096", "--v", "4", "--b", "64"]

    def _plan(self, tmp_path) -> str:
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "seed": 7, "p_transient_read": 0.05, "p_transient_write": 0.05,
            "retry": {"max_retries": 6},
        }))
        return str(path)

    def test_faulted_run_reports_and_completes(self, tmp_path, capsys):
        assert main(self.BASE + ["--faults", self._plan(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "sorted 4096 items: OK" in out
        assert "injected faults" in out and "retries" in out

    def test_fault_metrics_exported(self, tmp_path):
        prom = tmp_path / "m.prom"
        args = self.BASE + ["--faults", self._plan(tmp_path), "--metrics", str(prom)]
        assert main(args) == 0
        text = prom.read_text()
        assert "repro_io_retries_total" in text
        assert "repro_io_faults_total" in text

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ck = str(tmp_path / "ck")
        assert main(self.BASE + ["--checkpoint", ck]) == 0
        first = capsys.readouterr().out
        import os

        assert any(n.startswith("ckpt_") for n in os.listdir(ck))
        assert main(self.BASE + ["--checkpoint", ck, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "parallel I/Os" in resumed
        # identical machine line and cost lines — the resumed report is the
        # checkpointed one
        assert [ln for ln in first.splitlines() if "I/Os" in ln] == [
            ln for ln in resumed.splitlines() if "I/Os" in ln
        ]

    def test_missing_plan_file_exits_3(self, tmp_path, capsys):
        rc = main(self.BASE + ["--faults", str(tmp_path / "nope.json")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_3(self, capsys):
        assert main(self.BASE + ["--resume"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_resume_from_empty_dir_exits_3(self, tmp_path, capsys):
        rc = main(self.BASE + ["--checkpoint", str(tmp_path / "ck"), "--resume"])
        assert rc == 3
        assert "no checkpoint found" in capsys.readouterr().err

    def test_resume_from_corrupt_checkpoint_exits_3(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        assert main(self.BASE + ["--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        newest = sorted(ck.glob("ckpt_*.bin"))[-1]
        blob = newest.read_bytes()
        newest.write_bytes(blob[: len(blob) // 2])  # truncate mid-payload
        assert main(self.BASE + ["--checkpoint", str(ck), "--resume"]) == 3
        assert "truncated" in capsys.readouterr().err

    def test_unsupported_engine_exits_3(self, tmp_path, capsys):
        args = self.BASE + ["--engine", "memory", "--faults", self._plan(tmp_path)]
        assert main(args) == 3
        assert "error:" in capsys.readouterr().err


class TestTuneCommand:
    """repro tune, --profile application, and knob-error exits (rc 2)."""

    TUNE = ["tune", "--n", "2048", "--probe-n", "512", "--reps", "1"]

    def _tuned(self, tmp_path, capsys) -> str:
        path = str(tmp_path / "profile.json")
        assert main(self.TUNE + ["--out", path]) == 0
        capsys.readouterr()
        return path

    def test_tune_writes_valid_profile(self, tmp_path, capsys):
        path = str(tmp_path / "profile.json")
        assert main(self.TUNE + ["--out", path]) == 0
        out = capsys.readouterr().out
        assert "chosen" in out and "apply with" in out
        from repro.tune.profile import validate_profile

        doc = json.loads(open(path).read())
        assert validate_profile(doc) == []
        assert doc["workload"] == {"op": "sort", "n": 2048, "p": 1, "seed": 0}
        assert doc["schema_version"] == 4
        assert "prefetch" not in doc["config"] and "shm_bytes" not in doc["config"]

    def test_schema_2_profile_is_refused_by_flag_and_env(
        self, tmp_path, capsys, monkeypatch
    ):
        """A profile tuned before the ``prefetch`` knob was retired: an
        error naming the version, exit 3 — from ``--profile`` and from
        ``REPRO_PROFILE`` alike."""
        path = self._tuned(tmp_path, capsys)
        doc = json.loads(open(path).read())
        doc["schema_version"] = 2
        doc["config"]["prefetch"] = True
        with open(path, "w") as fh:
            json.dump(doc, fh)
        run = ["sort", "--n", "2048"]
        assert main(run + ["--profile", path]) == 3
        monkeypatch.setenv("REPRO_PROFILE", path)
        assert main(run + ["--v", "4", "--b", "64"]) == 3
        err = capsys.readouterr().err
        assert err.count("error: invalid tuned profile") == 2
        assert err.count("schema_version 2 != supported 4") == 2
        assert "Traceback" not in err

    def test_tune_json_output(self, tmp_path, capsys):
        path = str(tmp_path / "profile.json")
        assert main(self.TUNE + ["--out", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "repro-tuned-profile"

    def test_tune_trace_records_decisions(self, tmp_path, capsys):
        path = str(tmp_path / "profile.json")
        trace = str(tmp_path / "t.jsonl")
        assert main(self.TUNE + ["--out", path, "--trace", trace]) == 0
        kinds = [e.get("kind") for e in iter_jsonl(trace)]
        assert "tune_begin" in kinds and "tune_probe" in kinds
        assert kinds[-1] == "tune_end"

    def test_list_knobs(self, capsys):
        assert main(["tune", "--list-knobs"]) == 0
        out = capsys.readouterr().out
        assert "| Variable |" in out and "`REPRO_ARENA`" in out
        assert "FASTPATH" not in out and "PREFETCH" not in out
        assert "SHM_BYTES" not in out
        assert out.count("`REPRO_") == 8

    def test_profile_fills_machine_args(self, tmp_path, capsys):
        path = self._tuned(tmp_path, capsys)
        doc = json.loads(open(path).read())
        assert main(["sort", "--n", "2048", "--profile", path]) == 0
        out = capsys.readouterr().out
        assert f"v={doc['machine']['v']}" in out
        assert f"D={doc['machine']['D']}" in out
        assert f"B={doc['machine']['B']}" in out

    def test_explicit_flag_beats_profile(self, tmp_path, capsys):
        path = self._tuned(tmp_path, capsys)
        assert main(["sort", "--n", "2048", "--profile", path, "--v", "16"]) == 0
        assert "v=16" in capsys.readouterr().out

    def test_missing_profile_exits_3(self, tmp_path, capsys):
        rc = main(["sort", "--n", "2048", "--profile", str(tmp_path / "no.json")])
        assert rc == 3
        assert "error:" in capsys.readouterr().err

    def test_invalid_profile_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "something-else"}))
        assert main(["sort", "--n", "2048", "--profile", str(bad)]) == 3
        assert "error:" in capsys.readouterr().err


class TestKnobErrors:
    """Malformed REPRO_* values: one-line named diagnostic, exit code 2."""

    BASE = ["sort", "--n", "2048", "--v", "4", "--b", "64"]

    @pytest.mark.parametrize(
        "var,raw",
        [
            ("REPRO_WORKERS", "two"),
            ("REPRO_ARENA", "tape"),
            ("REPRO_TRANSPORT", "pigeon"),
            ("REPRO_SPILL_QUOTA", "lots"),
        ],
    )
    def test_malformed_knob_exits_2_with_named_error(
        self, monkeypatch, capsys, var, raw
    ):
        monkeypatch.setenv(var, raw)
        assert main(self.BASE) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert var in err and raw in err
        assert "Traceback" not in err
        assert err.count("\n") == 1  # exactly one line

    def test_negative_workers_flag_exits_2_with_named_error(self, capsys):
        assert main(self.BASE + ["--workers", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "REPRO_WORKERS" in err
        assert err.count("\n") == 1

    def test_well_formed_knob_still_runs(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SPILL_QUOTA", str(1 << 30))
        monkeypatch.setenv("REPRO_FASTPATH", "sometimes")  # retired: ignored
        monkeypatch.setenv("REPRO_SHM_BYTES", "nonsense")  # retired: ignored
        monkeypatch.setenv("REPRO_PREFETCH", "maybe")  # retired: ignored
        assert main(self.BASE) == 0
        assert "sorted 2048 items: OK" in capsys.readouterr().out


def _spy_on_make_engine(monkeypatch) -> list:
    """Record ``(keyword arguments, resolved RuntimeConfig)`` per engine."""
    from repro.em import runner

    calls = []
    real = runner.make_engine

    def spy(*args, **kwargs):
        eng = real(*args, **kwargs)
        calls.append((kwargs, eng.runtime))
        return eng

    monkeypatch.setattr(runner, "make_engine", spy)
    return calls


def test_arena_flag_goes_through_the_knob_layer(monkeypatch, capsys):
    """``--arena`` / ``--transport`` / ``--nodes`` are the explicit level of
    one ``RuntimeConfig`` resolution, not writes to the environment: the
    CLI is re-entrant.  (It used to ``set_env`` all three, so a flagless
    ``main()`` after this one ran on mmap/memory.)"""
    import os

    from repro.tune.runtime import current

    calls = _spy_on_make_engine(monkeypatch)
    ambient = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    flags = ["--arena", "mmap", "--transport", "memory", "--nodes", "127.0.0.1:1"]
    assert main(["sort", "--n", "2048", "--v", "4", "--b", "64", *flags]) == 0
    assert "sorted 2048 items: OK" in capsys.readouterr().out
    assert {k: v for k, v in os.environ.items() if k.startswith("REPRO_")} == ambient
    assert main(["listrank", "--n", "512", "--v", "4", "--b", "32"]) == 0
    (_, flagged), (_, flagless) = calls
    assert (flagged.arena, flagged.transport, flagged.nodes) == (
        "mmap", "memory", "127.0.0.1:1"
    )
    assert flagless == current()  # ram/memory unless a CI lane's variable says otherwise


class TestBackendFlagsAreArguments:
    """The positive half of re-entrancy: what the flags still reach."""

    SORT = ["sort", "--n", "8192", "--v", "8", "--b", "64", "--p", "2", "--engine", "par"]

    def test_workers_get_the_arena_from_the_shipped_snapshot(
        self, tmp_path, monkeypatch, capsys
    ):
        """Worker processes never inherited the flag through their environ
        alone — the coordinator ships its snapshot — so with the write gone
        they still build mmap arenas, and close them."""
        spill = tmp_path / "spill"
        spill.mkdir()
        monkeypatch.setenv("REPRO_SPILL_DIR", str(spill))
        trace = tmp_path / "t.jsonl"
        argv = self.SORT + ["--workers", "2", "--arena", "mmap", "--trace", str(trace)]
        assert main(argv) == 0
        grows = [e for e in iter_jsonl(str(trace)) if e["kind"] == "arena_grow"]
        assert {e["worker"] for e in grows} == {0, 1}
        assert {e["backend"] for e in grows} == {"mmap"}
        assert list(spill.iterdir()) == []

    @staticmethod
    def _workers_that_ran(trace) -> int:
        (begin,) = [e for e in iter_jsonl(str(trace)) if e["kind"] == "run_begin"]
        return begin["workers"]

    def test_env_beats_the_profiles_worker_count(self, tmp_path, monkeypatch, capsys):
        """A profile's ``config.workers`` is one level of the knob's
        resolution, under ``REPRO_WORKERS``."""
        from repro.tune.profile import TunedProfile

        profile, trace = str(tmp_path / "p.json"), tmp_path / "t.jsonl"
        TunedProfile(
            workload={"op": "sort", "n": 8192, "p": 4, "seed": 0},
            machine={"v": 8, "D": 2, "B": 64},
            config={"workers": 2, "arena": "ram"},
        ).save(profile)
        monkeypatch.setenv("REPRO_WORKERS", "3")
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        argv = ["sort", "--n", "8192", "--p", "4", "--engine", "par",
                "--profile", profile, "--trace", str(trace)]
        assert main(argv) == 0
        assert self._workers_that_ran(trace) == 3

    def test_an_explicit_zero_runs_in_process(self, tmp_path, monkeypatch, capsys):
        """``--workers 0`` is an override like ``--arena``: it beats
        ``REPRO_WORKERS``."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        trace = tmp_path / "t.jsonl"
        assert main(self.SORT + ["--workers", "0", "--trace", str(trace)]) == 0
        assert self._workers_that_ran(trace) == 0

    def test_an_explicit_zero_runs_in_process_under_tcp(
        self, tmp_path, monkeypatch, capsys
    ):
        """The tcp transport sizes a fleet from the node list only when no
        count is named: ``--workers 0`` needs no ``REPRO_NODES``."""
        monkeypatch.setenv("REPRO_TRANSPORT", "tcp")
        monkeypatch.delenv("REPRO_NODES", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        trace = tmp_path / "t.jsonl"
        assert main(self.SORT + ["--workers", "0", "--trace", str(trace)]) == 0
        assert self._workers_that_ran(trace) == 0

    def test_tcp_without_nodes_is_one_line_rc_3(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_NODES", raising=False)
        assert main(self.SORT + ["--transport", "tcp"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "REPRO_NODES" in err and "Traceback" not in err

    def test_malformed_nodes_flag_is_a_named_rc_2(self, capsys):
        assert main(self.SORT + ["--nodes", "localhost:notaport"]) == 2
        err = capsys.readouterr().err
        assert "REPRO_NODES" in err and err.count("\n") == 1

    def test_flag_beats_env_beats_profile(self, tmp_path, monkeypatch, capsys):
        from repro.tune.profile import TunedProfile

        calls = _spy_on_make_engine(monkeypatch)
        profile = str(tmp_path / "p.json")
        TunedProfile(
            workload={"op": "sort", "n": 2048, "p": 1, "seed": 0},
            machine={"v": 4, "D": 2, "B": 64},
            config={"arena": "mmap", "spill_quota": 1 << 30},
        ).save(profile)
        run = ["sort", "--n", "2048", "--profile", profile]
        monkeypatch.delenv("REPRO_ARENA", raising=False)
        monkeypatch.delenv("REPRO_SPILL_QUOTA", raising=False)
        assert main(run) == 0  # the profile alone
        monkeypatch.setenv("REPRO_ARENA", "ram")
        assert main(run) == 0  # the variable over the profile
        assert main(run + ["--arena", "mmap"]) == 0  # the flag over both
        assert [rt.arena for _, rt in calls] == ["mmap", "ram", "mmap"]
        assert [rt.spill_quota for _, rt in calls] == [1 << 30] * 3

    def test_the_env_profile_applies_its_knobs_not_its_machine(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--profile`` runs the profile's machine shape and its knobs;
        ``REPRO_PROFILE`` applies only the knobs (its ``config`` section),
        so the shape stays the defaults' while the trace still carries
        ``tuned_config``."""
        from repro.tune.profile import TunedProfile

        monkeypatch.delenv("REPRO_SPILL_QUOTA", raising=False)
        calls = _spy_on_make_engine(monkeypatch)
        profile, trace = str(tmp_path / "p.json"), str(tmp_path / "t.jsonl")
        TunedProfile(
            workload={"op": "sort", "n": 8192, "p": 1, "seed": 0},
            machine={"v": 4, "D": 2, "B": 512},
            config={"spill_quota": 1 << 30},
        ).save(profile)
        assert main(["sort", "--n", "8192", "--profile", profile]) == 0
        assert "(N=8192, v=4, p=1, D=2, B=512," in capsys.readouterr().out
        monkeypatch.setenv("REPRO_PROFILE", profile)
        assert main(["sort", "--n", "8192", "--trace", trace]) == 0
        assert "(N=8192, v=8, p=1, D=2, B=256," in capsys.readouterr().out
        assert [rt.spill_quota for _, rt in calls] == [1 << 30] * 2
        assert "tuned_config" in [e["kind"] for e in iter_jsonl(trace)]


class TestGraphGeometryCommandsShareTheFrontDoor:
    """``delaunay`` / ``cc`` / ``listrank`` keep their generator and check
    and run through ``cmd_run``: same flags, same option forwarding, same
    report / trace / metrics / crosscheck tail as sort/permute/transpose."""

    RUNS = {
        "listrank": ["listrank", "--n", "512", "--v", "4", "--b", "32"],
        "cc": ["cc", "--n", "200", "--edges", "300", "--v", "4", "--b", "32"],
        "delaunay": ["delaunay", "--n", "300", "--v", "4", "--b", "32"],
    }

    def test_the_six_run_commands_list_one_flag_set(self, capsys):
        import re

        flags = {}
        for cmd in ("sort", "permute", "transpose", *self.RUNS):
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            flags[cmd] = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M))
        assert {"--balanced", "--faults", "--trace", "--metrics", "--arena"} <= flags["sort"]
        assert flags.pop("transpose") - flags["sort"] == {"--rows", "--cols"}
        assert flags.pop("cc") - flags["sort"] == {"--edges"}
        assert all(f == flags["sort"] for f in flags.values())

    @pytest.mark.parametrize("cmd", RUNS)
    def test_profile_knob_section_reaches_make_engine(
        self, cmd, tmp_path, monkeypatch, capsys
    ):
        """``--profile`` used to fill --v/--d/--b and stop there on these
        three: the knob section never got to ``make_engine``."""
        from repro.tune.profile import TunedProfile

        monkeypatch.delenv("REPRO_SPILL_QUOTA", raising=False)
        calls = _spy_on_make_engine(monkeypatch)
        profile, trace = str(tmp_path / "p.json"), str(tmp_path / "t.jsonl")
        TunedProfile(
            workload={"op": "sort", "n": 2048, "p": 1, "seed": 0},
            machine={"v": 4, "D": 2, "B": 32},
            config={"spill_quota": 1 << 30},
        ).save(profile)
        assert main(self.RUNS[cmd] + ["--profile", profile, "--trace", trace]) == 0
        ((options, runtime),) = calls
        assert options["profile"]["config"] == {"spill_quota": 1 << 30}
        assert runtime.spill_quota == 1 << 30
        kinds = [e["kind"] for e in iter_jsonl(trace)]
        assert kinds.index("tuned_config") < kinds.index("run_begin")

    def test_machine_line_is_the_config_that_ran(self, capsys):
        """The wrappers size ``M`` for the stage; the report used to echo
        ``--m`` for a run that never saw it."""
        from repro.cgm.config import MachineConfig

        assert main(["listrank", "--n", "512", "--v", "4", "--b", "16", "--m", "600"]) == 0
        out = capsys.readouterr().out
        assert "M=600" not in out
        assert f"M={MachineConfig(N=512, v=4, D=2, B=16).M}," in out

    def test_balanced_faulted_checkpoint_then_resume(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 7, "p_transient_read": 0.05, "p_transient_write": 0.05,
            "retry": {"max_retries": 6},
        }))
        argv = self.RUNS["listrank"] + [
            "--balanced", "--faults", str(plan), "--checkpoint", str(tmp_path / "ck"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "list ranking of 512 nodes: OK" in first and "injected faults" in first
        assert main(argv + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert [ln for ln in first.splitlines() if "I/Os" in ln] == [
            ln for ln in resumed.splitlines() if "I/Os" in ln
        ]

    def test_output_tail(self, tmp_path, capsys):
        prom = tmp_path / "m.prom"
        argv = self.RUNS["cc"] + ["--balanced", "--crosscheck", "--metrics", str(prom)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "components: OK" in out and "output sha256" in out
        assert "all checks passed" in out
        assert "repro_parallel_ios_total" in prom.read_text()


class TestServeBindErrors:
    """Regression: a busy port must yield one named error line and exit 2,
    not a traceback."""

    @pytest.fixture
    def busy_port(self):
        import socket

        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        try:
            yield sock.getsockname()[1]
        finally:
            sock.close()

    def _assert_one_line_port_error(self, capsys, port):
        err = capsys.readouterr().err
        assert f"port {port} on 127.0.0.1 is already in use" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_serve_port_in_use(self, busy_port, capsys, tmp_path):
        rc = main(["serve", "--port", str(busy_port),
                   "--state-dir", str(tmp_path / "state")])
        assert rc == 2
        self._assert_one_line_port_error(capsys, busy_port)


class TestServeStateFile:
    @pytest.mark.parametrize(
        "text",
        [
            '{"version": 1, "jo',
            '{"version": 1, "jobs": [{}]}',
            '{"version": 1, "jobs": [{"id": "x", "spec": {"op": "sort"}, "attempts": "2x"}]}',
        ],
        ids=["torn", "no_spec", "bad_attempts"],
    )
    def test_serve_torn_queue_state_exits_3(self, capsys, tmp_path, text):
        """A ``queue.json`` cut short by a crash, or holding a job it cannot
        rebuild, is one line naming the file, not a traceback."""
        state = tmp_path / "state"
        state.mkdir()
        (state / "queue.json").write_text(text)
        rc = main(["serve", "--port", "0", "--state-dir", str(state)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "queue state file" in err
        assert str(state / "queue.json") in err and err.count("\n") == 1


class TestSubmitCommand:
    SPEC = {"op": "sort", "n": 4096, "seed": 1,
            "machine": {"v": 8, "D": 2, "B": 64}}

    @pytest.fixture
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    @pytest.fixture
    def served(self, tmp_path):
        from repro.service.server import JobServer, ServiceCore

        core = ServiceCore(state_dir=str(tmp_path / "state"), pool_size=1)
        server = JobServer(core).start()
        try:
            yield server
        finally:
            core.drain(timeout=60)
            server.close()

    @pytest.mark.no_fault_plan
    def test_local_result_documents_match_the_recorded_ones(self, tmp_path, capsys):
        """``submit --local --json`` reproduces, byte for byte, the result
        documents recorded for sort / permute / transpose on seq and par —
        first at PR 14 (before the op table), again at PR 22, whose item
        format moved the counters and none of the six ``output_sha256``
        (``scripts/rerecord_fixtures.py`` refuses to record a changed
        hash).  ``elapsed_s`` and the host-dependent ``fingerprint`` were
        dropped when recording."""
        import os

        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "service", "data", "result_docs_pr22.json")) as fh:
            recorded = json.load(fh)
        assert {entry["spec"]["op"] for entry in recorded.values()} == {
            "sort", "permute", "transpose"
        }
        for name, entry in recorded.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(entry["spec"]))
            assert main(["submit", str(path), "--local", "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            doc.pop("fingerprint")
            doc["result"].pop("fingerprint")
            doc["result"].pop("elapsed_s")
            assert doc == entry["document"], name

    def test_local_run_verifies(self, spec_file, capsys):
        assert main(["submit", spec_file, "--local", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["ok"] is True
        assert doc["cache"] == "local"

    def test_submit_wait_then_cached_duplicate(self, served, spec_file, capsys):
        assert main(["submit", spec_file, "--url", served.url,
                     "--wait", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["state"] == "done" and first["cache"] == "miss"
        assert main(["submit", spec_file, "--url", served.url,
                     "--wait", "--json"]) == 0
        dup = json.loads(capsys.readouterr().out)
        assert dup["cache"] == "hit"
        assert dup["result"] == first["result"]

    def test_submit_wait_follows_the_stream_and_gets_once(
        self, served, tmp_path, capsys, monkeypatch
    ):
        """``--wait`` reads the job's SSE stream to its end frame and then
        asks for the document once; it used to poll every 0.2 s."""
        from repro.service import client

        path = tmp_path / "sort8k.json"
        path.write_text(json.dumps({**self.SPEC, "n": 8192}))
        calls = []
        real = client.request_json

        def spy(method, url, *args, **kwargs):
            calls.append((method, url.split(served.url, 1)[1]))
            return real(method, url, *args, **kwargs)

        monkeypatch.setattr(client, "request_json", spy)
        assert main(["submit", str(path), "--url", served.url,
                     "--wait", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["state"] == "done" and doc["result"]["ok"] is True
        assert calls == [("POST", "/jobs"), ("GET", f"/jobs/{doc['id']}")]

    def test_submit_stream_emits_run_end(self, served, spec_file, capsys):
        assert main(["submit", spec_file, "--url", served.url,
                     "--stream", "--json"]) == 0
        kinds = [json.loads(line).get("kind")
                 for line in capsys.readouterr().out.splitlines()
                 if line.startswith("{")]
        assert "run_end" in kinds

    def test_top_once_reads_the_served_job_stream(self, served, capsys):
        """``top --url`` takes the job's SSE URL as given and renders the
        finished run from the replayed buffer."""
        from repro.service.client import submit_job, wait_job

        _, _, doc = submit_job(served.url, self.SPEC)
        final = wait_job(served.url, doc["id"], timeout_s=60)
        supersteps = final["result"]["counters"]["supersteps"]
        url = f"{served.url}/jobs/{doc['id']}/events"
        assert main(["top", "--once", "--url", url]) == 0
        out = capsys.readouterr().out
        assert "repro top — sample-sort" in out
        assert f"supersteps: {supersteps} " in out
        assert "status: finished" in out

    def test_missing_spec_file_exits_2(self, capsys):
        assert main(["submit", "/nonexistent/spec.json"]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_non_json_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert main(["submit", str(path)]) == 2
        assert "spec is not JSON" in capsys.readouterr().err

    def test_unreachable_server_exits_3(self, spec_file, capsys):
        assert main(["submit", spec_file,
                     "--url", "http://127.0.0.1:9", "--timeout", "2"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_server_that_never_answers_exits_3_in_one_line(
        self, spec_file, capsys
    ):
        """A timeout while reading the answer is a transport failure like
        a refused connection: one ``cannot reach`` line and rc 3, for the
        POST itself, a stream that stalls and ``top --url``."""
        import socket
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        stalled = threading.Event()

        class AdmitsThenStalls(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_POST(self):  # noqa: N802
                self.rfile.read(int(self.headers["Content-Length"]))
                body = b'{"id": "j00001", "state": "queued"}'
                self.send_response(202)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):  # noqa: N802
                if self.path.startswith("/drop"):
                    self.close_connection = True  # no answer at all
                else:
                    stalled.wait(10)

            def log_message(self, *args):
                pass

        httpd = ThreadingHTTPServer(("127.0.0.1", 0), AdmitsThenStalls)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        stalls = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            with socket.socket() as mute:  # accepts, never reads or answers
                mute.bind(("127.0.0.1", 0))
                mute.listen(4)
                silent = f"http://127.0.0.1:{mute.getsockname()[1]}"
                for url, flag in ((silent, "--wait"), (stalls, "--wait"),
                                  (stalls, "--stream")):
                    assert main(["submit", spec_file, "--url", url,
                                 "--timeout", "0.5", flag]) == 3, (url, flag)
                    err = capsys.readouterr().err
                    assert err.startswith(f"error: cannot reach {url}/jobs")
                    assert err.count("\n") == 1 and "timed out" in err
                assert main(["top", "--once", "--url", f"{stalls}/drop"]) == 3
                err = capsys.readouterr().err
                assert err.startswith(f"error: cannot reach {stalls}/drop: ")
                assert err.count("\n") == 1
        finally:
            stalled.set()
            httpd.shutdown()
            httpd.server_close()

    def test_retired_prefetch_knob_in_a_spec_is_refused(
        self, served, tmp_path, capsys
    ):
        """One line, no traceback: exit 3 locally (an invalid spec is a
        ``ConfigurationError``), exit 2 when the server answers 400."""
        path = tmp_path / "old_spec.json"
        path.write_text(json.dumps({**self.SPEC, "config": {"prefetch": "0"}}))
        assert main(["submit", str(path), "--local"]) == 3
        assert main(["submit", str(path), "--url", served.url]) == 2
        local, remote = capsys.readouterr().err.splitlines()
        assert local.startswith("error: invalid job spec: ")
        assert remote.startswith("error: server refused the job (400): ")
        for line in (local, remote):
            assert "config.prefetch is not a settable knob" in line

    def test_rejected_spec_exits_2_with_server_error(self, served, tmp_path, capsys):
        path = tmp_path / "bad_spec.json"
        path.write_text(json.dumps({"op": "merge", "n": 0}))
        assert main(["submit", str(path), "--url", served.url]) == 2
        err = capsys.readouterr().err
        assert "server refused the job (400)" in err
