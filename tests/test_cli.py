"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_no_command_parses_to_none(self):
        assert build_parser().parse_args([]).command is None

    def test_no_command_prints_help_and_exits_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage: repro" in err
        assert "endoflife" in err  # full help, not just the usage line

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        from repro import __version__

        assert __version__ in capsys.readouterr().out

    def test_version_text_is_prog_and_version(self, capsys):
        from repro.cli import _package_version

        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out == f"repro {_package_version()}\n"

    def test_parser_does_not_look_the_version_up(self, monkeypatch):
        import repro.cli as cli

        calls = []
        monkeypatch.setattr(cli, "_package_version", lambda: calls.append(1) or "x")
        build_parser().parse_args(["config"])
        assert calls == []
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert calls == [1]

    def test_stats_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.workload == 1
        assert args.interval == 50_000
        assert "Re-NUCA" in args.schemes
        assert args.trace_out is None and args.profile is False

    def test_telemetry_flags_on_compare(self):
        args = build_parser().parse_args(
            ["compare", "--trace-out", "t.jsonl", "--profile"]
        )
        assert args.trace_out == "t.jsonl"
        assert args.profile is True

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.workload == 1
        assert "Re-NUCA" in args.schemes

    def test_endoflife_defaults(self):
        args = build_parser().parse_args(["endoflife"])
        assert args.workload == 1
        assert args.ages == (0.5, 0.9, 1.1)
        assert args.fail_bank == []
        assert args.transient_rate == 0.0

    def test_endoflife_ages_parsed(self):
        args = build_parser().parse_args(["endoflife", "--ages", "0.25,0.75"])
        assert args.ages == (0.25, 0.75)

    def test_endoflife_bad_ages_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["endoflife", "--ages", "young"])

    def test_endoflife_fail_bank_parsed(self):
        args = build_parser().parse_args(
            ["endoflife", "--fail-bank", "3", "--fail-bank", "7:0.9"]
        )
        assert args.fail_bank == [(3, 0.0), (7, 0.9)]

    def test_endoflife_bad_fail_bank_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["endoflife", "--fail-bank", "three"])


class TestCommands:
    def test_config(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "16 cores" in out
        assert "32MB total" in out

    def test_workloads(self, capsys):
        assert main(["workloads", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "WL1:" in out and "WL10:" in out
        assert "high" in out

    def test_table2_subset(self, capsys):
        assert main(["table2", "namd", "--instructions", "15000"]) == 0
        out = capsys.readouterr().out
        assert "namd" in out and "WPKI" in out

    def test_compare_small(self, capsys):
        code = main([
            "compare", "--schemes", "S-NUCA", "Private",
            "--instructions", "10000", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "S-NUCA" in out and "Private" in out
        assert "min life" in out

    def test_compare_bad_workload(self, capsys):
        assert main(["compare", "--workload", "99"]) == 2

    def test_trace_generation(self, tmp_path, capsys):
        out_file = tmp_path / "t.npz"
        code = main(["trace", "milc", str(out_file), "--instructions", "5000"])
        assert code == 0
        from repro.trace.fileio import load_trace

        trace, meta = load_trace(out_file)
        assert len(trace) > 0
        assert meta["extra"]["app"] == "milc"

    def test_stats_small(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            "stats", "--schemes", "R-NUCA", "Re-NUCA",
            "--instructions", "8000", "--seed", "2",
            "--interval", "20000", "--trace-out", str(trace),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-interval per-bank LLC writes" in out
        assert "bank0" in out and "bank15" in out  # heatmap rows
        assert "per-bank write CoV" in out
        from repro.telemetry import load_events

        events = load_events(trace)
        assert events
        assert {e.fields["scheme"] for e in events} == {"R-NUCA", "Re-NUCA"}

    def test_compare_trace_and_profile(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        code = main([
            "compare", "--schemes", "S-NUCA", "--instructions", "6000",
            "--trace-out", str(trace), "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "events to" in out
        assert "measure" in out and "stage1" in out  # phase wall-time table
        from repro.telemetry import load_events

        assert all(e.fields["scheme"] == "S-NUCA" for e in load_events(trace))

    def test_profile_sweep_stays_on_kernel(self, tmp_path, capsys):
        sweep = ["sweep", "--workloads", "1", "--schemes", "S-NUCA",
                 "Re-NUCA", "--instructions", "5000", "--seed", "1"]
        assert main(sweep + ["--out", str(tmp_path / "plain.json")]) == 0
        capsys.readouterr()
        assert main(sweep + ["--profile", "--ledger", str(tmp_path / "l.jsonl"),
                             "--out", str(tmp_path / "profiled.json")]) == 0
        out = capsys.readouterr().out
        assert "jobs.replay.kernel = 2" in out
        assert "phase wall time" in out and "warm-up" in out
        assert ((tmp_path / "profiled.json").read_bytes()
                == (tmp_path / "plain.json").read_bytes())
        from repro.obs.ledger import RunLedger

        records = RunLedger(tmp_path / "l.jsonl").load()
        assert [sorted(r.profile) for r in records] == [
            ["measure", "reduce", "stage1", "warm-up"]
        ] * 2

    def test_endoflife_small(self, capsys):
        code = main([
            "endoflife", "--ages", "1.1", "--schemes", "S-NUCA",
            "--instructions", "5000", "--seed", "2",
            "--fail-bank", "3",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "S-NUCA" in captured.out
        assert "capacity" in captured.out
        assert "IPC retention" in captured.out
        assert "running S-NUCA" in captured.err  # progress narration


class TestErrorReporting:
    """ReproError subclasses become `error: ...` + exit 2, not tracebacks."""

    def test_unknown_app(self, tmp_path, capsys):
        code = main(["trace", "no-such-app", str(tmp_path / "x.npz")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no-such-app" in err

    def test_unknown_scheme(self, capsys):
        code = main([
            "compare", "--schemes", "no-such-scheme", "--instructions", "5000",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no-such-scheme" in err

    def test_unknown_app_in_table2(self, capsys):
        code = main(["table2", "no-such-app"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_endoflife_bad_workload(self, capsys):
        code = main(["endoflife", "--workload", "99", "--ages", "0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "workload" in err


class TestObservabilityCommands:
    """repro diff / report / bench-record and the --ledger/--progress flags."""

    def _sweep(self, tmp_path, out_name="matrix.json", extra=()):
        out = tmp_path / out_name
        ledger = tmp_path / "ledger.jsonl"
        code = main([
            "sweep", "--workloads", "1", "--schemes", "S-NUCA", "Re-NUCA",
            "--instructions", "6000", "--seed", "1",
            "--ledger", str(ledger), "--out", str(out), *extra,
        ])
        assert code == 0
        return out, ledger

    def test_diff_unchanged_rerun_exits_zero(self, tmp_path, capsys):
        base, _ = self._sweep(tmp_path, "base.json")
        cur, _ = self._sweep(tmp_path, "cur.json")
        assert main(["diff", str(base), str(cur)]) == 0
        assert "all within tolerance" in capsys.readouterr().out

    def test_diff_drift_exits_one(self, tmp_path, capsys):
        import json

        base, _ = self._sweep(tmp_path, "base.json")
        drifted = json.loads(base.read_text())
        for cell in drifted["results"]:
            cell["per_core_ipc"] = [v * 1.2 for v in cell["per_core_ipc"]]
        cur = tmp_path / "drifted.json"
        cur.write_text(json.dumps(drifted))
        assert main(["diff", str(base), str(cur)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "violation" in out

    def test_diff_missing_file_exits_two(self, tmp_path, capsys):
        base, _ = self._sweep(tmp_path)
        assert main(["diff", str(base), str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_diff_against_ledger(self, tmp_path, capsys):
        base, ledger = self._sweep(tmp_path)
        assert main(["diff", str(base), str(ledger)]) == 0

    def test_report_self_contained_html(self, tmp_path, capsys):
        matrix, ledger = self._sweep(tmp_path)
        html = tmp_path / "report.html"
        code = main([
            "report", "--matrix", str(matrix), "--ledger", str(ledger),
            "--html", str(html), "--title", "smoke",
        ])
        assert code == 0
        text = html.read_text()
        assert text.lstrip().startswith("<!DOCTYPE html>")
        assert "<svg" in text and "smoke" in text
        for banned in ("http://", "https://", "<script", "<link"):
            assert banned not in text

    def test_bench_record_appends_points(self, tmp_path, capsys):
        matrix, ledger = self._sweep(tmp_path)
        out = tmp_path / "BENCH_sweep.json"
        for expected in (1, 2):
            code = main([
                "bench-record", "--matrix", str(matrix),
                "--ledger", str(ledger), "--out", str(out),
            ])
            assert code == 0
        from repro.obs.bench import load_bench_trajectory

        points = load_bench_trajectory(out)
        assert len(points) == 2
        assert "S-NUCA" in points[0]["schemes"]

    def test_sweep_progress_live_line(self, tmp_path, capsys):
        self._sweep(tmp_path, extra=("--progress",))
        err = capsys.readouterr().err
        assert "2/2 cells" in err
        assert "running" not in err.rsplit("\r", 1)[-1]  # final line settled

    def test_stats_registry_only_without_intervals(self, tmp_path, capsys):
        ledger = tmp_path / "ledger.jsonl"
        code = main([
            "stats", "--schemes", "Re-NUCA", "--instructions", "6000",
            "--seed", "2", "--interval", "0", "--ledger", str(ledger),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "registry-only view" in out
        assert "per-interval per-bank LLC writes" not in out
        from repro.obs.ledger import RunLedger

        records = RunLedger(ledger).load()
        assert len(records) == 1 and records[0].scheme == "Re-NUCA"


class TestSweepTraceLabels:
    """``--trace-out`` events carry their cell at any ``-j``."""

    @staticmethod
    def _counts(tmp_path, extra):
        from collections import Counter

        from repro.telemetry import load_events

        trace = tmp_path / f"trace{'-'.join(extra)}.jsonl"
        assert main([
            "sweep", "--workloads", "1", "--schemes", "S-NUCA", "Re-NUCA",
            "--instructions", "3000", "--seed", "1",
            "--trace-out", str(trace), *extra,
        ]) == 0
        events = load_events(trace)
        assert all(
            "workload" in e.fields and "scheme" in e.fields for e in events
        )
        return Counter(
            (e.fields["workload"], e.fields["scheme"], e.kind) for e in events
        )

    def test_serial_and_parallel_traces_agree(self, tmp_path, capsys):
        serial = self._counts(tmp_path, ())
        assert {scheme for _wl, scheme, _kind in serial} == {
            "S-NUCA", "Re-NUCA",
        }
        assert serial == self._counts(tmp_path, ("-j", "2"))


class TestSweepReplayPath:
    """A plain ``repro sweep`` runs its cells on the replay kernel."""

    CELL = ("sweep", "--workloads", "1", "--schemes", "S-NUCA",
            "--instructions", "2000", "--seed", "1")

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """stdout and ``--out`` bytes of serial, ``-j 2`` and REPRO_KERNEL=0."""
        import contextlib
        import io

        root = tmp_path_factory.mktemp("replay-path")
        outputs = {}
        for name, extra, env in (
            ("serial", (), "1"),
            ("parallel", ("-j", "2"), "1"),
            ("reference", (), "0"),
        ):
            out = root / f"{name}.json"
            stdout = io.StringIO()
            with pytest.MonkeyPatch.context() as mp, \
                    contextlib.redirect_stdout(stdout):
                mp.setenv("REPRO_KERNEL", env)
                assert main([*self.CELL, *extra, "--out", str(out)]) == 0
            outputs[name] = (stdout.getvalue(), out.read_bytes())
        return outputs

    @staticmethod
    def _accounting(stdout, prefix):
        return [
            line.strip() for line in stdout.splitlines()
            if line.strip().startswith(prefix)
        ]

    @pytest.mark.parametrize("name", ["serial", "parallel"])
    def test_cell_takes_the_kernel(self, runs, name):
        stdout, _ = runs[name]
        assert "jobs.replay.kernel = 1" in self._accounting(stdout, "jobs.replay")
        assert self._accounting(stdout, "jobs.replay.reference") == []

    def test_env_override_is_counted_as_reference(self, runs):
        stdout, _ = runs["reference"]
        assert self._accounting(stdout, "jobs.replay") == [
            "jobs.replay.kernel = 0", "jobs.replay.reference.env = 1",
        ]

    def test_stage1_accounting_unchanged(self, runs):
        stage1 = {
            name: self._accounting(stdout, "jobs.stage1")
            for name, (stdout, _) in runs.items()
        }
        assert stage1["serial"] == [
            "jobs.stage1.entries = 11", "jobs.stage1.evictions = 0",
            "jobs.stage1.hits = 5", "jobs.stage1.misses = 11",
        ]
        assert stage1["parallel"] == stage1["serial"] == stage1["reference"]

    def test_matrix_byte_identical_to_reference_path(self, runs):
        assert runs["serial"][1] == runs["reference"][1]
        assert runs["parallel"][1] == runs["reference"][1]

    def test_smoke_baseline_reproduces_bit_identically(self, tmp_path):
        import json
        from pathlib import Path

        baseline = Path(__file__).resolve().parents[1] / "baselines" / "smoke.json"
        out = tmp_path / "smoke.json"
        code = main([
            "sweep", "--workloads", "1", "--schemes", "S-NUCA", "Re-NUCA",
            "--instructions", "6000", "--seed", "1", "--label", "ci-smoke",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text()) == json.loads(baseline.read_text())
