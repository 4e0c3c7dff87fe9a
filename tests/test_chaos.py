"""The resilience layer: chaos injection, recovery, quarantine, cancel.

These tests drive :func:`repro.jobs.scheduler.run_jobs` through *real*
failures — a worker that dies with SIGKILL, one that hangs past its
watchdog deadline, a poison cell that fails every attempt — and assert
the engine's contract: every non-poisoned cell still resolves
field-for-field identical to a serial run, poison cells land in the
quarantine journal instead of taking the sweep down, and an interrupted
or crashed sweep leaves a usable ``resume`` journal behind.
"""

import signal as signal_module

import numpy as np
import pytest

from repro.common.errors import ReproError, SweepCancelled
from repro.config import baseline_config, scaled_config
from repro.jobs.cache import ResultCache
from repro.jobs.chaos import ChaosError, ChaosPlan, ChaosRule, as_chaos
from repro.jobs.journal import (
    QUARANTINE_KINDS,
    QuarantineJournal,
    SweepJournal,
)
from repro.jobs.scheduler import GracefulCancel, matrix_jobs, run_jobs
from repro.jobs.spec import JobSpec
from repro.sim.metrics import MatrixResult, WorkloadSchemeResult
from repro.sim.store import result_from_dict, result_to_dict
from repro.telemetry import Telemetry
from repro.trace.workloads import Workload

INSTR = 6_000

CONFIG = scaled_config(baseline_config(), cores=4)

GRID_WORKLOADS = [
    Workload("mixA", ("hmmer", "namd", "povray", "dealII")),
    Workload("mixB", ("hmmer", "sjeng", "gromacs", "namd")),
    Workload("mixC", ("soplex", "sphinx3", "povray", "hmmer")),
]
GRID_SCHEMES = ("S-NUCA", "R-NUCA", "Re-NUCA")


@pytest.fixture(scope="module")
def flat_cpi():
    """Skip the expensive calibration probes; preserves determinism."""
    mp = pytest.MonkeyPatch()
    mp.setattr(
        "repro.sim.runner.calibrated_base_cpi",
        lambda app, config, seed=None: 1.0,
    )
    yield
    mp.undo()


def grid_jobs(seed=7):
    return matrix_jobs(
        GRID_WORKLOADS, GRID_SCHEMES, CONFIG, seed=seed, n_instructions=INSTR
    )


def canned_result(workload="mixA", scheme="S-NUCA", *, n=4):
    return WorkloadSchemeResult(
        workload=workload,
        scheme=scheme,
        apps=("hmmer",) * n,
        per_core_ipc=np.full(n, 1.0),
        per_core_instructions=np.full(n, 1000, dtype=np.int64),
        per_core_cycles=np.full(n, 1000.0),
        bank_writes=np.arange(n, dtype=np.int64) + 1,
        bank_lifetimes=np.asarray([5.0] * n),
        elapsed_cycles=1000.0,
        llc_fetch_hit_rate=0.5,
        llc_mean_fetch_latency=100.0,
        noc_mean_hops=2.0,
    )


def spec_for(workload=None, scheme="S-NUCA", *, seed=7):
    return JobSpec.for_run(
        workload or GRID_WORKLOADS[0], scheme, CONFIG,
        seed=seed, n_instructions=INSTR,
    )


@pytest.fixture
def fake_runner(monkeypatch):
    """Replace the scheduler's run_workload with an instant canned stub.

    Serial-engine tests that exercise control flow (retries, quarantine,
    cancellation, ledger flushing) do not need real simulations.
    """
    calls = []

    def fake(workload, scheme, config, **kwargs):
        calls.append((workload.name, scheme))
        return canned_result(workload.name, scheme)

    monkeypatch.setattr("repro.jobs.scheduler.run_workload", fake)
    return calls


# -- chaos plan parsing and matching -----------------------------------------


class TestChaosPlan:
    def test_parse_single_rule(self):
        plan = ChaosPlan.parse("mixA/S-NUCA@0=kill")
        assert plan.rules == (
            ChaosRule("mixA/S-NUCA", "kill", attempts=(0,)),
        )

    def test_parse_multiple_rules_with_values(self):
        plan = ChaosPlan.parse(
            "mix*/Re-NUCA@0,1=raise; mixB/S-NUCA@*=hang:30"
        )
        assert len(plan.rules) == 2
        assert plan.rules[0].attempts == (0, 1)
        assert plan.rules[1].attempts is None
        assert plan.rules[1].value == 30.0

    @pytest.mark.parametrize("bad", [
        "", "mixA/S-NUCA", "mixA/S-NUCA@0", "@0=kill",
        "mixA/S-NUCA@x=kill", "mixA/S-NUCA@-1=kill",
        "mixA/S-NUCA@0=explode", "mixA/S-NUCA@0=hang:soon",
    ])
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ReproError):
            ChaosPlan.parse(bad)

    def test_glob_and_attempt_matching(self):
        plan = ChaosPlan.parse("mix*/Re-NUCA@0=raise")
        assert plan.rule_for("mixA/Re-NUCA", 0) is not None
        assert plan.rule_for("mixA/Re-NUCA", 1) is None
        assert plan.rule_for("mixA/S-NUCA", 0) is None
        assert plan.rule_for("other/Re-NUCA", 0) is None

    def test_first_matching_rule_wins(self):
        plan = ChaosPlan.parse("mixA/*@*=raise;mixA/S-NUCA@*=kill")
        assert plan.rule_for("mixA/S-NUCA", 0).action == "raise"

    def test_apply_raise_is_transient_not_reproerror(self):
        plan = ChaosPlan.parse("mixA/S-NUCA@*=raise")
        with pytest.raises(ChaosError) as excinfo:
            plan.apply("mixA/S-NUCA", 0)
        assert not isinstance(excinfo.value, ReproError)
        plan.apply("mixB/S-NUCA", 0)  # no match: no-op

    def test_corrupt_is_a_worker_side_noop(self):
        ChaosPlan.parse("mixA/S-NUCA@*=corrupt").apply("mixA/S-NUCA", 0)

    def test_as_chaos_coercion(self):
        assert as_chaos(None) is None
        plan = ChaosPlan.parse("a/b@*=raise")
        assert as_chaos(plan) is plan
        assert as_chaos("a/b@*=raise") == plan

    def test_unknown_action_rejected_at_construction(self):
        with pytest.raises(ReproError):
            ChaosRule("x", "explode")


# -- deterministic retry backoff ---------------------------------------------


class TestRetryBackoff:
    def test_delay_is_deterministic(self):
        a = spec_for().retry_delay_s(1, base_s=0.25)
        b = spec_for().retry_delay_s(1, base_s=0.25)
        assert a == b

    def test_delay_grows_exponentially_within_jitter_band(self):
        spec = spec_for()
        for attempt in range(4):
            delay = spec.retry_delay_s(attempt, base_s=1.0)
            assert 0.5 * 2 ** attempt <= delay < 2 ** attempt

    def test_different_jobs_desynchronise(self):
        delays = {
            spec_for(scheme=scheme).retry_delay_s(0, base_s=1.0)
            for scheme in GRID_SCHEMES
        }
        assert len(delays) == len(GRID_SCHEMES)

    def test_zero_base_means_no_sleep(self):
        assert spec_for().retry_delay_s(3, base_s=0.0) == 0.0


# -- quarantine journal ------------------------------------------------------


class TestQuarantineJournal:
    def test_record_round_trip(self, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        spec = spec_for()
        with QuarantineJournal(path) as quarantine:
            quarantine.record(
                spec, kind="timeout", reason="exceeded 5.0s", attempts=2,
            )
        records = QuarantineJournal(path).load()
        assert len(records) == 1
        record = records[0]
        assert record["kind"] == "timeout"
        assert record["attempts"] == 2
        assert record["fingerprint"] == spec.fingerprint()
        assert JobSpec.from_dict(record["spec"]) == spec

    def test_appends_across_runs(self, tmp_path):
        path = tmp_path / "q.jsonl"
        for attempts in (1, 2):
            with QuarantineJournal(path) as quarantine:
                quarantine.record(
                    spec_for(scheme=GRID_SCHEMES[attempts - 1]),
                    kind="error", reason="x", attempts=attempts,
                )
        assert [r["attempts"] for r in QuarantineJournal(path).load()] == [1, 2]

    def test_missing_file_is_empty(self, tmp_path):
        assert QuarantineJournal(tmp_path / "absent.jsonl").load() == []

    def test_unknown_kind_rejected(self, tmp_path):
        with QuarantineJournal(tmp_path / "q.jsonl") as quarantine:
            with pytest.raises(ReproError):
                quarantine.record(
                    spec_for(), kind="mystery", reason="x", attempts=1,
                )


# -- FAILED placeholder cells ------------------------------------------------


class TestFailedCells:
    def placeholder(self):
        return WorkloadSchemeResult.failed_cell(
            workload="mixA", scheme="Re-NUCA",
            apps=("hmmer",) * 4, n_banks=8,
            reason="timeout: exceeded 5.0s", age_fraction=0.9,
        )

    def test_placeholder_is_zeroed_and_flagged(self):
        cell = self.placeholder()
        assert cell.failed
        assert cell.failure_reason.startswith("timeout:")
        assert cell.ipc == 0.0
        assert cell.min_lifetime == 0.0
        assert cell.wear_cov == 0.0
        assert cell.age_fraction == 0.9

    def test_store_round_trip_preserves_failure(self):
        cell = self.placeholder()
        payload = result_to_dict(cell)
        assert payload["failed"] is True
        loaded = result_from_dict(payload)
        assert loaded.failed and loaded.failure_reason == cell.failure_reason

    def test_healthy_results_omit_failure_keys(self):
        payload = result_to_dict(canned_result())
        assert "failed" not in payload and "failure_reason" not in payload
        assert result_from_dict(payload).failed is False

    def matrix_with_failure(self):
        matrix = MatrixResult(
            label="t", schemes=("S-NUCA", "Re-NUCA"), workloads=("mixA",),
        )
        matrix.add(canned_result("mixA", "S-NUCA"))
        matrix.add(self.placeholder())
        return matrix

    def test_matrix_failed_cells_property(self):
        matrix = self.matrix_with_failure()
        assert [r.scheme for r in matrix.failed_cells] == ["Re-NUCA"]

    def test_diff_excludes_failed_cells(self):
        from repro.obs.diff import matrix_metric_map

        cells = matrix_metric_map(self.matrix_with_failure())
        assert ("mixA", "S-NUCA") in cells
        assert ("mixA", "Re-NUCA") not in cells

    def test_html_report_renders_failed_cells(self):
        from repro.obs.html_report import render_html_report

        html = render_html_report(self.matrix_with_failure(), title="chaos")
        assert "FAILED" in html
        assert "timeout: exceeded 5.0s" in html

    def test_progress_counts_failed_toward_completion(self):
        from repro.obs.progress import JobEvent, SweepProgress

        class Sink:
            def write(self, _text):
                pass

            def flush(self):
                pass

        progress = SweepProgress(total=2, stream=Sink())
        progress(JobEvent("dispatch", "mixA/S-NUCA", 0))
        progress(JobEvent("timeout", "mixA/S-NUCA", 0))
        progress(JobEvent("requeue", "mixA/S-NUCA", 0))
        progress(JobEvent("failed", "mixA/S-NUCA", 0))
        progress(JobEvent("dispatch", "mixA/Re-NUCA", 1))
        progress(JobEvent("done", "mixA/Re-NUCA", 1, wall_time_s=0.1))
        assert progress.completed == 2
        line = progress.status_line()
        assert "1 FAILED" in line and "1 timed out" in line


# -- engine argument validation ----------------------------------------------


class TestResilienceValidation:
    @pytest.mark.parametrize("kwargs", [
        {"job_timeout_s": 0.0},
        {"job_timeout_s": -1.0},
        {"backoff_s": -0.1},
        {"max_pool_rebuilds": 0},
    ])
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ReproError):
            run_jobs(grid_jobs()[:1], **kwargs)

    def test_quarantine_kinds_cover_poison_paths(self):
        assert set(QUARANTINE_KINDS) == {"error", "crash", "timeout"}


# -- serial engine resilience (canned runner) --------------------------------


class TestSerialResilience:
    def test_keep_going_quarantines_exhausted_retries(
        self, fake_runner, tmp_path
    ):
        jobs = grid_jobs()[:3]  # mixA under all three schemes
        quarantine = tmp_path / "q.jsonl"
        journal = tmp_path / "journal.jsonl"
        telemetry = Telemetry()
        results, report = run_jobs(
            jobs,
            chaos="mixA/R-NUCA@*=raise",
            retries=1, backoff_s=0.0,
            keep_going=True, quarantine=quarantine, journal=journal,
            telemetry=telemetry,
        )
        assert report.failed == 1 and report.executed == 2
        assert results[1].failed
        assert results[1].failure_reason.startswith("error:")
        assert not results[0].failed and not results[2].failed
        records = QuarantineJournal(quarantine).load()
        assert [r["kind"] for r in records] == ["error"]
        assert records[0]["label"] == "mixA/R-NUCA"
        assert records[0]["attempts"] == 2
        # The poisoned cell is NOT journaled as complete...
        assert len(SweepJournal(journal).load()) == 2
        snap = telemetry.registry.snapshot()
        assert snap["jobs.recovery.quarantined"] == 1
        # ...so a later resume retries it (chaos off: it heals).
        results2, report2 = run_jobs(
            jobs, journal=journal, resume=True,
        )
        assert report2.resumed == 2 and report2.executed == 1
        assert not any(r.failed for r in results2)

    def test_without_keep_going_poison_aborts_with_hint(
        self, fake_runner, tmp_path
    ):
        with pytest.raises(ReproError) as excinfo:
            run_jobs(
                grid_jobs()[:2],
                chaos="mixA/R-NUCA@*=raise", retries=0, backoff_s=0.0,
            )
        message = str(excinfo.value)
        assert "failed after 1 attempt(s)" in message
        assert "keep-going" in message

    def test_deterministic_failures_quarantine_without_retry(
        self, monkeypatch, tmp_path
    ):
        def broken(workload, scheme, config, **kwargs):
            if scheme == "R-NUCA":
                raise ReproError("bad configuration for this cell")
            return canned_result(workload.name, scheme)

        monkeypatch.setattr("repro.jobs.scheduler.run_workload", broken)
        quarantine = tmp_path / "q.jsonl"
        results, report = run_jobs(
            grid_jobs()[:3],
            retries=3, backoff_s=0.0,
            keep_going=True, quarantine=quarantine,
        )
        assert report.failed == 1 and report.retries == 0
        records = QuarantineJournal(quarantine).load()
        assert records[0]["kind"] == "error"
        assert records[0]["attempts"] == 1  # never retried

    def test_retry_kind_telemetry_breakdown(self, monkeypatch):
        failures = iter([OSError("disk hiccup")])

        def flaky(workload, scheme, config, **kwargs):
            try:
                raise next(failures)
            except StopIteration:
                return canned_result(workload.name, scheme)

        monkeypatch.setattr("repro.jobs.scheduler.run_workload", flaky)
        telemetry = Telemetry()
        _, report = run_jobs(
            grid_jobs()[:1], retries=1, backoff_s=0.0, telemetry=telemetry,
        )
        assert report.retries == 1
        snap = telemetry.registry.snapshot()
        assert snap["jobs.retried"] == 1
        assert snap["jobs.retry.oserror"] == 1

    def test_ledger_flushed_for_completed_cells_on_abort(
        self, monkeypatch, tmp_path
    ):
        def dies_second(workload, scheme, config, **kwargs):
            if scheme == "R-NUCA":
                raise ReproError("deterministic failure")
            return canned_result(workload.name, scheme)

        monkeypatch.setattr("repro.jobs.scheduler.run_workload", dies_second)
        from repro.obs.ledger import RunLedger

        jobs = grid_jobs()[:3]
        ledger = tmp_path / "ledger.jsonl"
        with pytest.raises(ReproError, match="deterministic failure"):
            run_jobs(jobs, ledger=ledger, backoff_s=0.0)
        records = RunLedger(ledger).load()
        assert [r.source for r in records] == ["executed"]
        assert records[0].fingerprint == jobs[0].spec.fingerprint()

    def test_chaos_corrupt_mangles_cache_entry(self, fake_runner, tmp_path):
        jobs = grid_jobs()[:2]
        cache = ResultCache(tmp_path / "cache")
        run_jobs(jobs, cache=cache, chaos="mixA/S-NUCA@0=corrupt")
        assert cache.get(jobs[0].spec) is None      # corrupted => miss
        assert cache.get(jobs[1].spec) is not None  # untouched => hit
        _, report = run_jobs(jobs, cache=cache)
        assert report.cache_hits == 1 and report.executed == 1

    def test_soft_interrupt_drains_and_raises_cancelled(
        self, fake_runner, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        events = []

        def interrupt_after_first(event):
            events.append(event.kind)
            if event.kind == "done" and events.count("done") == 1:
                signal_module.raise_signal(signal_module.SIGINT)

        with pytest.raises(SweepCancelled) as excinfo:
            run_jobs(
                grid_jobs()[:3], journal=journal,
                observer=interrupt_after_first,
            )
        message = str(excinfo.value)
        assert "1 of 3 cells" in message
        assert "--resume" in message and str(journal) in message
        # The finished cell reached the journal before the drain.
        assert len(SweepJournal(journal).load()) == 1

    def test_second_signal_hard_aborts(self):
        class Sink:
            def write(self, _text):
                pass

            def flush(self):
                pass

        cancel = GracefulCancel(stream=Sink())
        assert not cancel.soft
        cancel(signal_module.SIGINT, None)
        assert cancel.soft
        with pytest.raises(KeyboardInterrupt):
            cancel(signal_module.SIGINT, None)


# -- parallel engine resilience (real workers, real failures) ----------------


@pytest.fixture(scope="module")
def serial_reference(flat_cpi):
    """The ground truth the chaos-afflicted parallel sweep must match."""
    results, _report = run_jobs(grid_jobs(), max_workers=1)
    return [result_to_dict(result) for result in results]


class TestParallelResilience:
    #: Index of the poison cell (mixC/Re-NUCA) in grid order.
    POISON = 8

    def test_sweep_survives_kill_hang_and_poison(
        self, flat_cpi, serial_reference, tmp_path
    ):
        """The acceptance scenario: SIGKILL one worker mid-job, hang
        another past the watchdog deadline, poison a third cell — every
        non-poisoned cell still matches the serial run field for field,
        and the poison cell is quarantined instead of fatal."""
        jobs = grid_jobs()
        journal = tmp_path / "journal.jsonl"
        quarantine = tmp_path / "quarantine.jsonl"
        telemetry = Telemetry()
        results, report = run_jobs(
            jobs,
            max_workers=3,
            # The hang value far exceeds the watchdog deadline, and the
            # deadline (15 s) far exceeds a legitimate cell's wall time
            # (~3 s cold), so only the injected hang can expire it.
            chaos=(
                "mixA/R-NUCA@0=kill"
                ";mixB/S-NUCA@0=hang:120"
                ";mixC/Re-NUCA@*=raise"
            ),
            retries=1, backoff_s=0.01, job_timeout_s=15.0,
            keep_going=True, quarantine=quarantine, journal=journal,
            telemetry=telemetry,
        )
        assert len(results) == 9
        assert report.failed == 1
        assert report.executed == 8
        assert report.timeouts >= 1
        assert report.pool_rebuilds >= 2  # >=1 per SIGKILL, 1 per watchdog
        for index, payload in enumerate(serial_reference):
            if index == self.POISON:
                continue
            assert result_to_dict(results[index]) == payload, (
                f"cell {index} diverged from the serial run"
            )
        poisoned = results[self.POISON]
        assert poisoned.failed
        assert poisoned.failure_reason.startswith("error:")

        records = QuarantineJournal(quarantine).load()
        assert [r["label"] for r in records] == ["mixC/Re-NUCA"]
        assert records[0]["kind"] == "error"

        snap = telemetry.registry.snapshot()
        assert snap["jobs.recovery.quarantined"] == 1
        assert snap["jobs.recovery.timeouts"] >= 1
        assert snap["jobs.recovery.pool_rebuilds"] == report.pool_rebuilds
        assert snap["jobs.retry.chaoserror"] >= 1
        assert snap["jobs.retry.timeout"] >= 1

        # Tear the journal's final append mid-line (the kill -9 case)...
        assert len(SweepJournal(journal).load()) == 8
        with journal.open("a", encoding="utf-8") as fh:
            fh.write('{"v": 1, "fingerprint": "dead')
        # ...and resume: the 8 journaled cells replay, the poison cell
        # (never journaled) re-runs — chaos off, so it heals.
        results2, report2 = run_jobs(
            jobs, max_workers=3, journal=journal, resume=True,
        )
        assert report2.resumed == 8 and report2.executed == 1
        for index, payload in enumerate(serial_reference):
            assert result_to_dict(results2[index]) == payload

    def test_repeat_crasher_is_quarantined_as_crash(self, tmp_path):
        quarantine = tmp_path / "q.jsonl"
        jobs = grid_jobs()[:1]
        results, report = run_jobs(
            jobs,
            max_workers=2,
            chaos="mixA/S-NUCA@*=kill",
            retries=1, backoff_s=0.0,
            keep_going=True, quarantine=quarantine,
        )
        assert report.failed == 1
        assert report.pool_rebuilds == 2
        assert results[0].failed
        assert results[0].failure_reason.startswith("crash:")
        records = QuarantineJournal(quarantine).load()
        assert records[0]["kind"] == "crash"

    def test_crash_without_keep_going_aborts(self):
        with pytest.raises(ReproError) as excinfo:
            run_jobs(
                grid_jobs()[:1],
                max_workers=2,
                chaos="mixA/S-NUCA@*=kill",
                retries=0, backoff_s=0.0,
            )
        assert "crashed the worker pool" in str(excinfo.value)

    def test_hung_worker_is_quarantined_as_timeout(self, tmp_path):
        quarantine = tmp_path / "q.jsonl"
        results, report = run_jobs(
            grid_jobs()[:1],
            max_workers=2,
            chaos="mixA/S-NUCA@*=hang:30",
            retries=0, backoff_s=0.0, job_timeout_s=1.0,
            keep_going=True, quarantine=quarantine,
        )
        assert report.timeouts == 1 and report.failed == 1
        assert results[0].failure_reason.startswith("timeout:")
        assert QuarantineJournal(quarantine).load()[0]["kind"] == "timeout"
