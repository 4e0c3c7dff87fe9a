"""The shared JSONL log: one robustness contract, checked on all five logs.

The sweep journal, the quarantine, the search journal, the run ledger
and the span file are all :class:`repro.common.jsonl.JsonlLog` files;
each case below runs against every one of them through its own public
write and load calls.
"""

import json

import numpy as np
import pytest

from repro.common.errors import ReproError
from repro.config import baseline_config, scaled_config
from repro.jobs.journal import QuarantineJournal, SweepJournal
from repro.jobs.spec import JobSpec
from repro.obs.ledger import RunLedger, RunRecord
from repro.obs.spans import Span, SpanWriter, load_spans
from repro.search.drivers import Evaluation, SearchJournal
from repro.sim.metrics import WorkloadSchemeResult
from repro.trace.workloads import Workload

CONFIG = scaled_config(baseline_config(), cores=4)
WORKLOAD = Workload("mixA", ("hmmer", "namd", "povray", "dealII"))


def _spec(i: int) -> JobSpec:
    return JobSpec.for_run(WORKLOAD, "S-NUCA", CONFIG, seed=i, n_instructions=6000)


def _result() -> WorkloadSchemeResult:
    n = 4
    return WorkloadSchemeResult(
        workload="mixA",
        scheme="S-NUCA",
        apps=WORKLOAD.apps,
        per_core_ipc=np.ones(n),
        per_core_instructions=np.full(n, 1000, dtype=np.int64),
        per_core_cycles=np.full(n, 1000.0),
        bank_writes=np.arange(n, dtype=np.int64) + 1,
        bank_lifetimes=np.full(n, 5.0),
        elapsed_cycles=1000.0,
        llc_fetch_hit_rate=0.5,
        llc_mean_fetch_latency=100.0,
        noc_mean_hops=2.0,
    )


def _write_journal(log, i):
    log.record(_spec(i), _result())


def _write_quarantine(log, i):
    log.record(_spec(i), kind="error", reason=f"r{i}", attempts=1)


def _write_search(log, i):
    log.record(Evaluation(
        point_id=f"p{i}", values={"scheme": "S-NUCA"}, scheme="S-NUCA",
        rung=0, budget=1000,
        metrics={"ipc": 1.0, "lifetime": 2.0, "energy": 3.0, "wear_cov": 0.5},
    ))


def _write_ledger(log, i):
    log.append(RunRecord.for_result(
        _result(), seed=i, n_instructions=6000, wall_time_s=1.0,
    ))


def _write_span(log, i):
    log.record(Span(
        trace_id="t", span_id=f"s{i}", parent_id=None, name="measure",
        category="phase", start_s=1.0, end_s=2.0, pid=1,
    ))


#: name -> (log class, append one record i, load -> record count)
LOGS = {
    "journal": (SweepJournal, _write_journal,
                lambda path: len(SweepJournal(path).load())),
    "quarantine": (QuarantineJournal, _write_quarantine,
                   lambda path: len(QuarantineJournal(path).load())),
    "search": (SearchJournal, _write_search,
               lambda path: len(SearchJournal(path).load())),
    "ledger": (RunLedger, _write_ledger,
               lambda path: len(RunLedger(path).load())),
    "spans": (SpanWriter, _write_span, lambda path: len(load_spans(path))),
}


@pytest.fixture(params=sorted(LOGS))
def log(request, tmp_path):
    cls, write, count = LOGS[request.param]
    path = tmp_path / "log.jsonl"

    def append(*numbers):
        with cls(path) as opened:
            for i in numbers:
                write(opened, i)

    return path, cls, append, count


TORN = '{"v": 1, "fingerprint": "dead'


class TestJsonlContract:
    def test_missing_file_loads_empty(self, log):
        path, _cls, _append, count = log
        assert count(path) == 0

    def test_blank_lines_are_skipped(self, log):
        path, _cls, append, count = log
        append(0, 1)
        first, second = path.read_text().splitlines()
        path.write_text(f"\n{first}\n   \n\n{second}\n\n")
        assert count(path) == 2

    def test_torn_final_line_is_ignored(self, log):
        path, _cls, append, count = log
        append(0, 1)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(TORN)
        assert count(path) == 2

    def test_malformed_middle_line_raises_with_location(self, log):
        path, _cls, append, count = log
        append(0)
        path.write_text("not json\n" + path.read_text())
        with pytest.raises(ReproError, match=r"log\.jsonl:1: malformed"):
            count(path)

    def test_non_object_record_raises(self, log):
        path, _cls, append, count = log
        append(0)
        path.write_text("[1, 2]\n" + path.read_text())
        with pytest.raises(ReproError, match=r"log\.jsonl:1: .*not an object"):
            count(path)

    def test_unknown_version_raises(self, log):
        path, _cls, append, count = log
        append(0)
        record = json.loads(path.read_text())
        record["v"] = 999
        path.write_text(path.read_text() + json.dumps(record) + "\n")
        with pytest.raises(ReproError, match=r"log\.jsonl:2: unsupported"):
            count(path)

    def test_truncate_starts_fresh(self, log):
        path, cls, append, count = log
        append(0, 1)
        opened = cls(path)
        opened.open(truncate=True)
        opened.close()
        assert count(path) == 0
        append(2)
        assert count(path) == 1

    def test_torn_then_append_twice_keeps_every_record(self, log):
        path, _cls, append, count = log
        append(0)
        for i in (1, 2):
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(TORN)
            append(i)
            assert count(path) == i + 1
        # The fragments are gone, not merely skipped.
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    def test_unterminated_whole_record_survives_append(self, log):
        path, _cls, append, count = log
        append(0)
        path.write_text(path.read_text().rstrip("\n"))
        append(1)
        assert count(path) == 2

    def test_only_diagnostic_logs_skip_fsync(self, log, monkeypatch):
        path, cls, append, _count = log
        synced = []
        monkeypatch.setattr("repro.common.jsonl.os.fsync", synced.append)
        append(0)
        assert bool(synced) == (cls is not SpanWriter)
