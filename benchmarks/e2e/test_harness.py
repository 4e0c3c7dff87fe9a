"""Tests of the end-to-end benchmark harness.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import harness, traced
from benchmarks.e2e.spans import Recorder, Span, busy_seconds, layer_metrics, self_times

#: Test-only one-cell spec: the smallest command that touches every
#: sweep layer.
TINY = harness.Workload(
    "tiny", ("sweep", "--workloads", "1", "--schemes", "S-NUCA",
             "--instructions", "2000"),
    primed=True,
)


def _span(id, parent, name, op, start, end, **counts):
    return Span(id=id, parent=parent, name=name, op=op, start=start, end=end,
                counts=counts)


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_with_nested_and_same_layer_spans():
    # One stage-1 lookup inside prepare_replay: a store miss, a
    # calibration call whose two probes (AppSimulator.run, recorded as
    # calibrate) synthesise traces, the characterisation run, the store
    # write, then warm-up.
    spans = [
        _span(0, None, "prepare", "prepare_replay", 0.0, 10.0),
        _span(1, 0, "stage1_store", "get", 0.0, 0.5, lookups=1, hits=0),
        _span(2, 0, "calibrate", "calibrated_base_cpi", 1.0, 5.0),
        _span(3, 2, "calibrate", "run", 1.5, 3.0, instructions=120_000),
        _span(4, 3, "trace", "generate_trace", 2.0, 2.5, bundles=10),
        _span(5, 2, "calibrate", "run", 3.0, 4.5, instructions=120_000),
        _span(6, 0, "stage1", "run", 5.0, 8.0, instructions=1_000),
        _span(7, 6, "trace", "generate_trace", 6.0, 7.0, bundles=20),
        _span(8, 0, "stage1_store", "put", 8.0, 8.5, writes=1),
        _span(9, 0, "warmup", "prefill_many", 9.0, 9.5, lines=4),
    ]
    own = self_times(spans)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)
    busy = busy_seconds(spans)
    assert busy["calibrate"] == pytest.approx(3.5)
    assert busy["trace"] == pytest.approx(1.5)
    assert busy["stage1"] == pytest.approx(2.0)
    assert busy["prepare"] == pytest.approx(1.5)
    assert sum(busy.values()) == pytest.approx(10.0)

    metrics = layer_metrics(spans)
    assert metrics["calibrate.calls"] == 1
    assert metrics["stage1.calls"] == 1
    assert metrics["stage1.minstr"] == pytest.approx(0.001)
    assert metrics["trace.bundles"] == 30
    assert metrics["stage1_store.hit_ratio"] == 0.0
    assert metrics["stage1_store.writes"] == 1
    assert metrics["warmup.ns_per_line"] == pytest.approx(0.5 / 4 * 1e9)
    assert metrics["replay.ns_per_record"] == 0.0


def test_overlapping_children_are_subtracted_once():
    spans = [
        _span(0, None, "reduce", "run_workload", 0.0, 10.0),
        _span(1, 0, "prepare", "prepare_replay", 1.0, 4.0),
        _span(2, 0, "replay", "kernel_replay", 3.0, 6.0),
        _span(3, 0, "replay", "kernel_replay", 9.0, 12.0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_recorder_nests_by_call_stack_and_rejects_misordered_close():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    outer = recorder.open("jobs", "run_jobs")
    inner = recorder.open("reduce", "run_workload")
    assert recorder.inside("jobs") and inner.parent == outer.id
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_calibration_probes_are_recorded_as_calibration():
    from repro.config import baseline_config
    from repro.cpu.core import AppSimulator
    from repro.sim import calibrate, runner

    calibrate.clear_cache()
    config = baseline_config()
    recorder = Recorder()
    restore = traced.install(recorder)
    try:
        base_cpi = runner.calibrated_base_cpi("namd", config, seed=1)
        AppSimulator("namd", config, seed=1, base_cpi=base_cpi).run(2000)
    finally:
        restore()
    calls = [(s.name, s.op) for s in recorder.spans if s.name != "trace"]
    assert calls == [
        ("calibrate", "calibrated_base_cpi"),
        ("calibrate", "run"),
        ("calibrate", "run"),
        ("stage1", "run"),
    ]
    metrics = layer_metrics(recorder.spans)
    assert metrics["calibrate.calls"] == 1
    assert metrics["stage1.calls"] == 1
    assert metrics["trace.bundles"] > 0


# -- wrappers -----------------------------------------------------------------


def _patch_targets() -> dict:
    out = {}
    for module_name, attr, *_ in traced.PATCH_POINTS:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        out[(module_name, attr)] = vars(owner)[name]
    return out


def test_install_patches_then_restores_every_entry_point():
    before = _patch_targets()
    restore = traced.install(Recorder())
    during = _patch_targets()
    restore()
    after = _patch_targets()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


# -- digests ------------------------------------------------------------------


def test_sweep_digests_hash_each_cell_and_count_failed_ones():
    def cell(scheme, ipc, **extra):
        return {"workload": "WL1", "scheme": scheme, "per_core_ipc": [ipc], **extra}

    cells, failed = harness.sweep_digests(
        {"results": [cell("R-NUCA", 20.0), cell("Re-NUCA", 19.9, failed=True)]}
    )
    assert set(cells) == {"WL1/R-NUCA", "WL1/Re-NUCA"} and failed == 1
    moved, _ = harness.sweep_digests({"results": [cell("R-NUCA", 20.5)]})
    assert moved["WL1/R-NUCA"] != cells["WL1/R-NUCA"]


def _run(cells_by_rep) -> harness.Run:
    reps = [harness.Rep(traced=False, wall_s=1.0, rss_mb=10.0, attempted=2,
                        cells=cells) for cells in cells_by_rep]
    return harness.Run(TINY, setup_s=0.5, store=Path("."), priming=reps[0],
                       reps=reps[1:])


def test_digest_mismatches_count_as_failed_cells():
    spec = harness.load_spec()
    cells = {"a": "1", "b": "2"}
    steady = harness.workload_report(_run([cells, cells, cells]), seed=1,
                                     spec=spec, pins={})
    assert (steady["attempted"], steady["failed"]) == (6, 0)
    drifted = harness.workload_report(_run([cells, cells, {"a": "1", "b": "3"}]),
                                      seed=1, spec=spec, pins={})
    assert drifted["failed"] == 1
    assert drifted["model"]["fail_ratio"]["median"] == pytest.approx(1 / 6)
    pinned = harness.workload_report(_run([cells, cells, cells]), seed=1, spec=spec,
                                     pins={"tiny": {"1": {"a": "1", "b": "9"}}})
    assert pinned["failed"] == 3


# -- verdicts -----------------------------------------------------------------


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    ((10.0, 10.1, 10.2), (12.0, 12.1, 12.2), "lower", 0.1, "worse"),
    ((10.0, 10.1, 10.2), (10.3, 10.4, 10.5), "lower", 0.1, "unchanged"),
    ((10.0, 10.1, 10.2), (8.0, 8.1, 8.2), "lower", 0.1, "better"),
    ((10.0, 10.1, 10.2), (9.5, 9.6, 9.7), "lower", 0.1, "unchanged"),
    ((8.0, 10.0, 13.0), (10.5, 10.6, 10.7), "lower", 0.1, "unresolved"),
    ((8.0, 10.0, 13.0), (7.0, 7.5, 7.9), "lower", 0.1, "better"),
    ((8.0, 10.0, 13.0), (12.0, 12.5, 13.0), "lower", 0.1, "worse"),
    ((100.0,), (90.0,), "higher", 0.05, "worse"),
    ((100.0,), (120.0,), "higher", 0.1, "better"),
    ((1.0,), (1.0,), "lower", 0.0, "unchanged"),
    ((5.0,), (5.1,), "lower", 0.0, "worse"),
    ((0.0,), (0.0,), "lower", 0.0, "unchanged"),
])
def test_verdict(parent, change, better, bound, expected):
    summaries = (harness.summarize(list(parent)), harness.summarize(list(change)))
    assert harness.verdict(*summaries, better, bound) == expected


def _report(wall_samples) -> dict:
    return {"workloads": {"sweep-cold": {
        "end_to_end": {"wall_s": {"unit": "s", **harness.summarize(wall_samples)}},
        "model": {"fail_ratio": {"unit": "ratio", **harness.summarize([0.0])}},
    }}}


def test_compare_exits_nonzero_only_on_worse(tmp_path, capsys):
    paths = {}
    for name, samples in (("parent", [5.0, 5.1, 5.2]), ("same", [5.1, 5.0, 5.2]),
                          ("slow", [7.0, 7.1, 7.2])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(_report(samples)))
    assert harness.main(["compare", str(paths["parent"]), str(paths["same"])]) == 0
    assert harness.main(["compare", str(paths["parent"]), str(paths["slow"])]) == 1
    assert "worse" in capsys.readouterr().out


# -- end to end ---------------------------------------------------------------


def test_tiny_run_reports_every_benchmark_metric(tmp_path):
    spec = harness.load_spec()
    report = harness.run_benchmark([TINY], seed=1, reps=1, trace=True,
                                   trace_out=tmp_path, pins={}, spec=spec)
    assert report["correct"], report["workloads"]["tiny"]["errors"]
    wl = report["workloads"]["tiny"]
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            reported = wl[kind][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert reported["n"] >= 1
    assert wl["end_to_end"]["wall_s"]["median"] > 0
    layers = wl["per_layer"]
    assert layers["stage1_store.hit_ratio"]["median"] == 1.0
    assert layers["calibrate.calls"]["median"] == 0
    assert layers["warmup.lines"]["median"] > 0
    assert layers["replay.records"]["median"] > 0
    assert abs(wl["checks"]["span_coverage_pct"]["median"] - 100.0) < 5.0
    assert list(tmp_path.glob("tiny-seed1-*.jsonl"))

    line = harness.result_line(report, spec, trace=True)
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    line = harness.result_line(report, spec, trace=False)
    assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = Path(harness.__file__).resolve().parent
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    shutil.copytree(bench, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sweep-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no repro sources" in proc.stderr
