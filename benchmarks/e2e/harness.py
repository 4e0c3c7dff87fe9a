"""End-to-end CLI benchmark harness (see README.md in this directory).

Every measurement runs the real ``python -m repro`` CLI as a child
process, one at a time, with ``--jobs 1``: a closed loop with a single
serial client.  Untraced reps give the end-to-end metrics; traced reps
run the same command under :mod:`benchmarks.e2e.traced` and give the
per-layer metrics.  Every output cell is hashed and checked against the
pins in ``expected.json`` (and against every other run of the same
command), so a speed-up that changes a result is a failure, not a gain.

The metric names, units, directions and bounds live in the repository's
``BENCHMARK.json``; this module defines the workloads and how each
metric is measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .spans import busy_seconds, layer_metrics, load_jsonl

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
WORK_ROOT = ROOT / ".bench_e2e"

#: Seeds with pinned cell digests: 1 is the default workload seed, 2 the
#: held-out seed, and 3-10 complete a ten-seed spread measurement.
PINNED_SEEDS = tuple(range(1, 11))

#: Fresh-interpreter ``import repro.cli`` probes per set-up (median taken).
IMPORT_PROBES = 3

#: A child still running after this long is killed and counted failed;
#: the slowest, a cold ``sweep-long`` priming run, takes about 25 s on a
#: heavily shared host.
CHILD_TIMEOUT_S = 60.0

#: Cores of the baseline machine (Table I); no workload varies num_banks.
CORES = 16

#: The mix properties every CLI seed the benchmark runs with has (see
#: :func:`cli_seed`): distinct applications in WL1, and WL3's replay
#: volume in LLC references per kilo-instruction of budget, within
#: ``REPLAY_BAND`` of the target.
WL1_DISTINCT_APPS = 11
WL3_REPLAY_PER_KINSTR = 1800.0
REPLAY_BAND = 0.05

#: Stride between the CLI seeds tried for one benchmark seed.
SEED_STRIDE = 100_000

#: Report-only metrics of the simulated results: (unit, better).  They
#: are exact for a given seed, so ``compare`` allows them no change.
MODEL_METRICS = {
    "fail_ratio": ("ratio", "lower"),
}


@dataclass(frozen=True)
class Workload:
    """One CLI command the benchmark times."""

    name: str
    #: ``repro`` argv without ``--seed --jobs --out --ledger --cache-dir
    #: --stage1-cache``, which the harness adds per rep.
    argv: tuple[str, ...]
    #: True: every rep reads a stage-1 store primed once during set-up.
    #: False: every rep starts from an empty store.
    primed: bool


#: Why each workload exists is recorded in BENCHMARK.json.  Each is one
#: cell, so a rep is short and a run holds several: host contention
#: drifts over minutes, and only many reps per run steady the median.
WORKLOADS = (
    Workload("sweep-cold", ("sweep", "--workloads", "1", "--schemes", "Re-NUCA",
                            "--instructions", "10000"), primed=False),
    Workload("sweep-long", ("sweep", "--workloads", "3", "--schemes", "Re-NUCA",
                            "--instructions", "200000"), primed=True),
)
WORKLOADS_BY_NAME = {wl.name: wl for wl in WORKLOADS}


def replay_volume(apps) -> float:
    """LLC references a stage-2 replay of ``apps`` processes per kilo-instruction.

    Estimated from Table II: each core's L3 accesses per cycle, summed,
    times the slowest core's cycles per instruction, because every core's
    stream is replayed up to the slowest core's horizon.
    """
    from repro.trace.profiles import get_profile

    profiles = [get_profile(app) for app in apps]
    per_cycle = sum((p.mpki / max(1e-3, 1 - p.hitrate) + p.wpki) * p.ipc
                    for p in profiles)
    return per_cycle / min(p.ipc for p in profiles)


def cli_seed(seed: int) -> int:
    """The ``repro --seed`` that benchmark seed ``seed`` runs with.

    The CLI seed draws the application mixes, and the mix sets how much
    work a command does: each distinct application in WL1 costs one
    calibration in a cold run, and WL3's replay volume varies ninefold
    between the 5th and 95th percentile of mixes (a mix holding mcf, IPC
    0.07, replays every other core up to mcf's horizon).  So benchmark
    seed ``seed`` maps to the first of ``seed, seed + SEED_STRIDE, ...``
    whose WL1 holds ``WL1_DISTINCT_APPS`` distinct applications and whose
    WL3 replay volume is within ``REPLAY_BAND`` of
    ``WL3_REPLAY_PER_KINSTR``: the seed varies the mixes and traces, not
    the amount of work.
    """
    from repro.trace.workloads import make_workloads

    candidate = seed
    while True:
        mixes = make_workloads(num_cores=CORES, seed=candidate)
        volume = replay_volume(mixes[2].apps)
        if (len(set(mixes[0].apps)) == WL1_DISTINCT_APPS
                and abs(volume / WL3_REPLAY_PER_KINSTR - 1) <= REPLAY_BAND):
            return candidate
        candidate += SEED_STRIDE


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def load_pins() -> dict:
    try:
        return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


# -- child processes ----------------------------------------------------------


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_KERNEL", "REPRO_INSTRUCTIONS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(cmd: list[str], log_path: Path) -> Child:
    """Run one child to completion; wall time and ``ru_maxrss`` via wait4."""
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=_child_env(),
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall_s, usage.ru_maxrss / 1024.0, proc.returncode)


# -- outputs and digests ------------------------------------------------------


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sweep_digests(matrix: dict) -> tuple[dict, int]:
    """``(cell digests, FAILED cells)`` of a saved matrix."""
    cells = {f"{r['workload']}/{r['scheme']}": _sha(r) for r in matrix["results"]}
    return cells, sum(bool(r.get("failed")) for r in matrix["results"])


def mismatches(cells: dict, reference: dict) -> int:
    """Digests missing from, extra to, or different from ``reference``."""
    return sum(cells.get(k) != reference.get(k) for k in cells.keys() | reference.keys())


# -- reps ---------------------------------------------------------------------


@dataclass
class Rep:
    """One child run of a workload's command."""

    traced: bool
    wall_s: float
    rss_mb: float
    attempted: int = 1
    failed: int = 0
    minstr: float = 0.0
    cells: dict = field(default_factory=dict)
    layers: dict | None = None
    error: str | None = None


def run_rep(wl: Workload, repro_seed: int, store: Path, rep_dir: Path, *,
            traced: bool = False, spans_copy: Path | None = None) -> Rep:
    """Run ``wl`` once in ``rep_dir`` against the stage-1 store ``store``."""
    rep_dir.mkdir(parents=True)
    out, ledger, spans = rep_dir / "out.json", rep_dir / "ledger.jsonl", rep_dir / "spans.jsonl"
    argv = [*wl.argv, "--seed", str(repro_seed), "--jobs", "1", "--out", str(out),
            "--ledger", str(ledger), "--cache-dir", str(rep_dir / "cache"),
            "--stage1-cache", str(store)]
    module = ["benchmarks.e2e.traced", str(spans)] if traced else ["repro"]
    child = run_child([sys.executable, "-m", *module, *argv], rep_dir / "log.txt")
    rep = Rep(traced, child.wall_s, child.rss_mb)
    try:
        payload = json.loads(out.read_text(encoding="utf-8"))
        records = [json.loads(line) for line in
                   ledger.read_text(encoding="utf-8").splitlines() if line.strip()]
        rep.cells, failed_cells = sweep_digests(payload)
        rep.minstr = sum(r["n_instructions"] for r in records) * CORES / 1e6
        if traced:
            recorded = load_jsonl(spans)
            rep.layers = layer_metrics(recorded)
            rep.layers["coverage_pct"] = sum(busy_seconds(recorded).values()) / child.wall_s * 100
            if spans_copy is not None:
                shutil.copyfile(spans, spans_copy)
    except (OSError, ValueError, KeyError) as exc:
        log = (rep_dir / "log.txt").read_text(encoding="utf-8", errors="replace")
        rep.failed = 1
        rep.error = f"exit {child.code}, unreadable output ({exc}): {log[-400:]}"
        return rep
    rep.attempted = max(1, len(records))
    rep.failed = failed_cells + (child.code != 0)
    if child.code != 0:
        rep.error = f"exit {child.code}"
    return rep


# -- one benchmark invocation -------------------------------------------------


@dataclass
class Run:
    """Everything measured for one workload in one invocation."""

    workload: Workload
    setup_s: float
    store: Path
    priming: Rep | None
    reps: list = field(default_factory=list)


@contextmanager
def _scratch(prefix: str):
    """A fresh directory below ``WORK_ROOT``, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def set_up(wl: Workload, repro_seed: int, work: Path) -> Run:
    """Import probes, then (for primed workloads) one priming run.

    ``setup_s`` is the median fresh-interpreter ``import repro.cli`` time
    plus the priming run's wall time: what a user pays before the first
    warm command.
    """
    probes = []
    for _ in range(IMPORT_PROBES):
        child = run_child([sys.executable, "-c", "import repro.cli"], work / "probe.log")
        if child.code != 0:
            raise RuntimeError(f"importing repro.cli failed (exit {child.code}); "
                               f"see {work / 'probe.log'}")
        probes.append(child.wall_s)
    store = work / f"{wl.name}-store"
    priming = None
    setup_s = statistics.median(probes)
    if wl.primed:
        priming = run_rep(wl, repro_seed, store, work / f"{wl.name}-prime")
        setup_s += priming.wall_s
    _progress(f"{wl.name}: set-up {setup_s:.2f} s")
    return Run(wl, setup_s, store, priming)


def run_benchmark(workloads, *, seed: int, reps: int = 3, seconds: float | None = None,
                  trace: bool = True, trace_out: Path | None = None,
                  pins: dict | None = None, spec: dict | None = None) -> dict:
    """Set up every workload, then run reps round-robin; returns the report.

    A round runs one untraced rep of each workload, and with ``trace``
    one traced rep of each right after it.  Rounds repeat ``reps`` times,
    or with ``seconds`` while another round as long as the last one still
    ends within ``seconds`` per workload (at least one round runs).
    """
    if trace_out is not None:
        trace_out.mkdir(parents=True, exist_ok=True)
    with _scratch("run-") as work:
        repro_seed = cli_seed(seed)
        runs = [set_up(wl, repro_seed, work) for wl in workloads]
        started, rounds = time.perf_counter(), 0
        while True:
            round_started = time.perf_counter()
            for run in runs:
                for traced in (False, True) if trace else (False,):
                    rep_dir = work / f"{run.workload.name}-{len(run.reps)}"
                    store = run.store if run.workload.primed else rep_dir / "store"
                    copy = None
                    if traced and trace_out is not None:
                        copy = trace_out / f"{run.workload.name}-seed{seed}-{len(run.reps)}.jsonl"
                    rep = run_rep(run.workload, repro_seed, store, rep_dir,
                                  traced=traced, spans_copy=copy)
                    shutil.rmtree(rep_dir)
                    run.reps.append(rep)
                    _progress(f"{run.workload.name}: {'traced' if traced else 'timed'} "
                              f"rep {rep.wall_s:.2f} s" + (f" [{rep.error}]" if rep.error else ""))
            rounds += 1
            now = time.perf_counter()
            if seconds is None:
                if rounds >= reps:
                    break
            elif (now - started) + (now - round_started) > seconds * len(runs):
                break
    return build_report(runs, seed=seed, repro_seed=repro_seed,
                        spec=spec or load_spec(),
                        pins=load_pins() if pins is None else pins)


# -- the report ---------------------------------------------------------------


def summarize(samples: list) -> dict:
    """Median, quartiles (as ``statistics.quantiles(n=4)`` gives them) and n."""
    if not samples:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0, "samples": []}
    if len(samples) == 1:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": list(samples)}


def workload_report(run: Run, *, seed: int, spec: dict, pins: dict) -> dict:
    every = ([run.priming] if run.priming is not None else []) + run.reps
    good = [rep for rep in every if rep.error is None]
    pinned = pins.get(run.workload.name, {}).get(str(seed))
    reference = pinned if pinned is not None else (good[0].cells if good else {})
    for rep in good:
        rep.failed += mismatches(rep.cells, reference)
    attempted = sum(rep.attempted for rep in every)
    failed = sum(rep.failed for rep in every)
    timed = [rep for rep in run.reps if rep.error is None and not rep.traced]
    traced = [rep for rep in run.reps if rep.error is None and rep.traced]

    samples = {
        "wall_s": [rep.wall_s for rep in timed],
        "minstr_per_s": [rep.minstr / rep.wall_s for rep in timed],
        "peak_rss_mb": [rep.rss_mb for rep in timed],
        "setup_s": [run.setup_s],
    }
    model = {"fail_ratio": failed / attempted}
    layers = {m["name"]: [rep.layers.get(m["name"], 0.0) for rep in traced]
              for m in spec["per_layer"]}
    if traced and timed:
        overhead = (statistics.median(r.wall_s for r in traced)
                    / statistics.median(r.wall_s for r in timed) - 1) * 100
        layers["trace_overhead_pct"] = [overhead]
    coverage = [rep.layers["coverage_pct"] for rep in traced]
    return {
        "argv": list(run.workload.argv),
        "primed": run.workload.primed,
        "pinned": pinned is not None,
        "attempted": attempted,
        "failed": failed,
        "errors": [rep.error for rep in every if rep.error],
        "end_to_end": {
            m["name"]: {"unit": m["unit"], **summarize(samples[m["name"]])}
            for m in spec["end_to_end"]
        },
        "model": {
            name: {"unit": MODEL_METRICS[name][0], **summarize([value])}
            for name, value in model.items()
        },
        "per_layer": {
            m["name"]: {"unit": m["unit"], **summarize(layers.get(m["name"], []))}
            for m in spec["per_layer"]
        },
        "checks": {"span_coverage_pct": summarize(coverage)},
        "cells": reference,
    }


def _git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def build_report(runs: list, *, seed: int, repro_seed: int, spec: dict,
                 pins: dict) -> dict:
    workloads = {run.workload.name: workload_report(run, seed=seed, spec=spec, pins=pins)
                 for run in runs}
    failed = sum(w["failed"] for w in workloads.values())
    return {
        "schema": 1,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "seed": seed,
        "cli_seed": repro_seed,
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in workloads.values()),
        "failed": failed,
        "workloads": workloads,
    }


def result_line(report: dict, spec: dict, *, trace: bool) -> dict:
    """The one-line summary: per-layer metrics when traced, else end-to-end."""
    kind = "per_layer" if trace else "end_to_end"
    single = len(report["workloads"]) == 1
    metrics = {}
    for name, wl in report["workloads"].items():
        for m in spec[kind]:
            key = m["name"] if single else f"{name}/{m['name']}"
            metrics[key] = {"value": wl[kind][m["name"]]["median"], "unit": m["unit"]}
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def _table(header: list, rows: list) -> str:
    widths = [max(len(str(x)) for x in column) for column in zip(header, *rows)]
    lines = [header, *rows]
    return "\n".join("  ".join(str(x).rjust(w) for x, w in zip(line, widths))
                     for line in lines)


def _num(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 1e5 else f"{value:.0f}"


def render_report(report: dict, spec: dict) -> str:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = [f"seed {report['seed']} (repro --seed {report['cli_seed']}), "
           f"git {report['git_sha'] or 'unknown'}, "
           f"nproc {report['nproc']}; {report['failed']} of "
           f"{report['attempted']} cells failed"]
    for name, wl in report["workloads"].items():
        out.append(f"\n{name}: repro {' '.join(wl['argv'])}"
                   + ("" if wl["pinned"] else "  (seed not pinned: reps checked "
                      "against each other)"))
        rows = [(metric, v["unit"], _num(v["median"]), _num(v["q1"]), _num(v["q3"]),
                 v["n"], f"{bounds[metric]:.0%}" if metric in bounds else "exact")
                for section in ("end_to_end", "model")
                for metric, v in wl[section].items()]
        out.append(_table(["metric", "unit", "median", "q1", "q3", "n", "bound"], rows))
        traced = [(metric, v["unit"], _num(v["median"]), v["n"])
                  for metric, v in wl["per_layer"].items() if v["n"]]
        if traced:
            coverage = wl["checks"]["span_coverage_pct"]["median"]
            out.append(f"per layer (traced; layer self times cover {coverage:.1f} % "
                       "of the traced wall):")
            out.append(_table(["metric", "unit", "median", "n"], traced))
        for error in wl["errors"]:
            out.append(f"error: {error}")
    return "\n".join(out)


# -- compare ------------------------------------------------------------------


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric's two summaries.

    The change's median moved against (``worse``) or with (``better``)
    the metric's direction by more than ``bound``, a share of the
    parent's median.  When the parent's own spread (quartile distance
    over median) exceeds the bound, a smaller move cannot be told from
    noise: ``unresolved``, unless every change sample beats every parent
    sample.
    """
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(parent["median"]) or 1.0
    worse_by = sign * (change["median"] - parent["median"]) / scale
    spread = (parent["q3"] - parent["q1"]) / scale
    if worse_by > bound:
        return "worse"
    if spread > bound:
        all_better = change["samples"] and parent["samples"] and all(
            sign * (c - p) < 0 for c in change["samples"] for p in parent["samples"]
        )
        return "better" if all_better else "unresolved"
    if -worse_by > bound:
        return "better"
    return "unchanged"


def compare(parent: dict, change: dict, spec: dict) -> list[tuple]:
    """One row per (workload, metric) present in both reports."""
    rules = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rules.update({name: (better, 0.0) for name, (_unit, better) in MODEL_METRICS.items()})
    rows = []
    for name, before in parent["workloads"].items():
        after = change["workloads"].get(name)
        if after is None:
            continue
        for metric, (better, bound) in rules.items():
            p = before["end_to_end"].get(metric) or before["model"].get(metric)
            c = after["end_to_end"].get(metric) or after["model"].get(metric)
            if p is None or c is None:
                continue
            rows.append((name, metric, p["unit"], p, c, bound, verdict(p, c, better, bound)))
    return rows


def compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e compare",
        description="compare two benchmark reports (--out files); exits 1 "
                    "when any metric is worse than its bound allows",
    )
    parser.add_argument("parent", type=Path, help="report of the parent commit")
    parser.add_argument("change", type=Path, help="report of the change")
    args = parser.parse_args(argv)
    reports = [json.loads(path.read_text(encoding="utf-8"))
               for path in (args.parent, args.change)]
    rows = compare(*reports, load_spec())

    def quartiles(s: dict) -> str:
        return f"{_num(s['median'])} [{_num(s['q1'])}, {_num(s['q3'])}]"

    print(_table(
        ["workload", "metric", "unit", "parent median [q1, q3]",
         "change median [q1, q3]", "bound", "verdict"],
        [(wl, metric, unit, quartiles(p), quartiles(c),
          f"{bound:.0%}" if bound else "exact", v)
         for wl, metric, unit, p, c, bound, v in rows],
    ))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


# -- pins ---------------------------------------------------------------------


def pin_digests(workloads) -> dict:
    """Fresh digests of every pinned seed, merged into the current pins
    of the workloads that still exist."""
    pins = {name: seeds for name, seeds in load_pins().items() if name in WORKLOADS_BY_NAME}
    memo: dict = {}
    with _scratch("pins-") as work:
        for wl in workloads:
            for seed in PINNED_SEEDS:
                key = (wl.argv, seed)
                if key not in memo:
                    rep_dir = work / f"{wl.name}-{seed}"
                    rep = run_rep(wl, cli_seed(seed), rep_dir / "store", rep_dir)
                    if rep.error or rep.failed:
                        raise RuntimeError(f"{wl.name} seed {seed}: {rep.error or 'FAILED cells'}")
                    memo[key] = rep.cells
                    _progress(f"{wl.name}: seed {seed} pinned")
                pins.setdefault(wl.name, {})[str(seed)] = memo[key]
    return pins


# -- command line -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end CLI benchmark. 'python -m benchmarks.e2e "
                    "compare PARENT.json CHANGE.json' compares two reports.",
    )
    parser.add_argument("--workload", nargs="+", choices=list(WORKLOADS_BY_NAME),
                        default=list(WORKLOADS_BY_NAME), metavar="NAME",
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (default 1); see cli_seed() for the "
                             "repro --seed it selects")
    parser.add_argument("--reps", type=int, default=3,
                        help="rounds of reps per workload (default 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run rounds until this many seconds per workload "
                             "have passed, instead of --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 (default): a traced rep follows each timed rep "
                             "and the last line carries the per-layer metrics; "
                             "0: timed reps only, last line end-to-end metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full report (input of 'compare') here")
    parser.add_argument("--trace-out", type=Path, default=None, metavar="DIR",
                        help="keep each traced rep's span JSONL in DIR")
    parser.add_argument("--print-digests", action="store_true",
                        help="recompute the pinned cell digests of every "
                             "pinned seed and print the expected.json content")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps its child
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = [WORKLOADS_BY_NAME[name] for name in args.workload]
    if args.print_digests:
        print(json.dumps(pin_digests(workloads), indent=1, sort_keys=True))
        return 0
    spec = load_spec()
    report = run_benchmark(
        workloads, seed=args.seed, reps=args.reps, seconds=args.seconds,
        trace=bool(args.trace), trace_out=args.trace_out, spec=spec,
    )
    print(render_report(report, spec))
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result_line(report, spec, trace=bool(args.trace))))
    return 0 if report["correct"] else 1
