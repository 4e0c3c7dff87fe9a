"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``config``   — print the Table I machine description.
* ``table2``   — characterise applications (Table II columns).
* ``compare``  — run one workload under several NUCA schemes.
* ``sweep``    — run a workloads x schemes grid through the parallel
  sweep engine (process pool, result cache, resumable journal; see
  ``docs/SWEEPS.md``).
* ``search``   — design-space exploration: multi-fidelity
  (successive-halving) search over NUCA/ReRAM configurations with
  Pareto-frontier extraction (see ``docs/SEARCH.md``).
* ``workloads``— show the generated WL1..WL10 mixes.
* ``trace``    — generate a synthetic application trace to a .npz file,
  or export a sweep's span file to Chrome/Perfetto trace JSON
  (``repro trace export OUT --spans spans.jsonl``).
* ``endoflife``— sweep cache age under fault injection (degradation study).
* ``stats``    — telemetry deep-dive: registry summary, interval series
  and a per-bank write heatmap over time (see ``docs/OBSERVABILITY.md``);
  ``--from-spans spans.jsonl`` prints a per-phase wall-time table instead.
* ``top``      — live ANSI dashboard for a running sweep: polls a
  ``--serve`` monitor's ``/status``, or reconstructs the view from the
  journal and span files of a finished run.
* ``diff``     — metric regression gate: compare two result sets (saved
  matrices or run ledgers) under per-metric tolerance rules; exits 1 on
  any violation, which is what CI gates on.
* ``report``   — render a saved matrix (plus optionally its run ledger)
  as one self-contained HTML file: inline SVG/CSS, no external refs.
* ``bench-record`` — append a timing/IPC point to a machine-readable
  ``BENCH_*.json`` trajectory.
* ``history``  — longitudinal history layer: index run ledgers,
  ``BENCH_*.json`` trajectories and saved search outcomes into one
  provenance-keyed store; ``--html`` renders frontier-evolution
  overlays and per-scheme metric sparklines; ``history check`` gates
  metric trajectories over a sliding window and exits 1 on sustained
  drift (see docs/OBSERVABILITY.md).

Every simulation command takes ``--instructions`` and ``--seed``;
results are printed as the same text tables the benchmark harness
emits.  ``compare``, ``sweep``, ``stats`` and ``endoflife`` additionally
accept ``--trace-out FILE`` (JSONL event trace), ``--profile``
(per-phase wall-time table from the run's spans) and ``--ledger FILE``
(append run-provenance records); the sweep-engine commands take
``--jobs/-j`` (worker processes) and ``--progress`` (live single-line
status with ETA);
the sweep-engine commands also take ``--retries N`` (transient-failure
retry budget), ``--job-timeout SECONDS`` (per-job watchdog deadline;
see docs/RESILIENCE.md), ``--serve [PORT]`` (live ``/status`` and
``/metrics`` HTTP monitor on 127.0.0.1) and ``--spans FILE``
(cross-process span recording; see docs/OBSERVABILITY.md); invoking
``repro`` with no subcommand prints the full help and exits 2.

User-facing failures (unknown application, malformed trace file,
inconsistent configuration — anything deriving from
:class:`~repro.common.errors.ReproError`) print a one-line
``error: ...`` to stderr and exit with status 2; tracebacks are reserved
for actual bugs.  ``diff`` and ``history check`` reserve exit status 1
for tolerance violations, keeping it distinct from usage errors.  ``sweep
--keep-going`` reserves exit status 3 for a sweep that completed with
quarantined FAILED cells, and an interrupted, gracefully drained sweep
exits 130 with a resume hint.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from repro.common.errors import ReproError, SweepCancelled
from repro.config import baseline_config
from repro.experiments.report import format_table, render_table2
from repro.experiments.table2 import run_table2
from repro.sim.runner import Stage1Cache
from repro.telemetry import Telemetry
from repro.trace.profiles import get_profile, intensity_class
from repro.trace.workloads import make_workloads


def _package_version() -> str:
    """Installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except PackageNotFoundError:
        from repro import __version__

        return __version__


class _VersionAction(argparse.Action):
    """``--version`` that looks the version up only when it is given.

    :func:`_package_version` scans every installed distribution (about
    10 ms), which every other command would pay in :func:`build_parser`.
    """

    def __init__(self, option_strings, dest=argparse.SUPPRESS,
                 default=argparse.SUPPRESS, help="show program's version number and exit"):
        super().__init__(option_strings=option_strings, dest=dest,
                         default=default, nargs=0, help=help)

    def __call__(self, parser, namespace, values, option_string=None):
        print(f"{parser.prog} {_package_version()}")
        parser.exit()


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instructions", type=int, default=60_000,
                        help="instruction budget per core (default 60000)")
    parser.add_argument("--seed", type=int, default=1,
                        help="experiment seed (default 1)")


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a JSONL event trace to FILE")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-phase wall-time table after "
                             "the run (from its spans)")


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the sweep engine "
                             "(default 1 = in-process serial)")
    parser.add_argument("--progress", action="store_true",
                        help="live single-line progress with ETA "
                             "(replaces per-cell narration)")
    parser.add_argument("--retries", type=int, default=1, metavar="N",
                        help="retry budget per job for transient failures, "
                             "crashes and timeouts (default 1)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job watchdog deadline in wall-clock "
                             "seconds, scaled up for instruction budgets "
                             "above the default (default: no watchdog)")


def _add_stage1(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--stage1-cache", metavar="DIR", default=None,
                        help="shared on-disk stage-1 characterisation store; "
                             "workers, rungs and repeat runs reuse one "
                             "characterisation per (app, config, seed, "
                             "budget) (see docs/PERFORMANCE.md)")


def _add_ledger(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ledger", metavar="FILE", default=None,
                        help="append run-provenance records (JSONL ledger; "
                             "see docs/OBSERVABILITY.md)")


def _add_monitor(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--serve", nargs="?", const=0, type=int, default=None,
                        metavar="PORT",
                        help="serve GET /status and /metrics on 127.0.0.1 "
                             "while the sweep runs (bare --serve binds an "
                             "ephemeral port; watch with 'repro top --url')")
    parser.add_argument("--spans", metavar="FILE", default=None,
                        help="record cross-process spans to FILE "
                             "(spans.jsonl; export with 'repro trace "
                             "export', summarise with 'repro stats "
                             "--from-spans')")


@contextmanager
def _monitoring(args, total: int, *, label=None, registry=None):
    """The observer hook for ``--progress`` and ``--serve``, else None.

    Builds one :class:`~repro.obs.progress.MonitorState` (a
    :class:`~repro.obs.progress.SweepProgress` under ``--progress``)
    and, under ``--serve``, a monitor server over it whose bound URL
    goes to stderr (the CI smoke job greps it from the redirected log
    to discover an ephemeral port).  A clean exit marks the sweep
    finished, stops the server and closes the progress line.
    """
    if not args.progress and args.serve is None:
        yield None
        return
    from repro.obs.progress import MonitorState, SweepProgress

    model = SweepProgress if args.progress else MonitorState
    state = model(total, workers=args.jobs, label=label)
    server = None
    if args.serve is not None:
        from repro.obs.server import MonitorServer

        server = MonitorServer(state, registry=registry, port=args.serve)
        port = server.start()
        print(f"monitor serving http://127.0.0.1:{port}", file=sys.stderr)
        if args.progress:
            state.serving = port
    try:
        yield state if args.progress else state.observe
        state.finish()
    finally:
        if server is not None:
            server.stop()
    if args.progress:
        state.close()


def _make_telemetry(args) -> Telemetry | None:
    """A Telemetry handle when an event trace is asked for, else None."""
    return Telemetry(trace=True) if args.trace_out else None


def _export_trace(args, telemetry: Telemetry | None) -> None:
    """``--trace-out``: write the run's merged, cell-stamped events."""
    if args.trace_out and telemetry is not None and telemetry.trace is not None:
        traced = telemetry.trace.export_jsonl(args.trace_out)
        print(f"\nwrote {traced} events to {args.trace_out}")


def _span_target(args):
    """What a command records spans into, for ``run_jobs(spans=...)``.

    The ``--spans`` file; else, for ``--profile``, an in-memory
    recorder; else None.  Spans bracket phases outside the measured
    loop, so either way the cells stay on the replay kernel.
    """
    path = getattr(args, "spans", None)
    if path is not None or not args.profile:
        return path
    from repro.obs.spans import SpanRecorder

    return SpanRecorder()


def _phase_table(spans) -> str:
    """The per-phase wall-time table of a span set."""
    from repro.obs.spans import phase_wall_table

    return format_table(
        ["phase", "calls", "total [s]", "mean [s]"],
        [(name, calls, f"{total:.3f}", f"{mean:.4f}")
         for name, calls, total, mean in phase_wall_table(spans)],
    )


def _print_profile(args, spans) -> None:
    """``--profile``: where the run's wall time went, from its spans."""
    if not args.profile:
        return
    from repro.obs.spans import load_spans

    print("\nphase wall time:")
    print(_phase_table(
        load_spans(spans) if isinstance(spans, str) else spans.spans
    ))


def _cmd_config(_args) -> int:
    print(baseline_config().describe())
    return 0


def _cmd_table2(args) -> int:
    apps = tuple(args.apps) if args.apps else None
    rows = run_table2(apps=apps, seed=args.seed,
                      n_instructions=args.instructions)
    print(render_table2(rows))
    return 0


def _cmd_compare(args) -> int:
    from repro.jobs.scheduler import matrix_jobs, run_jobs

    config = baseline_config()
    workloads = make_workloads(num_cores=config.num_cores, seed=args.seed)
    index = args.workload - 1
    if not (0 <= index < len(workloads)):
        print(f"error: workload must be 1..{len(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[index]
    print(f"{workload.name}: {', '.join(workload.apps)}\n")
    telemetry = _make_telemetry(args)
    spans = _span_target(args)
    jobs = matrix_jobs(
        [workload], tuple(args.schemes), config,
        seed=args.seed, n_instructions=args.instructions,
    )
    with _monitoring(
        args, len(jobs), label=workload.name,
        registry=telemetry.registry if telemetry is not None else None,
    ) as observer:
        results, _report = run_jobs(
            jobs, max_workers=args.jobs, telemetry=telemetry,
            stage1_store=args.stage1_cache, observer=observer,
            ledger=args.ledger,
            retries=args.retries, job_timeout_s=args.job_timeout,
            spans=spans,
        )
    rows = [
        (result.scheme, result.ipc, result.min_lifetime, result.wear_cov,
         result.llc_fetch_hit_rate)
        for result in results
    ]
    print(format_table(
        ["scheme", "IPC", "min life [y]", "wear CV", "LLC hit"], rows
    ))
    _export_trace(args, telemetry)
    _print_profile(args, spans)
    return 0


def _cmd_workloads(args) -> int:
    for workload in make_workloads(num_cores=16, seed=args.seed):
        classes = [intensity_class(get_profile(a))[0].upper() for a in workload.apps]
        print(f"{workload.name}: {', '.join(workload.apps)}")
        print(f"      intensity: {''.join(classes)} "
              f"({classes.count('H')} high / {classes.count('M')} medium / "
              f"{classes.count('L')} low)")
    return 0


def _cmd_trace(args) -> int:
    # ``repro trace export OUT --spans FILE``: the Chrome/Perfetto
    # exporter rides on the trace command ("export" is not a Table II
    # application name, so the positional dispatch is unambiguous).
    if args.app == "export":
        from repro.obs.chrome_trace import export_chrome_trace

        spans_path = args.spans or "spans.jsonl"
        count = export_chrome_trace(spans_path, args.output)
        print(f"wrote {count} trace events from {spans_path} to "
              f"{args.output} (open in https://ui.perfetto.dev "
              "or chrome://tracing)")
        return 0

    from repro.common.rng import derive_rng
    from repro.trace.fileio import save_trace
    from repro.trace.generator import bundles_for_instructions, generate_trace
    from repro.trace.synthetic import derive_params

    profile = get_profile(args.app)
    params = derive_params(profile, baseline_config())
    rng = derive_rng(args.seed, "trace", args.app)
    bundles = bundles_for_instructions(params, args.instructions)
    trace = generate_trace(params, bundles, rng)
    save_trace(args.output, trace, params=params,
               extra={"app": args.app, "seed": args.seed})
    print(f"wrote {len(trace)} records (~{args.instructions} instructions) "
          f"for {args.app} to {args.output}")
    return 0


def _parse_workloads(text: str) -> tuple[int, ...]:
    """Parse the ``--workloads`` comma list (e.g. ``1,2,5``)."""
    try:
        numbers = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad workload list {text!r}") from None
    if not numbers:
        raise argparse.ArgumentTypeError("workload list is empty")
    return numbers


def _cmd_sweep(args) -> int:
    from repro.jobs.scheduler import matrix_jobs, run_jobs
    from repro.sim.metrics import MatrixResult
    from repro.sim.store import save_matrix

    config = baseline_config()
    all_workloads = make_workloads(num_cores=config.num_cores, seed=args.seed)
    numbers = args.workloads or tuple(range(1, len(all_workloads) + 1))
    for number in numbers:
        if not (1 <= number <= len(all_workloads)):
            print(f"error: workload must be 1..{len(all_workloads)}",
                  file=sys.stderr)
            return 2
    workloads = [all_workloads[number - 1] for number in numbers]
    schemes = tuple(args.schemes)

    # Always carry a Telemetry handle so the engine's ``jobs.*``
    # accounting (cache hits, executions, resumes, replay paths) can be
    # reported; a bare handle does not instrument the cells, which stay
    # on the replay kernel.
    telemetry = _make_telemetry(args) or Telemetry()

    def _narrate(job) -> None:
        print(f"  {job.spec.workload} / {job.spec.scheme} ...", file=sys.stderr)

    jobs = matrix_jobs(workloads, schemes, config,
                       seed=args.seed, n_instructions=args.instructions)
    spans = _span_target(args)
    with _monitoring(
        args, len(jobs), label=args.label, registry=telemetry.registry,
    ) as observer:
        results, report = run_jobs(
            jobs,
            max_workers=args.jobs,
            cache=args.cache_dir,
            journal=args.journal,
            resume=args.resume,
            retries=args.retries,
            stage1_store=args.stage1_cache,
            telemetry=telemetry,
            # The live status line owns stderr; per-cell narration yields.
            progress=None if args.progress else _narrate,
            observer=observer,
            ledger=args.ledger,
            job_timeout_s=args.job_timeout,
            keep_going=args.keep_going,
            quarantine=args.quarantine,
            chaos=args.chaos,
            spans=spans,
        )
    matrix = MatrixResult(
        label=args.label,
        schemes=schemes,
        workloads=tuple(wl.name for wl in workloads),
    )
    for result in results:
        matrix.add(result)

    rows = []
    for result in results:
        rows.append((
            result.workload,
            result.scheme + (" [FAILED]" if result.failed else ""),
            result.ipc, result.min_lifetime,
            result.wear_cov,
            result.llc_fetch_hit_rate,
        ))
    print(format_table(
        ["workload", "scheme", "IPC", "min life [y]", "wear CV", "LLC hit"],
        rows,
    ))
    print(f"\n{report.summary()}")
    accounting = telemetry.registry.subtree("jobs")
    if accounting:
        print("engine accounting:")
        for name, value in accounting.items():
            print(f"  {name} = {int(value)}")
    if args.out:
        save_matrix(args.out, matrix)
        print(f"\nwrote matrix to {args.out}")
    _export_trace(args, telemetry)
    _print_profile(args, spans)
    if report.failed:
        where = f" (quarantine: {args.quarantine})" if args.quarantine else ""
        print(
            f"warning: {report.failed} cell(s) FAILED and were "
            f"quarantined{where}; their matrix cells are zeroed "
            "placeholders",
            file=sys.stderr,
        )
        return 3
    return 0


def _parse_ages(text: str) -> tuple[float, ...]:
    """Parse the ``--ages`` comma list (e.g. ``0.5,0.9,1.1``)."""
    try:
        ages = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad age list {text!r}") from None
    if not ages:
        raise argparse.ArgumentTypeError("age list is empty")
    return ages


def _parse_bank_failure(text: str) -> tuple[int, float]:
    """Parse one ``--fail-bank`` entry: ``BANK`` or ``BANK:AGE``."""
    bank, _, age = text.partition(":")
    try:
        return int(bank), float(age) if age else 0.0
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad bank failure {text!r} (expected BANK or BANK:AGE)"
        ) from None


def _parse_budgets(text: str) -> tuple[int, ...]:
    """Parse the ``--budget-schedule`` comma list (e.g. ``2000,8000``)."""
    try:
        budgets = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad budget list {text!r}") from None
    if not budgets:
        raise argparse.ArgumentTypeError("budget list is empty")
    return budgets


def _cmd_search(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.common.store import atomic_write_text
    from repro.search import load_space, preset_space, run_search

    # ``--space`` is a JSON file when it looks like one, else a preset.
    if args.space.endswith(".json") or Path(args.space).exists():
        space = load_space(args.space)
    else:
        space = preset_space(args.space)

    workload_numbers = args.workloads or (1,)
    telemetry = _make_telemetry(args) or Telemetry()

    # Upper-bound job estimate for the progress line and monitor (the
    # halving driver prunes, and resume skips, so this is a ceiling).
    rungs = len(args.budget_schedule) if args.driver == "halving" else 1
    estimate, per_rung = 0, args.points
    for _ in range(rungs):
        estimate += per_rung * len(workload_numbers)
        per_rung = max(1, int(per_rung * args.promote))
    estimate += len(workload_numbers)  # the Re-NUCA reference point

    spans = _span_target(args)
    with _monitoring(
        args, estimate, label=args.label, registry=telemetry.registry,
    ) as observer:
        outcome = run_search(
            space,
            driver=args.driver,
            sampler=args.sampler,
            n_points=args.points,
            budget_schedule=args.budget_schedule,
            objectives=tuple(args.objectives),
            workload_numbers=workload_numbers,
            seed=args.seed,
            promote=args.promote,
            max_workers=args.jobs,
            cache=args.cache_dir,
            journal=args.journal,
            resume=args.resume,
            retries=args.retries,
            stage1_store=args.stage1_cache,
            telemetry=telemetry,
            observer=observer,
            ledger=args.ledger,
            job_timeout_s=args.job_timeout,
            spans=spans,
        )

    final = outcome.final_evaluations()
    front_ids = {e.point_id for e in outcome.frontier}
    rows = []
    for e in sorted(final, key=lambda e: (e.point_id not in front_ids,
                                          e.point_id)):
        rows.append((
            ("*" if e.point_id in front_ids else " ") + " " + e.point_id,
            "Re-NUCA default" if e.reference else e.scheme,
            e.metrics["ipc"], e.metrics["lifetime"],
            e.metrics["energy"], e.metrics["wear_cov"],
        ))
    print(format_table(
        ["point (* = frontier)", "scheme", "IPC", "min life [y]",
         "energy [mJ]", "wear CoV"],
        rows,
    ))
    print(f"\nfrontier: {len(outcome.frontier)} of {len(final)} full-budget "
          f"points; hypervolume {outcome.hypervolume:.6g} over "
          f"({', '.join(outcome.objectives)})")
    print("search accounting:")
    for name, value in sorted(outcome.report.items()):
        print(f"  {name} = {value}")
    if args.out:
        atomic_write_text(args.out, _json.dumps(outcome.to_dict(), indent=1))
        print(f"\nwrote search outcome to {args.out}")
    if args.html:
        from repro.obs.html_report import render_search_report

        atomic_write_text(args.html, render_search_report(
            outcome,
            title=f"Re-NUCA design-space search: {args.label}",
        ))
        print(f"wrote Pareto report to {args.html}")
    _print_profile(args, spans)
    return 0


def _cmd_endoflife(args) -> int:
    from repro.experiments.endoflife import (
        DEFAULT_SCHEMES,
        render_endoflife,
        run_endoflife,
    )

    telemetry = _make_telemetry(args)

    def _progress(scheme: str, age: float) -> None:
        print(f"  running {scheme} at age {age:.2f} ...", file=sys.stderr)

    ages = tuple(sorted(set(args.ages)))
    swept_ages = (0.0, *[a for a in ages if a > 0])
    schemes = tuple(args.schemes or DEFAULT_SCHEMES)
    total = len(schemes) * len(swept_ages)
    spans = _span_target(args)
    with _monitoring(
        args, total, label=f"endoflife WL{args.workload}",
        registry=telemetry.registry if telemetry is not None else None,
    ) as observer:
        curves = run_endoflife(
            workload_number=args.workload,
            ages=swept_ages,
            schemes=schemes,
            seed=args.seed,
            n_instructions=args.instructions,
            stage1_store=args.stage1_cache,
            bank_failures=tuple(args.fail_bank),
            transient_rate=args.transient_rate,
            # The live status line owns stderr; per-cell narration yields.
            progress=None if args.progress else _progress,
            telemetry=telemetry,
            max_workers=args.jobs,
            observer=observer,
            ledger=args.ledger,
            retries=args.retries,
            job_timeout_s=args.job_timeout,
            spans=spans,
        )
    print(render_endoflife(curves))
    _export_trace(args, telemetry)
    _print_profile(args, spans)
    return 0


def _cmd_stats(args) -> int:
    from repro.experiments.ascii_plot import interval_heatmap
    from repro.jobs.scheduler import matrix_jobs, run_jobs

    if args.from_spans:
        from repro.obs.spans import load_spans

        spans = load_spans(args.from_spans)
        if not any(span.category == "phase" for span in spans):
            print(f"no phase spans in {args.from_spans}")
            return 0
        print(f"phase wall time over {len(spans)} spans "
              f"({args.from_spans}):")
        print(_phase_table(spans))
        return 0

    config = baseline_config()
    workloads = make_workloads(num_cores=config.num_cores, seed=args.seed)
    index = args.workload - 1
    if not (0 <= index < len(workloads)):
        print(f"error: workload must be 1..{len(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[index]
    print(f"{workload.name}: {', '.join(workload.apps)}")
    stage1 = Stage1Cache(store=args.stage1_cache)
    covs: dict[str, float] = {}
    traced = 0
    for number, scheme in enumerate(args.schemes):
        # One handle per scheme keeps each counter/interval series
        # isolated; the JSONL file is shared, and the engine stamps
        # each record with its cell.
        telemetry = Telemetry(
            trace=bool(args.trace_out),
            interval_instructions=args.interval,
        )
        spans = _span_target(args)
        (result,), _report = run_jobs(
            matrix_jobs(
                [workload], (scheme,), config,
                seed=args.seed, n_instructions=args.instructions,
            ),
            stage1=stage1, telemetry=telemetry, ledger=args.ledger,
            spans=spans,
        )
        if telemetry.trace is not None:
            traced += telemetry.trace.export_jsonl(
                args.trace_out, append=number > 0,
            )
        print(f"\n=== {scheme} ===")
        print(telemetry.registry.render())
        series = result.intervals
        if series is None or len(series) == 0:
            # Interval dumps were disabled (--interval 0) or the run was
            # too short to cross a single interval boundary: fall back
            # to the registry-only view rather than erroring out.
            print("\n(no interval series recorded; registry-only view. "
                  "Pass --interval N>0 to sample the run over time.)")
        else:
            matrix = series.bank_write_matrix()
            if matrix.size:
                banks = matrix.shape[1]
                rows = [
                    (i + 1, series.instructions[i], series.accesses[i],
                     *(int(v) for v in matrix[i]))
                    for i in range(matrix.shape[0])
                ]
                print("\nper-interval per-bank LLC writes "
                      f"(every ~{series.interval_instructions} instructions):")
                print(format_table(
                    ["#", "instrs", "accesses",
                     *[f"b{b}" for b in range(banks)]],
                    rows,
                ))
                print()
                print(interval_heatmap(
                    matrix.T,
                    title=f"{scheme}: per-bank writes over intervals "
                          "(shade = relative write pressure)",
                ))
        covs[scheme] = result.wear_cov
        _print_profile(args, spans)
    print("\nper-bank write CoV (lower = more even wear):")
    for scheme, cov in covs.items():
        print(f"  {scheme:>8s}  {cov:.3f}")
    if args.trace_out:
        print(f"\nwrote {traced} events to {args.trace_out}")
    return 0


def _cmd_diff(args) -> int:
    from repro.obs.diff import (
        diff_metric_maps,
        load_comparable,
        load_rules,
        render_findings,
    )

    rules = load_rules(args.tolerances) if args.tolerances else None
    baseline = load_comparable(args.baseline)
    current = load_comparable(args.current)
    findings = diff_metric_maps(baseline, current, rules)
    print(render_findings(findings, verbose=args.verbose))
    return 1 if any(not finding.ok for finding in findings) else 0


def _cmd_report(args) -> int:
    from repro.common.store import atomic_write_text
    from repro.obs.html_report import render_html_report
    from repro.obs.ledger import RunLedger
    from repro.sim.store import load_matrix

    matrix = load_matrix(args.matrix)
    records = RunLedger(args.ledger).load() if args.ledger else None
    html = render_html_report(
        matrix,
        ledger_records=records,
        title=args.title or f"Re-NUCA report: {matrix.label}",
    )
    atomic_write_text(args.html, html)
    print(f"wrote report for {len(matrix.results)} cells"
          + (f" and {len(records)} ledger records" if records else "")
          + f" to {args.html}")
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import run_top

    return run_top(
        url=args.url,
        journal=args.journal,
        spans=args.spans,
        total=args.total,
        interval_s=args.interval,
        once=args.once,
    )


def _cmd_bench_record(args) -> int:
    from repro.obs.bench import (
        append_bench_point,
        bench_point,
        search_bench_point,
    )
    from repro.obs.ledger import RunLedger
    from repro.sim.store import load_matrix

    if args.search:
        import json as _json
        from pathlib import Path

        from repro.search.drivers import SearchOutcome

        try:
            payload = _json.loads(Path(args.search).read_text(encoding="utf-8"))
        except (OSError, _json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read {args.search}: {exc}") from exc
        outcome = SearchOutcome.from_dict(payload)
        point = search_bench_point(outcome, label=args.label)
        count = append_bench_point(args.out, point)
        print(f"recorded point #{count} ({point['label']}) in {args.out}")
        return 0
    if not args.matrix:
        print("error: need --matrix or --search", file=sys.stderr)
        return 2
    matrix = load_matrix(args.matrix)
    wall_time_s = None
    if args.ledger:
        records = RunLedger(args.ledger).load()
        if records:
            wall_time_s = sum(record.wall_time_s for record in records)
    point = bench_point(matrix, label=args.label, wall_time_s=wall_time_s)
    count = append_bench_point(args.out, point)
    print(f"recorded point #{count} ({point['label']}) in {args.out}")
    return 0


def _cmd_history(args) -> int:
    from repro.obs.diff import load_rules
    from repro.obs.history import RunIndex
    from repro.obs.trajectory import (
        gate_trajectories,
        metric_trajectories,
        render_trajectory_findings,
    )

    if args.ledger or args.bench or args.search:
        from pathlib import Path

        index = RunIndex()
        # An explicitly named artefact must exist: the loaders tolerate
        # missing files (append-first contract), but a typo'd --bench
        # silently gating nothing would defeat the check.
        for flag, paths, add in (
            ("--ledger", args.ledger, index.add_ledger),
            ("--bench", args.bench, index.add_bench),
            ("--search", args.search, index.add_search),
        ):
            for path in paths or ():
                if not Path(path).is_file():
                    raise ReproError(f"{flag} {path}: no such file")
                add(path)
    else:
        index = RunIndex.scan(args.dir, cache=args.scan_cache)
    for warning in index.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    rules = load_rules(args.tolerances) if args.tolerances else None

    if args.html:
        from repro.common.store import atomic_write_text
        from repro.obs.html_report import render_history_report

        atomic_write_text(args.html, render_history_report(
            index, last=args.last, rules=rules,
            window=args.window, sustain=args.sustain,
        ))
        print(f"wrote history report ({len(index.records)} runs, "
              f"{len(index.bench_points)} bench points, "
              f"{len(index.searches)} searches) to {args.html}")

    series = metric_trajectories(index)
    if args.action == "check":
        findings = gate_trajectories(
            series, rules, window=args.window, sustain=args.sustain,
        )
        print(render_trajectory_findings(findings, series))
        return 1 if findings else 0

    commits = index.commits()
    print(f"{len(index.records)} ledger runs, "
          f"{len(index.bench_points)} bench points, "
          f"{len(index.searches)} search outcomes "
          f"across {len(commits)} commit(s) "
          f"({len(index.sources)} files indexed)")
    searches = index.searches_by_age()
    if searches:
        print("\nsearch outcomes (oldest first):")
        print(format_table(
            ["commit", "driver", "frontier", "hypervolume", "file"],
            [
                ((s.git_sha or "untracked")[:10], s.outcome.driver,
                 len(s.outcome.frontier), f"{s.outcome.hypervolume:.6g}",
                 s.path)
                for s in searches
            ],
        ))
    if series:
        print("\ntrajectory series:")
        print(format_table(
            ["source", "scheme", "metric", "samples", "first", "last"],
            [
                (source, scheme, metric, len(points),
                 f"{points[0].value:.4f}", f"{points[-1].value:.4f}")
                for (source, scheme, metric), points in sorted(series.items())
            ],
        ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Re-NUCA (IPDPS 2016) reproduction toolkit",
    )
    parser.add_argument("--version", action=_VersionAction)
    # Not `required`: a bare ``repro`` prints the full help (exit 2, see
    # :func:`main`) instead of argparse's two-line usage error.
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("config", help="print the Table I configuration")

    p_table2 = sub.add_parser("table2", help="characterise applications")
    p_table2.add_argument("apps", nargs="*",
                          help="apps to run (default: all 22)")
    _add_common(p_table2)

    p_compare = sub.add_parser("compare", help="run one workload under schemes")
    p_compare.add_argument("--workload", type=int, default=1,
                           help="workload number 1..10 (default 1)")
    p_compare.add_argument("--schemes", nargs="+",
                           default=["S-NUCA", "R-NUCA", "Re-NUCA"],
                           help="NUCA schemes to compare")
    _add_common(p_compare)
    _add_telemetry(p_compare)
    _add_jobs(p_compare)
    _add_stage1(p_compare)
    _add_ledger(p_compare)
    _add_monitor(p_compare)

    p_sweep = sub.add_parser(
        "sweep",
        help="run a workloads x schemes grid through the sweep engine",
    )
    p_sweep.add_argument("--workloads", type=_parse_workloads, default=None,
                         metavar="N,N,...",
                         help="comma list of workload numbers (default: all)")
    p_sweep.add_argument("--schemes", nargs="+",
                         default=["S-NUCA", "R-NUCA", "Re-NUCA"],
                         help="NUCA schemes to sweep")
    p_sweep.add_argument("--cache-dir", metavar="DIR", default=None,
                         help="content-addressed result cache directory; "
                              "unchanged cells are served without simulating")
    p_sweep.add_argument("--journal", metavar="FILE", default=None,
                         help="append-only completion journal (JSONL)")
    p_sweep.add_argument("--resume", action="store_true",
                         help="replay cells already recorded in --journal")
    p_sweep.add_argument("--out", metavar="FILE", default=None,
                         help="save the result matrix as JSON")
    p_sweep.add_argument("--label", default="sweep",
                         help="label stored in the result matrix")
    p_sweep.add_argument("--keep-going", action="store_true",
                         help="quarantine poison cells (crash/timeout/retry "
                              "exhaustion) as FAILED placeholders and finish "
                              "the sweep; exit status 3 when any cell failed")
    p_sweep.add_argument("--quarantine", metavar="FILE", default=None,
                         help="append-only quarantine journal (JSONL) "
                              "receiving one record per poisoned cell")
    p_sweep.add_argument("--chaos", metavar="SPEC", default=None,
                         help="chaos-injection rules for resilience testing, "
                              "e.g. 'mixA/*@0=kill;mixB/S-NUCA@*=hang:30' "
                              "(see docs/RESILIENCE.md)")
    _add_common(p_sweep)
    _add_telemetry(p_sweep)
    _add_jobs(p_sweep)
    _add_stage1(p_sweep)
    _add_ledger(p_sweep)
    _add_monitor(p_sweep)

    p_search = sub.add_parser(
        "search",
        help="design-space exploration: multi-fidelity search over "
             "NUCA/ReRAM configurations with a Pareto frontier "
             "(see docs/SEARCH.md)",
    )
    p_search.add_argument("--space", default="nuca", metavar="FILE|PRESET",
                          help="search-space JSON file or preset name "
                               "('nuca', 'schemes'; default nuca)")
    p_search.add_argument("--driver", default="halving",
                          choices=["halving", "random", "grid"],
                          help="search driver (default halving = "
                               "successive halving over the budget "
                               "schedule)")
    p_search.add_argument("--sampler", default="halton",
                          choices=["halton", "random", "grid"],
                          help="candidate sampler (default halton "
                               "low-discrepancy)")
    p_search.add_argument("--points", type=int, default=16, metavar="N",
                          help="candidate points to propose (default 16)")
    p_search.add_argument("--budget-schedule", type=_parse_budgets,
                          default=(2000, 8000), metavar="N,N,...",
                          help="instruction budgets per rung, ascending "
                               "fidelity (default 2000,8000; non-halving "
                               "drivers use only the last)")
    p_search.add_argument("--objectives", nargs="+",
                          default=["ipc", "lifetime", "energy"],
                          help="objectives to optimise: ipc, lifetime "
                               "(maximised), energy, wear_cov (minimised)")
    p_search.add_argument("--workloads", type=_parse_workloads, default=None,
                          metavar="N,N,...",
                          help="comma list of workload numbers evaluated "
                               "per point (default: 1)")
    p_search.add_argument("--promote", type=float, default=0.5,
                          metavar="FRACTION",
                          help="fraction of points promoted per rung "
                               "(default 0.5)")
    p_search.add_argument("--cache-dir", metavar="DIR", default=None,
                          help="content-addressed result cache directory "
                               "shared with 'repro sweep'")
    p_search.add_argument("--journal", metavar="FILE", default=None,
                          help="search journal (JSONL; rung sweep journals "
                               "are derived next to it)")
    p_search.add_argument("--resume", action="store_true",
                          help="replay evaluations recorded in --journal "
                               "and re-simulate only the remainder")
    p_search.add_argument("--out", metavar="FILE", default=None,
                          help="save the search outcome as JSON")
    p_search.add_argument("--html", metavar="FILE", default=None,
                          help="write a self-contained Pareto scatter "
                               "report (IPC vs lifetime)")
    p_search.add_argument("--label", default="search",
                          help="label for the monitor and report title")
    _add_common(p_search)
    _add_telemetry(p_search)
    _add_jobs(p_search)
    _add_stage1(p_search)
    _add_ledger(p_search)
    _add_monitor(p_search)

    p_stats = sub.add_parser(
        "stats",
        help="telemetry deep-dive: interval series and wear heatmap",
    )
    p_stats.add_argument("--workload", type=int, default=1,
                         help="workload number 1..10 (default 1)")
    p_stats.add_argument("--schemes", nargs="+",
                         default=["S-NUCA", "R-NUCA", "Re-NUCA"],
                         help="NUCA schemes to inspect")
    p_stats.add_argument("--interval", type=int, default=50_000,
                         help="interval-dump period in committed "
                              "instructions (default 50000)")
    p_stats.add_argument("--from-spans", metavar="FILE", default=None,
                         help="print a per-phase wall-time table from a "
                              "spans.jsonl file and exit (no simulation)")
    _add_common(p_stats)
    _add_telemetry(p_stats)
    _add_stage1(p_stats)
    _add_ledger(p_stats)

    p_wl = sub.add_parser("workloads", help="show the WL1..WL10 mixes")
    _add_common(p_wl)

    p_trace = sub.add_parser(
        "trace",
        help="generate a trace file, or export spans to Chrome/Perfetto "
             "('repro trace export OUT --spans spans.jsonl')",
    )
    p_trace.add_argument("app", help="Table II application name, or "
                                     "'export' for the Perfetto exporter")
    p_trace.add_argument("output", help="output path (.npz, or trace JSON "
                                        "for 'export')")
    p_trace.add_argument("--spans", metavar="FILE", default=None,
                         help="spans.jsonl to export (with 'export'; "
                              "default spans.jsonl)")
    _add_common(p_trace)

    p_top = sub.add_parser(
        "top",
        help="live dashboard for a running sweep (--serve endpoint) or a "
             "finished one (journal/span files)",
    )
    p_top.add_argument("--url", default=None,
                       help="monitor base URL (http://127.0.0.1:PORT from "
                            "a sweep's --serve)")
    p_top.add_argument("--journal", metavar="FILE", default=None,
                       help="sweep journal for offline reconstruction")
    p_top.add_argument("--spans", metavar="FILE", default=None,
                       help="spans.jsonl for offline reconstruction")
    p_top.add_argument("--total", type=int, default=None,
                       help="expected cell count (offline mode hint)")
    p_top.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="poll/repaint period (default 1.0)")
    p_top.add_argument("--once", action="store_true",
                       help="render one frame without ANSI repaint codes "
                            "(CI logs)")

    p_eol = sub.add_parser(
        "endoflife",
        help="sweep cache age under end-of-life fault injection",
    )
    p_eol.add_argument("--workload", type=int, default=1,
                       help="workload number 1..10 (default 1)")
    p_eol.add_argument("--ages", type=_parse_ages, default=(0.5, 0.9, 1.1),
                       help="comma list of endurance fractions "
                            "(default 0.5,0.9,1.1; 0.0 baseline always runs)")
    p_eol.add_argument("--schemes", nargs="+", default=None,
                       help="NUCA schemes (default S-NUCA R-NUCA Re-NUCA)")
    p_eol.add_argument("--fail-bank", type=_parse_bank_failure, action="append",
                       default=[], metavar="BANK[:AGE]",
                       help="schedule a whole-bank failure (repeatable); "
                            "AGE defaults to 0 (dead at every swept age)")
    p_eol.add_argument("--transient-rate", type=float, default=0.0,
                       help="per-read soft-fault probability (default 0)")
    _add_common(p_eol)
    _add_telemetry(p_eol)
    _add_jobs(p_eol)
    _add_stage1(p_eol)
    _add_ledger(p_eol)
    _add_monitor(p_eol)

    p_diff = sub.add_parser(
        "diff",
        help="regression gate: compare two result sets under tolerances",
    )
    p_diff.add_argument("baseline",
                        help="baseline matrix JSON or run-ledger JSONL")
    p_diff.add_argument("current",
                        help="current matrix JSON or run-ledger JSONL")
    p_diff.add_argument("--tolerances", metavar="FILE", default=None,
                        help="tolerance-rule JSON (default: built-in rules; "
                             "see baselines/tolerances.json)")
    p_diff.add_argument("--verbose", "-v", action="store_true",
                        help="also list comparisons that passed")

    p_report = sub.add_parser(
        "report",
        help="render a result matrix as one self-contained HTML file",
    )
    p_report.add_argument("--matrix", metavar="FILE", required=True,
                          help="saved result matrix (repro sweep --out)")
    p_report.add_argument("--html", metavar="FILE", required=True,
                          help="output HTML path (single file, no "
                               "external references)")
    p_report.add_argument("--ledger", metavar="FILE", default=None,
                          help="run ledger for the history and phase wall-time "
                               "sections")
    p_report.add_argument("--title", default=None, help="report title")

    p_bench = sub.add_parser(
        "bench-record",
        help="append a timing/IPC point to a BENCH_*.json trajectory",
    )
    p_bench.add_argument("--matrix", metavar="FILE", default=None,
                         help="saved result matrix to summarise")
    p_bench.add_argument("--search", metavar="FILE", default=None,
                         help="search outcome JSON (repro search --out); "
                              "records frontier size and hypervolume "
                              "instead of a matrix summary")
    p_bench.add_argument("--out", metavar="FILE", default="BENCH_sweep.json",
                         help="trajectory file (default BENCH_sweep.json)")
    p_bench.add_argument("--ledger", metavar="FILE", default=None,
                         help="run ledger; its wall times sum into the point")
    p_bench.add_argument("--label", default="",
                         help="point label (default: the matrix label)")

    p_history = sub.add_parser(
        "history",
        help="longitudinal history: cross-run index, frontier-evolution "
             "overlays and sliding-window trajectory gating",
    )
    p_history.add_argument("action", nargs="?", default="show",
                           choices=["show", "check"],
                           help="'show' prints the index summary; 'check' "
                                "gates metric trajectories and exits 1 on "
                                "sustained drift (default show)")
    p_history.add_argument("--dir", default=".", metavar="DIR",
                           help="directory tree to scan for ledgers, "
                                "BENCH_*.json files and search outcomes "
                                "(default: . ; ignored when explicit "
                                "--ledger/--bench/--search are given)")
    p_history.add_argument("--ledger", metavar="FILE", action="append",
                           default=None,
                           help="run-ledger JSONL to index (repeatable)")
    p_history.add_argument("--bench", metavar="FILE", action="append",
                           default=None,
                           help="BENCH_*.json trajectory to index "
                                "(repeatable)")
    p_history.add_argument("--search", metavar="FILE", action="append",
                           default=None,
                           help="search outcome JSON to index (repeatable)")
    p_history.add_argument("--scan-cache", metavar="FILE", default=None,
                           help="on-disk scan cache keyed by file "
                                "mtime/size; rescans of large history "
                                "trees re-read only changed files")
    p_history.add_argument("--html", metavar="FILE", default=None,
                           help="write the self-contained timeline report "
                                "(frontier overlays, sparklines, run index)")
    p_history.add_argument("--last", type=int, default=5, metavar="K",
                           help="search frontiers overlaid in the report "
                                "(default 5)")
    p_history.add_argument("--tolerances", metavar="FILE", default=None,
                           help="tolerance-rule JSON for the gate (default: "
                                "built-in rules; see "
                                "baselines/tolerances.json)")
    p_history.add_argument("--window", type=int, default=3, metavar="N",
                           help="sliding window: samples in the "
                                "rolling-median baseline (default 3)")
    p_history.add_argument("--sustain", type=int, default=1, metavar="N",
                           help="consecutive out-of-tolerance samples "
                                "required before a finding fires "
                                "(default 1)")

    return parser


_COMMANDS = {
    "config": _cmd_config,
    "table2": _cmd_table2,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "search": _cmd_search,
    "stats": _cmd_stats,
    "workloads": _cmd_workloads,
    "trace": _cmd_trace,
    "endoflife": _cmd_endoflife,
    "diff": _cmd_diff,
    "report": _cmd_report,
    "bench-record": _cmd_bench_record,
    "history": _cmd_history,
    "top": _cmd_top,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`~repro.common.errors.ReproError` subclasses:
    unknown apps, malformed traces, bad configurations) are reported as a
    one-line ``error: ...`` on stderr with exit status 2 — they are user
    mistakes, not crashes.  A gracefully cancelled sweep
    (:class:`~repro.common.errors.SweepCancelled`) exits 130 with its
    resume hint.  Anything else propagates with a traceback.

    Run without a subcommand, prints the full help and exits 2 — the
    same status argparse uses for usage errors.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args)
    except SweepCancelled as exc:
        # A gracefully drained interrupt: completed cells are journaled
        # and ledgered; 130 is the conventional SIGINT exit status.
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
