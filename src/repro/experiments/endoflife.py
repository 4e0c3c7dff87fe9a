"""End-of-life study: how each NUCA scheme degrades as ReRAM cells fail.

The paper's lifetime results say *when* the first bank dies; this
experiment shows *what the machine feels like* on the way there.  One
workload is swept over a set of service ages (fraction of nominal cell
endurance consumed by the average bank); at each age the deterministic
fault models retire worn-out frames — hot banks and hot sets first, in
proportion to the wear each scheme actually produced — and the measured
phase runs on the degraded cache.

The headline curve is IPC (and LLC hit rate / effective capacity)
versus age per scheme:

* **R-NUCA** concentrates a core's writes on its 4-bank cluster, so its
  hot banks cross the endurance wall early — capacity collapses where
  the workload needs it most.
* **S-NUCA** wears uniformly; everything degrades together, later.
* **Re-NUCA** wear-levels the non-critical majority of fills while
  keeping critical lines close, so the IPC cliff arrives latest — the
  graceful-degradation version of the paper's "+42% minimum lifetime".

Every run completes regardless of how much of the cache is gone; a
scheduled whole-bank failure degrades to remapping over the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ReproError
from repro.config import FaultConfig, SystemConfig, baseline_config
from repro.experiments.report import format_table
from repro.sim.metrics import WorkloadSchemeResult
from repro.sim.runner import DEFAULT_INSTRUCTIONS, Stage1Cache
from repro.trace.workloads import make_workloads

#: Default service-age sweep (fractions of nominal cell endurance).
DEFAULT_AGES: tuple[float, ...] = (0.0, 0.5, 0.75, 0.9, 1.0, 1.1)

#: Schemes compared by default (the paper's three headline mappings).
DEFAULT_SCHEMES: tuple[str, ...] = ("S-NUCA", "R-NUCA", "Re-NUCA")


@dataclass(frozen=True)
class AgePoint:
    """One (scheme, age) cell of the degradation sweep."""

    scheme: str
    age: float
    ipc: float
    llc_hit_rate: float
    effective_capacity: float
    dead_banks: int
    remap_traffic: int
    fills_skipped: int
    transient_faults: int

    @classmethod
    def from_result(cls, result: WorkloadSchemeResult) -> "AgePoint":
        """Project the degradation metrics out of a stage-2 result."""
        return cls(
            scheme=result.scheme,
            age=result.age_fraction,
            ipc=result.ipc,
            llc_hit_rate=result.llc_fetch_hit_rate,
            effective_capacity=result.effective_capacity,
            dead_banks=result.dead_banks,
            remap_traffic=result.remap_traffic,
            fills_skipped=result.fills_skipped,
            transient_faults=result.transient_faults,
        )


def run_endoflife(
    *,
    workload_number: int = 1,
    ages: tuple[float, ...] = DEFAULT_AGES,
    schemes: tuple[str, ...] = DEFAULT_SCHEMES,
    config: SystemConfig | None = None,
    seed: int | None = None,
    n_instructions: int = DEFAULT_INSTRUCTIONS,
    stage1: Stage1Cache | None = None,
    stage1_store=None,
    bank_failures: tuple[tuple[int, float], ...] = (),
    transient_rate: float = 0.0,
    progress=None,
    telemetry=None,
    max_workers: int = 1,
    cache_dir=None,
    journal=None,
    resume: bool = False,
    observer=None,
    ledger=None,
    retries: int | None = None,
    job_timeout_s: float | None = None,
    spans=None,
) -> dict[str, list[AgePoint]]:
    """Sweep one workload over cache ages for several schemes.

    Args:
        workload_number: 1-based WL index (as on the CLI).
        ages: service ages to evaluate; 0.0 is the pristine baseline.
        schemes: NUCA schemes to compare.
        bank_failures: scheduled whole-bank failures, applied at every
            age whose value reaches the failure age.
        transient_rate: per-read soft-fault probability.
        progress: optional ``(scheme, age) -> None`` narration callback,
            fired before each cell.
        telemetry: optional :class:`~repro.telemetry.Telemetry` handle
            that every (scheme, age) cell merges into, at any
            ``max_workers``: counters accumulate over the sweep, and the
            event ring retains the most recent events, each stamped
            with its cell's ``workload``/``scheme`` (and ``age`` once
            faults are injected).  Export it once the sweep returns.
        max_workers: worker processes for the (scheme, age) cells; 1
            keeps the historical in-process sweep.  Results are
            deterministic either way (see ``docs/SWEEPS.md``).
        cache_dir: optional content-addressed result cache directory.
        stage1_store: optional shared on-disk stage-1 store (a
            :class:`~repro.sim.stage1_store.Stage1Store` or its root
            directory); ages and schemes reuse one characterisation.
        journal: optional completion-journal path enabling ``resume``.
        resume: replay cells already recorded in ``journal``.
        observer: optional live :class:`~repro.obs.progress.JobEvent`
            hook (see ``repro endoflife --progress``).
        ledger: optional :class:`~repro.obs.ledger.RunLedger` (or path)
            receiving one provenance record per resolved cell.
        retries: per-cell retry budget for transient failures (None
            keeps the engine default).
        job_timeout_s: optional watchdog deadline per cell (see
            ``docs/RESILIENCE.md``).

    Returns:
        ``{scheme: [AgePoint per age, in sweep order]}``.

    Raises:
        ReproError: for an out-of-range workload number or empty sweep.
    """
    from repro.jobs.scheduler import DEFAULT_RETRIES, SweepJob, run_jobs
    from repro.jobs.spec import JobSpec

    config = config or baseline_config()
    if not ages:
        raise ReproError("need at least one age to sweep")
    if not schemes:
        raise ReproError("need at least one scheme to compare")
    workloads = make_workloads(num_cores=config.num_cores, seed=seed)
    if not (1 <= workload_number <= len(workloads)):
        raise ReproError(
            f"workload number must be 1..{len(workloads)}, got {workload_number}"
        )
    workload = workloads[workload_number - 1]

    cells = [(scheme, age) for scheme in schemes for age in ages]
    jobs = []
    for scheme, age in cells:
        fault_config = FaultConfig(
            age_fraction=age,
            transient_rate=transient_rate,
            bank_failures=bank_failures,
        )
        jobs.append(SweepJob(
            spec=JobSpec.for_run(
                workload, scheme, config,
                seed=seed, n_instructions=n_instructions,
                fault_config=fault_config if fault_config.active else None,
            ),
            config=config,
        ))

    if progress is not None:
        # Adapt the engine's per-job hook to the historical
        # ``(scheme, age)`` narration signature.  An age>0 point always
        # carries its fault config (age>0 implies an active fault), so a
        # spec without one can only be the age-0.0 pristine cell.
        def _narrate(job) -> None:
            spec = job.spec
            progress(
                spec.scheme,
                spec.fault.age_fraction if spec.fault is not None else 0.0,
            )
    else:
        _narrate = None

    results, _report = run_jobs(
        jobs,
        max_workers=max_workers,
        cache=cache_dir,
        journal=journal,
        resume=resume,
        stage1=stage1,
        stage1_store=stage1_store,
        telemetry=telemetry,
        progress=_narrate,
        observer=observer,
        ledger=ledger,
        retries=DEFAULT_RETRIES if retries is None else retries,
        job_timeout_s=job_timeout_s,
        spans=spans,
    )

    curves: dict[str, list[AgePoint]] = {scheme: [] for scheme in schemes}
    for (scheme, _age), result in zip(cells, results):
        curves[scheme].append(AgePoint.from_result(result))
    return curves


def ipc_cliff_age(points: list[AgePoint], *, drop: float = 0.10) -> float | None:
    """First swept age at which IPC fell ``drop`` below the pristine point.

    None when the curve never crosses the cliff within the sweep (or has
    no pristine baseline to compare against).
    """
    if not points:
        return None
    baseline = points[0].ipc
    if baseline <= 0:
        return None
    for point in points[1:]:
        if point.ipc <= baseline * (1.0 - drop):
            return point.age
    return None


def render_endoflife(curves: dict[str, list[AgePoint]]) -> str:
    """Text report: the degradation table plus IPC-vs-age mini-curves."""
    if not curves:
        raise ReproError("nothing to render")
    rows = []
    for scheme, points in curves.items():
        for p in points:
            rows.append((
                scheme, f"{p.age:.2f}", p.ipc, f"{100 * p.llc_hit_rate:.1f}%",
                f"{100 * p.effective_capacity:.1f}%", p.dead_banks,
                p.remap_traffic, p.fills_skipped, p.transient_faults,
            ))
    table = format_table(
        ["scheme", "age", "IPC", "LLC hit", "capacity", "dead banks",
         "remaps", "skipped fills", "soft faults"],
        rows,
    )
    lines = [table, "", "IPC retention vs. age (100% = pristine):"]
    width = 40
    for scheme, points in curves.items():
        base = points[0].ipc or 1.0
        curve = " ".join(f"{100 * p.ipc / base:5.1f}" for p in points)
        bars = "".join(
            "#" if p.ipc / base >= 0.95 else "+" if p.ipc / base >= 0.85 else "."
            for p in points
        )
        lines.append(f"  {scheme:>8s}  [{bars:<{max(1, min(width, len(points)))}s}]  {curve}")
        cliff = ipc_cliff_age(points)
        lines.append(
            f"  {'':>8s}  10% IPC cliff at age "
            + (f"{cliff:.2f}" if cliff is not None else "> sweep end")
        )
    return "\n".join(lines)
