"""Search drivers: multi-fidelity successive halving and fixed budgets.

A driver proposes candidate points (see :mod:`repro.search.samplers`),
evaluates them through :func:`repro.jobs.run_jobs` — one batch per
*rung*, so serial and parallel execution produce bit-identical results —
and extracts the Pareto frontier at the final budget.

**Successive halving** (the multi-fidelity driver): rung 0 evaluates
every candidate at the schedule's smallest instruction budget; each
following rung keeps the top ``promote`` fraction (scalarised over the
normalised objectives, point-id tie-break) and re-evaluates it at the
next budget.  Cheap low-fidelity rungs prune the space; only survivors
pay full price.

**Resume**: every completed (point, budget) evaluation is appended to a
:class:`SearchJournal` (a :class:`~repro.common.jsonl.JsonlLog`, like
the sweep journal: fsync per record, torn-final-line tolerant), and
each rung's simulations run under their own sweep journal next to it.
Re-running with ``resume=True`` replays finished evaluations from the
search journal and finished simulations from the rung journals, so a
SIGKILLed search re-simulates only the remainder.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.common.errors import ConfigError, ReproError
from repro.common.jsonl import JsonlLog
from repro.config import SystemConfig, baseline_config
from repro.jobs.scheduler import run_jobs
from repro.obs.ledger import current_git_sha
from repro.search.pareto import (
    default_reference,
    hypervolume,
    pareto_indices,
    parse_objectives,
)
from repro.search.samplers import grid_points, halton_points, random_points
from repro.search.space import (
    EncodedPoint,
    SearchSpace,
    jobs_for_point,
    point_id_of,
)

#: Search-journal record layout version.
SEARCH_JOURNAL_FORMAT_VERSION = 1

#: Driver names accepted by :func:`run_search`.
DRIVERS = ("halving", "random", "grid")

#: Sampler names accepted by :func:`run_search`.
SAMPLERS = ("halton", "random", "grid")

#: Safety multiplier when filtering invalid corners out of a sampler
#: stream (a space could be mostly invalid; fail loudly past this).
_PROPOSE_OVERDRAW = 50


@dataclass
class Evaluation:
    """One completed (point, budget) measurement."""

    point_id: str
    values: dict
    scheme: str
    rung: int
    budget: int
    #: All objective metrics, whichever subset the search optimises:
    #: ``ipc`` (mean over workloads), ``lifetime`` (min), ``energy``
    #: (mean mJ), ``wear_cov`` (mean).
    metrics: dict
    #: True for the paper's Re-NUCA default, evaluated alongside the
    #: final rung as the plot's reference marker.
    reference: bool = False
    #: JobSpec fingerprints of the simulations folded into ``metrics``
    #: (one per workload, job order).  The linkage key into run ledgers:
    #: a ledger record with a matching fingerprint is the exact run that
    #: produced this measurement.  Empty for pre-linkage journals.
    fingerprints: tuple = ()

    def to_dict(self) -> dict:
        return {
            "point_id": self.point_id,
            "values": self.values,
            "scheme": self.scheme,
            "rung": self.rung,
            "budget": self.budget,
            "metrics": self.metrics,
            "reference": self.reference,
            "fingerprints": list(self.fingerprints),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Evaluation":
        try:
            return cls(
                point_id=str(data["point_id"]),
                values=dict(data["values"]),
                scheme=str(data["scheme"]),
                rung=int(data["rung"]),
                budget=int(data["budget"]),
                metrics={str(k): float(v) for k, v in data["metrics"].items()},
                reference=bool(data.get("reference", False)),
                fingerprints=tuple(
                    str(f) for f in data.get("fingerprints", ())
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed evaluation payload: {exc}") from exc


class SearchJournal(JsonlLog):
    """Append-only JSONL record of completed point evaluations.

    Keyed by ``(point_id, budget)`` — rung indices are derivable but a
    point promoted twice to the same budget (schedules with repeated
    budgets are rejected upstream) would be the same measurement.  A
    torn final line from a killed search is ignored: that evaluation
    simply reruns (its simulations are in the rung journal anyway).
    """

    kind = "search journal"
    version = SEARCH_JOURNAL_FORMAT_VERSION

    def load(self) -> dict:
        """Completed evaluations keyed ``(point_id, budget)``."""
        return {
            (evaluation.point_id, evaluation.budget): evaluation
            for evaluation in self.read(Evaluation.from_dict)
        }

    def record(self, evaluation: Evaluation) -> None:
        """Append one evaluation (flushed and fsynced immediately)."""
        self.write({"v": SEARCH_JOURNAL_FORMAT_VERSION, **evaluation.to_dict()})


@dataclass
class SearchOutcome:
    """Everything one search run produced."""

    driver: str
    seed: int | None
    objectives: tuple
    budget_schedule: tuple
    workload_numbers: tuple
    evaluations: list = field(default_factory=list)
    #: Final-budget evaluations on the Pareto frontier, input order.
    frontier: list = field(default_factory=list)
    hypervolume: float = 0.0
    #: Reference used for the hypervolume scalar ({objective: value}).
    reference: dict = field(default_factory=dict)
    reference_point_id: str | None = None
    #: Engine accounting summed over rungs plus search-level counters.
    report: dict = field(default_factory=dict)
    space: dict = field(default_factory=dict)
    #: Provenance: commit the search ran at (None outside a checkout)
    #: and its wall-clock completion time — the keys the history layer
    #: orders frontier overlays by.
    git_sha: str | None = None
    created_at: float | None = None

    def final_evaluations(self) -> list:
        """Evaluations at the last budget (the frontier's candidates)."""
        last = self.budget_schedule[-1]
        return [e for e in self.evaluations if e.budget == last]

    def to_dict(self) -> dict:
        return {
            "format_version": 1,
            "driver": self.driver,
            "seed": self.seed,
            "objectives": list(self.objectives),
            "budget_schedule": list(self.budget_schedule),
            "workload_numbers": list(self.workload_numbers),
            "evaluations": [e.to_dict() for e in self.evaluations],
            "frontier": [e.point_id for e in self.frontier],
            "hypervolume": self.hypervolume,
            "reference": self.reference,
            "reference_point_id": self.reference_point_id,
            "report": self.report,
            "space": self.space,
            "git_sha": self.git_sha,
            "created_at": self.created_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchOutcome":
        try:
            if data.get("format_version") != 1:
                raise ReproError(
                    f"unsupported search outcome format "
                    f"{data.get('format_version')!r}"
                )
            evaluations = [Evaluation.from_dict(e) for e in data["evaluations"]]
            frontier_ids = set(data["frontier"])
            last = list(data["budget_schedule"])[-1]
            return cls(
                driver=str(data["driver"]),
                seed=None if data["seed"] is None else int(data["seed"]),
                objectives=tuple(data["objectives"]),
                budget_schedule=tuple(data["budget_schedule"]),
                workload_numbers=tuple(data["workload_numbers"]),
                evaluations=evaluations,
                frontier=[
                    e for e in evaluations
                    if e.budget == last and e.point_id in frontier_ids
                ],
                hypervolume=float(data["hypervolume"]),
                reference=dict(data["reference"]),
                reference_point_id=data.get("reference_point_id"),
                report=dict(data["report"]),
                space=dict(data.get("space", {})),
                git_sha=(
                    None if data.get("git_sha") is None
                    else str(data["git_sha"])
                ),
                created_at=(
                    None if data.get("created_at") is None
                    else float(data["created_at"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed search outcome: {exc}") from exc


def _objective_metrics(results) -> dict:
    """Fold one point's per-workload results into objective metrics."""
    n = len(results)
    return {
        "ipc": sum(r.ipc for r in results) / n,
        "lifetime": min(r.min_lifetime for r in results),
        "energy": sum(r.energy_mj for r in results) / n,
        "wear_cov": sum(r.wear_cov for r in results) / n,
    }


def _propose(
    space: SearchSpace,
    sampler: str,
    n_points: int,
    *,
    seed: int | None,
    base: SystemConfig,
) -> tuple[list, int]:
    """First ``n_points`` unique *valid* points of the sampler stream.

    Returns ``(encoded_points, invalid_count)``.  Invalid corners (the
    config layer rejects them at encode time) are skipped
    deterministically — the stream itself is a pure function of the
    seed, so every run skips the same corners.
    """
    if sampler == "grid":
        candidates = grid_points(space)
    elif sampler == "random":
        candidates = random_points(
            space, max(n_points, 1) * _PROPOSE_OVERDRAW, seed=seed
        )
    elif sampler == "halton":
        candidates = halton_points(
            space, max(n_points, 1) * _PROPOSE_OVERDRAW, seed=seed
        )
    else:
        raise ReproError(
            f"unknown sampler {sampler!r}; known: {SAMPLERS}"
        )
    encoded: list = []
    seen: set = set()
    invalid = 0
    for values in candidates:
        if len(encoded) >= n_points:
            break
        pid = point_id_of(values)
        if pid in seen:
            continue
        seen.add(pid)
        try:
            encoded.append(space.encode(values, base=base))
        except ConfigError:
            invalid += 1
    if not encoded:
        raise ReproError(
            "search space yielded no valid points "
            f"({invalid} invalid corners rejected)"
        )
    return encoded, invalid


def _promotion_rank(evaluations: list, objectives) -> list:
    """Evaluations sorted best-first by normalised scalar score.

    Each objective is min-max normalised over the rung (flipped for
    minimised ones); the score is the mean.  Ties break on point id so
    promotion is deterministic regardless of execution order.
    """
    spans = {}
    for obj in objectives:
        values = [float(e.metrics[obj.name]) for e in evaluations]
        lo, hi = min(values), max(values)
        spans[obj.name] = (lo, (hi - lo) or 1.0)

    def score(evaluation) -> float:
        total = 0.0
        for obj in objectives:
            lo, span = spans[obj.name]
            unit = (float(evaluation.metrics[obj.name]) - lo) / span
            total += unit if obj.maximize else 1.0 - unit
        return total / len(objectives)

    return sorted(evaluations, key=lambda e: (-score(e), e.point_id))


def _rung_journal_path(journal: SearchJournal | None, rung: int):
    if journal is None:
        return None
    path = journal.path
    return path.with_name(f"{path.stem}.rung{rung}{path.suffix or '.jsonl'}")


def _shifted(observer, offset: int):
    """``observer`` with job indices moved past earlier rungs' jobs.

    Each rung is its own ``run_jobs`` batch numbered from 0; shifting
    keeps one search's cells distinct in a live
    :class:`~repro.obs.progress.MonitorState`.
    """
    if observer is None or not offset:
        return observer
    return lambda event: observer(replace(event, index=event.index + offset))


def run_search(
    space: SearchSpace,
    *,
    driver: str = "halving",
    sampler: str = "halton",
    n_points: int = 16,
    budget_schedule: tuple = (2000, 8000),
    objectives=("ipc", "lifetime"),
    workload_numbers: tuple = (1,),
    seed: int | None = 1,
    base: SystemConfig | None = None,
    promote: float = 0.5,
    include_reference: bool = True,
    reference_scheme: str = "Re-NUCA",
    # -- job-engine passthrough (see repro.jobs.run_jobs) --
    max_workers: int = 1,
    cache=None,
    journal: SearchJournal | str | Path | None = None,
    resume: bool = False,
    retries: int = 2,
    stage1=None,
    stage1_store=None,
    telemetry=None,
    progress=None,
    observer=None,
    ledger=None,
    job_timeout_s: float | None = None,
    spans=None,
) -> SearchOutcome:
    """Run one design-space search end to end.

    Deterministic by construction: candidates are a pure function of
    ``(space, sampler, n_points, seed)``, every rung is one
    :func:`~repro.jobs.run_jobs` batch whose results come back in job
    order, and promotion/frontier extraction are pure — so the evaluated
    point set and the frontier are identical at any ``max_workers``.

    Raises:
        ReproError: bad driver/sampler/schedule, or ``resume`` without a
            journal.
    """
    if driver not in DRIVERS:
        raise ReproError(f"unknown driver {driver!r}; known: {DRIVERS}")
    budget_schedule = tuple(int(b) for b in budget_schedule)
    if not budget_schedule or any(b <= 0 for b in budget_schedule):
        raise ReproError("budget schedule must be positive instruction counts")
    if len(set(budget_schedule)) != len(budget_schedule):
        raise ReproError("budget schedule entries must be distinct")
    if not (0.0 < promote <= 1.0):
        raise ReproError("promote fraction must be in (0, 1]")
    objectives = parse_objectives(objectives)
    workload_numbers = tuple(int(n) for n in workload_numbers)
    if base is None:
        base = baseline_config()
    if isinstance(journal, (str, Path)):
        journal = SearchJournal(journal)
    if resume and journal is None:
        raise ReproError("--resume needs a search journal path")

    if driver == "grid":
        sampler = "grid"
        n_points = min(n_points, space.cardinality()) if n_points else \
            space.cardinality()
    if driver != "halving":
        budget_schedule = (budget_schedule[-1],)

    candidates, invalid = _propose(
        space, sampler, n_points, seed=seed, base=base
    )

    reference_point = None
    if include_reference:
        ref_values = {"__reference__": reference_scheme}
        reference_point = EncodedPoint(
            point_id=point_id_of(ref_values),
            values=ref_values,
            config=base,
            scheme=reference_scheme,
            fault=None,
        )

    prior: dict = {}
    if journal is not None:
        if resume:
            prior = journal.load()
        journal.open(truncate=not resume)

    counters = {
        "points": len(candidates),
        "invalid_points": invalid,
        "evals_total": 0,
        "evals_resumed": 0,
        "jobs_total": 0,
        "jobs_executed": 0,
        "jobs_cache_hits": 0,
        "jobs_resumed": 0,
        "jobs_retries": 0,
        "jobs_failed": 0,
    }
    all_evaluations: list = []
    survivors = list(candidates)

    for rung, budget in enumerate(budget_schedule):
        is_final = rung == len(budget_schedule) - 1
        points = list(survivors)
        if is_final and reference_point is not None and \
                reference_point.point_id not in {p.point_id for p in points}:
            points.append(reference_point)

        pending: list = []
        rung_evals: dict = {}
        for point in points:
            key = (point.point_id, budget)
            if key in prior:
                cached = prior[key]
                cached.rung = rung
                cached.reference = (
                    reference_point is not None
                    and point.point_id == reference_point.point_id
                )
                rung_evals[point.point_id] = cached
                counters["evals_resumed"] += 1
            else:
                pending.append(point)

        if pending:
            # Distinct points can encode to the same experiment (the
            # reference point vs a sampled Re-NUCA default); the batch
            # is deduplicated by job fingerprint and both evaluations
            # read the shared result.
            jobs, index_of, slices, prints = [], {}, {}, {}
            for point in pending:
                batch = jobs_for_point(
                    point, workload_numbers,
                    seed=seed, n_instructions=budget,
                )
                indices = []
                fingerprints = []
                for job in batch:
                    fingerprint = job.spec.fingerprint()
                    if fingerprint not in index_of:
                        index_of[fingerprint] = len(jobs)
                        jobs.append(job)
                    indices.append(index_of[fingerprint])
                    fingerprints.append(fingerprint)
                slices[point.point_id] = indices
                prints[point.point_id] = tuple(fingerprints)
            results, report = run_jobs(
                jobs,
                max_workers=max_workers,
                cache=cache,
                journal=_rung_journal_path(journal, rung),
                resume=resume,
                retries=retries,
                stage1=stage1,
                stage1_store=stage1_store,
                telemetry=telemetry,
                progress=progress,
                observer=_shifted(observer, counters["jobs_total"]),
                ledger=ledger,
                job_timeout_s=job_timeout_s,
                spans=spans,
            )
            counters["jobs_total"] += report.total
            counters["jobs_executed"] += report.executed
            counters["jobs_cache_hits"] += report.cache_hits
            counters["jobs_resumed"] += report.resumed
            counters["jobs_retries"] += report.retries
            counters["jobs_failed"] += report.failed
            for point in pending:
                evaluation = Evaluation(
                    point_id=point.point_id,
                    values=point.values,
                    scheme=point.scheme,
                    rung=rung,
                    budget=budget,
                    metrics=_objective_metrics(
                        [results[i] for i in slices[point.point_id]]
                    ),
                    reference=(
                        reference_point is not None
                        and point.point_id == reference_point.point_id
                    ),
                    fingerprints=prints[point.point_id],
                )
                rung_evals[point.point_id] = evaluation
                if journal is not None:
                    journal.record(evaluation)

        ordered = [rung_evals[p.point_id] for p in points]
        counters["evals_total"] += len(ordered)
        all_evaluations.extend(ordered)

        if not is_final:
            ranked = _promotion_rank(
                [e for e in ordered if not e.reference], objectives
            )
            keep = max(1, int(len(ranked) * promote))
            kept_ids = {e.point_id for e in ranked[:keep]}
            survivors = [p for p in survivors if p.point_id in kept_ids]

    if journal is not None:
        journal.close()

    final = [
        e for e in all_evaluations if e.budget == budget_schedule[-1]
    ]
    metric_maps = [e.metrics for e in final]
    front_idx = pareto_indices(metric_maps, objectives)
    frontier = [final[i] for i in front_idx]
    reference = default_reference(metric_maps, objectives)
    volume = hypervolume(
        [final[i].metrics for i in front_idx], objectives, reference
    )

    return SearchOutcome(
        driver=driver,
        seed=seed,
        objectives=tuple(o.name for o in objectives),
        budget_schedule=budget_schedule,
        workload_numbers=workload_numbers,
        evaluations=all_evaluations,
        frontier=frontier,
        hypervolume=volume,
        reference=reference,
        reference_point_id=(
            reference_point.point_id if reference_point is not None else None
        ),
        report=counters,
        space=space.to_dict(),
        git_sha=current_git_sha(),
        created_at=time.time(),
    )
