"""Design-space exploration engine (``src/repro/search``).

Covers the space/sampler/pareto layers with pure unit tests, and the
driver layer with small simulation-backed searches on a 4-core machine:
serial == parallel determinism, rung-granular resume, and the paper's
qualitative Pareto claim (frontier points beat S-NUCA on lifetime and
Private on IPC, with the Re-NUCA default marked).
"""

from __future__ import annotations

import json

import pytest

from repro.common.errors import ConfigError, ReproError
from repro.config import baseline_config, scaled_config
from repro.nuca import POLICY_NAMES
from repro.search import (
    ChoiceDimension,
    Evaluation,
    FloatDimension,
    IntDimension,
    SearchJournal,
    SearchOutcome,
    SearchSpace,
    dominates,
    grid_points,
    halton_points,
    hypervolume,
    load_space,
    pareto_indices,
    parse_objectives,
    point_id_of,
    preset_space,
    random_points,
    run_search,
)
from repro.search.drivers import _propose
from repro.sim.runner import Stage1Cache

CONFIG4 = scaled_config(baseline_config(), cores=4)

SPACE = SearchSpace((
    ChoiceDimension("scheme", ("S-NUCA", "Re-NUCA")),
    FloatDimension("criticality.threshold_percent", 1.0, 8.0, steps=3),
    IntDimension("rnuca_cluster_size", 2, 4, step=2),
))


# -- space --------------------------------------------------------------------


class TestSpace:
    def test_names_and_cardinality(self):
        assert SPACE.names == (
            "scheme", "criticality.threshold_percent", "rnuca_cluster_size",
        )
        assert SPACE.cardinality() == 2 * 3 * 2

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(SPACE.to_dict()))
        assert load_space(path).dimensions == SPACE.dimensions

    def test_round_trip_rejects_unknown_version(self):
        with pytest.raises(ReproError, match="format"):
            SearchSpace.from_dict({"format_version": 99, "dimensions": []})

    def test_encode_applies_fields(self):
        point = SPACE.encode({
            "scheme": "S-NUCA",
            "criticality.threshold_percent": 4.5,
            "rnuca_cluster_size": 2,
        }, base=CONFIG4)
        assert point.scheme == "S-NUCA"
        assert point.config.criticality.threshold_percent == 4.5
        assert point.config.rnuca_cluster_size == 2
        assert point.fault is None
        assert point.point_id == point_id_of(point.values)

    def test_encode_fault_dimension(self):
        space = SearchSpace((
            FloatDimension("fault.age_fraction", 0.0, 1.0),
        ))
        active = space.encode({"fault.age_fraction": 0.5}, base=CONFIG4)
        assert active.fault is not None and active.fault.age_fraction == 0.5
        idle = space.encode({"fault.age_fraction": 0.0}, base=CONFIG4)
        assert idle.fault is None  # inactive faults collapse to None

    def test_encode_num_banks_rebuilds_mesh(self):
        space = SearchSpace((ChoiceDimension("num_banks", (4, 16)),))
        point = space.encode({"num_banks": 16})
        assert point.config.num_banks == 16
        assert point.config.noc.mesh_cols * point.config.noc.mesh_rows == 16

    def test_invalid_corner_names_offending_field(self):
        space = SearchSpace((
            ChoiceDimension("l3_replacement", ("srrip",)),
            ChoiceDimension("l3_way_limit", (8,)),
        ))
        with pytest.raises(ConfigError, match="l3_way_limit"):
            space.encode(
                {"l3_replacement": "srrip", "l3_way_limit": 8}, base=CONFIG4,
            )

    def test_unknown_field_rejected(self):
        space = SearchSpace((ChoiceDimension("no.such.field", (1,)),))
        with pytest.raises(ConfigError, match="no.such.field"):
            space.encode({"no.such.field": 1}, base=CONFIG4)

    def test_key_mismatch_rejected(self):
        with pytest.raises(ReproError, match="do not match"):
            SPACE.encode({"scheme": "S-NUCA"})

    def test_unknown_scheme_choice_rejected(self):
        with pytest.raises(ReproError, match="unknown schemes"):
            SearchSpace((ChoiceDimension("scheme", ("T-NUCA",)),))

    def test_presets(self):
        assert preset_space("nuca").cardinality() > 0
        assert preset_space("schemes").cardinality() == 15
        with pytest.raises(ReproError, match="preset"):
            preset_space("nope")


# -- samplers -----------------------------------------------------------------


class TestSamplers:
    def test_grid_is_full_factorial(self):
        points = grid_points(SPACE)
        assert len(points) == SPACE.cardinality()
        assert len({point_id_of(p) for p in points}) == len(points)

    def test_random_deterministic_and_in_range(self):
        a = random_points(SPACE, 20, seed=3)
        b = random_points(SPACE, 20, seed=3)
        assert a == b
        assert random_points(SPACE, 20, seed=4) != a
        for p in a:
            assert p["scheme"] in ("S-NUCA", "Re-NUCA")
            assert 1.0 <= p["criticality.threshold_percent"] <= 8.0
            assert p["rnuca_cluster_size"] in (2, 4)

    def test_halton_deterministic_and_seed_shifts(self):
        a = halton_points(SPACE, 16, seed=1)
        assert a == halton_points(SPACE, 16, seed=1)
        assert halton_points(SPACE, 16, seed=2) != a

    def test_halton_dimension_limit(self):
        wide = SearchSpace(tuple(
            IntDimension(f"d{i}", 0, 1) for i in range(16)
        ))
        with pytest.raises(ReproError, match="dimensions"):
            halton_points(wide, 4)

    def test_log_float_dimension_stays_in_range(self):
        dim = FloatDimension("reram.write_penalty_cycles", 1.0, 100.0,
                             log=True)
        space = SearchSpace((dim,))
        for p in halton_points(space, 32):
            assert 1.0 <= p[dim.name] <= 100.0
        grid = dim.grid()
        assert grid[0] == pytest.approx(1.0)
        assert grid[-1] == pytest.approx(100.0)



# -- pareto -------------------------------------------------------------------


class TestPareto:
    OBJ = parse_objectives(("ipc", "lifetime"))

    def test_parse_objectives_errors(self):
        with pytest.raises(ReproError, match="unknown objective"):
            parse_objectives(("ipc", "bogus"))
        with pytest.raises(ReproError, match="duplicate"):
            parse_objectives(("ipc", "ipc"))
        with pytest.raises(ReproError, match="at least one"):
            parse_objectives(())

    def test_dominates_senses(self):
        objectives = parse_objectives(("ipc", "energy"))
        a = {"ipc": 2.0, "energy": 1.0}
        b = {"ipc": 1.0, "energy": 2.0}
        assert dominates(a, b, objectives)  # higher ipc, lower energy
        assert not dominates(b, a, objectives)
        assert not dominates(a, a, objectives)  # equal: no strict gain

    def test_pareto_indices(self):
        points = [
            {"ipc": 3.0, "lifetime": 1.0},
            {"ipc": 1.0, "lifetime": 3.0},
            {"ipc": 2.0, "lifetime": 2.0},
            {"ipc": 1.0, "lifetime": 1.0},   # dominated by all others
            {"ipc": 2.0, "lifetime": 2.0},   # duplicate survives
        ]
        assert pareto_indices(points, self.OBJ) == [0, 1, 2, 4]

    def test_hypervolume_2d_exact(self):
        points = [
            {"ipc": 3.0, "lifetime": 1.0},
            {"ipc": 1.0, "lifetime": 3.0},
            {"ipc": 2.0, "lifetime": 2.0},
        ]
        reference = {"ipc": 0.0, "lifetime": 0.0}
        # Union of [0,3]x[0,1], [0,1]x[0,3], [0,2]x[0,2] = 6.
        assert hypervolume(points, self.OBJ, reference) == pytest.approx(6.0)

    def test_hypervolume_3d_single_box(self):
        objectives = parse_objectives(("ipc", "lifetime", "energy"))
        point = {"ipc": 2.0, "lifetime": 3.0, "energy": 1.0}
        reference = {"ipc": 0.0, "lifetime": 0.0, "energy": 5.0}
        # 2 x 3 x (5 - 1) = 24.
        assert hypervolume([point], objectives, reference) \
            == pytest.approx(24.0)

    def test_hypervolume_grows_with_frontier(self):
        base = [{"ipc": 2.0, "lifetime": 2.0}]
        more = base + [{"ipc": 3.0, "lifetime": 1.0}]
        reference = {"ipc": 0.0, "lifetime": 0.0}
        assert hypervolume(more, self.OBJ, reference) \
            > hypervolume(base, self.OBJ, reference)


# -- journal ------------------------------------------------------------------


def _evaluation(i: int = 0, budget: int = 1000) -> Evaluation:
    return Evaluation(
        point_id=f"p{i}", values={"scheme": "S-NUCA"}, scheme="S-NUCA",
        rung=0, budget=budget,
        metrics={"ipc": 1.0 + i, "lifetime": 2.0, "energy": 3.0,
                 "wear_cov": 0.5},
    )


class TestSearchJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "search.jsonl"
        with SearchJournal(path) as journal:
            journal.record(_evaluation(0))
            journal.record(_evaluation(1, budget=2000))
        loaded = SearchJournal(path).load()
        assert set(loaded) == {("p0", 1000), ("p1", 2000)}
        assert loaded[("p0", 1000)].metrics["ipc"] == 1.0

    def test_unknown_version_raises(self, tmp_path):
        path = tmp_path / "search.jsonl"
        path.write_text(json.dumps({"v": 99, **_evaluation().to_dict()}) + "\n")
        with pytest.raises(ReproError, match="format"):
            SearchJournal(path).load()

    def test_truncate_starts_fresh(self, tmp_path):
        path = tmp_path / "search.jsonl"
        with SearchJournal(path) as journal:
            journal.record(_evaluation(0))
        journal = SearchJournal(path)
        journal.open(truncate=True)
        journal.close()
        assert SearchJournal(path).load() == {}


# -- candidate proposal -------------------------------------------------------


class TestPropose:
    def test_invalid_corners_filtered_deterministically(self):
        space = SearchSpace((
            ChoiceDimension("l3_replacement", ("lru", "srrip")),
            ChoiceDimension("l3_way_limit", (8,)),
        ))
        points, invalid = _propose(
            space, "grid", 4, seed=1, base=CONFIG4,
        )
        assert [p.values for p in points] == [
            {"l3_replacement": "lru", "l3_way_limit": 8},
        ]
        assert invalid == 1

    def test_all_invalid_raises(self):
        space = SearchSpace((
            ChoiceDimension("l3_replacement", ("srrip",)),
            ChoiceDimension("l3_way_limit", (8,)),
        ))
        with pytest.raises(ReproError, match="no valid points"):
            _propose(space, "grid", 4, seed=1, base=CONFIG4)

    def test_unique_by_point_id(self):
        points, _ = _propose(
            preset_space("schemes"), "halton", 64, seed=1,
            base=CONFIG4,
        )
        ids = [p.point_id for p in points]
        assert len(ids) == len(set(ids))


# -- the drivers (simulation-backed) ------------------------------------------

SMALL_BUDGETS = (400, 1200)


def _outcome_key(outcome: SearchOutcome):
    return (
        [e.to_dict() for e in outcome.evaluations],
        [e.point_id for e in outcome.frontier],
        outcome.hypervolume,
    )


class TestRunSearch:
    def test_validation_errors(self):
        space = preset_space("schemes")
        with pytest.raises(ReproError, match="driver"):
            run_search(space, driver="bogus")
        with pytest.raises(ReproError, match="distinct"):
            run_search(space, budget_schedule=(1000, 1000))
        with pytest.raises(ReproError, match="positive"):
            run_search(space, budget_schedule=(0,))
        with pytest.raises(ReproError, match="journal"):
            run_search(space, resume=True)
        with pytest.raises(ReproError, match="promote"):
            run_search(space, promote=0.0)

    def test_serial_equals_parallel(self):
        """Acceptance: a >=16-point search is bit-identical at -j4."""
        space = preset_space("nuca")
        kwargs = dict(
            driver="halving", sampler="halton", n_points=16,
            budget_schedule=SMALL_BUDGETS, objectives=("ipc", "lifetime"),
            workload_numbers=(1,), seed=1, base=CONFIG4,
        )
        serial = run_search(space, max_workers=1, stage1=Stage1Cache(),
                            **kwargs)
        parallel = run_search(space, max_workers=4, **kwargs)
        assert len(serial.evaluations) >= 16
        assert _outcome_key(serial) == _outcome_key(parallel)

    def test_resume_reruns_only_the_remainder(self, tmp_path):
        """Acceptance: kill mid-rung, --resume re-simulates only the rest."""
        space = preset_space("schemes")
        kwargs = dict(
            driver="halving", sampler="halton", n_points=5,
            budget_schedule=SMALL_BUDGETS, objectives=("ipc", "lifetime"),
            workload_numbers=(1,), seed=1, base=CONFIG4,
        )
        journal = tmp_path / "search.jsonl"
        stage1 = Stage1Cache()
        first = run_search(space, journal=journal, stage1=stage1, **kwargs)
        evals_total = first.report["evals_total"]

        # Simulate a SIGKILL after the final rung started: drop the last
        # two evaluation records (their simulations stay journaled in the
        # rung sweep journal).
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:-2]))

        resumed = run_search(space, journal=journal, resume=True,
                             stage1=stage1, **kwargs)
        assert resumed.report["evals_resumed"] == evals_total - 2
        # The two replayed evaluations came from the rung journal — no
        # job was re-simulated.
        assert resumed.report["jobs_total"] == 2
        assert resumed.report["jobs_executed"] == 0
        assert resumed.report["jobs_resumed"] == 2
        assert _outcome_key(first) == _outcome_key(resumed)

    def test_observer_sees_each_job_of_every_rung_once(self):
        """Rungs number their jobs from 0; the observer sees them apart."""
        events = []
        outcome = run_search(
            preset_space("schemes"), driver="halving", sampler="halton",
            n_points=3, budget_schedule=SMALL_BUDGETS,
            objectives=("ipc", "lifetime"), workload_numbers=(1,), seed=1,
            base=CONFIG4, stage1=Stage1Cache(), observer=events.append,
        )
        resolved = [e.index for e in events if e.kind == "done"]
        assert sorted(resolved) == list(range(outcome.report["jobs_total"]))
        assert outcome.report["jobs_total"] > 3  # more than one rung ran

    def test_grid_driver_covers_the_space(self):
        space = SearchSpace((ChoiceDimension("scheme", ("S-NUCA", "Naive")),))
        outcome = run_search(
            space, driver="grid", n_points=0,
            budget_schedule=(400,), objectives=("ipc", "lifetime"),
            workload_numbers=(1,), seed=1, base=CONFIG4,
            include_reference=False, stage1=Stage1Cache(),
        )
        assert sorted(e.scheme for e in outcome.evaluations) \
            == ["Naive", "S-NUCA"]

    def test_outcome_json_round_trip(self, tmp_path):
        space = preset_space("schemes")
        outcome = run_search(
            space, driver="random", sampler="random", n_points=2,
            budget_schedule=(400,), objectives=("ipc", "lifetime"),
            workload_numbers=(1,), seed=1, base=CONFIG4,
            stage1=Stage1Cache(),
        )
        clone = SearchOutcome.from_dict(
            json.loads(json.dumps(outcome.to_dict()))
        )
        assert _outcome_key(clone) == _outcome_key(outcome)
        assert clone.reference_point_id == outcome.reference_point_id


class TestProvenance:
    """Fingerprint linkage and commit stamps on search artefacts."""

    def test_evaluation_fingerprints_round_trip(self):
        evaluation = _evaluation()
        stamped = Evaluation(
            **{**evaluation.__dict__, "fingerprints": ("fp1", "fp2")})
        clone = Evaluation.from_dict(
            json.loads(json.dumps(stamped.to_dict())))
        assert clone.fingerprints == ("fp1", "fp2")

    def test_evaluation_tolerates_prelinkage_payload(self):
        payload = _evaluation().to_dict()
        del payload["fingerprints"]
        assert Evaluation.from_dict(payload).fingerprints == ()

    def test_outcome_provenance_round_trip(self):
        outcome = _synthetic_outcome()
        payload = json.loads(json.dumps(outcome.to_dict()))
        clone = SearchOutcome.from_dict(payload)
        assert clone.git_sha is None and clone.created_at is None
        payload["git_sha"] = "a" * 40
        payload["created_at"] = 123.5
        stamped = SearchOutcome.from_dict(payload)
        assert stamped.git_sha == "a" * 40
        assert stamped.created_at == pytest.approx(123.5)

    def test_outcome_tolerates_prestamp_payload(self):
        payload = _synthetic_outcome().to_dict()
        del payload["git_sha"], payload["created_at"]
        clone = SearchOutcome.from_dict(payload)
        assert clone.git_sha is None and clone.created_at is None

    def test_run_search_stamps_fingerprints_and_commit(self):
        outcome = run_search(
            preset_space("schemes"), driver="grid", n_points=3,
            budget_schedule=(400,), objectives=("ipc", "lifetime"),
            workload_numbers=(1, 2), seed=1, base=CONFIG4,
            stage1=Stage1Cache(),
        )
        for evaluation in outcome.evaluations:
            # One simulated job per requested workload.
            assert len(evaluation.fingerprints) == 2
            assert all(
                isinstance(f, str) and len(f) == 64
                for f in evaluation.fingerprints
            )
        assert outcome.created_at is not None and outcome.created_at > 0
        # This test runs inside the repo checkout, so the sha resolves.
        assert outcome.git_sha is None or len(outcome.git_sha) == 40


class TestPaperClaim:
    """The paper's qualitative Pareto story, reproduced by the engine."""

    @pytest.fixture(scope="class")
    def outcome(self):
        space = SearchSpace((ChoiceDimension("scheme", POLICY_NAMES),))
        return run_search(
            space, driver="grid", n_points=0,
            budget_schedule=(20_000,), objectives=("ipc", "lifetime"),
            workload_numbers=(1,), seed=1, base=CONFIG4,
            stage1=Stage1Cache(),
        )

    def test_frontier_beats_snuca_on_lifetime_and_private_on_ipc(self, outcome):
        final = {e.scheme: e for e in outcome.final_evaluations()
                 if not e.reference}
        snuca, private = final["S-NUCA"], final["Private"]
        frontier = outcome.frontier
        assert any(
            e.metrics["lifetime"] > snuca.metrics["lifetime"]
            for e in frontier
        ), "no frontier point beats S-NUCA on lifetime"
        assert any(
            e.metrics["ipc"] > private.metrics["ipc"] for e in frontier
        ), "no frontier point beats Private on IPC"

    def test_reference_point_marked(self, outcome):
        assert outcome.reference_point_id is not None
        marked = [e for e in outcome.final_evaluations() if e.reference]
        assert len(marked) == 1
        assert marked[0].point_id == outcome.reference_point_id
        assert marked[0].scheme == "Re-NUCA"

    def test_energy_metric_flows_through(self, outcome):
        # Satellite: reram energy is a headline metric on every result.
        for e in outcome.final_evaluations():
            assert e.metrics["energy"] > 0.0

    def test_html_report_renders_the_frontier(self, outcome):
        from repro.obs.html_report import render_search_report

        html = render_search_report(outcome)
        assert "pt-ref" in html and "pt-front" in html
        assert "Re-NUCA default" in html
        for e in outcome.frontier:
            assert e.point_id in html


# -- report/bench/CLI glue (synthetic, no simulation) -------------------------


def _synthetic_outcome() -> SearchOutcome:
    metrics = [
        ("a" * 12, "S-NUCA", 2.0, 1.0),
        ("b" * 12, "Naive", 1.0, 3.0),
        ("c" * 12, "Private", 0.5, 0.2),   # dominated
    ]
    evaluations = [
        Evaluation(point_id=pid, values={"scheme": scheme}, scheme=scheme,
                   rung=0, budget=1000,
                   metrics={"ipc": ipc, "lifetime": life, "energy": 1.0,
                            "wear_cov": 0.5},
                   reference=(scheme == "S-NUCA"))
        for pid, scheme, ipc, life in metrics
    ]
    objectives = parse_objectives(("ipc", "lifetime"))
    front = pareto_indices([e.metrics for e in evaluations], objectives)
    return SearchOutcome(
        driver="grid", seed=1, objectives=("ipc", "lifetime"),
        budget_schedule=(1000,), workload_numbers=(1,),
        evaluations=evaluations,
        frontier=[evaluations[i] for i in front],
        hypervolume=4.0, reference={"ipc": 0.0, "lifetime": 0.0},
        reference_point_id="a" * 12,
        report={"points": 3, "evals_total": 3},
    )


class TestGlue:
    def test_render_search_report_dims_dominated(self):
        from repro.obs.html_report import render_search_report

        html = render_search_report(_synthetic_outcome())
        assert html.count("pt-dim") >= 1     # Private is dominated
        assert "pt-front" in html and "pt-ref" in html

    def test_search_bench_point(self):
        from repro.obs.bench import search_bench_point

        point = search_bench_point(_synthetic_outcome(), label="t")
        assert point["bench"] == "search"
        assert point["frontier_size"] == 2
        assert point["hypervolume"] == 4.0

    def test_cli_bench_record_search(self, tmp_path, capsys):
        from repro.cli import main

        outcome_path = tmp_path / "outcome.json"
        outcome_path.write_text(json.dumps(_synthetic_outcome().to_dict()))
        bench_path = tmp_path / "BENCH_search.json"
        assert main(["bench-record", "--search", str(outcome_path),
                     "--out", str(bench_path), "--label", "smoke"]) == 0
        payload = json.loads(bench_path.read_text())
        assert payload["points"][0]["label"] == "smoke"
        assert payload["points"][0]["frontier_size"] == 2

    def test_cli_bench_record_needs_a_source(self, capsys):
        from repro.cli import main

        assert main(["bench-record"]) == 2

    def test_cli_search_unknown_preset_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["search", "--space", "nope"]) == 2
        assert "preset" in capsys.readouterr().err
