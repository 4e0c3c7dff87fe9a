"""Property-style round-trip coverage for the result store.

Every field of :class:`~repro.sim.metrics.WorkloadSchemeResult` —
including the optional interval series and the fault/degradation
metrics — must survive ``save_matrix``/``load_matrix`` bit-for-bit;
these tests generate randomised results with hypothesis and assert the
round trip is the identity on the documented JSON view.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.store import atomic_write_text
from repro.sim.metrics import MatrixResult, WorkloadSchemeResult
from repro.sim.store import (
    load_matrix,
    result_from_dict,
    result_to_dict,
    save_matrix,
)
from repro.telemetry.intervals import IntervalSeries

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
rate = st.floats(min_value=0.0, max_value=1.0,
                 allow_nan=False, allow_infinity=False)
count = st.integers(min_value=0, max_value=2**48)


@st.composite
def interval_series(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    names = draw(st.lists(
        st.sampled_from(["llc.hits", "llc.misses", "noc.hops"]),
        min_size=1, max_size=3, unique=True,
    ))
    return IntervalSeries(
        interval_instructions=draw(st.integers(min_value=1, max_value=10**6)),
        accesses=[draw(count) for _ in range(n)],
        instructions=[draw(count) for _ in range(n)],
        cycles=[draw(finite) for _ in range(n)],
        samples=[
            {name: draw(finite) for name in names} for _ in range(n)
        ],
    )


@st.composite
def results(draw, workload="WL1", scheme="S-NUCA"):
    cores = draw(st.integers(min_value=1, max_value=8))
    banks = draw(st.integers(min_value=1, max_value=16))

    def farray(n, strategy=finite):
        return np.asarray([draw(strategy) for _ in range(n)])

    return WorkloadSchemeResult(
        workload=workload,
        scheme=scheme,
        apps=tuple(draw(st.sampled_from(["hmmer", "namd", "mcf", "milc"]))
                   for _ in range(cores)),
        per_core_ipc=farray(cores),
        per_core_instructions=np.asarray(
            [draw(count) for _ in range(cores)], dtype=np.int64),
        per_core_cycles=farray(cores),
        bank_writes=np.asarray(
            [draw(count) for _ in range(banks)], dtype=np.int64),
        bank_lifetimes=farray(banks),
        elapsed_cycles=draw(finite),
        llc_fetch_hit_rate=draw(rate),
        llc_mean_fetch_latency=draw(finite),
        noc_mean_hops=draw(finite),
        critical_fill_fraction=draw(rate),
        llc_fetches=draw(count),
        llc_writebacks=draw(count),
        noc_total_hops=draw(count),
        energy_mj=draw(finite),
        age_fraction=draw(rate),
        effective_capacity=draw(rate),
        dead_banks=draw(st.integers(min_value=0, max_value=16)),
        remap_traffic=draw(count),
        fills_skipped=draw(count),
        transient_faults=draw(count),
        intervals=draw(st.one_of(st.none(), interval_series())),
    )


class TestResultRoundTrip:
    @given(result=results())
    @settings(max_examples=40, deadline=None)
    def test_dict_round_trip_is_identity(self, result):
        thawed = result_from_dict(
            json.loads(json.dumps(result_to_dict(result)))
        )
        assert result_to_dict(thawed) == result_to_dict(result)

    @given(result=results())
    @settings(max_examples=20, deadline=None)
    def test_every_scalar_field_survives(self, result):
        thawed = result_from_dict(result_to_dict(result))
        for name in (
            "workload", "scheme", "apps", "elapsed_cycles",
            "llc_fetch_hit_rate", "llc_mean_fetch_latency", "noc_mean_hops",
            "critical_fill_fraction", "llc_fetches", "llc_writebacks",
            "noc_total_hops", "energy_mj", "age_fraction",
            "effective_capacity",
            "dead_banks", "remap_traffic", "fills_skipped",
            "transient_faults",
        ):
            assert getattr(thawed, name) == getattr(result, name), name
        for name in ("per_core_ipc", "per_core_instructions",
                     "per_core_cycles", "bank_writes", "bank_lifetimes"):
            np.testing.assert_array_equal(
                getattr(thawed, name), getattr(result, name), err_msg=name
            )
        if result.intervals is None:
            assert thawed.intervals is None
        else:
            assert thawed.intervals.to_dict() == result.intervals.to_dict()

    @given(result=results())
    @settings(max_examples=10, deadline=None)
    def test_matrix_file_round_trip(self, result, tmp_path_factory):
        path = tmp_path_factory.mktemp("store") / "matrix.json"
        matrix = MatrixResult(label="prop", schemes=(result.scheme,),
                              workloads=(result.workload,))
        matrix.add(result)
        save_matrix(path, matrix)
        loaded = load_matrix(path)
        assert loaded.label == "prop"
        assert loaded.schemes == (result.scheme,)
        assert loaded.workloads == (result.workload,)
        cell = loaded.get(result.workload, result.scheme)
        assert result_to_dict(cell) == result_to_dict(result)


class TestAtomicWrite:
    def test_replaces_existing_content(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "payload")
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_save_matrix_leaves_no_temp_files(self, tmp_path):
        matrix = MatrixResult(label="t", schemes=(), workloads=())
        save_matrix(tmp_path / "m.json", matrix)
        assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
        assert load_matrix(tmp_path / "m.json").label == "t"

    def test_failed_write_keeps_previous_version(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("good")

        with pytest.raises(TypeError):
            atomic_write_text(path, None)  # .write(None) raises mid-write
        assert path.read_text() == "good"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
