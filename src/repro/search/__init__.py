"""Design-space exploration over NUCA/ReRAM configurations.

The paper evaluates one hand-picked Re-NUCA operating point; this
package turns the question it raises — how to trade IPC against
write-endurance lifetime (and energy, and wear balance) — into a search
problem over the full configuration space:

* :mod:`repro.search.space` — declarative :class:`SearchSpace` over
  config fields with a deterministic point → :class:`~repro.jobs.spec.JobSpec`
  encoder, so every evaluated point inherits content-addressed caching,
  journal resume, retries/quarantine and spans from the job engine;
* :mod:`repro.search.samplers` — grid, seeded-random and Halton-style
  low-discrepancy samplers plus a seeded local-search mutator;
* :mod:`repro.search.drivers` — a multi-fidelity successive-halving
  driver and a fixed-budget driver, both journaled and resumable;
* :mod:`repro.search.pareto` — non-dominated frontier extraction and a
  hypervolume-vs-reference scalar for trend tracking.

See ``docs/SEARCH.md`` for the full contract.
"""

from repro.search.drivers import (
    Evaluation,
    SearchJournal,
    SearchOutcome,
    run_search,
)
from repro.search.pareto import (
    OBJECTIVE_SENSES,
    Objective,
    dominates,
    hypervolume,
    pareto_indices,
    parse_objectives,
)
from repro.search.samplers import (
    grid_points,
    halton_points,
    random_points,
)
from repro.search.space import (
    ChoiceDimension,
    EncodedPoint,
    FloatDimension,
    IntDimension,
    SearchSpace,
    load_space,
    point_id_of,
    preset_space,
)

__all__ = [
    "ChoiceDimension",
    "EncodedPoint",
    "Evaluation",
    "FloatDimension",
    "IntDimension",
    "OBJECTIVE_SENSES",
    "Objective",
    "SearchJournal",
    "SearchOutcome",
    "SearchSpace",
    "dominates",
    "grid_points",
    "halton_points",
    "hypervolume",
    "load_space",
    "pareto_indices",
    "parse_objectives",
    "point_id_of",
    "preset_space",
    "random_points",
    "run_search",
]
