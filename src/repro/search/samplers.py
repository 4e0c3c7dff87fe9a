"""Point samplers for :class:`~repro.search.space.SearchSpace`.

All samplers are pure functions of ``(space, n, seed)`` — no global
randomness, no wall clock — so the same invocation always proposes the
same candidate list, which is what makes a search run bit-reproducible
across serial and parallel execution (the driver never re-samples).

* :func:`grid_points` — the full factorial grid, declaration order.
* :func:`random_points` — i.i.d. draws from a
  :func:`~repro.common.rng.derive_rng` stream.
* :func:`halton_points` — Halton low-discrepancy sequence (radical
  inverse in consecutive primes, one prime per dimension; no
  dependencies beyond stdlib).  Covers the space far more evenly than
  random draws at small ``n``.
"""

from __future__ import annotations

import itertools

from repro.common.errors import ReproError
from repro.common.rng import derive_rng
from repro.search.space import SearchSpace

#: First primes, one per dimension (spaces are small; extend on demand).
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

#: Leading Halton indices skipped (the sequence's early terms cluster).
_HALTON_SKIP = 20


def grid_points(space: SearchSpace) -> list[dict]:
    """Full factorial grid in declaration order (first dim outermost)."""
    axes = [dim.grid() for dim in space.dimensions]
    names = space.names
    return [
        dict(zip(names, combo)) for combo in itertools.product(*axes)
    ]


def random_points(space: SearchSpace, n: int, *, seed: int | None) -> list[dict]:
    """``n`` i.i.d. points from the seeded sampler stream."""
    if n <= 0:
        raise ReproError("sample count must be positive")
    rng = derive_rng(seed, "search", "random")
    out = []
    for _ in range(n):
        out.append({
            dim.name: dim.from_unit(float(rng.random()))
            for dim in space.dimensions
        })
    return out


def _radical_inverse(base: int, index: int) -> float:
    value, factor = 0.0, 1.0 / base
    while index:
        value += (index % base) * factor
        index //= base
        factor /= base
    return value


def halton_points(space: SearchSpace, n: int, *, seed: int | None = None) -> list[dict]:
    """``n`` Halton-sequence points; ``seed`` rotates the start index.

    The sequence itself is deterministic; the seed only offsets where in
    the stream sampling starts (scrambling-by-shift), so different seeds
    explore different-but-equally-uniform subsets.
    """
    if n <= 0:
        raise ReproError("sample count must be positive")
    if len(space.dimensions) > len(_PRIMES):
        raise ReproError(
            f"halton sampler supports up to {len(_PRIMES)} dimensions"
        )
    start = _HALTON_SKIP + (0 if seed is None else (seed % 1009) * 61)
    out = []
    for i in range(n):
        index = start + i
        out.append({
            dim.name: dim.from_unit(_radical_inverse(_PRIMES[d], index))
            for d, dim in enumerate(space.dimensions)
        })
    return out
