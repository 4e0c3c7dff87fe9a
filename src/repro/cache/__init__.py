"""SRAM/ReRAM cache substrate.

Building blocks:

* :mod:`repro.cache.lru` — a raw set-associative tag array with true-LRU
  replacement (the inner loop of every cache level).
* :mod:`repro.cache.cache` — a write-back, write-allocate cache with full
  hit/miss/eviction accounting, used for L1s, L2s and L3 banks.
* :mod:`repro.cache.mshr` — miss-status holding registers limiting
  memory-level parallelism.
* :mod:`repro.cache.replacement` — the non-LRU replacement policies of
  the ablation studies.

Table I's directory MESI protocol is not modelled: the multiprogrammed
mixes share no data, so they generate no coherence traffic.
"""

from repro.cache.cache import AccessResult, Cache, CacheStats
from repro.cache.lru import SetAssocArray
from repro.cache.mshr import MshrFile

__all__ = ["AccessResult", "Cache", "CacheStats", "SetAssocArray", "MshrFile"]
