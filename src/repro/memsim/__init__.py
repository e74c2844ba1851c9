"""Memory-system simulation (paper §II-B, Challenge 1).

The motivation study quantifies how badly operation-centric ART traversal
treats a general-purpose memory hierarchy: tiny fields (1-byte partial
keys, 8-byte pointers) are pulled through 64-byte cache lines (~20 %
utilisation, Fig. 2c) and the irregular walk thrashes the cache.  This
subpackage provides:

* :mod:`cacheline` — line-granular access arithmetic and a utilisation
  meter;
* :mod:`cache` — a set-associative cache simulator with LRU
  replacement;
* :mod:`dram` — flat latency + bandwidth models for DDR DRAM and the
  U280's HBM.
"""

from repro.memsim.cache import CacheStats, SetAssociativeCache
from repro.memsim.cacheline import LineMeter, lines_spanned
from repro.memsim.dram import DRAM_DDR4, HBM2, MemoryModel
from repro.memsim.tracer import ReuseDistanceTracer

__all__ = [
    "CacheStats",
    "DRAM_DDR4",
    "HBM2",
    "LineMeter",
    "MemoryModel",
    "ReuseDistanceTracer",
    "SetAssociativeCache",
    "lines_spanned",
]
