"""The value-aware Tree_buffer (paper §III-E).

DCART caches ART nodes on chip in a 4 MB Tree_buffer.  Plain LRU would
let the irregular traversal evict *high-value* nodes (the frequently
traversed ones of Observation 2), so DCART replaces by **value**: the
value of a node approximates how many pending operations will touch it —
"the number of the operations in the corresponding bucket", known right
after combining.  On a full buffer, a node is admitted only if its value
exceeds the current minimum, evicting that minimum — so the hot subtree
is pinned for the whole batch and cache thrashing on high-value nodes is
impossible by construction.

Implementation: a dict for O(1) probes plus a lazy min-heap of
``(value, address)`` entries; superseded heap entries are skipped on pop.

Decay is *lazy*: ageing every resident value each batch would rebuild
the whole heap, so the buffer instead keeps one cumulative decay
multiplier and stores every value *normalised* by the multiplier in
force when it was written.  Effective value = stored / multiplier at
write time x multiplier now; ordering among normalised values is
invariant under decay (all effective values scale together), so
``decay()`` is O(1) and eviction order is exactly what the eager
rebuild produced.  With the default factor 0.5 every scaling step is a
power of two, hence exact in binary floating point.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry

#: Renormalisation threshold: when the cumulative decay multiplier
#: drops below this, it is folded into the stored values (exactly, for
#: power-of-two factors) so it can never underflow to zero.
_MIN_MULT = 1e-150


class ValueAwareTreeBuffer:
    """Byte-budgeted node cache with value-based replacement.

    Eviction order is (value, recency): the victim is the least recently
    used node among those with the lowest value.  The paper specifies
    the value rule ("evict the node with the lowest value"); the LRU
    tie-break is our refinement for the common case where many nodes of
    one bucket share the same value estimate.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ConfigError(f"capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        # addr -> (normalised value, seq, size); heap of (norm, seq, addr),
        # lazy.  Effective value of an entry = norm * _mult.
        self._resident: Dict[int, Tuple[float, int, int]] = {}
        self._heap: List[Tuple[float, int, int]] = []
        self._seq = 0
        #: Cumulative decay multiplier (product of all decay factors).
        self._mult = 1.0
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected_inserts = 0

    def __len__(self) -> int:
        return len(self._resident)

    def __contains__(self, address: int) -> bool:
        return address in self._resident

    def _set(self, address: int, norm: float, size: int) -> None:
        self._seq += 1
        self._resident[address] = (norm, self._seq, size)
        heappush(self._heap, (norm, self._seq, address))

    def lookup(self, address: int) -> bool:
        """Probe the buffer for a node fetch (refreshes recency)."""
        entry = self._resident.get(address)
        if entry is not None:
            self.hits += 1
            self._set(address, entry[0], entry[2])
            return True
        self.misses += 1
        return False

    def fetch(self, address: int, size_bytes: int, value: float) -> bool:
        """One node fetch: re-value on a hit, ``admit`` on a miss.

        The readable reference for the SOU's per-touch block, which
        inlines this body for an exact ``ValueAwareTreeBuffer`` and
        calls it otherwise.  Returns True on a buffer hit; accounting,
        heap contents, and eviction decisions are exactly those of a
        ``lookup`` + ``set_value`` on a hit and an ``admit`` on a miss.
        """
        resident = self._resident
        heap = self._heap
        norm = value / self._mult
        entry = resident.get(address)
        if entry is not None:
            self.hits += 1
            seq = self._seq + 1
            self._seq = seq
            resident[address] = (norm, seq, entry[2])
            heappush(heap, (norm, seq, address))
            return True
        self.misses += 1
        capacity = self.capacity_bytes
        if size_bytes <= 0:
            raise ConfigError(f"node size must be positive: {size_bytes}")
        if size_bytes > capacity:
            raise ConfigError(
                f"node of {size_bytes} B exceeds Tree_buffer capacity"
            )
        while self.used_bytes + size_bytes > capacity:
            victim_addr = None
            while heap:
                victim = heappop(heap)
                current = resident.get(victim[2])
                if (
                    current is not None
                    and current[0] == victim[0]
                    and current[1] == victim[1]
                ):
                    victim_addr = victim[2]
                    break
            if victim_addr is None:
                break
            if victim[0] > norm:
                heappush(heap, victim)
                self.rejected_inserts += 1
                return False
            self.used_bytes -= resident.pop(victim_addr)[2]
            self.evictions += 1
        self.used_bytes += size_bytes
        seq = self._seq + 1
        self._seq = seq
        resident[address] = (norm, seq, size_bytes)
        heappush(heap, (norm, seq, address))
        return False

    def value_of(self, address: int) -> Optional[float]:
        entry = self._resident.get(address)
        return entry[0] * self._mult if entry else None

    def set_value(self, address: int, value: float) -> None:
        """Re-estimate a resident node's value (new batch, new buckets)."""
        entry = self._resident.get(address)
        if entry is None:
            return
        self._set(address, value / self._mult, entry[2])

    def admit(self, address: int, size_bytes: int, value: float) -> bool:
        """Offer a fetched node to the buffer; returns True if cached.

        Free space admits unconditionally; a full buffer admits only
        when ``value`` is at least the current lowest resident value,
        evicting lowest-value (then least-recent) residents to make room
        (SIII-E's Value_x > Value_low rule, with >= so same-value nodes
        rotate instead of freezing the buffer).
        """
        capacity = self.capacity_bytes
        if size_bytes <= 0:
            raise ConfigError(f"node size must be positive: {size_bytes}")
        if size_bytes > capacity:
            raise ConfigError(
                f"node of {size_bytes} B exceeds Tree_buffer capacity"
            )
        resident = self._resident
        heap = self._heap
        norm = value / self._mult
        existing = resident.get(address)
        if existing is not None:
            self.used_bytes += size_bytes - existing[2]
            e_norm = existing[0]
            if e_norm < norm:
                e_norm = norm
            self._seq += 1
            seq = self._seq
            resident[address] = (e_norm, seq, size_bytes)
            heappush(heap, (e_norm, seq, address))
            return True

        while self.used_bytes + size_bytes > capacity:
            # Inline _pop_lowest: lowest live (value, recency) entry.
            victim_addr = None
            while heap:
                victim = heappop(heap)
                current = resident.get(victim[2])
                if (
                    current is not None
                    and current[0] == victim[0]
                    and current[1] == victim[1]
                ):
                    victim_addr = victim[2]
                    break
            if victim_addr is None:
                break
            if victim[0] > norm:
                # The newcomer is strictly colder than everything
                # resident (Value_x <= Value_low): do not thrash.
                heappush(heap, victim)
                self.rejected_inserts += 1
                return False
            self.used_bytes -= resident.pop(victim_addr)[2]
            self.evictions += 1

        self.used_bytes += size_bytes
        self._seq += 1
        seq = self._seq
        resident[address] = (norm, seq, size_bytes)
        heappush(heap, (norm, seq, address))
        return True

    def invalidate(self, address: int) -> bool:
        """Drop a node (it was freed by a split/merge/grow)."""
        entry = self._resident.pop(address, None)
        if entry is None:
            return False
        self.used_bytes -= entry[2]
        return True

    def resident_addresses(self) -> List[int]:
        """Addresses currently cached (fault-injection storm targets)."""
        return list(self._resident.keys())

    def decay(self, factor: float = 0.5) -> None:
        """Age every resident value (called once per batch).

        Bucket op counts are per-batch estimates; without aging, a node
        admitted during one hot batch would out-rank every later batch's
        nodes forever.  Exponential decay keeps persistent hot nodes
        resident (their values are refreshed by each batch's hits) while
        letting one-batch wonders drain out - the hardware analogue is a
        periodic right-shift of the value registers.
        """
        if not 0 < factor <= 1:
            raise ConfigError(f"decay factor must be in (0, 1]: {factor}")
        if factor == 1.0:
            return
        # Lazy: scale the shared multiplier instead of every entry.
        # Normalised values (and hence heap order) are untouched.
        self._mult *= factor
        if self._mult < _MIN_MULT:
            self._renormalise()

    def _renormalise(self) -> None:
        """Fold the multiplier into the stored values before it underflows.

        Every normalised value scales by the same power-of-two-ish
        constant, so relative order — and with it eviction order — is
        preserved; this runs once per ~500 half-life decays.
        """
        mult = self._mult
        self._heap = []
        for address, (norm, seq, size) in self._resident.items():
            folded = norm * mult
            self._resident[address] = (folded, seq, size)
            heappush(self._heap, (folded, seq, address))
        self._mult = 1.0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def report_metrics(self, registry: MetricsRegistry) -> None:
        """Write the buffer's run totals into a MetricsRegistry."""
        registry.counter("tree_buffer.hits", self.hits)
        registry.counter("tree_buffer.misses", self.misses)
        registry.counter("tree_buffer.evictions", self.evictions)
        registry.counter("tree_buffer.rejected_inserts", self.rejected_inserts)
        registry.gauge("tree_buffer.resident_nodes", len(self._resident))
        registry.gauge("tree_buffer.used_bytes", self.used_bytes)
        registry.gauge("tree_buffer.capacity_bytes", self.capacity_bytes)
        registry.gauge("tree_buffer.hit_rate", self.hit_rate)


class LruTreeBuffer:
    """LRU node cache with the same interface as the value-aware buffer.

    This is the ablation counterpart of :class:`ValueAwareTreeBuffer`
    (``DCARTConfig(value_aware_tree_buffer=False)``): node values are
    ignored and plain recency decides eviction, which lets a cold burst
    flush the hot subtree — exactly the thrashing §III-E argues against.
    """

    def __init__(self, capacity_bytes: int) -> None:
        from repro.core.lru_buffer import LruBuffer

        self._lru = LruBuffer(capacity_bytes)
        self.capacity_bytes = capacity_bytes

    def __len__(self) -> int:
        return len(self._lru)

    def __contains__(self, address: int) -> bool:
        return address in self._lru

    def lookup(self, address: int) -> bool:
        return self._lru.lookup(address)

    def fetch(self, address: int, size_bytes: int, value: float) -> bool:
        """Fused probe + admit-on-miss (see the value-aware buffer)."""
        lru = self._lru
        if lru.lookup(address):
            return True
        lru.insert(address, size_bytes)
        return False

    def admit(self, address: int, size_bytes: int, value: float) -> bool:
        self._lru.insert(address, size_bytes)
        return True

    def set_value(self, address: int, value: float) -> None:
        """LRU ignores values (interface parity)."""

    def decay(self, factor: float = 0.5) -> None:
        """LRU has no values to age (interface parity)."""

    def invalidate(self, address: int) -> bool:
        return self._lru.remove(address)

    def resident_addresses(self) -> List[int]:
        """Addresses currently cached (fault-injection storm targets)."""
        return self._lru.keys()

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    @property
    def evictions(self) -> int:
        return self._lru.evictions

    @property
    def hit_rate(self) -> float:
        return self._lru.hit_rate

    def report_metrics(self, registry: MetricsRegistry) -> None:
        """Write the buffer's run totals into a MetricsRegistry.

        Same metric names as the value-aware buffer so the registry
        shape is ablation-invariant; LRU has no value admission, so
        ``rejected_inserts`` is always 0 here.
        """
        registry.counter("tree_buffer.hits", self.hits)
        registry.counter("tree_buffer.misses", self.misses)
        registry.counter("tree_buffer.evictions", self.evictions)
        registry.counter("tree_buffer.rejected_inserts", 0)
        registry.gauge("tree_buffer.resident_nodes", len(self._lru))
        registry.gauge("tree_buffer.used_bytes", self._lru.used_bytes)
        registry.gauge("tree_buffer.capacity_bytes", self.capacity_bytes)
        registry.gauge("tree_buffer.hit_rate", self.hit_rate)
