"""Tests pinning the perf-PR semantic fixes.

Three behaviours guarded here:

* ``hbm_bandwidth_cycles`` bills fractional HBM cycles as whole cycles
  (ceil) instead of silently rounding tiny batches to zero.
* The lazy-decay ``ValueAwareTreeBuffer`` evicts in exactly the order
  the old eager rebuild-the-heap implementation did, and its fused
  ``fetch`` equals the unfused ``lookup``/``set_value``/``admit`` steps.
* ``OperationStream`` adopts caller-owned lists without copying, with
  ``copy=True`` as the escape hatch.
"""

import heapq

from hypothesis import given, settings, strategies as st

from repro.core.accelerator import hbm_bandwidth_cycles
from repro.core.tree_buffer import ValueAwareTreeBuffer
from repro.workloads.ops import Operation, OperationStream, OpKind


class TestBandwidthRounding:
    def test_fractional_cycle_bills_one(self):
        # 64 bytes at 460 GB/s and 230 MHz is ~0.032 cycles: must be 1.
        assert hbm_bandwidth_cycles(64, 460.0, 230e6) == 1

    def test_single_byte_bills_one(self):
        assert hbm_bandwidth_cycles(1, 460.0, 230e6) == 1

    def test_zero_bytes_bills_zero(self):
        assert hbm_bandwidth_cycles(0, 460.0, 230e6) == 0

    def test_exact_cycle_not_inflated(self):
        # 2000 bytes at 1 GB/s, 500 MHz -> exactly 1000 cycles.
        assert hbm_bandwidth_cycles(2000, 1.0, 500e6) == 1000

    def test_ceil_not_floor(self):
        # 2001 bytes -> 1000.5 cycles -> 1001, where int() gave 1000.
        assert hbm_bandwidth_cycles(2001, 1.0, 500e6) == 1001


class UnfusedFetchBuffer(ValueAwareTreeBuffer):
    """``fetch`` as the unfused steps it stands for: probe, then re-value
    on a hit or admit on a miss."""

    def fetch(self, address: int, size_bytes: int, value: float) -> bool:
        if self.lookup(address):
            self.set_value(address, value)
            return True
        self.admit(address, size_bytes, value)
        return False


class EagerDecayBuffer(UnfusedFetchBuffer):
    """Reference implementation: the pre-PR eager rebuild-on-decay.

    Subclasses the lazy buffer but overrides ``decay`` with the original
    O(n) loop (scale every entry, rebuild the heap), and ``fetch`` with
    its unfused steps, so any divergence in eviction behaviour between
    the two shows up as a state mismatch.
    """

    def decay(self, factor: float = 0.5) -> None:
        if factor == 1.0:
            return
        self._heap = []
        for address, (value, seq, size) in list(self._resident.items()):
            aged = value * factor
            self._resident[address] = (aged, seq, size)
            heapq.heappush(self._heap, (aged, seq, address))


def actions(value):
    """Scripts mixing admits, fetches, lookups, re-values, and decays."""
    return st.one_of(
        st.tuples(
            st.sampled_from(["admit", "fetch"]),
            st.integers(min_value=0, max_value=30),
            st.sampled_from([52, 160, 656]),
            value,
        ),
        st.tuples(st.just("lookup"), st.integers(min_value=0, max_value=30)),
        st.tuples(
            st.just("set_value"),
            st.integers(min_value=0, max_value=30),
            value,
        ),
        st.tuples(st.just("decay"), st.sampled_from([0.5, 0.25])),
    )


any_value = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
action = actions(any_value)
# A few small values make equal-value ties, the admission rule's
# boundary, common.
tie_action = actions(st.one_of(st.sampled_from([0.0, 1.0, 2.0, 8.0]), any_value))


def _apply(buffer, step):
    kind = step[0]
    address = 0x1000 + step[1] * 0x1000 if kind != "decay" else None
    if kind == "admit":
        return buffer.admit(address, step[2], step[3])
    if kind == "fetch":
        return buffer.fetch(address, step[2], step[3])
    if kind == "lookup":
        return buffer.lookup(address)
    if kind == "set_value":
        buffer.set_value(address, step[2])
        return None
    buffer.decay(step[1])
    return None


def _eviction_order(buffer):
    """Residents as (address, stored value, size), lowest victim first."""
    ranked = sorted(buffer._resident.items(), key=lambda item: item[1][:2])
    return [(address, norm, size) for address, (norm, _, size) in ranked]


class TestLazyDecayEvictionOrder:
    @given(st.lists(action, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_matches_eager_reference(self, script):
        lazy = ValueAwareTreeBuffer(16 * 64)
        eager = EagerDecayBuffer(16 * 64)
        for step in script:
            assert _apply(lazy, step) == _apply(eager, step)
            # Same residents, same accounting, after every action: the
            # lazy buffer made exactly the eager buffer's evictions.
            assert set(lazy._resident) == set(eager._resident)
            assert lazy.used_bytes == eager.used_bytes
            assert (lazy.hits, lazy.misses) == (eager.hits, eager.misses)
            assert lazy.evictions == eager.evictions
            assert lazy.rejected_inserts == eager.rejected_inserts

    @given(st.lists(tie_action, min_size=50, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_fetch_matches_unfused_steps(self, script):
        lazy = ValueAwareTreeBuffer(16 * 64)
        unfused = UnfusedFetchBuffer(16 * 64)
        for step in script:
            assert _apply(lazy, step) == _apply(unfused, step)
            # Both decay lazily, so stored values compare exactly.
            assert _eviction_order(lazy) == _eviction_order(unfused)
            assert lazy.used_bytes == unfused.used_bytes
            assert (lazy.hits, lazy.misses) == (unfused.hits, unfused.misses)
            assert lazy.evictions == unfused.evictions
            assert lazy.rejected_inserts == unfused.rejected_inserts

    def test_many_decays_do_not_underflow(self):
        buf = ValueAwareTreeBuffer(1000)
        buf.admit(0x10, 100, value=4.0)
        for _ in range(3000):  # far past the renormalisation threshold
            buf.decay(0.5)
        assert buf.value_of(0x10) == 0.0 or buf.value_of(0x10) >= 0.0
        # Fresh admits still order correctly after renormalisation.
        buf.admit(0x20, 100, value=2.0)
        buf.admit(0x30, 100, value=1.0)
        assert buf.value_of(0x20) == 2.0
        assert buf.value_of(0x30) == 1.0


class TestVectorisedBucketing:
    @given(
        st.lists(st.binary(min_size=0, max_size=12), max_size=200),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=1, max_value=256),
    )
    @settings(max_examples=100, deadline=None)
    def test_buckets_for_matches_scalar(self, keys, offset, n_buckets):
        from repro.core.prefixing import PrefixExtractor

        extractor = PrefixExtractor(byte_offset=offset, n_buckets=n_buckets)
        batch = extractor.buckets_for(keys)
        assert list(batch) == [extractor.bucket(key) for key in keys]


class TestOperationStreamCopy:
    def _ops(self):
        return [
            Operation(op_id=i, kind=OpKind.READ, key=bytes([i]))
            for i in range(4)
        ]

    def test_list_adopted_without_copy(self):
        ops = self._ops()
        stream = OperationStream(ops)
        assert stream._operations is ops

    def test_copy_flag_forces_copy(self):
        ops = self._ops()
        stream = OperationStream(ops, copy=True)
        assert stream._operations is not ops
        assert list(stream) == ops

    def test_iterators_are_materialised(self):
        ops = self._ops()
        stream = OperationStream(iter(ops))
        assert list(stream) == ops
        assert len(stream) == 4

    def test_tuple_is_materialised(self):
        ops = tuple(self._ops())
        stream = OperationStream(ops)
        assert isinstance(stream._operations, list)
        assert list(stream) == list(ops)
