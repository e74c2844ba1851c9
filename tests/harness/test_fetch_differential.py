"""Fetch differential: the SOU's inlined Tree_buffer fetch vs the reference.

``ShortcutOperatingUnit.process_bucket`` inlines
``ValueAwareTreeBuffer.fetch`` in its per-touch block when the buffer is
exactly that class, and calls ``tree_buffer.fetch`` for any other
buffer.  Patching a trivial subclass into ``repro.core.accelerator``
therefore sends the same run down the reference path.  Every test here
runs both paths and requires the full serialized RunResult *and* the
final buffer state (residents, heap, counters) to match exactly.

A tiny Tree_buffer keeps the buffer full, so evictions and rejected
admissions fire on nearly every batch.  Hypothesis drives
randomly-shaped workloads: four key families chosen to stress
different node regimes (wide fan-out, deep small-alphabet paths, long
shared prefixes, sparse 64-bit-style keys) crossed with
read/insert/delete mixes.  Keys are fixed-width within a family, so
every generated set is prefix-free by construction (a tree
requirement).
"""

import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.accelerator as accelerator_module
from repro.art.validate import assert_valid
from repro.core.accelerator import DcartAccelerator
from repro.core.tree_buffer import LruTreeBuffer, ValueAwareTreeBuffer
from repro.faults.injector import FaultInjector
from repro.faults.schedule import (
    BufferStorm,
    FaultSchedule,
    ShortcutCorruption,
    SouSlowdown,
)
from repro.harness.runner import scaled_dcart_config
from repro.harness.serialize import result_to_full_dict
from repro.workloads.factory import make_workload
from repro.workloads.ops import Operation, OperationStream, OpKind, Workload

#: Small enough that a few hundred keys overflow it many times over.
TINY_TREE_BUFFER = 4096


class ReferenceFetchBuffer(ValueAwareTreeBuffer):
    """Not exactly ValueAwareTreeBuffer, so the SOU calls ``fetch``."""


class RecordingAccelerator(DcartAccelerator):
    """Keeps the last session so a test can read its Tree_buffer."""

    def open_session(self, workload, tree):
        self.session = super().open_session(workload, tree)
        return self.session


def buffer_state(tree_buffer):
    if type(tree_buffer) is LruTreeBuffer:
        return (
            tree_buffer.resident_addresses(),
            tree_buffer.hits,
            tree_buffer.misses,
            tree_buffer.evictions,
        )
    return (
        dict(tree_buffer._resident),
        list(tree_buffer._heap),
        tree_buffer._seq,
        tree_buffer.used_bytes,
        tree_buffer.hits,
        tree_buffer.misses,
        tree_buffer.evictions,
        tree_buffer.rejected_inserts,
    )


def run_dcart(workload, cfg, reference_fetch, injector=None):
    """One DCART run; returns (full result dict, buffer state, tree)."""
    acc = RecordingAccelerator(config=cfg, injector=injector)
    tree = acc.build_tree(workload)
    buffer_cls = ReferenceFetchBuffer if reference_fetch else ValueAwareTreeBuffer
    with mock.patch.object(
        accelerator_module, "ValueAwareTreeBuffer", buffer_cls
    ):
        result = acc.run(workload, tree=tree)
    tree_buffer = acc.session.tree_buffer
    if cfg.value_aware_tree_buffer:
        assert type(tree_buffer) is buffer_cls
    return result_to_full_dict(result), buffer_state(tree_buffer), tree


def assert_paths_agree(workload, cfg, make_injector=None):
    runs = [
        run_dcart(
            workload, cfg, reference_fetch,
            make_injector() if make_injector else None,
        )
        for reference_fetch in (False, True)
    ]
    (inlined, inlined_buffer, inlined_tree), (ref, ref_buffer, ref_tree) = runs
    assert inlined == ref
    assert inlined_buffer == ref_buffer
    assert list(inlined_tree.items()) == list(ref_tree.items())
    return inlined_buffer


def dict_replay(workload):
    """The key -> value map a serial execution of the stream leaves."""
    expected = {key: i for i, key in enumerate(workload.loaded_keys)}
    for op in workload.operations:
        if op.kind is OpKind.WRITE:
            expected[op.key] = op.value
        elif op.kind is OpKind.DELETE:
            expected.pop(op.key, None)
    return expected


# -- key families (all fixed-width => prefix-free) ---------------------

sparse_keys = st.integers(0, 2**40 - 1).map(
    lambda i: b"\x00" + i.to_bytes(8, "big")
)
deep_keys = st.lists(
    st.integers(0, 3), min_size=8, max_size=8
).map(lambda bs: b"\x01" + bytes(bs))
prefix_keys = st.integers(0, 2**16 - 1).map(
    lambda i: b"\x02" + b"\xab" * 6 + i.to_bytes(2, "big")
)
fanout_keys = st.integers(0, 2**16 - 1).map(
    lambda i: b"\x03" + i.to_bytes(2, "big")
)

KEY_FAMILIES = (sparse_keys, deep_keys, prefix_keys, fanout_keys)

# (read, write, delete) weights per mix.
MIXES = ((8, 1, 0), (2, 6, 1), (3, 3, 3))


@st.composite
def workloads(draw):
    family = draw(st.sampled_from(range(len(KEY_FAMILIES))))
    keys = draw(
        st.lists(KEY_FAMILIES[family], min_size=128, max_size=400,
                 unique=True)
    )
    mix = draw(st.sampled_from(MIXES))
    n_loaded = draw(st.integers(len(keys) // 2, len(keys)))
    kinds = (
        [OpKind.READ] * mix[0] + [OpKind.WRITE] * mix[1]
        + [OpKind.DELETE] * mix[2]
    )
    raw = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(kinds) - 1),
                st.integers(0, len(keys) - 1),
            ),
            min_size=200,
            max_size=1500,
        )
    )
    ops = tuple(
        Operation(i, kinds[k], keys[j],
                  i if kinds[k] is OpKind.WRITE else None, 0)
        for i, (k, j) in enumerate(raw)
    )
    seed = draw(st.integers(0, 2**31 - 1))
    return Workload(
        f"hyp-f{family}", "synthetic", keys[:n_loaded],
        OperationStream(ops), seed,
    )


def tiny_config(n_keys, batch_size=256, **overrides):
    return replace(
        scaled_dcart_config(max(n_keys, 16)),
        batch_size=batch_size,
        tree_buffer_bytes=TINY_TREE_BUFFER,
        **overrides,
    )


@given(workloads(), st.sampled_from((64, 128, 256, 512)))
@settings(max_examples=40, deadline=None)
def test_inlined_fetch_matches_reference(workload, batch_size):
    assert_paths_agree(
        workload, tiny_config(len(workload.loaded_keys), batch_size)
    )


@given(workloads(), st.booleans())
@settings(max_examples=15, deadline=None)
def test_ablation_tree_matches_dict_replay(workload, drop_shortcuts):
    """Shortcuts off sends every op down the traversal path; the LRU
    ablation sends every fetch through ``LruTreeBuffer.fetch``.  Either
    way the surviving tree must be a valid ART holding exactly what a
    serial replay of the stream leaves."""
    field = (
        "enable_shortcuts" if drop_shortcuts else "value_aware_tree_buffer"
    )
    cfg = tiny_config(len(workload.loaded_keys), 64, **{field: False})
    acc = DcartAccelerator(config=cfg)
    tree = acc.build_tree(workload)
    acc.run(workload, tree=tree)
    assert_valid(tree)
    assert dict(tree.items()) == dict_replay(workload)


class TestBitIdentity:
    """Fixed seeded workloads through both fetch paths."""

    @pytest.mark.parametrize("name", ["IPGEO", "DICT", "RS"])
    def test_mixed_workload(self, name):
        w = make_workload(
            name, n_keys=600, n_ops=1200, seed=21, op_skew=0.9,
            write_ratio=0.4, insert_share_of_writes=0.5,
        )
        buffer = assert_paths_agree(w, tiny_config(600))
        # The tiny buffer really is under pressure.
        assert buffer[6] > 0 and buffer[7] > 0

    def test_read_only(self):
        w = make_workload("RS", n_keys=500, n_ops=1000, seed=3,
                          op_skew=0.8, write_ratio=0.0)
        assert_paths_agree(w, tiny_config(500))

    def test_insert_heavy(self):
        w = make_workload(
            "RD", n_keys=500, n_ops=1000, seed=9, op_skew=0.7,
            write_ratio=0.9, insert_share_of_writes=0.8,
        )
        assert_paths_agree(w, tiny_config(500))

    def test_delete_mix(self):
        # The factory never emits DELETE, so build the stream by hand:
        # prefix-free fixed-width keys over a tiny alphabet force merge
        # and shrink churn, whose dead nodes the SOU invalidates.
        rng = random.Random(17)
        keys = list(dict.fromkeys(
            b"\x00" + bytes(rng.randrange(4) for _ in range(8))
            for _ in range(300)
        ))
        ops = []
        for i in range(900):
            roll = rng.random()
            key = rng.choice(keys)
            if roll < 0.35:
                ops.append(Operation(i, OpKind.DELETE, key, None, 0))
            elif roll < 0.60:
                ops.append(Operation(i, OpKind.WRITE, key, i, 0))
            else:
                ops.append(Operation(i, OpKind.READ, key, None, 0))
        w = Workload("DEL", "synthetic", keys[: len(keys) // 2],
                     OperationStream(tuple(ops)), 17)
        assert_paths_agree(w, tiny_config(300))

    @pytest.mark.parametrize("field", [
        "enable_shortcuts",
        "value_aware_tree_buffer",
        "enable_combining",
        "enable_overlap",
    ])
    def test_ablations(self, field):
        w = make_workload(
            "IPGEO", n_keys=500, n_ops=1000, seed=5, op_skew=0.9,
            write_ratio=0.4, insert_share_of_writes=0.5,
        )
        assert_paths_agree(w, tiny_config(500, **{field: False}))

    def test_under_faults(self):
        def make_injector():
            return FaultInjector(FaultSchedule(seed=9, events=(
                SouSlowdown(start_batch=0, end_batch=2, sou_id=1,
                            factor=2.5),
                ShortcutCorruption(batch=1, n_entries=4),
                BufferStorm(batch=2, fraction=0.5),
            )))

        w = make_workload(
            "DICT", n_keys=500, n_ops=1200, seed=13, op_skew=0.95,
            write_ratio=0.3, insert_share_of_writes=0.4,
        )
        assert_paths_agree(w, tiny_config(500), make_injector)
