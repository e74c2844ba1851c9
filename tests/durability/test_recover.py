"""Recovery tests: checkpoint fallback, committed-tail replay, idempotence."""

import os

import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.durability import DurabilityManager, recover
from repro.durability.checkpoint import list_checkpoints
from repro.durability.recover import wal_path
from repro.errors import KeyNotFoundError, RecoveryError, SimulatedCrash
from repro.workloads.ops import OpKind, Operation


def write_op(op_id, key, value=None):
    return Operation(op_id=op_id, kind=OpKind.WRITE, key=key, value=value)


def delete_op(op_id, key):
    return Operation(op_id=op_id, kind=OpKind.DELETE, key=key)


def key(i):
    return i.to_bytes(4, "big")


def durable_run(directory, batches, checkpoint_every=2, base_keys=10):
    """Drive a DurabilityManager by hand: log, apply, maybe checkpoint."""
    tree = AdaptiveRadixTree()
    for i in range(base_keys):
        tree.insert(key(i), i)
    manager = DurabilityManager(directory, checkpoint_every=checkpoint_every)
    manager.attach(tree)
    for batch_index, ops in enumerate(batches):
        manager.log_batch(batch_index, ops)
        for op in ops:
            if op.kind is OpKind.WRITE:
                tree.upsert(op.key, op.value)
            else:
                try:
                    tree.delete(op.key)
                except KeyNotFoundError:
                    pass
        manager.maybe_checkpoint(batch_index, tree)
    manager.close()
    return tree


BATCHES = [
    [write_op(0, key(100), "a"), write_op(1, key(101), "b")],
    [delete_op(2, key(0)), write_op(3, key(100), "a2")],
    [write_op(4, key(102), "c")],
]


class TestRecover:
    def test_full_recovery_equals_live_tree(self, tmp_path):
        directory = str(tmp_path)
        live = durable_run(directory, BATCHES)
        result = recover(directory)
        assert result.ok
        assert result.committed_through == 2
        assert dict(result.tree.items()) == dict(live.items())

    def test_falls_back_when_newest_checkpoint_corrupt(self, tmp_path):
        directory = str(tmp_path)
        live = durable_run(directory, BATCHES, checkpoint_every=2)
        newest = list_checkpoints(directory)[0]
        with open(newest.payload_path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\x00\x00\x00\x00")
        result = recover(directory)
        assert result.ok
        assert len(result.checkpoints_skipped) == 1
        assert "sha256 mismatch" in result.checkpoints_skipped[0]
        assert result.checkpoint_batch < newest.batch_index
        # Replay over the older base still reaches the same final state.
        assert dict(result.tree.items()) == dict(live.items())

    def test_no_checkpoints_replays_full_wal_from_empty(self, tmp_path):
        directory = str(tmp_path)
        durable_run(directory, BATCHES, base_keys=0)
        for info in list_checkpoints(directory):
            os.unlink(info.manifest_path)
        result = recover(directory)
        assert result.ok
        assert result.checkpoint_batch == -1
        assert result.tree.search(key(102)) == "c"

    def test_empty_directory_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="empty/missing WAL"):
            recover(str(tmp_path))

    def test_corrupt_wal_is_reported_as_unusable_not_missing(self, tmp_path):
        with open(wal_path(str(tmp_path)), "wb") as handle:
            handle.write(b"garbage")
        with pytest.raises(RecoveryError) as excinfo:
            recover(str(tmp_path))
        assert "WAL unusable: bad file magic" in str(excinfo.value)
        assert "missing" not in str(excinfo.value)

    def test_replay_crash_is_idempotent(self, tmp_path):
        directory = str(tmp_path)
        live = durable_run(directory, BATCHES, checkpoint_every=100)
        before = open(wal_path(directory), "rb").read()
        with pytest.raises(SimulatedCrash):
            recover(directory, crash_at_op=2)
        # Replay writes nothing: identical files, identical second answer.
        assert open(wal_path(directory), "rb").read() == before
        result = recover(directory)
        assert result.ok
        assert dict(result.tree.items()) == dict(live.items())

    def test_uncommitted_tail_is_never_applied(self, tmp_path):
        directory = str(tmp_path)
        tree = AdaptiveRadixTree()
        manager = DurabilityManager(directory, checkpoint_every=100)
        manager.attach(tree)
        manager.log_batch(0, BATCHES[0])
        for op in BATCHES[0]:
            tree.upsert(op.key, op.value)
        # Batch 1 begins but the machine dies before COMMIT.
        manager.arm_crash("wal-pre-commit")
        with pytest.raises(SimulatedCrash):
            manager.log_batch(1, [write_op(9, key(999), "ghost")])
        manager.close()

        result = recover(directory)
        assert result.ok
        assert result.committed_through == 0
        assert result.uncommitted_ops_skipped == 1
        assert result.tree.search(key(100)) == "a"
        with pytest.raises(KeyNotFoundError):
            result.tree.search(key(999))
