"""DurabilityManager: the accelerator snapshot is built only when written."""

import pytest

import repro.core.accelerator as accelerator_module
from repro.art.tree import AdaptiveRadixTree
from repro.core.accelerator import DcartAccelerator
from repro.durability import DurabilityManager
from repro.durability.checkpoint import (
    CRASH_PAYLOAD,
    list_checkpoints,
    load_checkpoint,
)
from repro.errors import ConfigError, SimulatedCrash
from repro.harness import resilience
from repro.workloads import make_workload


class CountingState:
    """A zero-argument snapshot callable that counts its calls."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return {"bucket_spilled_bytes": self.calls}


def attached(directory, checkpoint_every):
    tree = AdaptiveRadixTree()
    tree.insert(b"base", 0)
    manager = DurabilityManager(directory, checkpoint_every=checkpoint_every)
    manager.attach(tree)
    return manager, tree


def newest_state(directory):
    _, _, state = load_checkpoint(list_checkpoints(directory)[0])
    return state


def test_state_is_built_only_for_due_checkpoints(tmp_path):
    manager, tree = attached(str(tmp_path), checkpoint_every=4)
    state = CountingState()
    for batch_index in range(10):
        manager.maybe_checkpoint(batch_index, tree, state)
    manager.close()
    assert state.calls == 2  # batches 3 and 7
    assert manager.checkpoints_written == 3  # base snapshot + 2
    assert newest_state(str(tmp_path)) == {"bucket_spilled_bytes": 2}


def test_armed_checkpoint_crash_builds_state_when_not_due(tmp_path):
    manager, tree = attached(str(tmp_path), checkpoint_every=4)
    state = CountingState()
    manager.arm_crash(CRASH_PAYLOAD)
    with pytest.raises(SimulatedCrash):
        manager.maybe_checkpoint(1, tree, state)
    manager.close()
    assert state.calls == 1


def test_no_state_callable_stores_an_empty_state(tmp_path):
    manager, tree = attached(str(tmp_path), checkpoint_every=4)
    manager.maybe_checkpoint(3, tree)
    manager.close()
    assert newest_state(str(tmp_path)) == {}


def test_accelerator_snapshots_once_per_written_checkpoint(tmp_path, monkeypatch):
    calls = []
    real = accelerator_module.durability_accel_state

    def counting(shortcuts, tables):
        calls.append(1)
        return real(shortcuts, tables)

    # The accelerator resolves the snapshot function in its own module
    # namespace when a checkpoint is written, so this is where it is wrapped.
    monkeypatch.setattr(accelerator_module, "durability_accel_state", counting)
    workload = make_workload("DE", n_keys=600, n_ops=4000, seed=1)
    durability = DurabilityManager(str(tmp_path), checkpoint_every=2)
    accelerator = DcartAccelerator(
        config=resilience.chaos_config(600), durability=durability
    )
    result = accelerator.run(workload, tree=accelerator.build_tree(workload))
    assert len(calls) == result.extra["checkpoints_written"] - 1 >= 1


def test_directory_that_is_a_file_is_a_config_error(tmp_path):
    path = tmp_path / "state"
    path.write_bytes(b"")
    manager = DurabilityManager(str(path))
    with pytest.raises(ConfigError, match="cannot create durability directory"):
        manager.attach(AdaptiveRadixTree())
