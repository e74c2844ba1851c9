"""The simulator layers the traced run times, and the counts it reads.

Each span wraps one public entry point of a layer (see README.md for the
list and why each is there).  Nothing called once per node touch is
wrapped: that time shows up as its caller's self time.  The accelerator
counts are summed from what the wrapped calls return, so they cover
every accelerator in the process: the closed-loop run, serve
calibration, every cluster shard and every DCART campaign cell.
"""

from __future__ import annotations

from typing import Dict, List

import repro.core.accelerator as accelerator_module
import repro.durability as durability
import repro.experiments as experiments
import repro.workloads as workloads
from repro.art.tree import AdaptiveRadixTree
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import Partitioner
from repro.cluster.replication import ReplicaShard
from repro.core.accelerator import AcceleratorSession
from repro.core.dispatcher import Dispatcher
from repro.core.pcu import PrefixCombiningUnit
from repro.core.sou import ShortcutOperatingUnit
from repro.durability.manager import DurabilityManager
from repro.engines.base import Engine
from repro.experiments.store import ResultStore
from repro.harness.runner import ENGINE_ORDER, default_engines
from repro.serve.simulator import ServingSimulator
from spans import SpanRecorder, Target, self_times

#: Every span the ledger reports, in table order.
SPAN_NAMES = (
    "workloads.make_workload",
    "engine.build_tree",
    "accel.execute_batch",
    "pcu.combine_batch",
    "dispatcher.dispatch",
    "sou.process_bucket",
    "art.get",
    "art.upsert",
    "art.delete",
    "durability.log_batch",
    "durability.accelerator_state",
    "durability.maybe_checkpoint",
    "durability.recover",
    "serve.calibrate",
    "serve.run",
    "cluster.execute_batch",
    "replication.ship",
    "engines.collect_records",
    *(f"engines.{name}.run" for name in ENGINE_ORDER),
    "experiments.put_cell",
    "experiments.build_report",
)

#: Counts and ratios, with unit and direction.  The serve and campaign
#: counts are read from those workloads' own outputs.
COUNTS = {
    "sou.shortcut_hit_share": ("fraction", "higher"),
    "sou.traversals": ("count", "lower"),
    "tree_buffer.hit_rate": ("fraction", "higher"),
    "hbm.offchip_lines": ("count", "lower"),
    "sync.global_ops": ("count", "lower"),
    "durability.wal_bytes": ("bytes", "lower"),
    "durability.checkpoint_bytes": ("bytes", "lower"),
    "durability.checkpoints_written": ("count", "lower"),
    "durability.accel_state_useful_share": ("fraction", "higher"),
    "serve.batches": ("count", "lower"),
    "serve.deadline_batch_share": ("fraction", "lower"),
    "serve.queue_peak": ("count", "lower"),
    "cluster.failovers": ("count", "lower"),
    "cluster.bucket_moves": ("count", "lower"),
    "experiments.cells_ran": ("count", "lower"),
    "experiments.cells_reused": ("count", "higher"),
}

class LayerTrace:
    """The span targets of one traced repetition and the counts they see."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.sou_ops = 0
        self.shortcut_hits = 0
        self.traversals = 0
        self.offchip_lines = 0
        self.global_sync_ops = 0
        self.checkpoints_from_state = 0
        self._tree_buffers: Dict[int, object] = {}
        self._managers: Dict[int, DurabilityManager] = {}

    # -- observers: read what a wrapped call returned --------------------

    def _bucket_done(self, outcome, sou, bucket) -> None:
        self.sou_ops += len(bucket.operations)
        self.shortcut_hits += outcome.shortcut_hits
        self.traversals += outcome.traversals
        self.offchip_lines += outcome.offchip_lines
        self.global_sync_ops += len(outcome.global_sync_targets)

    def _batch_done(self, execution, session, *args) -> None:
        self._tree_buffers[id(session.tree_buffer)] = session.tree_buffer

    def _logged(self, seconds, manager, *args) -> None:
        self._managers[id(manager)] = manager

    def _checkpoint_done(self, seconds, manager, *args) -> None:
        self._managers[id(manager)] = manager
        if seconds > 0:
            self.checkpoints_from_state += 1

    def targets(self) -> List[Target]:
        engine_targets = [
            Target(type(engine), "run", span=f"engines.{engine.name}.run")
            for engine in default_engines(1, include=ENGINE_ORDER)
        ]
        return [
            Target(workloads, "make_workload", span="workloads.make_workload"),
            Target(Engine, "build_tree", span="engine.build_tree"),
            Target(
                AcceleratorSession,
                "execute_batch",
                span="accel.execute_batch",
                observe=self._batch_done,
            ),
            Target(PrefixCombiningUnit, "combine_batch", span="pcu.combine_batch"),
            Target(Dispatcher, "dispatch", span="dispatcher.dispatch"),
            Target(
                ShortcutOperatingUnit,
                "process_bucket",
                span="sou.process_bucket",
                observe=self._bucket_done,
            ),
            Target(AdaptiveRadixTree, "get", span="art.get"),
            Target(AdaptiveRadixTree, "upsert", span="art.upsert"),
            Target(AdaptiveRadixTree, "delete", span="art.delete"),
            Target(
                DurabilityManager,
                "log_batch",
                span="durability.log_batch",
                observe=self._logged,
            ),
            # The accelerator looks the snapshot function up in its own
            # module namespace, so that is where it is wrapped.
            Target(
                accelerator_module,
                "durability_accel_state",
                span="durability.accelerator_state",
            ),
            Target(
                DurabilityManager,
                "maybe_checkpoint",
                span="durability.maybe_checkpoint",
                observe=self._checkpoint_done,
            ),
            Target(durability, "recover", span="durability.recover"),
            Target(ServingSimulator, "capacity_ops_per_s", span="serve.calibrate"),
            Target(ServingSimulator, "run", span="serve.run"),
            Target(ClusterCoordinator, "execute_batch", span="cluster.execute_batch"),
            Target(ReplicaShard, "ship", span="replication.ship"),
            Target(ReplicaShard, "catch_up", count="cluster.failovers"),
            Target(Partitioner, "move_bucket", count="cluster.bucket_moves"),
            Target(Engine, "collect_records", span="engines.collect_records"),
            *engine_targets,
            Target(ResultStore, "put_cell", span="experiments.put_cell"),
            Target(experiments, "build_report", span="experiments.build_report"),
        ]

    # -- the ledger -----------------------------------------------------

    def ledger(self, scenario_counts: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics of this repetition (residual overhead excluded).

        ``self_share`` is a span's self time over the repetition's measured
        phases (set-up, timed and any follow-up phase).
        """
        spans = self.recorder.spans
        times = self_times(spans)
        measured = sum(s.end - s.start for s in spans if s.name.startswith("phase."))
        out: Dict[str, float] = {}
        for name in SPAN_NAMES:
            calls, seconds = times.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = seconds
            out[f"{name}.self_share"] = seconds / measured
        hits = sum(tb.hits for tb in self._tree_buffers.values())
        misses = sum(tb.misses for tb in self._tree_buffers.values())
        snapshots = [m.snapshot() for m in self._managers.values()]
        state_calls = times.get("durability.accelerator_state", (0, 0.0))[0]
        out.update({
            "sou.shortcut_hit_share": _share(self.shortcut_hits, self.sou_ops),
            "sou.traversals": self.traversals,
            "tree_buffer.hit_rate": _share(hits, hits + misses),
            "hbm.offchip_lines": self.offchip_lines,
            "sync.global_ops": self.global_sync_ops,
            "durability.wal_bytes": sum(s["wal_bytes"] for s in snapshots),
            "durability.checkpoint_bytes": sum(
                s["checkpoint_bytes"] for s in snapshots
            ),
            "durability.checkpoints_written": sum(
                s["checkpoints_written"] for s in snapshots
            ),
            "durability.accel_state_useful_share": _share(
                self.checkpoints_from_state, state_calls
            ),
            "serve.batches": 0,
            "serve.deadline_batch_share": 0.0,
            "serve.queue_peak": 0,
            "cluster.failovers": self.recorder.counts["cluster.failovers"],
            "cluster.bucket_moves": self.recorder.counts["cluster.bucket_moves"],
            "experiments.cells_ran": 0,
            "experiments.cells_reused": 0,
        })
        out.update(scenario_counts)
        out["unattributed_s"] = times.get("phase.timed", (0, 0.0))[1]
        return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
