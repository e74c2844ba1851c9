"""The DurabilityManager: what the accelerator calls, per batch.

Wiring (see :class:`~repro.core.accelerator.DcartAccelerator`):

* :meth:`attach` — once per run, before the first batch: opens the WAL
  and writes the **base checkpoint** (batch ``-1``) capturing the
  bulk-loaded tree, so recovery always has the load state to build on.
* :meth:`log_batch` — before SOU dispatch: group-commits
  ``BEGIN / op* / COMMIT`` for the batch's mutating ops — one write and
  one flush for the whole group.  The COMMIT is the batch's fsync point;
  only after it returns may the SOUs mutate the tree.  Crashing anywhere
  inside leaves an uncommitted (possibly torn) group that recovery
  discards — write-ahead in the strict sense.
* :meth:`maybe_checkpoint` — after the batch is applied: every
  ``checkpoint_every`` batches, snapshots tree + accelerator state.  The
  accelerator state arrives as a callable and is built only for the
  batches that actually write a checkpoint.
* :meth:`snapshot` / billing — every byte and fsync is billed through
  :class:`~repro.model.costs.DurabilityCosts`; the accelerator converts
  the returned seconds to cycles and adds them to the batch, so
  durability shows up honestly in throughput and the energy model.

Crash points are *armed* (by the fault injector, from a
:class:`~repro.faults.schedule.CrashFault` event) rather than thrown by
the caller, so the kill lands at the exact protocol step being tested:
mid-append (torn record), pre-commit (complete group, no COMMIT), torn
commit, mid-checkpoint payload, or mid-checkpoint manifest.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, NoReturn, Optional

from repro.art.tree import AdaptiveRadixTree
from repro.durability import checkpoint as ckpt
from repro.durability.recover import WAL_FILENAME
from repro.durability.wal import (
    CommitRecord,
    WriteAheadLog,
    is_loggable,
    op_record,
)
from repro.errors import ConfigError, SimulatedCrash
from repro.log import get_logger
from repro.model.costs import DEFAULT_DURABILITY_COSTS, DurabilityCosts
from repro.workloads.ops import Operation

LOG = get_logger("durability")

#: Crash points the manager understands (the WAL-protocol subset; the
#: checkpoint module owns its own two, re-exported here for one matrix).
CRASH_WAL_MID_APPEND = "wal-mid-append"
CRASH_WAL_PRE_COMMIT = "wal-pre-commit"
CRASH_WAL_TORN_COMMIT = "wal-torn-commit"
WAL_CRASH_POINTS = (
    CRASH_WAL_MID_APPEND,
    CRASH_WAL_PRE_COMMIT,
    CRASH_WAL_TORN_COMMIT,
)
CRASH_POINTS = (
    *WAL_CRASH_POINTS,
    ckpt.CRASH_PAYLOAD,
    ckpt.CRASH_MANIFEST,
)


class DurabilityManager:
    """WAL + checkpoint lifecycle for one accelerator run."""

    def __init__(
        self,
        directory: str,
        checkpoint_every: int = 4,
        costs: DurabilityCosts = DEFAULT_DURABILITY_COSTS,
        real_fsync: bool = False,
    ):
        if checkpoint_every <= 0:
            raise ConfigError(
                f"checkpoint_every must be positive: {checkpoint_every}"
            )
        self.directory = directory
        self.checkpoint_every = checkpoint_every
        self.costs = costs
        self.real_fsync = real_fsync
        self.wal: Optional[WriteAheadLog] = None
        self.checkpoints_written = 0
        self.checkpoint_bytes = 0
        self.checkpoint_seconds = 0.0
        self.ops_logged = 0
        self.batches_logged = 0
        self._armed_point: Optional[str] = None
        self._armed_detail: int = 0

    # ------------------------------------------------------------------
    # crash arming (fault-injector hook)
    # ------------------------------------------------------------------

    def arm_crash(self, point: str, detail: int = 0) -> None:
        """Schedule a kill at ``point`` in the next batch's protocol."""
        if point not in CRASH_POINTS:
            raise ConfigError(
                f"unknown crash point {point!r}; expected one of {CRASH_POINTS}"
            )
        self._armed_point = point
        self._armed_detail = detail
        LOG.info("crash point armed: %s (detail %d)", point, detail)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self, tree: AdaptiveRadixTree) -> float:
        """Open the WAL and write the bulk-load base checkpoint.

        Returns the modelled seconds the base snapshot cost.  Idempotent
        per run: re-attaching to the same directory continues the
        existing WAL (a restarted run appends after recovery).
        """
        try:
            os.makedirs(self.directory, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create durability directory {self.directory!r}: "
                f"{exc.strerror or exc}"
            ) from exc
        seconds = self._checkpoint(tree, batch_index=-1, accel_state={})
        self.wal = WriteAheadLog(
            os.path.join(self.directory, WAL_FILENAME),
            costs=self.costs,
            real_fsync=self.real_fsync,
        )
        return seconds

    def log_batch(self, batch_index: int, operations: List[Operation]) -> float:
        """WAL one batch ahead of execution; returns modelled seconds.

        Batches with no mutating ops are not logged at all (a read-only
        batch needs no durability barrier and costs nothing).
        """
        if self.wal is None:
            raise ConfigError("DurabilityManager.log_batch before attach()")
        mutating = [op for op in operations if is_loggable(op)]
        if not mutating:
            return 0.0
        wal = self.wal
        seconds_before = wal.modelled_seconds
        if self._armed_point in WAL_CRASH_POINTS:
            self._crash_in_group(wal, batch_index, mutating)
        wal.commit_group(batch_index, mutating)
        self.ops_logged += len(mutating)
        self.batches_logged += 1
        return wal.modelled_seconds - seconds_before

    def _crash_in_group(
        self, wal: WriteAheadLog, batch_index: int, mutating: List[Operation]
    ) -> NoReturn:
        """Die at the armed WAL crash point, record by record.

        The group goes out one record at a time so the kill lands after
        exactly the bytes the crash point promises.
        """
        armed = self._armed_point
        wal.begin_batch(batch_index)
        if armed == CRASH_WAL_MID_APPEND:
            # Append a prefix of the group, then die mid-record.
            keep_ops = self._armed_detail % len(mutating)
            for op in mutating[:keep_ops]:
                wal.log_op(op)
            torn = op_record(mutating[keep_ops])
            kept = wal.append_torn(torn, keep_bytes=4 + self._armed_detail % 7)
            self._disarm()
            wal.abandon_batch()
            raise SimulatedCrash(
                f"crash mid-WAL-append in batch {batch_index}",
                {"point": CRASH_WAL_MID_APPEND, "batch": batch_index,
                 "ops_appended": keep_ops, "torn_record_bytes": kept},
            )
        for op in mutating:
            wal.log_op(op)
        if armed == CRASH_WAL_PRE_COMMIT:
            self._disarm()
            wal.abandon_batch()
            raise SimulatedCrash(
                f"crash before COMMIT of batch {batch_index}",
                {"point": CRASH_WAL_PRE_COMMIT, "batch": batch_index,
                 "ops_appended": len(mutating)},
            )
        commit = CommitRecord(batch_index, len(mutating))
        kept = wal.append_torn(commit, keep_bytes=5 + self._armed_detail % 4)
        self._disarm()
        wal.abandon_batch()
        raise SimulatedCrash(
            f"crash mid-COMMIT of batch {batch_index}",
            {"point": CRASH_WAL_TORN_COMMIT, "batch": batch_index,
             "torn_record_bytes": kept},
        )

    def maybe_checkpoint(
        self,
        batch_index: int,
        tree: AdaptiveRadixTree,
        accel_state: Optional[Callable[[], Dict]] = None,
    ) -> float:
        """Checkpoint if due (or if a checkpoint crash point is armed).

        ``accel_state`` builds the accelerator snapshot; it is called
        only when a checkpoint is actually written, so batches between
        checkpoints pay nothing for it.
        """
        armed = self._armed_point in (ckpt.CRASH_PAYLOAD, ckpt.CRASH_MANIFEST)
        due = (batch_index + 1) % self.checkpoint_every == 0
        if not due and not armed:
            return 0.0
        crash = self._armed_point if armed else None
        if armed:
            self._disarm()
        state = accel_state() if accel_state is not None else {}
        return self._checkpoint(tree, batch_index, state, crash=crash)

    def _checkpoint(
        self,
        tree: AdaptiveRadixTree,
        batch_index: int,
        accel_state: Dict,
        crash: Optional[str] = None,
    ) -> float:
        info = ckpt.write_checkpoint(
            self.directory,
            tree,
            batch_index,
            accel_state=accel_state,
            real_fsync=self.real_fsync,
            crash=crash,
        )
        self.checkpoints_written += 1
        self.checkpoint_bytes += info.manifest["payload_bytes"]
        seconds = self.costs.checkpoint_seconds(info.manifest["payload_bytes"])
        self.checkpoint_seconds += seconds
        return seconds

    def _disarm(self) -> None:
        self._armed_point = None
        self._armed_detail = 0

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Durability telemetry for ``RunResult.extra``."""
        wal_bytes = self.wal.bytes_written if self.wal else 0
        wal_fsyncs = self.wal.fsyncs if self.wal else 0
        wal_seconds = self.wal.modelled_seconds if self.wal else 0.0
        return {
            "wal_bytes": wal_bytes,
            "wal_records": self.wal.records_written if self.wal else 0,
            "wal_fsyncs": wal_fsyncs,
            "wal_seconds": wal_seconds,
            "wal_ops_logged": self.ops_logged,
            "wal_batches_logged": self.batches_logged,
            "checkpoints_written": self.checkpoints_written,
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_seconds": self.checkpoint_seconds,
        }

    def report_metrics(self, registry) -> None:
        """Mirror :meth:`snapshot` into a MetricsRegistry (``durability.*``).

        Integer totals become counters, modelled seconds become gauges —
        the same values ``RunResult.extra`` carries, under stable names.
        """
        for key, value in self.snapshot().items():
            name = f"durability.{key}"
            if isinstance(value, float):
                registry.gauge(name, value)
            else:
                registry.counter(name, value)


def accelerator_state(shortcuts, tables) -> Dict:
    """Snapshot the warm accelerator state worth checkpointing.

    Shortcut rows are stored as hex-keyed address pairs; after recovery
    the addresses are stale (the rebuilt tree re-allocates), so they are
    carried for telemetry/warm-up heuristics, not dereferenced blindly —
    exactly how the SOU already treats a possibly-stale shortcut.
    """
    state: Dict = {}
    if shortcuts is not None:
        state["shortcut_entries"] = [
            [entry.key.hex(), entry.target_address, entry.parent_address]
            for entry in (shortcuts._entries[k] for k in sorted(shortcuts._entries))
            if not entry.corrupted
        ]
    if tables is not None:
        state["bucket_spilled_bytes"] = tables.spilled_bytes
    return state
