"""Recovery: latest valid checkpoint + committed WAL tail → a live tree.

The recovery contract, verified by the chaos harness's crash loop:

1. **Checkpoint selection** — walk the manifests newest-first; the first
   whose sha256 signs its payload wins.  Torn manifests, hash
   mismatches, and undecodable payloads are *skipped and reported*, not
   fatal — a machine that crashed mid-checkpoint must still come back
   from the previous one.
2. **WAL replay** — scan the log (CRC-framed; the scan stops at the
   first torn record), then apply the ops of every *committed* batch
   strictly after the checkpoint's batch index, in batch order.
   Uncommitted groups and the torn tail are never applied.
3. **Verification** — run the standalone ART invariant validator
   (:mod:`repro.art.validate`) over the rebuilt tree; its report ships
   in the result so callers can refuse a structurally damaged recovery.

Replay itself can be crashed (the harness's ``replay`` crash point).
That is safe by construction: replay only reads the log and rebuilds
in-memory state, so a crash mid-replay simply means recovery runs again
from the same files — recovery is idempotent.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.art.tree import AdaptiveRadixTree
from repro.art.validate import ValidationReport, validate_tree
from repro.durability.checkpoint import (
    list_checkpoints,
    load_checkpoint,
    restore_tree,
)
from repro.durability.wal import WalScan, scan_wal
from repro.errors import RecoveryError, SimulatedCrash, SimulationError
from repro.log import get_logger

LOG = get_logger("durability")

WAL_FILENAME = "wal.log"


def wal_path(directory: str) -> str:
    return os.path.join(directory, WAL_FILENAME)


@dataclass
class RecoveryResult:
    """Everything one recovery pass established."""

    directory: str
    tree: AdaptiveRadixTree
    #: Batch index the chosen checkpoint covers (``-1`` = bulk load only).
    checkpoint_batch: int
    #: Accelerator warm state carried by the checkpoint (shortcut rows…).
    accel_state: Dict = field(default_factory=dict)
    #: ``"seq <n>: <reason>"`` for every checkpoint that failed its check.
    checkpoints_skipped: List[str] = field(default_factory=list)
    batches_replayed: int = 0
    ops_replayed: int = 0
    #: Batches that began but never committed — discarded, never applied.
    uncommitted_batches: int = 0
    uncommitted_ops_skipped: int = 0
    wal_torn: bool = False
    wal_torn_reason: str = ""
    #: Highest committed batch in the WAL (what the tree now reflects).
    committed_through: int = -1
    validation: ValidationReport = field(default_factory=ValidationReport)

    @property
    def ok(self) -> bool:
        return self.validation.ok

    def summary(self) -> str:
        torn = f", torn WAL tail ({self.wal_torn_reason})" if self.wal_torn else ""
        skipped = (
            f", {len(self.checkpoints_skipped)} corrupt checkpoints skipped"
            if self.checkpoints_skipped
            else ""
        )
        return (
            f"recovered {len(self.tree)} keys from checkpoint@batch "
            f"{self.checkpoint_batch} + {self.batches_replayed} replayed "
            f"batches ({self.ops_replayed} ops, committed through "
            f"{self.committed_through}); skipped "
            f"{self.uncommitted_ops_skipped} uncommitted ops{torn}{skipped}; "
            f"tree {self.validation.summary()}"
        )

    def to_dict(self) -> Dict:
        """JSON-safe report (for ``repro recover --json``)."""
        return {
            "directory": self.directory,
            "n_keys": len(self.tree),
            "checkpoint_batch": self.checkpoint_batch,
            "checkpoints_skipped": list(self.checkpoints_skipped),
            "batches_replayed": self.batches_replayed,
            "ops_replayed": self.ops_replayed,
            "uncommitted_batches": self.uncommitted_batches,
            "uncommitted_ops_skipped": self.uncommitted_ops_skipped,
            "wal_torn": self.wal_torn,
            "wal_torn_reason": self.wal_torn_reason,
            "committed_through": self.committed_through,
            "validation_ok": self.validation.ok,
            "violations": [str(v) for v in self.validation.violations],
        }


def select_checkpoint(
    directory: str, skipped: List[str]
) -> Optional[tuple]:
    """Newest checkpoint that passes verification, or ``None``.

    Appends a reason line to ``skipped`` for every rejected candidate.
    """
    for info in list_checkpoints(directory):
        try:
            batch_index, items, accel_state = load_checkpoint(info)
            return info, batch_index, items, accel_state
        except SimulationError as exc:
            LOG.warning("skipping checkpoint seq %d: %s", info.seq, exc)
            skipped.append(f"seq {info.seq}: {exc}")
    return None


def recover(
    directory: str,
    crash_at_op: Optional[int] = None,
    validate: bool = True,
) -> RecoveryResult:
    """Rebuild the tree from ``directory``'s checkpoints and WAL.

    Raises :class:`RecoveryError` only when the directory holds no
    usable state at all (no valid checkpoint *and* no WAL).  Damaged
    artifacts short of that are skipped and reported on the result.

    ``crash_at_op`` is the chaos harness's mid-replay kill switch: raise
    :class:`SimulatedCrash` after applying that many WAL ops.  Because
    replay never writes to the log, the subsequent recovery attempt sees
    identical files — the property the crash loop asserts.
    """
    skipped: List[str] = []
    chosen = select_checkpoint(directory, skipped)
    scan: WalScan = scan_wal(wal_path(directory))

    if chosen is None and not scan.records:
        wal_state = (
            f"WAL unusable: {scan.torn_reason}" if scan.torn
            else "empty/missing WAL"
        )
        raise RecoveryError(
            f"no recoverable state in {directory!r}: "
            f"{len(skipped)} corrupt checkpoints, {wal_state}"
        )

    if chosen is not None:
        info, checkpoint_batch, items, accel_state = chosen
        tree = restore_tree(items)
        LOG.info(
            "recovery base: checkpoint seq %d (batch %d, %d keys)",
            info.seq, checkpoint_batch, len(items),
        )
    else:
        tree = AdaptiveRadixTree()
        checkpoint_batch = -1
        accel_state = {}
        LOG.warning(
            "recovery base: no valid checkpoint, replaying full WAL from empty"
        )

    result = RecoveryResult(
        directory=directory,
        tree=tree,
        checkpoint_batch=checkpoint_batch,
        accel_state=accel_state,
        checkpoints_skipped=skipped,
        uncommitted_batches=len(scan.uncommitted),
        uncommitted_ops_skipped=scan.uncommitted_ops,
        wal_torn=scan.torn,
        wal_torn_reason=scan.torn_reason,
        committed_through=max(scan.committed_through, checkpoint_batch),
    )

    replayed_batches = set()
    for batch, op in scan.committed_ops_after(checkpoint_batch):
        if crash_at_op is not None and result.ops_replayed >= crash_at_op:
            raise SimulatedCrash(
                f"crash mid-replay after {result.ops_replayed} ops",
                {"point": "replay", "ops_replayed": result.ops_replayed,
                 "batch": batch},
            )
        op.apply(tree)
        result.ops_replayed += 1
        replayed_batches.add(batch)
    result.batches_replayed = len(replayed_batches)

    if validate:
        result.validation = validate_tree(tree)
    LOG.info("%s", result.summary())
    return result
