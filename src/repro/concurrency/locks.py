"""Node-level lock accounting under the ROWEX protocol.

ROWEX (*Read-Optimized Write EXclusion*, Leis et al. [9]) as the paper
summarises it: writers take a per-node lock before modifying the node;
readers proceed without locks (they validate versions); and when an
operation changes the *type* of a node (e.g. an N4 splitting into an N16),
the parent node must be locked too.

:class:`RowexLockTable` turns a stream of already-grouped conflict
information (from :mod:`repro.concurrency.waves`) into the counters the
paper reports — lock acquisitions and lock *contentions* (an acquisition
that had to wait because a concurrent operation held the node).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class LockAccounting:
    """Counters for one engine run."""

    acquisitions: int = 0
    contentions: int = 0
    parent_acquisitions: int = 0  # extra locks due to node-type changes

    @property
    def contention_rate(self) -> float:
        if self.acquisitions == 0:
            return 0.0
        return self.contentions / self.acquisitions


class RowexLockTable:
    """Accounts write locks for operations, ROWEX-style."""

    def __init__(self):
        self.accounting = LockAccounting()

    def lock_for_write(
        self,
        node_id: int,
        waiting_behind: int,
        changes_node_type: bool = False,
        parent_id: int = None,
    ) -> int:
        """Record a write lock on ``node_id``.

        ``waiting_behind`` is the number of concurrent operations already
        queued on the same node (from the wave model): each such queued
        acquisition is one *contention*.  Returns the number of locks
        taken (1, or 2 when the parent must also be locked).
        """
        acc = self.accounting
        acc.acquisitions += 1
        if waiting_behind > 0:
            acc.contentions += 1
        locks = 1
        if changes_node_type:
            acc.acquisitions += 1
            acc.parent_acquisitions += 1
            locks = 2
        return locks
