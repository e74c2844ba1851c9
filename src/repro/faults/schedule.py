"""Deterministic fault plans for the chaos harness.

A schedule is a frozen, sorted tuple of fault events pinned to batch
indices.  Everything is a pure function of the seed and the generator
parameters — two schedules built with the same arguments are equal and
share a byte-identical :meth:`FaultSchedule.signature`, which is what
makes a chaos run reproducible end to end (fuzzbench-style: the seed
*is* the scenario).

Five event kinds model the failure modes a deployed accelerator sees:

* :class:`SouFailStop`      — an SOU dies at batch *k* and never returns;
* :class:`SouSlowdown`      — an SOU runs ``factor``× slower over a
  batch window (thermal throttling, a flaky HBM pseudo-channel);
* :class:`ShortcutCorruption` — ``n_entries`` Shortcut_Table rows get
  dangling target addresses at batch *k* (bit flips in off-chip DRAM);
* :class:`BufferStorm`      — a fraction of the Tree_buffer is
  invalidated at batch *k* (ECC scrub, partial reconfiguration);
* :class:`HbmThrottle`      — HBM bandwidth drops to ``factor`` of
  nominal over a batch window (shared-bus interference);
* :class:`CrashFault`       — the whole machine is killed at batch *k*
  at a specific step of the durability protocol (mid-WAL-append,
  pre-commit, torn commit, mid-checkpoint payload/manifest), so the
  crash–recover–validate loop can exercise every recovery path.

Two further kinds target the sharded cluster layer
(:mod:`repro.cluster`) rather than a single machine:

* :class:`ShardFailStop`    — a whole shard's primary dies at batch *k*
  (host crash, fabric partition); the coordinator's failure detector
  and replica failover have to absorb it;
* :class:`ReplicationLinkSlowdown` — a shard's primary→replica link
  runs ``factor``× slower over a batch window, growing replication lag
  and delaying heartbeats (congested or flapping fabric path).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from random import Random
from typing import Iterator, List, Tuple, Union

from repro.errors import ConfigError


def _check_batch(batch: int, what: str = "batch") -> None:
    if batch < 0:
        raise ConfigError(f"{what} must be >= 0: {batch}")


def _check_sou_id(sou_id: int) -> None:
    if sou_id < 0:
        raise ConfigError(f"sou_id must be >= 0: {sou_id}")


@dataclass(frozen=True)
class SouFailStop:
    """SOU ``sou_id`` fail-stops at the start of batch ``batch``."""

    batch: int
    sou_id: int

    def __post_init__(self):
        _check_batch(self.batch)
        _check_sou_id(self.sou_id)

    def describe(self) -> str:
        return f"batch {self.batch}: SOU {self.sou_id} fail-stop"


@dataclass(frozen=True)
class SouSlowdown:
    """SOU ``sou_id`` runs ``factor``x slower on batches [start, end]."""

    start_batch: int
    end_batch: int
    sou_id: int
    factor: float

    def __post_init__(self):
        _check_batch(self.start_batch, "start_batch")
        _check_sou_id(self.sou_id)
        if self.factor < 1.0:
            raise ConfigError(f"slowdown factor must be >= 1: {self.factor}")
        if self.end_batch < self.start_batch:
            raise ConfigError(
                f"slowdown window inverted: [{self.start_batch}, {self.end_batch}]"
            )

    def describe(self) -> str:
        return (
            f"batches {self.start_batch}-{self.end_batch}: "
            f"SOU {self.sou_id} slowed {self.factor:g}x"
        )


@dataclass(frozen=True)
class ShortcutCorruption:
    """``n_entries`` shortcut rows corrupted at the start of ``batch``."""

    batch: int
    n_entries: int

    def __post_init__(self):
        _check_batch(self.batch)
        if self.n_entries <= 0:
            raise ConfigError(f"n_entries must be positive: {self.n_entries}")

    def describe(self) -> str:
        return f"batch {self.batch}: {self.n_entries} shortcut entries corrupted"


@dataclass(frozen=True)
class BufferStorm:
    """A ``fraction`` of resident Tree_buffer nodes invalidated at ``batch``."""

    batch: int
    fraction: float

    def __post_init__(self):
        _check_batch(self.batch)
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"storm fraction must be in (0, 1]: {self.fraction}")

    def describe(self) -> str:
        return (
            f"batch {self.batch}: Tree_buffer invalidation storm "
            f"({100 * self.fraction:.0f} %)"
        )


@dataclass(frozen=True)
class HbmThrottle:
    """HBM bandwidth multiplied by ``factor`` on batches [start, end].

    ``factor == 0.0`` is a full channel blackout: the accelerator prices
    off-chip traffic at ``FpgaCosts.hbm_blackout_cycles_per_line``
    instead of dividing by the (zero) effective bandwidth.
    """

    start_batch: int
    end_batch: int
    factor: float

    def __post_init__(self):
        _check_batch(self.start_batch, "start_batch")
        if not 0.0 <= self.factor <= 1.0:
            raise ConfigError(f"throttle factor must be in [0, 1]: {self.factor}")
        if self.end_batch < self.start_batch:
            raise ConfigError(
                f"throttle window inverted: [{self.start_batch}, {self.end_batch}]"
            )

    def describe(self) -> str:
        return (
            f"batches {self.start_batch}-{self.end_batch}: "
            f"HBM throttled to {100 * self.factor:.0f} %"
        )


#: Durability-protocol kill points a :class:`CrashFault` may name (the
#: canonical list lives in :mod:`repro.durability.manager`; mirrored
#: here so building a schedule does not import the durability package).
CRASH_POINTS = (
    "wal-mid-append",
    "wal-pre-commit",
    "wal-torn-commit",
    "ckpt-payload",
    "ckpt-manifest",
)


@dataclass(frozen=True)
class CrashFault:
    """Kill the machine during ``batch`` at durability step ``point``.

    ``detail`` seeds where exactly the torn write lands (which op index
    the append dies on, how many bytes of the torn record survive).
    Requires the run to have a :class:`DurabilityManager` attached —
    without one there is nothing to tear, and the injector logs and
    skips the event.
    """

    batch: int
    point: str
    detail: int = 0

    def __post_init__(self):
        _check_batch(self.batch)
        if self.point not in CRASH_POINTS:
            raise ConfigError(
                f"unknown crash point {self.point!r}; one of {CRASH_POINTS}"
            )
        if self.detail < 0:
            raise ConfigError(f"crash detail must be >= 0: {self.detail}")

    def describe(self) -> str:
        return f"batch {self.batch}: crash at {self.point}"


@dataclass(frozen=True)
class ShardFailStop:
    """Shard ``shard_id``'s primary fail-stops at the start of ``batch``.

    A cluster-level event: the whole DCART instance behind one shard
    stops responding (host crash, power loss, fabric partition).  Its
    in-flight batch is lost from the primary — the coordinator queues
    those ops as hinted handoff — and its heartbeats stop, so the
    failure detector walks alive → suspect → dead before the replica is
    promoted.  Ignored (with a warning) by single-machine runs.
    """

    batch: int
    shard_id: int

    def __post_init__(self):
        _check_batch(self.batch)
        if self.shard_id < 0:
            raise ConfigError(f"shard_id must be >= 0: {self.shard_id}")

    def describe(self) -> str:
        return f"batch {self.batch}: shard {self.shard_id} fail-stop"


@dataclass(frozen=True)
class ReplicationLinkSlowdown:
    """Shard ``shard_id``'s replication link runs ``factor``x slower.

    Over batches ``[start_batch, end_batch]`` the primary→replica WAL
    stream (and the heartbeats sharing the path) is delayed by
    ``factor``: replication lag grows by the same multiple and the
    failure detector may walk the shard into SUSPECT before the window
    ends — a slow fabric path must *not* trigger a spurious failover.
    """

    start_batch: int
    end_batch: int
    shard_id: int
    factor: float

    def __post_init__(self):
        _check_batch(self.start_batch, "start_batch")
        if self.shard_id < 0:
            raise ConfigError(f"shard_id must be >= 0: {self.shard_id}")
        if self.factor < 1.0:
            raise ConfigError(
                f"replication slowdown factor must be >= 1: {self.factor}"
            )
        if self.end_batch < self.start_batch:
            raise ConfigError(
                f"slowdown window inverted: [{self.start_batch}, {self.end_batch}]"
            )

    def describe(self) -> str:
        return (
            f"batches {self.start_batch}-{self.end_batch}: "
            f"shard {self.shard_id} replication link slowed {self.factor:g}x"
        )


FaultEvent = Union[
    SouFailStop, SouSlowdown, ShortcutCorruption, BufferStorm, HbmThrottle,
    CrashFault, ShardFailStop, ReplicationLinkSlowdown,
]

#: Event kinds scoped to the cluster coordinator, never the per-machine
#: injector (single-machine runs reject them via ``validate_shards(0)``).
CLUSTER_EVENTS = (ShardFailStop, ReplicationLinkSlowdown)


#: Stable ordering for signature/replay: (first batch, kind name, repr).
def _event_key(event: FaultEvent) -> Tuple[int, str, str]:
    first = getattr(event, "batch", None)
    if first is None:
        first = event.start_batch
    return (first, type(event).__name__, repr(event))


def mid_run_batch(n_batches: int) -> int:
    """First batch of the second half of an ``n_batches``-batch run.

    Mid-run faults (corruption, storms, throttle windows) start here.
    Batch 0 stays healthy whenever there is a later batch to fault, and
    a one-batch run's second half is its only batch, 0, so the fault
    still fires.
    """
    return min(max(1, n_batches // 2), n_batches - 1)


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, immutable plan of fault events."""

    seed: int
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=_event_key))
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------
    # queries the injector replays per batch
    # ------------------------------------------------------------------

    def point_events_at(self, batch: int) -> List[FaultEvent]:
        """Fail-stops, corruptions, and storms due exactly at ``batch``.

        Machine-level events only: cluster-scope events (shard
        fail-stops) are the coordinator's to replay, not the per-machine
        injector's — see :meth:`shard_events_at`.
        """
        return [
            e
            for e in self.events
            if getattr(e, "batch", None) == batch
            and not isinstance(e, CLUSTER_EVENTS)
        ]

    def slowdown_factor(self, batch: int, sou_id: int) -> float:
        """Combined slowdown multiplier on ``sou_id`` during ``batch``."""
        factor = 1.0
        for event in self.events:
            if (
                isinstance(event, SouSlowdown)
                and event.sou_id == sou_id
                and event.start_batch <= batch <= event.end_batch
            ):
                factor *= event.factor
        return factor

    def bandwidth_factor(self, batch: int) -> float:
        """Combined HBM bandwidth multiplier during ``batch``.

        May legitimately reach 0.0 (full blackout); the accelerator
        prices that as a per-line stall rather than a division, so no
        epsilon clamp is applied here.
        """
        factor = 1.0
        for event in self.events:
            if (
                isinstance(event, HbmThrottle)
                and event.start_batch <= batch <= event.end_batch
            ):
                factor *= event.factor
        return factor

    # ------------------------------------------------------------------

    def _validate_targets(self, attr: str, n_units: int, what: str) -> None:
        """Shared upper-bound check behind the ``validate_*`` family.

        Upper-bound checking needs the machine (or cluster) width, so it
        cannot live in the event constructors; runs that pair a schedule
        with a concrete configuration call the public wrappers before
        arming anything, so out-of-range targets fail fast everywhere.
        """
        for event in self.events:
            target = getattr(event, attr, None)
            if target is not None and target >= n_units:
                have = (
                    f"only {n_units} {what}s" if n_units > 0 else f"no {what}s"
                )
                raise ConfigError(
                    f"fault event targets {what} {target}, but the run has "
                    f"{have}: {event.describe()}"
                )

    def validate_sous(self, n_sous: int) -> "FaultSchedule":
        """Reject events naming SOUs the target machine does not have.

        Returns ``self`` so it chains.
        """
        self._validate_targets("sou_id", n_sous, "SOU")
        return self

    def validate_shards(self, n_shards: int) -> "FaultSchedule":
        """Reject events naming shards the target cluster does not have.

        Single-machine runs call this with ``n_shards=0`` so a schedule
        carrying cluster-level events (:class:`ShardFailStop`,
        :class:`ReplicationLinkSlowdown`) is rejected up front instead
        of silently never firing.  Returns ``self`` so it chains.
        """
        self._validate_targets("shard_id", n_shards, "shard")
        return self

    def shard_events_at(self, batch: int) -> List["ShardFailStop"]:
        """Shard fail-stops due exactly at ``batch`` (coordinator hook)."""
        return [
            e
            for e in self.events
            if isinstance(e, ShardFailStop) and e.batch == batch
        ]

    def replication_factor(self, batch: int, shard_id: int) -> float:
        """Combined replication-link slowdown on ``shard_id`` at ``batch``."""
        factor = 1.0
        for event in self.events:
            if (
                isinstance(event, ReplicationLinkSlowdown)
                and event.shard_id == shard_id
                and event.start_batch <= batch <= event.end_batch
            ):
                factor *= event.factor
        return factor

    def signature(self) -> str:
        """Content hash of the plan — equal seeds give equal signatures."""
        canonical = f"seed={self.seed};" + ";".join(
            repr(e) for e in self.events
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def describe(self) -> str:
        lines = [f"fault schedule (seed {self.seed}, {len(self.events)} events)"]
        lines.extend(f"  {event.describe()}" for event in self.events)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # generators
    # ------------------------------------------------------------------

    @classmethod
    def fail_sous(
        cls,
        n_failed: int,
        seed: int,
        n_sous: int = 16,
        at_batch: int = 0,
    ) -> "FaultSchedule":
        """Fail-stop ``n_failed`` distinct SOUs, chosen by the seed.

        The failed unit set is a deterministic sample of the seed, so
        ``--fail-sous 4 --seed 1`` always kills the same four units.
        """
        if not 0 <= n_failed < n_sous:
            raise ConfigError(
                f"n_failed must be in [0, n_sous): {n_failed} of {n_sous}"
            )
        victims = Random(seed).sample(range(n_sous), n_failed)
        return cls(
            seed=seed,
            events=tuple(SouFailStop(at_batch, sou) for sou in sorted(victims)),
        )

    @classmethod
    def fail_shards(
        cls,
        n_failed: int,
        seed: int,
        n_shards: int,
        at_batch: int = 0,
    ) -> "FaultSchedule":
        """Fail-stop ``n_failed`` distinct shard primaries, seed-chosen.

        The cluster counterpart of :meth:`fail_sous`: the victim set is
        a deterministic sample of the seed, so ``--fault shard-failstop
        --seed 1`` always kills the same shards at the same batch.
        """
        if not 0 <= n_failed <= n_shards:
            raise ConfigError(
                f"n_failed must be in [0, n_shards]: {n_failed} of {n_shards}"
            )
        victims = Random(seed).sample(range(n_shards), n_failed)
        return cls(
            seed=seed,
            events=tuple(
                ShardFailStop(at_batch, shard) for shard in sorted(victims)
            ),
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        n_sous: int = 16,
        n_batches: int = 8,
        n_fail_stops: int = 1,
        n_slowdowns: int = 1,
        n_corruptions: int = 1,
        n_storms: int = 1,
        n_throttles: int = 1,
    ) -> "FaultSchedule":
        """A mixed chaos scenario drawn deterministically from the seed."""
        if n_batches <= 0:
            raise ConfigError(f"n_batches must be positive: {n_batches}")
        if n_fail_stops >= n_sous:
            raise ConfigError(
                f"cannot fail-stop every SOU: {n_fail_stops} of {n_sous}"
            )
        rng = Random(seed)
        events: List[FaultEvent] = []
        victims = rng.sample(range(n_sous), min(n_fail_stops + n_slowdowns, n_sous))
        for sou in victims[:n_fail_stops]:
            events.append(SouFailStop(rng.randrange(n_batches), sou))
        for sou in victims[n_fail_stops:]:
            start = rng.randrange(n_batches)
            end = min(n_batches - 1, start + rng.randrange(1, 4))
            events.append(SouSlowdown(start, end, sou, rng.choice((2.0, 4.0, 8.0))))
        for _ in range(n_corruptions):
            events.append(
                ShortcutCorruption(rng.randrange(n_batches), rng.randrange(16, 256))
            )
        for _ in range(n_storms):
            events.append(
                BufferStorm(rng.randrange(n_batches), rng.choice((0.25, 0.5, 1.0)))
            )
        for _ in range(n_throttles):
            start = rng.randrange(n_batches)
            end = min(n_batches - 1, start + rng.randrange(1, 4))
            events.append(HbmThrottle(start, end, rng.choice((0.25, 0.5, 0.75))))
        return cls(seed=seed, events=tuple(events))
