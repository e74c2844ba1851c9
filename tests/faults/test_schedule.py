"""Tests for the deterministic fault schedule."""

import pytest

from repro.errors import ConfigError
from repro.faults import (
    BufferStorm,
    CrashFault,
    FaultSchedule,
    HbmThrottle,
    ReplicationLinkSlowdown,
    ShardFailStop,
    ShortcutCorruption,
    SouFailStop,
    SouSlowdown,
    mid_run_batch,
)
from repro.faults.schedule import CLUSTER_EVENTS
from repro.faults.schedule import CRASH_POINTS


class TestEventValidation:
    def test_slowdown_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            SouSlowdown(0, 1, sou_id=0, factor=0.5)

    def test_inverted_windows_rejected(self):
        with pytest.raises(ConfigError):
            SouSlowdown(3, 1, sou_id=0, factor=2.0)
        with pytest.raises(ConfigError):
            HbmThrottle(3, 1, factor=0.5)

    def test_throttle_factor_bounds(self):
        # factor=0.0 is a legal full blackout (priced by the fault
        # model's blackout cost, not a divide); out-of-range still fails.
        assert HbmThrottle(0, 1, factor=0.0).factor == 0.0
        with pytest.raises(ConfigError):
            HbmThrottle(0, 1, factor=-0.1)
        with pytest.raises(ConfigError):
            HbmThrottle(0, 1, factor=1.5)

    def test_storm_fraction_bounds(self):
        with pytest.raises(ConfigError):
            BufferStorm(0, fraction=0.0)
        with pytest.raises(ConfigError):
            BufferStorm(0, fraction=1.5)

    def test_corruption_count_positive(self):
        with pytest.raises(ConfigError):
            ShortcutCorruption(0, n_entries=0)

    def test_crash_point_validated(self):
        with pytest.raises(ConfigError):
            CrashFault(0, "wal-surprise")
        with pytest.raises(ConfigError):
            CrashFault(0, "wal-pre-commit", detail=-1)
        fault = CrashFault(3, "ckpt-manifest", detail=7)
        assert "crash at ckpt-manifest" in fault.describe()

    def test_crash_points_match_durability_manager(self):
        from repro.durability.manager import CRASH_POINTS as MANAGER_POINTS

        # The schedule mirrors the manager's matrix (no import cycle).
        assert CRASH_POINTS == MANAGER_POINTS


class TestMidRunBatch:
    @pytest.mark.parametrize(
        "n_batches, mid", [(1, 0), (2, 1), (3, 1), (8, 4), (9, 4)]
    )
    def test_values(self, n_batches, mid):
        assert mid_run_batch(n_batches) == mid

    def test_window_always_inside_the_run(self):
        # The second half is never empty and, past one batch, never
        # includes batch 0.
        for n_batches in range(1, 200):
            mid = mid_run_batch(n_batches)
            assert 0 <= mid <= n_batches - 1
            assert mid >= 1 or n_batches == 1


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule.fail_sous(4, seed=1)
        b = FaultSchedule.fail_sous(4, seed=1)
        assert a == b
        assert a.signature() == b.signature()

    def test_different_seed_different_victims(self):
        a = FaultSchedule.fail_sous(4, seed=1)
        b = FaultSchedule.fail_sous(4, seed=2)
        assert a.signature() != b.signature()

    def test_generate_reproducible(self):
        a = FaultSchedule.generate(seed=7, n_batches=8)
        b = FaultSchedule.generate(seed=7, n_batches=8)
        assert a == b
        assert a.signature() == b.signature()

    def test_events_sorted_regardless_of_input_order(self):
        events = (SouFailStop(3, 1), SouFailStop(0, 2), ShortcutCorruption(1, 8))
        a = FaultSchedule(seed=0, events=events)
        b = FaultSchedule(seed=0, events=tuple(reversed(events)))
        assert a.events == b.events
        assert a.signature() == b.signature()


class TestQueries:
    def test_fail_sous_distinct_victims(self):
        schedule = FaultSchedule.fail_sous(8, seed=3, n_sous=16)
        victims = [e.sou_id for e in schedule]
        assert len(set(victims)) == 8
        assert all(0 <= v < 16 for v in victims)

    def test_fail_sous_bounds(self):
        with pytest.raises(ConfigError):
            FaultSchedule.fail_sous(16, seed=1, n_sous=16)
        with pytest.raises(ConfigError):
            FaultSchedule.fail_sous(-1, seed=1, n_sous=16)
        assert len(FaultSchedule.fail_sous(0, seed=1)) == 0

    def test_point_events_at(self):
        schedule = FaultSchedule(
            seed=0,
            events=(
                SouFailStop(2, 5),
                ShortcutCorruption(2, 10),
                BufferStorm(4, 0.5),
                HbmThrottle(0, 9, 0.5),  # windows are not point events
            ),
        )
        at2 = schedule.point_events_at(2)
        assert {type(e).__name__ for e in at2} == {
            "SouFailStop", "ShortcutCorruption"
        }
        assert schedule.point_events_at(3) == []

    def test_slowdown_factors_compound(self):
        schedule = FaultSchedule(
            seed=0,
            events=(
                SouSlowdown(0, 5, sou_id=3, factor=2.0),
                SouSlowdown(2, 3, sou_id=3, factor=4.0),
            ),
        )
        assert schedule.slowdown_factor(1, 3) == 2.0
        assert schedule.slowdown_factor(2, 3) == 8.0
        assert schedule.slowdown_factor(6, 3) == 1.0
        assert schedule.slowdown_factor(2, 0) == 1.0

    def test_bandwidth_factor_windows(self):
        schedule = FaultSchedule(seed=0, events=(HbmThrottle(1, 2, 0.5),))
        assert schedule.bandwidth_factor(0) == 1.0
        assert schedule.bandwidth_factor(1) == 0.5
        assert schedule.bandwidth_factor(3) == 1.0

    def test_describe_mentions_every_event(self):
        schedule = FaultSchedule.generate(seed=5, n_batches=4)
        text = schedule.describe()
        assert f"seed 5" in text
        assert len(text.splitlines()) == len(schedule) + 1


class TestInputValidation:
    """Bad times, durations, and SOU ids die at construction, not mid-run."""

    def test_negative_batch_rejected_on_every_point_event(self):
        with pytest.raises(ConfigError):
            SouFailStop(-1, 0)
        with pytest.raises(ConfigError):
            ShortcutCorruption(-1, 16)
        with pytest.raises(ConfigError):
            BufferStorm(-1, 0.5)
        with pytest.raises(ConfigError):
            CrashFault(-1, "wal-pre-commit")

    def test_negative_window_start_rejected(self):
        with pytest.raises(ConfigError):
            SouSlowdown(-1, 2, sou_id=0, factor=2.0)
        with pytest.raises(ConfigError):
            HbmThrottle(-1, 2, factor=0.5)

    def test_negative_sou_id_rejected(self):
        with pytest.raises(ConfigError):
            SouFailStop(0, -1)
        with pytest.raises(ConfigError):
            SouSlowdown(0, 1, sou_id=-3, factor=2.0)

    def test_validate_sous_rejects_out_of_range_ids(self):
        schedule = FaultSchedule(seed=1, events=(SouFailStop(0, 16),))
        with pytest.raises(ConfigError, match="only 16 SOUs"):
            schedule.validate_sous(16)

    def test_validate_sous_passes_in_range_and_chains(self):
        schedule = FaultSchedule(
            seed=1,
            events=(SouFailStop(0, 15), SouSlowdown(0, 1, 3, 2.0),
                    HbmThrottle(0, 1, 0.5)),
        )
        assert schedule.validate_sous(16) is schedule

    def test_validation_does_not_change_signatures(self):
        schedule = FaultSchedule(seed=4, events=(SouFailStop(2, 1),))
        assert schedule.validate_sous(8).signature() == schedule.signature()


class TestClusterEvents:
    """Shard-level events: coordinator-scoped, rejected elsewhere."""

    def test_shard_failstop_validation(self):
        with pytest.raises(ConfigError):
            ShardFailStop(-1, 0)
        with pytest.raises(ConfigError):
            ShardFailStop(0, -1)

    def test_replication_slowdown_validation(self):
        with pytest.raises(ConfigError):
            ReplicationLinkSlowdown(0, 2, 0, factor=0.5)
        with pytest.raises(ConfigError):
            ReplicationLinkSlowdown(3, 1, 0, factor=2.0)
        with pytest.raises(ConfigError):
            ReplicationLinkSlowdown(0, 2, -1, factor=2.0)

    def test_validate_shards_accepts_in_range_and_chains(self):
        schedule = FaultSchedule(
            seed=1,
            events=(ShardFailStop(2, 3), ReplicationLinkSlowdown(0, 4, 1, 8.0)),
        )
        assert schedule.validate_shards(4) is schedule

    def test_validate_shards_rejects_out_of_range(self):
        schedule = FaultSchedule(seed=1, events=(ShardFailStop(0, 4),))
        with pytest.raises(ConfigError, match="shard"):
            schedule.validate_shards(4)

    def test_single_machine_rejects_cluster_events(self):
        # n_shards=0: a non-cluster run must refuse shard-level events
        # rather than silently never fire them.
        schedule = FaultSchedule(seed=1, events=(ShardFailStop(0, 0),))
        with pytest.raises(ConfigError):
            schedule.validate_shards(0)

    def test_cluster_events_excluded_from_point_events(self):
        schedule = FaultSchedule(
            seed=1,
            events=(ShardFailStop(2, 0), SouFailStop(2, 1)),
        )
        points = schedule.point_events_at(2)
        assert all(not isinstance(e, CLUSTER_EVENTS) for e in points)
        assert any(isinstance(e, SouFailStop) for e in points)

    def test_shard_events_at_exact_batch(self):
        schedule = FaultSchedule(
            seed=1, events=(ShardFailStop(2, 0), ShardFailStop(5, 1))
        )
        assert [e.shard_id for e in schedule.shard_events_at(2)] == [0]
        assert schedule.shard_events_at(3) == []

    def test_replication_factor_windows_compound(self):
        schedule = FaultSchedule(
            seed=1,
            events=(
                ReplicationLinkSlowdown(1, 3, 0, factor=2.0),
                ReplicationLinkSlowdown(2, 4, 0, factor=3.0),
                ReplicationLinkSlowdown(2, 4, 1, factor=5.0),
            ),
        )
        assert schedule.replication_factor(0, 0) == 1.0
        assert schedule.replication_factor(1, 0) == 2.0
        assert schedule.replication_factor(2, 0) == 6.0
        assert schedule.replication_factor(4, 1) == 5.0

    def test_fail_shards_deterministic_and_bounded(self):
        a = FaultSchedule.fail_shards(2, seed=9, n_shards=8, at_batch=3)
        b = FaultSchedule.fail_shards(2, seed=9, n_shards=8, at_batch=3)
        assert a.signature() == b.signature()
        assert len(a.events) == 2
        assert all(e.batch == 3 for e in a.events)
        with pytest.raises(ConfigError):
            FaultSchedule.fail_shards(9, seed=1, n_shards=8)
