"""Tests for ROWEX lock accounting and the CAS cost model."""

import pytest

from repro.concurrency.cas import CasCostModel
from repro.concurrency.locks import LockAccounting, RowexLockTable
from repro.errors import ConfigError


class TestRowexLockTable:
    def test_uncontended_lock(self):
        table = RowexLockTable()
        assert table.lock_for_write(node_id=1, waiting_behind=0) == 1
        assert table.accounting.acquisitions == 1
        assert table.accounting.contentions == 0

    def test_contended_lock(self):
        table = RowexLockTable()
        table.lock_for_write(node_id=1, waiting_behind=3)
        assert table.accounting.contentions == 1

    def test_node_type_change_locks_parent(self):
        # ROWEX: an N4->N16 split must also lock the parent.
        table = RowexLockTable()
        locks = table.lock_for_write(
            node_id=5, waiting_behind=0, changes_node_type=True, parent_id=2
        )
        assert locks == 2
        assert table.accounting.acquisitions == 2
        assert table.accounting.parent_acquisitions == 1

    def test_contention_rate(self):
        table = RowexLockTable()
        table.lock_for_write(1, waiting_behind=0)
        table.lock_for_write(1, waiting_behind=1)
        assert table.accounting.contention_rate == pytest.approx(0.5)

    def test_rate_zero_when_no_acquisitions(self):
        assert LockAccounting().contention_rate == 0.0


class TestCasCostModel:
    def test_default_slowdown_exceeds_paper_citation(self):
        # The paper cites >15x for RAM vs L1 [21].
        assert CasCostModel().slowdown >= 15.0

    def test_cost_by_residency(self):
        model = CasCostModel(l1_ns=10, ram_ns=200)
        assert model.cost_ns(line_cached=True) == 10
        assert model.cost_ns(line_cached=False) == 200
        assert model.count_cached == 1
        assert model.count_uncached == 1
        assert model.total_cas == 2

    def test_retries_add_cost(self):
        model = CasCostModel(l1_ns=10, ram_ns=200, failed_retry_ns=5)
        assert model.cost_ns(True, retries=3) == 10 + 15
        assert model.count_retries == 3

    def test_rejects_negative_retries(self):
        with pytest.raises(ConfigError):
            CasCostModel().cost_ns(True, retries=-1)

    def test_rejects_inverted_costs(self):
        with pytest.raises(ConfigError):
            CasCostModel(l1_ns=100, ram_ns=50)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            CasCostModel(l1_ns=0)
