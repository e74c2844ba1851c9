"""Tests for the off-chip memory models."""

import pytest

from repro.errors import ConfigError
from repro.memsim.dram import DRAM_DDR4, GDDR_A100, HBM2, MemoryModel


class TestConstruction:
    def test_rejects_nonpositive_latency(self):
        with pytest.raises(ConfigError):
            MemoryModel("bad", latency_ns=0, bandwidth_gb_s=100)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError):
            MemoryModel("bad", latency_ns=90, bandwidth_gb_s=-1)


class TestLatencyCycles:
    def test_hbm_at_dcart_clock(self):
        # 120 ns at 230 MHz = 27.6 -> 28 cycles: the FpgaCosts default.
        assert HBM2.latency_cycles(230e6) == 28

    def test_minimum_one_cycle(self):
        fast = MemoryModel("fast", latency_ns=0.1, bandwidth_gb_s=100)
        assert fast.latency_cycles(1e6) == 1

    def test_rejects_bad_clock(self):
        with pytest.raises(ConfigError):
            HBM2.latency_cycles(0)


class TestTransfer:
    def test_transfer_time(self):
        model = MemoryModel("m", latency_ns=100, bandwidth_gb_s=100)
        assert model.transfer_seconds(100 * 10**9) == pytest.approx(1.0)

    def test_zero_bytes(self):
        assert DRAM_DDR4.transfer_seconds(0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            DRAM_DDR4.transfer_seconds(-1)


class TestPresets:
    def test_ordering(self):
        # HBM stacks trade latency for bandwidth vs. DDR.
        assert HBM2.bandwidth_gb_s > DRAM_DDR4.bandwidth_gb_s
        assert GDDR_A100.bandwidth_gb_s > HBM2.bandwidth_gb_s
        assert DRAM_DDR4.latency_ns < GDDR_A100.latency_ns
