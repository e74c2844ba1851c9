"""Flat off-chip memory models: latency per access, bandwidth per byte.

Two presets cover the paper's platforms:

* :data:`DRAM_DDR4` — the Xeon host's DDR memory (the CPU baselines and
  DCART-C run against this);
* :data:`HBM2` — the Alveo U280's 8 GB HBM stack (what DCART's off-chip
  tables and the ART itself live in).

The model is deliberately simple — a latency per access and a bandwidth
per byte — because the engines need a deterministic, explainable bound,
not a DRAM-protocol simulation.  The
constants are conservative public figures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class MemoryModel:
    """An off-chip memory characterised by latency and bandwidth."""

    name: str
    latency_ns: float          # random access latency seen by one requester
    bandwidth_gb_s: float      # sustained sequential bandwidth
    line_bytes: int = 64

    def __post_init__(self):
        if self.latency_ns <= 0:
            raise ConfigError(f"latency must be positive: {self.latency_ns}")
        if self.bandwidth_gb_s <= 0:
            raise ConfigError(f"bandwidth must be positive: {self.bandwidth_gb_s}")

    def latency_cycles(self, clock_hz: float) -> int:
        """Latency in cycles of a consumer clocked at ``clock_hz``."""
        if clock_hz <= 0:
            raise ConfigError(f"clock must be positive: {clock_hz}")
        return max(1, round(self.latency_ns * 1e-9 * clock_hz))

    def transfer_seconds(self, total_bytes: int) -> float:
        """Bandwidth-limited time to move ``total_bytes``."""
        if total_bytes < 0:
            raise ConfigError(f"byte count must be >= 0: {total_bytes}")
        return total_bytes / (self.bandwidth_gb_s * 1e9)


DRAM_DDR4 = MemoryModel(name="DDR4-3200 (Xeon host)", latency_ns=90.0, bandwidth_gb_s=200.0)
HBM2 = MemoryModel(name="HBM2 (Alveo U280)", latency_ns=120.0, bandwidth_gb_s=460.0)
GDDR_A100 = MemoryModel(name="HBM2e (A100)", latency_ns=350.0, bandwidth_gb_s=1550.0)
