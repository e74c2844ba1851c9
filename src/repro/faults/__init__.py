"""Fault injection and graceful degradation (the chaos harness).

A :class:`FaultSchedule` is a seeded, deterministic plan of hardware
faults — SOU fail-stops and slow-downs, Shortcut_Table corruption,
Tree_buffer invalidation storms, HBM throttling windows.  A
:class:`FaultInjector` replays the plan against a live
:class:`~repro.core.accelerator.DcartAccelerator` run, and the
accelerator's failover/retry/watchdog machinery has to keep the run
*functionally correct* (the invariant validator proves it) while the
timing model bills the degradation.
"""

from repro.faults.injector import FaultInjector, Watchdog
from repro.faults.schedule import (
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

__all__ = [
    "BufferStorm",
    "CrashFault",
    "FaultInjector",
    "FaultSchedule",
    "HbmThrottle",
    "ReplicationLinkSlowdown",
    "ShardFailStop",
    "ShortcutCorruption",
    "SouFailStop",
    "SouSlowdown",
    "Watchdog",
    "mid_run_batch",
]
