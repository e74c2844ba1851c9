"""How fast the host runs the simulator's kind of code right now.

On a shared machine the same code runs at different speeds from one
minute to the next, and CPU time moves with wall time, so neither cancels
the drift.  The benchmark times a fixed reference kernel right before and
right after every phase it measures and reports each host time rescaled
to the reference speed: ``wall seconds x speed``, where ``speed`` is
``REFERENCE_S / measured kernel seconds`` averaged over the two samples.
A slow stretch of the machine then slows the kernel and the phase alike,
and cancels out.

The kernel builds and walks a byte-keyed trie of small objects, which is
what the simulator spends its time on.  It tracks the simulator's speed
much better than a small dict loop does.  In 240 interleaved samples on a
2-vCPU VM, a 30k-key version of it had a log-time correlation of 0.71
with a DCART run, against 0.63 for the dict loop.  Rescaling by it cut the
quartile spread of 6-sample medians from 0.28 (raw) to 0.08, against 0.18
with the dict loop.  The kernel is part of the benchmark, not the
simulator, so a change to the simulator cannot move it.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter

#: Seconds one ``reference_kernel()`` call takes at the reference speed
#: (a round figure near its time on a 2-vCPU x86-64 VM, Python 3.11).
REFERENCE_S = 0.04
KEYS = 12_000
TIMED_CALLS = 2


class _Node:
    __slots__ = ("key", "children", "value")

    def __init__(self, key: bytes):
        self.key = key
        self.children: dict = {}
        self.value = 0


def reference_kernel() -> int:
    """Insert seeded 4-byte keys into a 3-level trie, then look a third up."""
    rng = random.Random(7)
    keys = [rng.getrandbits(32).to_bytes(4, "big") for _ in range(KEYS)]
    root = _Node(b"")
    for key in keys:
        node = root
        for byte in key[:3]:
            child = node.children.get(byte)
            if child is None:
                child = node.children[byte] = _Node(key)
            node = child
        node.value += 1
    total = 0
    for key in keys[::3]:
        node = root
        for byte in key[:3]:
            node = node.children[byte]
        total += node.value
    return total


def host_speed() -> float:
    """Reference seconds over the measured seconds of the kernel.

    One untimed call first lets the allocator take back the memory the
    kernel needs, and the mean of two timed calls follows.  The garbage
    collector is paused throughout: the kernel's allocations would
    otherwise trigger collections whose cost grows with whatever the
    workload left alive, not with the machine's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_kernel()
        start = perf_counter()
        for _ in range(TIMED_CALLS):
            reference_kernel()
        return REFERENCE_S * TIMED_CALLS / (perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
