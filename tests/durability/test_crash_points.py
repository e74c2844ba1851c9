"""WAL crash points: the bytes each kill leaves on disk are pinned.

Each armed crash point writes a prefix of the batch's framed group —
possibly ending mid-frame — and reports what it wrote in the
:class:`~repro.errors.SimulatedCrash` diagnostics.  The expected
``wal.log`` SHA-256 and diagnostics below were recorded at commit
1c71af3, whose crash points still wrote the group one record at a time
through a per-record writer.  They pin that the crash points tear the
log at exactly the same byte and report exactly the same diagnostics.
"""

import hashlib
import os
import random

import pytest

from repro.art.tree import AdaptiveRadixTree
from repro.durability import DurabilityManager, scan_wal
from repro.durability.manager import WAL_CRASH_POINTS
from repro.errors import SimulatedCrash
from repro.workloads.ops import OpKind, Operation


def seeded_ops(rng, n):
    ops = []
    for _ in range(n):
        kind = rng.choice([OpKind.WRITE, OpKind.WRITE, OpKind.DELETE])
        key = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 10)))
        value = rng.choice([None, rng.randrange(-(10**9), 10**9),
                            "v" * rng.randrange(6), b"\x00" * rng.randrange(4)])
        ops.append(Operation(op_id=rng.randrange(2**40), kind=kind, key=key,
                             value=value if kind is OpKind.WRITE else None))
    return ops


def crash_once(directory, point, seed, group_size):
    """Commit one batch, then kill the next at ``point``.

    Returns the ``wal.log`` SHA-256 and the crash's diagnostics.
    """
    rng = random.Random(seed)
    tree = AdaptiveRadixTree()
    tree.insert(b"base", 0)
    manager = DurabilityManager(directory, checkpoint_every=100)
    manager.attach(tree)
    manager.log_batch(0, seeded_ops(rng, 4))
    doomed = seeded_ops(rng, group_size)
    manager.arm_crash(point, detail=rng.randrange(1024))
    with pytest.raises(SimulatedCrash) as crash:
        manager.log_batch(1, doomed)
    manager.close()
    with open(os.path.join(directory, "wal.log"), "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    return digest, crash.value.diagnostics


# (point, seed, group size) -> (wal.log sha256, diagnostics), recorded
# at commit 1c71af3.
PINNED = {
    ("wal-mid-append", 1, 3): (
        "177ca60878151b16b6a0c5e1079944e9a05f8e78a0c61227140e248e613c770c",
        {"point": "wal-mid-append", "batch": 1, "ops_appended": 1,
         "torn_record_bytes": 9},
    ),
    ("wal-mid-append", 1, 11): (
        "b4934b54ca0343267a61b1b72f0ef35801b125a78bfb2f15c71708712db3758e",
        {"point": "wal-mid-append", "batch": 1, "ops_appended": 4,
         "torn_record_bytes": 10},
    ),
    ("wal-mid-append", 2, 3): (
        "3c3ddabd1d09b498da6c78b5e90e8492dbc636e27f9fecf01020741b24cc14c2",
        {"point": "wal-mid-append", "batch": 1, "ops_appended": 1,
         "torn_record_bytes": 8},
    ),
    ("wal-mid-append", 2, 11): (
        "b665189a34b0bbe315d3ce173081ae3f3fe786084126cebdf696608a97d4887a",
        {"point": "wal-mid-append", "batch": 1, "ops_appended": 6,
         "torn_record_bytes": 5},
    ),
    ("wal-pre-commit", 1, 3): (
        "cb9f86d933a4badeac61dc04b144b187575ea1afbf9db9037c95d4d9099a1e9b",
        {"point": "wal-pre-commit", "batch": 1, "ops_appended": 3},
    ),
    ("wal-pre-commit", 1, 11): (
        "afc148f03da7671fa2dcb86007fc0408f30b8c8290b224ac5a2b81d4933246fb",
        {"point": "wal-pre-commit", "batch": 1, "ops_appended": 11},
    ),
    ("wal-pre-commit", 2, 3): (
        "0df3d1b9e98d3bda771788a6284abac3202431dab968886d39bb90994dae1cc1",
        {"point": "wal-pre-commit", "batch": 1, "ops_appended": 3},
    ),
    ("wal-pre-commit", 2, 11): (
        "36e88bd1bcede04f43693a1b9b703eb9333dd986bf9aa76f198f69d4cad642c6",
        {"point": "wal-pre-commit", "batch": 1, "ops_appended": 11},
    ),
    ("wal-torn-commit", 1, 3): (
        "8e9f263839466b211723a8c37e58fc41b851b4ac89df1e617e47f504e42da967",
        {"point": "wal-torn-commit", "batch": 1, "torn_record_bytes": 6},
    ),
    ("wal-torn-commit", 1, 11): (
        "1d55a7d75bce81ae8dab8b423731250c0e18f95feece92d7f4426fb754cf9296",
        {"point": "wal-torn-commit", "batch": 1, "torn_record_bytes": 7},
    ),
    ("wal-torn-commit", 2, 3): (
        "a8773b5f71c42c8ea6fc553d12d730f009b4240287beabb1e1ae808c969a09e8",
        {"point": "wal-torn-commit", "batch": 1, "torn_record_bytes": 8},
    ),
    ("wal-torn-commit", 2, 11): (
        "a01f2697f0a55127ed0cdf97675b2b4a87ab6519c7d8d7daa56c05a1c344a879",
        {"point": "wal-torn-commit", "batch": 1, "torn_record_bytes": 8},
    ),
}


@pytest.mark.parametrize(
    "key", sorted(PINNED), ids=lambda key: "{}-seed{}-n{}".format(*key)
)
def test_crash_point_bytes_and_diagnostics_are_pinned(tmp_path, key):
    point, seed, group_size = key
    digest, diagnostics = crash_once(str(tmp_path), point, seed, group_size)
    assert (digest, diagnostics) == PINNED[key]
    # Whatever the kill tore, batch 0 stays committed and batch 1 never is.
    scan = scan_wal(os.path.join(str(tmp_path), "wal.log"))
    assert sorted(scan.committed) == [0]
    assert scan.uncommitted == [1]


def test_every_wal_crash_point_is_pinned():
    assert {point for point, _, _ in PINNED} == set(WAL_CRASH_POINTS)
