"""Each correctness check fires on a deliberately corrupted result."""

import checks
import run
from repro.art.tree import AdaptiveRadixTree
from repro.durability.recover import RecoveryResult
from repro.workloads.ops import Operation, OpKind
from scenarios import Rep

KEYS = [bytes([a, b]) for a in range(3) for b in range(40)]
OPS = [
    Operation(0, OpKind.WRITE, KEYS[5], 0),
    Operation(1, OpKind.DELETE, KEYS[6]),
    Operation(2, OpKind.WRITE, b"\x09\x09", 2),
    Operation(3, OpKind.READ, KEYS[7]),
    Operation(4, OpKind.DELETE, b"\x08\x08"),  # absent: a legal miss
]


def live_tree():
    tree = AdaptiveRadixTree()
    for position, key in enumerate(KEYS):
        tree.insert(key, position)
    tree.upsert(KEYS[5], 0)
    tree.delete(KEYS[6])
    tree.upsert(b"\x09\x09", 2)
    return tree


def test_replay_applies_writes_and_deletes_in_order():
    expected = checks.replay(KEYS, OPS)
    assert expected[KEYS[5]] == 0
    assert KEYS[6] not in expected
    assert expected[b"\x09\x09"] == 2
    assert len(expected) == len(KEYS)


def test_tree_check_passes_on_the_live_tree():
    assert checks.check_tree(live_tree(), checks.replay(KEYS, OPS)) == []


def test_tree_check_fires_on_one_changed_value():
    tree = live_tree()
    tree.upsert(KEYS[10], -1)
    assert checks.check_tree(tree, checks.replay(KEYS, OPS))


def test_tree_check_fires_on_one_missing_key():
    tree = live_tree()
    tree.delete(KEYS[11])
    assert checks.check_tree(tree, checks.replay(KEYS, OPS))


def test_recovery_check_fires_when_the_recovered_tree_differs():
    live = live_tree()
    same = RecoveryResult(directory="d", tree=live_tree(), checkpoint_batch=-1)
    assert checks.check_recovery(same, live) == []
    diverged = live_tree()
    diverged.upsert(KEYS[12], "stale")
    bad = RecoveryResult(directory="d", tree=diverged, checkpoint_batch=-1)
    assert checks.check_recovery(bad, live)


def test_recovery_check_fires_on_a_failed_validation():
    live = live_tree()
    recovery = RecoveryResult(directory="d", tree=live_tree(), checkpoint_batch=-1)
    recovery.validation.add("occupancy", 1, "corrupt")
    assert checks.check_recovery(recovery, live)


def serve_row(**changes):
    row = {
        "offered_ops": 100,
        "admitted_ops": 100,
        "shed_ops": 0,
        "lost_ops": 0,
        "completed_ops": 100,
        "fault_cycles": [1234],
        "rto_cycles": 5000,
    }
    row.update(changes)
    return row


def test_serve_check_passes_a_balanced_row():
    assert checks.check_serve_row(serve_row(), replicas=1) == []
    assert checks.check_serve_row(serve_row(rto_cycles=0), replicas=1) == []


def test_serve_check_fires_on_one_dropped_completion():
    assert checks.check_serve_row(serve_row(completed_ops=99), replicas=1)


def test_serve_check_fires_on_unbalanced_admission():
    assert checks.check_serve_row(serve_row(admitted_ops=99), replicas=1)


def test_serve_check_fires_on_lost_ops_with_replicas():
    row = serve_row(lost_ops=1, completed_ops=99)
    assert checks.check_serve_row(row, replicas=1)
    assert checks.check_serve_row(row, replicas=0) == []


def test_serve_check_fires_without_a_recovery_time():
    assert checks.check_serve_row(serve_row(rto_cycles=None), replicas=1)
    assert checks.check_serve_row(serve_row(fault_cycles=[]), replicas=1)


def test_campaign_check():
    cold = {"total": 12, "ran": 12, "reused": 0, "failed": 0}
    warm = {"total": 12, "ran": 0, "reused": 12, "failed": 0}
    assert checks.check_campaign(cold, warm) == []
    assert checks.check_campaign(dict(cold, failed=1), warm)
    assert checks.check_campaign(dict(cold, ran=11, reused=1), warm)
    assert checks.check_campaign(cold, dict(warm, ran=1, reused=11))


def test_a_repetition_that_fails_a_check_fails_all_its_ops():
    rep = Rep(ops=50, model_failed_ops=2, problems=[], model={}, fingerprint=1)
    assert rep.failed_ops == 2
    rep.problems.append("bad")
    assert rep.failed_ops == 50


def test_modelled_outputs_that_do_not_repeat_fail_the_repetition():
    reps = [
        Rep(ops=1, model_failed_ops=0, problems=[], model={}, fingerprint={"x": v})
        for v in (1.0, 1.0, 1.5)
    ]
    run.check_repeats(reps, run.fingerprint(reps[0]), "repetition")
    assert [bool(r.problems) for r in reps] == [False, False, True]
