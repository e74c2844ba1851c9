"""Correctness checks on the simulator's outputs.

Every check returns a list of human-readable problems; an empty list is
a pass.  A repetition with any problem counts all of its operations as
failed.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.art.validate import validate_tree
from repro.workloads.ops import Operation, OpKind


def replay(loaded_keys: Sequence[bytes], operations: Sequence[Operation]) -> Dict:
    """The key/value map a correct run leaves: bulk load, then the ops in order."""
    expected = {key: position for position, key in enumerate(loaded_keys)}
    for op in operations:
        if op.kind is OpKind.WRITE:
            expected[op.key] = op.value
        elif op.kind is OpKind.DELETE:
            expected.pop(op.key, None)
    return expected


def _diff(label: str, actual: Mapping, expected: Mapping) -> List[str]:
    if actual == expected:
        return []
    missing = len(expected.keys() - actual.keys())
    extra = len(actual.keys() - expected.keys())
    wrong = sum(
        1 for key in expected.keys() & actual.keys() if actual[key] != expected[key]
    )
    return [
        f"{label}: {missing} keys missing, {extra} unexpected, "
        f"{wrong} with the wrong value"
    ]


def check_tree(tree, expected: Mapping) -> List[str]:
    """The tree holds exactly ``expected`` and passes the ART invariants."""
    problems = _diff("final tree vs dict replay", dict(tree.items()), expected)
    report = validate_tree(tree)
    if not report.ok:
        problems.append(f"validate_tree: {report.summary()}")
    return problems


def check_recovery(recovery, live_tree) -> List[str]:
    """Recovery validated its tree and rebuilt exactly the live tree."""
    problems = _diff(
        "recovered tree vs live tree",
        dict(recovery.tree.items()),
        dict(live_tree.items()),
    )
    if not recovery.ok:
        problems.append(f"recovered tree: {recovery.validation.summary()}")
    return problems


def check_serve_row(row: Mapping, replicas: int) -> List[str]:
    """Every offered op is shed, lost or completed exactly once."""
    problems = []
    if row["offered_ops"] != row["admitted_ops"] + row["shed_ops"]:
        problems.append(
            f"offered {row['offered_ops']} != admitted {row['admitted_ops']}"
            f" + shed {row['shed_ops']}"
        )
    if row["admitted_ops"] != row["completed_ops"] + row["lost_ops"]:
        problems.append(
            f"admitted {row['admitted_ops']} != completed "
            f"{row['completed_ops']} + lost {row['lost_ops']}"
        )
    if replicas and row["lost_ops"]:
        problems.append(f"{row['lost_ops']} ops lost despite replicas")
    if not row["fault_cycles"]:
        problems.append("the scheduled fault never fired")
    elif row["rto_cycles"] is None:
        problems.append("the fault has no recovery time (tail never recovered)")
    return problems


def check_campaign(cold: Mapping, warm: Mapping) -> List[str]:
    """The cold run simulated every cell cleanly; the warm one reused them all."""
    problems = []
    if cold["failed"] or cold["ran"] != cold["total"]:
        problems.append(
            f"cold run: ran {cold['ran']} of {cold['total']}, "
            f"{cold['failed']} failed"
        )
    if warm["ran"] or warm["reused"] != warm["total"]:
        problems.append(
            f"warm re-run: ran {warm['ran']}, reused {warm['reused']} "
            f"of {warm['total']}"
        )
    return problems
