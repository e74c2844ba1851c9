"""WAL01 — commit-point typestate: committed state follows the WAL.

PR 7's failover proof (zero committed-op loss) rests on one ordering
invariant: *state only counts as committed after the corresponding WAL
frames exist* — encoded, shipped, or replayed.  ``ship()`` is the
commit point; counters like ``ops_logged`` / ``applied_through`` /
``shipped_through`` are the committed-state ledger.  If any code path
advances the ledger before the WAL event, a crash on that path loses
acknowledged operations.

WAL01 checks the ordering with a CFG dominator analysis: in every
function of the durability scope, every committed-state mutation must
be **dominated** by a WAL event — i.e. the event happens-before the
mutation on *all* paths from function entry, not just the happy one.

* **Mutations**: stores, augmented stores, item stores, and in-place
  mutator calls whose attribute matches the committed-state ledger
  (``committed*``, ``applied_through``, ``shipped_through``,
  ``ops_logged``, ``ops_applied``, ``ops_shipped``, ``bytes_shipped``,
  ``batches_logged``, ``checkpoints_written``, ``records_written``).
* **Events**: calls (by name) into the WAL machinery —
  ``begin_batch``/``log_op``/``commit_batch``/``commit_group``/
  ``abandon_batch``,
  ``append``/``append_torn``/``sync``, frame codecs
  (``encode_batch_frames``/``decode_frames``/``decode_record``/
  ``scan_wal``), ``write_checkpoint``, and replication's
  ``ship``/``advance``/``catch_up``/``replay``/``_apply``/``write``.
* ``__init__`` is exempt: constructors *initialize* the ledger, they
  do not commit.

**Escape hatch**: ``# reprolint: disable=WAL01 -- <why>`` for ledger
writes that are provably not commit-point sensitive (e.g. test-only
reset helpers).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Tuple

from repro.analysis.reprolint.cfg import build_cfg, dominators, header_exprs
from repro.analysis.reprolint.config import LintConfig
from repro.analysis.reprolint.diagnostics import Diagnostic
from repro.analysis.reprolint.engine import ProjectRule
from repro.analysis.reprolint.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
)
from repro.analysis.reprolint.rules.parallel import _MUTATORS

_COMMITTED = re.compile(
    r"^(committed\w*|applied_through|shipped_through|ops_logged|"
    r"ops_applied|ops_shipped|bytes_shipped|batches_logged|"
    r"checkpoints_written|records_written)$"
)

_EVENTS = frozenset((
    "begin_batch", "log_op", "commit_batch", "commit_group", "abandon_batch",
    "append", "append_torn", "sync",
    "encode_batch_frames", "decode_frames", "decode_record", "scan_wal",
    "write_checkpoint", "ship", "advance", "catch_up", "replay",
    "_apply", "write",
))


def _is_event_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in _EVENTS
    if isinstance(func, ast.Name):
        return func.id in _EVENTS
    return False


def _mutations(stmt: ast.stmt) -> Iterator[Tuple[ast.AST, str]]:
    """(node, ledger attribute) for committed-state writes in one stmt."""
    for node in header_exprs(stmt):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store) \
                and _COMMITTED.match(node.attr):
            yield node, node.attr
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Attribute) \
                and _COMMITTED.match(node.value.attr):
            yield node, node.value.attr
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATORS \
                and isinstance(node.func.value, ast.Attribute) \
                and _COMMITTED.match(node.func.value.attr):
            yield node, node.func.value.attr


class Wal01CommitPointTypestate(ProjectRule):
    """WAL01 — committed-state mutation not dominated by a WAL event.

    **Failing pattern**: on some path from function entry, a
    committed-state ledger attribute is written before any WAL event
    (frame encode / append / commit / ship / replay) has happened.

    **Contract**: ship-is-the-commit-point — the failover proof
    replays the WAL to reconstruct exactly the acknowledged state, so
    the ledger may only ever trail the log, never lead it.

    **Escape hatch**: ``# reprolint: disable=WAL01 -- <why>``.
    """

    code = "WAL01"
    name = "wal-commit-point"

    def check_project(
        self, project: ProjectModel, config: LintConfig
    ) -> Iterator[Diagnostic]:
        scope = config.scope_for(self.code)
        for relpath, module in project.modules.items():
            if not scope.matches(relpath):
                continue
            for info in module.functions.values():
                if info.name == "__init__":
                    continue
                yield from self._check_function(module, info)

    def _check_function(
        self, module: ModuleInfo, info: FunctionInfo
    ) -> Iterator[Diagnostic]:
        func = info.node
        cfg = build_cfg(func)
        has_mutation = False
        mutation_sites: List[Tuple[int, int, ast.stmt, ast.AST, str]] = []
        event_positions: Dict[int, List[int]] = {}
        for block in cfg.blocks:
            for pos, stmt in enumerate(block.stmts):
                if any(_is_event_call(n) for n in header_exprs(stmt)):
                    event_positions.setdefault(block.index, []).append(pos)
                for node, attr in _mutations(stmt):
                    has_mutation = True
                    mutation_sites.append(
                        (block.index, pos, stmt, node, attr)
                    )
        if not has_mutation:
            return
        dom = dominators(cfg)
        for block_idx, pos, stmt, node, attr in mutation_sites:
            if any(_is_event_call(n) for n in header_exprs(stmt)):
                continue  # the mutating statement is itself the event
            earlier = event_positions.get(block_idx, ())
            if any(p < pos for p in earlier):
                continue
            strict_doms = dom[block_idx] - {block_idx}
            if any(event_positions.get(d) for d in strict_doms):
                continue
            yield self.diagnostic(
                module.path, node,
                f"committed-state mutation of '{attr}' in "
                f"'{info.qualname}' is not dominated by a WAL event "
                f"(encode/append/commit/ship/replay) on all paths — "
                f"the ledger may lead the log",
            )
