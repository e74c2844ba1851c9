"""Parallel sweep runner: fan (engine, workload, seed) cells over processes.

Experiment grids are embarrassingly parallel — each cell builds its own
workload and tree from its own seed — so the runner uses a
``ProcessPoolExecutor`` with one task per group of cells (by default
every cell is its own group).  Determinism is kept by construction:

* **per-cell seeding** — a cell is a frozen :class:`SweepCell` value and
  the worker derives *everything* (workload, tree, engine) from it; the
  only state that crosses cells is what a group's worker derives once
  for all of them from the fields they share, and nothing depends on
  scheduling order;
* **ordered collection** — results are read future by future in
  submission order, regardless of completion order.

Consequently ``run_cells(cells, jobs=N)`` returns bit-identical output
for every ``N`` (including the in-process ``jobs=1`` path), which the
test suite asserts through the lossless
:func:`~repro.harness.serialize.result_to_full_dict` encoding.

A crashed or raising worker does not abort the sweep: a raising cell is
retried exactly once with the same seed, a group whose process died is
re-run once in a fresh single-worker pool (a hard crash poisons the
shared one), and a second failure produces a structured per-cell error
document in the cell's slot rather than an exception — 99 healthy cells
survive the one that dies.
"""

from __future__ import annotations

import logging

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

LOG = logging.getLogger(__name__)

from repro.errors import ConfigError
from repro.harness.serialize import result_to_full_dict
from repro.workloads import WORKLOAD_NAMES


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: a single engine on a single seeded workload.

    The cell is the complete recipe for its run — workers reconstruct
    the workload and engine from these fields alone, which is what makes
    the sweep order- and scheduling-independent.
    """

    engine: str
    workload: str
    seed: int
    n_keys: int = 10_000
    n_ops: int = 100_000
    write_ratio: Optional[float] = None
    op_skew: Optional[float] = None
    #: Attach a telemetry registry to the run and return its contents
    #: under ``doc["metrics"]``.  Deterministic for any ``jobs`` count:
    #: the registry is filled from the run's own counters, never from
    #: scheduling state.
    collect_metrics: bool = False

    def label(self) -> str:
        return f"{self.engine}/{self.workload}/seed={self.seed}"


def expand_grid(
    engines: Sequence[str],
    workloads: Sequence[str],
    seeds: Sequence[int],
    n_keys: int = 10_000,
    n_ops: int = 100_000,
    write_ratio: Optional[float] = None,
    op_skew: Optional[float] = None,
    collect_metrics: bool = False,
) -> List[SweepCell]:
    """The full cross product, in (engine, workload, seed) order."""
    for name in workloads:
        if name not in WORKLOAD_NAMES:
            raise ConfigError(f"unknown workload {name!r}")
    return [
        SweepCell(
            engine=engine,
            workload=workload,
            seed=seed,
            n_keys=n_keys,
            n_ops=n_ops,
            write_ratio=write_ratio,
            op_skew=op_skew,
            collect_metrics=collect_metrics,
        )
        for engine in engines
        for workload in workloads
        for seed in seeds
    ]


def run_cell(cell: SweepCell) -> Dict[str, object]:
    """Execute one cell and return its lossless result dict.

    Module-level (not a closure) so ``ProcessPoolExecutor`` can pickle
    it; imports are deferred so worker start-up stays cheap.
    """
    from repro.harness.runner import default_engines
    from repro.workloads import make_workload

    workload = make_workload(
        cell.workload,
        n_keys=cell.n_keys,
        n_ops=cell.n_ops,
        seed=cell.seed,
        write_ratio=cell.write_ratio,
        op_skew=cell.op_skew,
    )
    engine = default_engines(cell.n_keys, include=[cell.engine])[0]
    if cell.collect_metrics:
        from repro.obs import Telemetry

        engine.telemetry = Telemetry()
    result = engine.run(workload)
    doc = result_to_full_dict(result)
    if cell.collect_metrics:
        doc["metrics"] = engine.telemetry.registry.as_dict()
    doc["cell"] = {
        "engine": cell.engine,
        "workload": cell.workload,
        "seed": cell.seed,
        "n_keys": cell.n_keys,
        "n_ops": cell.n_ops,
        "write_ratio": cell.write_ratio,
        "op_skew": cell.op_skew,
    }
    return doc


def error_doc(
    cell: SweepCell, first: BaseException, retry: BaseException
) -> Dict[str, object]:
    """The structured slot-filler for a cell that failed twice."""
    return {
        "cell": {
            "engine": cell.engine,
            "workload": cell.workload,
            "seed": cell.seed,
            "n_keys": cell.n_keys,
            "n_ops": cell.n_ops,
            "write_ratio": cell.write_ratio,
            "op_skew": cell.op_skew,
        },
        "error": {
            "type": type(retry).__name__,
            "message": str(retry) or repr(retry),
            "first_type": type(first).__name__,
            "first_message": str(first) or repr(first),
            "retried": True,
        },
    }


def cell_failed(doc: Dict[str, object]) -> bool:
    """True when ``doc`` is a per-cell error slot, not a result."""
    return "error" in doc


def _retry_cell(
    worker: Callable[..., Dict[str, object]],
    args: Tuple[object, ...],
    cell: SweepCell,
    first: BaseException,
) -> Dict[str, object]:
    """One in-place retry with the same arguments (and so the same seed)."""
    LOG.warning("cell %s failed (%s); retrying once", cell.label(), first)
    try:
        return worker(*args)
    except BaseException as again:  # noqa: BLE001 - converted to a doc
        if isinstance(again, (KeyboardInterrupt, SystemExit)):
            raise
        LOG.error("cell %s failed twice; recording error", cell.label())
        return error_doc(cell, first, again)


def _run_group(
    worker: Callable[..., Dict[str, object]],
    cells: Sequence[SweepCell],
    grouped: bool,
    on_result: Optional[Callable[[SweepCell, Dict[str, object]], None]] = None,
) -> List[Dict[str, object]]:
    """Run one group's cells in order, in this process.

    A grouped worker is called as ``worker(cell, shared)``: ``shared``
    is a dict that starts empty, is passed to every cell of the group,
    and is dropped when the group ends.  A cell whose worker raises is
    retried once with the same arguments; a second failure fills its
    slot with :func:`error_doc`, and the group's other cells still run.
    ``on_result`` sees each document as soon as it is final.
    """
    shared: Dict[str, object] = {}
    docs: List[Dict[str, object]] = []
    for cell in cells:
        args = (cell, shared) if grouped else (cell,)
        try:
            doc = worker(*args)
        except BaseException as exc:  # noqa: BLE001 - retried below
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            doc = _retry_cell(worker, args, cell, exc)
        if on_result is not None:
            on_result(cell, doc)
        docs.append(doc)
    return docs


def _retry_group(
    worker: Callable[..., Dict[str, object]],
    cells: Sequence[SweepCell],
    grouped: bool,
    first: BaseException,
) -> List[Dict[str, object]]:
    """Re-run a group whose worker process died, in a fresh pool.

    A worker that died mid-group may have poisoned its pool
    (``BrokenProcessPool`` marks every sibling future), so the retry
    never reuses the original executor.  A second death fills every
    slot of the group with :func:`error_doc`.
    """
    labels = ", ".join(cell.label() for cell in cells)
    LOG.warning("group %s failed (%s); retrying once", labels, first)
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(_run_group, worker, cells, grouped).result()
    except BaseException as again:  # noqa: BLE001 - converted to docs
        if isinstance(again, (KeyboardInterrupt, SystemExit)):
            raise
        LOG.error("group %s failed twice; recording errors", labels)
        return [error_doc(cell, first, again) for cell in cells]


def run_cells(
    cells: Sequence[SweepCell],
    jobs: int = 1,
    worker: Callable[..., Dict[str, object]] = run_cell,
    on_result: Optional[
        Callable[[SweepCell, Dict[str, object]], None]
    ] = None,
    group_key: Optional[Callable[[SweepCell], Hashable]] = None,
) -> List[Dict[str, object]]:
    """Run every cell, ``jobs`` groups at a time, collecting in group order.

    Without ``group_key`` every cell is its own group and the worker is
    called as ``worker(cell)``.  With it, cells with equal keys form one
    group, groups keep the order of their first cell and cells keep
    their order within a group, and the worker is called as
    ``worker(cell, shared)`` (see :func:`_run_group`), so a group's
    cells can share work they would otherwise each redo.

    A group is the unit of scheduling: ``jobs=1`` runs every group
    in-process (no pool, easier to debug/profile); ``jobs>1`` fans the
    groups out over ``min(jobs, groups)`` processes.  Output is
    identical either way.

    A cell whose worker raises is retried once with the same seed; if
    the retry also fails its slot holds :func:`error_doc` output
    instead of a result, and every other cell still completes.  A group
    whose worker *process* dies is re-run once in a fresh process.
    ``worker`` is injectable for tests and must be a module-level
    callable when ``jobs > 1`` (pickling).

    ``on_result`` fires once per cell, in collection order, as soon as
    that cell's document is final — including the retry and
    error-document paths; in-process that is as each cell finishes, in
    a pool as each group comes back.  The experiment platform uses it
    to persist each finished cell before the grid completes, so a
    killed campaign resumes from the last persisted cell instead of
    from zero.  An ``on_result`` that raises aborts the run
    (persistence failing is not a per-cell condition).
    """
    if jobs <= 0:
        raise ConfigError(f"jobs must be positive: {jobs}")
    grouped = group_key is not None
    groups: Dict[Hashable, List[SweepCell]] = {}
    for index, cell in enumerate(cells):
        groups.setdefault(group_key(cell) if grouped else index, []).append(cell)
    if jobs == 1 or len(groups) <= 1:
        out: List[Dict[str, object]] = []
        for group in groups.values():
            out.extend(_run_group(worker, group, grouped, on_result))
        return out
    with ProcessPoolExecutor(max_workers=min(jobs, len(groups))) as pool:
        futures = [
            pool.submit(_run_group, worker, group, grouped)
            for group in groups.values()
        ]
        results: List[Dict[str, object]] = []
        for group, future in zip(groups.values(), futures):
            try:
                docs = future.result()
            except BaseException as exc:  # noqa: BLE001 - retried below
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                docs = _retry_group(worker, group, grouped, exc)
            for cell, doc in zip(group, docs):
                if on_result is not None:
                    on_result(cell, doc)
            results.extend(docs)
    return results


def summarise(results: Iterable[Dict[str, object]]) -> List[Tuple[str, ...]]:
    """Compact per-cell rows for table rendering."""
    rows = []
    for doc in results:
        cell = doc["cell"]
        if cell_failed(doc):
            error = doc["error"]
            rows.append(
                (
                    cell["engine"],
                    cell["workload"],
                    str(cell["seed"]),
                    "FAILED",
                    error["type"],
                    error["message"][:40],
                )
            )
            continue
        elapsed = doc["elapsed_seconds"]
        mops = doc["n_ops"] / elapsed / 1e6 if elapsed else 0.0
        rows.append(
            (
                cell["engine"],
                cell["workload"],
                str(cell["seed"]),
                f"{mops:.2f}",
                f"{elapsed * 1e3:.3f}",
                f"{doc['cache_hit_rate']:.3f}",
            )
        )
    return rows
