"""Campaign execution: expand the spec, run missing cells, persist each.

The runner leans on :mod:`repro.harness.parallel` for everything that is
hard about running grids — process fan-out, the crashed-worker
retry-once path, structured per-cell error documents — and adds the
three things a *campaign* needs over a sweep:

* **resume** — before running, the store is asked which cells are
  already OK under ``(spec hash, git SHA, mode)``; those are skipped
  outright (zero re-simulation), and each finishing cell is persisted
  via the runner's ``on_result`` hook, so killing a campaign loses at
  most the cells still in flight;
* **dimensions** — cells carry a fault-schedule signature and the
  spec's platform-power model, which a plain sweep cell does not;
* **groups** — the cells that share one seeded workload run together,
  so the workload is generated once and the operation-centric
  baselines price one functional walk (paper Fig. 9 compares every
  engine on the same workloads; redoing the walk per engine would be
  the redundant traversal of Fig. 2(b), inside the simulator).

The cell worker is module-level (picklable) and derives everything from
the frozen cell value and its group's shared walk, preserving the sweep
runner's determinism contract: a campaign's stored grid is
bit-identical for any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.experiments.spec import NO_FAULT, CampaignSpec, parse_fault
from repro.experiments.store import ResultStore
from repro.harness.parallel import run_cells
from repro.model.costs import DEFAULT_POWER, PowerModel

#: Which platform kind each engine's energy is billed on (the power
#: dimension re-prices energy by the watts ratio; see
#: :meth:`repro.model.costs.PowerModel.watts_for`).
ENGINE_PLATFORM_KIND: Dict[str, str] = {
    "ART": "cpu",
    "Heart": "cpu",
    "SMART": "cpu",
    "OLC": "cpu",
    "DCART-C": "cpu",
    "CuART": "gpu",
    "DCART": "fpga",
}


@dataclass(frozen=True)
class CampaignCell:
    """One campaign grid cell: the complete recipe for its run.

    Field names shadow :class:`repro.harness.parallel.SweepCell` so the
    sweep runner's retry/error machinery (which reads ``engine``,
    ``workload``, ``seed``, …) works on campaign cells unchanged.
    """

    engine: str
    workload: str
    seed: int
    fault: str = NO_FAULT
    n_keys: int = 10_000
    n_ops: int = 100_000
    write_ratio: Optional[float] = None
    op_skew: Optional[float] = None
    power: Optional[Tuple[float, float, float]] = None

    def key(self) -> str:
        """The store key: stable, human-readable, unique in the grid."""
        return f"{self.engine}/{self.workload}/seed={self.seed}/{self.fault}"

    def label(self) -> str:
        return self.key()

    def group(self) -> Tuple[object, ...]:
        """What the cells of one group share: the seeded workload."""
        return (
            self.workload,
            self.n_keys,
            self.n_ops,
            self.seed,
            self.write_ratio,
            self.op_skew,
        )

    def power_model(self) -> PowerModel:
        if self.power is None:
            return DEFAULT_POWER
        cpu, gpu, fpga = self.power
        return PowerModel(cpu_watts=cpu, gpu_watts=gpu, fpga_watts=fpga)


def expand_spec(spec: CampaignSpec) -> List[CampaignCell]:
    """The full grid, in (engine, workload, fault, seed) order."""
    return [
        CampaignCell(
            engine=engine,
            workload=workload,
            seed=seed,
            fault=fault,
            n_keys=spec.n_keys,
            n_ops=spec.n_ops,
            write_ratio=spec.write_ratio,
            op_skew=spec.op_skew,
            power=spec.power,
        )
        for engine in spec.engines
        for workload in spec.workloads
        for fault in spec.faults
        for seed in spec.seeds
    ]


def _fault_schedule(cell: CampaignCell, config):
    """Build the cell's :class:`FaultSchedule` from its signature."""
    from repro.faults import FaultSchedule, HbmThrottle, mid_run_batch

    kind, arg = parse_fault(cell.fault)
    if kind == "sou-failstop":
        return FaultSchedule.fail_sous(
            int(arg), cell.seed, n_sous=config.n_sous, at_batch=0
        )
    if kind == "hbm-throttle":
        n_batches = -(-cell.n_ops // config.batch_size)
        return FaultSchedule(
            seed=cell.seed,
            events=(
                HbmThrottle(mid_run_batch(n_batches), n_batches - 1, float(arg)),
            ),
        )
    raise ConfigError(f"unhandled fault kind {kind!r}")  # pragma: no cover


def run_campaign_cell(
    cell: CampaignCell, shared: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Execute one campaign cell and return its result document.

    Module-level (picklable) with deferred imports, like the sweep
    runner's worker.  ``shared`` is the dict the cell's group shares
    (see :func:`repro.harness.parallel.run_cells`): it holds the group's
    :class:`~repro.harness.runner.SharedWalk`, so a group generates its
    workload once and walks it once for all of its healthy
    operation-centric engines.  A cell run on its own walks alone.

    Every cell, faulted or healthy, runs the engine
    :func:`~repro.harness.runner.default_engines` builds, so a fault
    row differs from its ``none`` row only by the fault; a fault cell
    runs on a fresh tree of its own.  The document is the summary-level
    result dict plus the cell identity, fault outcome (tree validity,
    degradation inputs) and the applied platform power — everything the
    report needs, small enough to archive thousands of.
    """
    from repro.harness.runner import SharedWalk, default_engines
    from repro.harness.serialize import result_to_dict
    from repro.workloads import make_workload

    if shared is None:
        shared = {}
    walk = shared.get("walk")
    if walk is None:
        walk = shared["walk"] = SharedWalk(
            make_workload(
                cell.workload,
                n_keys=cell.n_keys,
                n_ops=cell.n_ops,
                seed=cell.seed,
                write_ratio=cell.write_ratio,
                op_skew=cell.op_skew,
            )
        )
    engine = default_engines(cell.n_keys, include=[cell.engine])[0]
    tree_valid: Optional[bool] = None
    if cell.fault == NO_FAULT:
        result = walk.run(engine)
    else:
        from repro.art.validate import validate_tree
        from repro.faults import FaultInjector

        config = engine.config
        engine.injector = FaultInjector(
            _fault_schedule(cell, config)
            .validate_sous(config.n_sous)
            .validate_shards(0)
        )
        tree = engine.build_tree(walk.workload)
        result = engine.run(walk.workload, tree=tree)
        tree_valid = validate_tree(tree).ok

    doc = result_to_dict(result)
    power = cell.power_model()
    kind = ENGINE_PLATFORM_KIND[cell.engine]
    default_watts = DEFAULT_POWER.watts_for(kind)
    watts = power.watts_for(kind)
    if watts != default_watts:
        # Energy = power x time (model/costs.py), so re-pricing a run
        # under the spec's power model is an exact linear rescale.
        doc["energy_joules"] = doc["energy_joules"] * watts / default_watts
    doc["cell"] = {
        "engine": cell.engine,
        "workload": cell.workload,
        "seed": cell.seed,
        "fault": cell.fault,
        "n_keys": cell.n_keys,
        "n_ops": cell.n_ops,
        "write_ratio": cell.write_ratio,
        "op_skew": cell.op_skew,
        "platform_kind": kind,
        "platform_watts": watts,
        "tree_valid": tree_valid,
    }
    return doc


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    git_sha: str,
    mode: str = "full",
    jobs: int = 1,
    created_at: str = "",
    worker: Callable[
        [CampaignCell, Dict[str, object]], Dict[str, object]
    ] = run_campaign_cell,
) -> Dict[str, object]:
    """Run (or resume) a campaign; returns the run summary.

    Every cell already stored OK under ``(spec hash, git_sha, mode)`` is
    skipped without simulation; the rest run through
    :func:`repro.harness.parallel.run_cells` in groups of
    :meth:`CampaignCell.group` (``jobs`` processes, one group at a time
    each; failing cells retried once) and are persisted *as they
    complete*, so an interrupted campaign resumes from its last
    committed cell.  A partly stored group re-runs only its missing
    cells.

    The summary reports ``total``/``reused``/``ran``/``failed`` — the
    acceptance gate for idempotence is ``ran == 0`` on a second
    invocation of an unchanged spec.
    """
    spec_hash = store.register_campaign(spec, created_at=created_at)
    cells = expand_spec(spec)
    keys = [cell.key() for cell in cells]
    if len(set(keys)) != len(keys):  # pragma: no cover - spec forbids dupes
        raise ConfigError("campaign grid has duplicate cell keys")
    done = store.completed_keys(spec_hash, git_sha, mode)
    missing = [cell for cell in cells if cell.key() not in done]

    def persist(cell: CampaignCell, doc: Dict[str, object]) -> None:
        status = "error" if "error" in doc else "ok"
        store.put_cell(
            spec_hash,
            git_sha,
            mode,
            cell.key(),
            cell.engine,
            cell.workload,
            cell.seed,
            cell.fault,
            status,
            doc,
            created_at=created_at,
        )

    results = run_cells(
        missing,
        jobs=jobs,
        worker=worker,
        on_result=persist,
        group_key=CampaignCell.group,
    )
    failed = sum(1 for doc in results if "error" in doc)
    return {
        "spec_hash": spec_hash,
        "git_sha": git_sha,
        "mode": mode,
        "total": len(cells),
        "reused": len(cells) - len(missing),
        "ran": len(missing),
        "failed": failed,
    }


def campaign_status(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    git_sha: str,
    mode: str = "full",
) -> Dict[str, object]:
    """Completion state of a campaign without running anything."""
    spec_hash = spec.content_hash()
    cells = expand_spec(spec)
    counts = store.counts(spec_hash, git_sha, mode)
    done = store.completed_keys(spec_hash, git_sha, mode)
    pending = [cell.key() for cell in cells if cell.key() not in done]
    return {
        "spec_hash": spec_hash,
        "git_sha": git_sha,
        "mode": mode,
        "total": len(cells),
        "ok": counts["ok"],
        "error": counts["error"],
        "pending": len(pending),
        "pending_keys": pending,
        "complete": not pending,
    }
