"""The benchmark's four workloads, one repetition at a time.

A repetition builds its inputs from the seed (set-up), runs the timed
phase, runs any follow-up phase the workload measures, and checks the
outputs.  Every repetition starts from fresh state: a new tree, new
Shortcut_Table and Tree_buffer, a new durability directory or result
store, as a user's ``repro`` invocation does.  README.md says why each
workload is in the set.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Mapping

import numpy as np

import repro.durability as durability
import repro.experiments as experiments
import repro.workloads as workloads
from repro.cluster import ClusterConfig
from repro.durability import DurabilityManager
from repro.faults import FaultSchedule
from repro.harness.resilience import chaos_config
from repro.harness.runner import ENGINE_ORDER, default_engines
from repro.harness.serialize import result_to_dict
from repro.serve import ServeConfig, load_sweep
from repro.workloads.ops import Operation, OperationStream, OpKind

import checks
from hostspeed import host_speed


class Phases:
    """Times named phases; in a traced repetition each is also a root span.

    ``wall`` holds raw wall seconds.  ``seconds`` holds them rescaled to
    the reference host speed, sampled right before and right after the
    phase (see hostspeed.py).
    """

    #: A phase that starts within this many seconds of the previous
    #: phase's end reuses that phase's closing speed sample.
    ADJACENT_S = 0.01

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.wall: Dict[str, float] = {}
        self.seconds: Dict[str, float] = {}
        self._closing = (float("-inf"), 0.0)  # (when, speed)

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        when, speed_before = self._closing
        if perf_counter() - when > self.ADJACENT_S:
            speed_before = host_speed()
        if self.recorder is not None:
            self.recorder.open(f"phase.{name}")
        start = perf_counter()
        try:
            yield
        finally:
            wall = perf_counter() - start
            if self.recorder is not None:
                self.recorder.close()
        speed_after = host_speed()
        self._closing = (perf_counter(), speed_after)
        speed = (speed_before + speed_after) / 2
        self.wall[name] = self.wall.get(name, 0.0) + wall
        self.seconds[name] = self.seconds.get(name, 0.0) + wall * speed


@dataclass
class Rep:
    """What one repetition measured and established."""

    #: Simulated ops of the timed phase (the ``sim_ops_per_s`` numerator).
    ops: int
    #: Ops the model itself failed: shed, lost, or in a failed campaign cell.
    model_failed_ops: int
    problems: List[str]
    #: ``model_*`` end-to-end metrics.
    model: Dict[str, float]
    #: Everything modelled, for the exact-repeat check across repetitions.
    fingerprint: object
    #: Per-layer counts this workload reads from its own outputs.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Host seconds per phase at the reference speed, and raw wall
    #: seconds, filled in by run.py.
    seconds: Dict[str, float] = field(default_factory=dict)
    wall: Dict[str, float] = field(default_factory=dict)

    @property
    def failed_ops(self) -> int:
        return self.ops if self.problems else self.model_failed_ops


@dataclass(frozen=True)
class Scenario:
    name: str
    params: Mapping[str, object]
    run: Callable[["Scenario", int, Phases, str], Rep]
    #: Host-time phases reported as their own end-to-end metrics.
    extra_phases: Mapping[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# run-hot / run-cold-durable: one closed-loop DCART run
# ---------------------------------------------------------------------------


def _dcart_engine(n_keys: int):
    return default_engines(n_keys, include=["DCART"])[0]


def _run_model(result) -> Dict[str, float]:
    return {
        "model_mops": result.throughput_mops,
        "model_p99_us": result.p99_latency_us,
    }


def run_hot(scenario: Scenario, seed: int, phase: Phases, workdir: str) -> Rep:
    p = scenario.params
    with phase("setup"):
        workload = workloads.make_workload(
            p["dataset"],
            n_keys=p["n_keys"],
            n_ops=p["n_ops"],
            op_skew=p["op_skew"],
            seed=seed,
        )
        engine = _dcart_engine(p["n_keys"])
        tree = engine.build_tree(workload)
    with phase("timed"):
        result = engine.run(workload, tree)
    expected = checks.replay(workload.loaded_keys, workload.operations)
    return Rep(
        ops=workload.n_ops,
        model_failed_ops=0,
        problems=checks.check_tree(tree, expected),
        model=_run_model(result),
        fingerprint=result_to_dict(result),
    )


def with_deletes(workload, share: float, seed: int):
    """``workload`` with a seeded ``share`` of its reads turned into deletes."""
    flips = np.random.default_rng((seed, 1)).random(workload.n_ops) < share
    operations = [
        Operation(op.op_id, OpKind.DELETE, op.key)
        if flip and op.kind is OpKind.READ
        else op
        for op, flip in zip(workload.operations, flips.tolist())
    ]
    return dataclasses.replace(workload, operations=OperationStream(operations))


def run_cold_durable(
    scenario: Scenario, seed: int, phase: Phases, workdir: str
) -> Rep:
    p = scenario.params
    directory = os.path.join(workdir, "durable")
    with phase("setup"):
        workload = with_deletes(
            workloads.make_workload(
                p["dataset"],
                n_keys=p["n_keys"],
                n_ops=p["n_ops"],
                op_skew=p["op_skew"],
                write_ratio=p["write_ratio"],
                seed=seed,
            ),
            p["delete_share_of_reads"],
            seed,
        )
        engine = _dcart_engine(p["n_keys"])
        engine.config = dataclasses.replace(engine.config, batch_size=p["batch_size"])
        engine.durability = DurabilityManager(
            directory, checkpoint_every=p["checkpoint_every"]
        )
        tree = engine.build_tree(workload)
    with phase("timed"):
        result = engine.run(workload, tree)
    with phase("recover"):
        recovery = durability.recover(directory)
    expected = checks.replay(workload.loaded_keys, workload.operations)
    problems = checks.check_tree(tree, expected)
    problems += checks.check_recovery(recovery, tree)
    shutil.rmtree(directory)
    return Rep(
        ops=workload.n_ops,
        model_failed_ops=0,
        problems=problems,
        model=_run_model(result),
        fingerprint=(result_to_dict(result), recovery.to_dict()),
    )


# ---------------------------------------------------------------------------
# serve-shards-failover: open-loop serving through a 4-shard cluster
# ---------------------------------------------------------------------------


def serve_shards_failover(
    scenario: Scenario, seed: int, phase: Phases, workdir: str
) -> Rep:
    p = scenario.params
    with phase("setup"):
        workload = workloads.make_workload(
            p["dataset"], n_keys=p["n_keys"], n_ops=p["n_ops"], seed=seed
        )
    accel_config = chaos_config(p["n_keys"])
    cluster = ClusterConfig(
        n_shards=p["n_shards"], replicas=p["replicas"], rebalance=True, seed=seed
    )
    # Drop-tail admission against a queue as long as the stream: the
    # policy is live, but no op is ever refused, so every op completes.
    serve_config = ServeConfig(
        batch_size=p["batch_size"],
        slo_us=p["slo_us"],
        queue_capacity=p["n_ops"],
    )
    schedule = FaultSchedule.fail_shards(
        1,
        seed,
        n_shards=p["n_shards"],
        at_batch=p["n_ops"] // p["batch_size"] // 4,
    )
    with phase("timed"):
        report = load_sweep(
            workload,
            serve_config,
            [p["offered_load"]],
            seed=seed,
            accel_config=accel_config,
            schedule=schedule,
            cluster_config=cluster,
        )
    row = report["rows"][0]
    model = {"model_mops": row["goodput_mops"], "model_p99_us": row["p99_us"]}
    if row["rto_cycles"] is not None:
        model["model_rto_us"] = row["rto_cycles"] / accel_config.costs.clock_hz * 1e6
    return Rep(
        ops=row["offered_ops"],
        model_failed_ops=row["shed_ops"] + row["lost_ops"],
        problems=checks.check_serve_row(row, p["replicas"]),
        model=model,
        fingerprint=report,
        counts={
            "serve.batches": row["n_batches"],
            "serve.deadline_batch_share": row["deadline_batches"] / row["n_batches"],
            "serve.queue_peak": row["queue_peak"],
        },
    )


# ---------------------------------------------------------------------------
# campaign-roster: the paper's six engines through the experiment platform
# ---------------------------------------------------------------------------

#: The store key campaign cells are filed under (any constant will do:
#: every repetition uses a fresh store).
CAMPAIGN_SHA = "perfbench"


def _campaign_pass(spec, store) -> Dict[str, object]:
    summary = experiments.run_campaign(spec, store, git_sha=CAMPAIGN_SHA, jobs=1)
    report = experiments.build_report(spec, store, git_sha=CAMPAIGN_SHA)
    experiments.render_markdown(report)
    return summary


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def campaign_roster(
    scenario: Scenario, seed: int, phase: Phases, workdir: str
) -> Rep:
    p = scenario.params
    path = os.path.join(workdir, "campaign.db")
    with phase("setup"):
        spec = experiments.CampaignSpec(
            name="perfbench",
            engines=tuple(p["engines"]),
            workloads=tuple(p["datasets"]),
            seeds=(seed,),
            n_keys=p["n_keys"],
            n_ops=p["n_ops"],
        )
        store = experiments.ResultStore(path)
    try:
        with phase("timed"):
            cold = _campaign_pass(spec, store)
        with phase("warm"):
            warm = _campaign_pass(spec, store)
        cells = store.get_cells(spec.content_hash(), CAMPAIGN_SHA, "full")
    finally:
        store.close()
    os.remove(path)
    payloads = [cell["payload"] for cell in cells.values() if cell["status"] == "ok"]
    problems = checks.check_campaign(cold, warm)
    model: Dict[str, float] = {}
    if payloads:
        model = {
            "model_mops": _geomean([d["throughput_mops"] for d in payloads]),
            "model_p99_us": _geomean([d["latency"]["p99_us"] for d in payloads]),
        }
    return Rep(
        ops=cold["ran"] * p["n_ops"],
        model_failed_ops=cold["failed"] * p["n_ops"],
        problems=problems,
        model=model,
        fingerprint={key: cell["payload"] for key, cell in cells.items()},
        counts={
            "experiments.cells_ran": cold["ran"] + warm["ran"],
            "experiments.cells_reused": cold["reused"] + warm["reused"],
        },
    )


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "run-hot",
            {
                "engine": "DCART",
                "dataset": "IPGEO",
                "n_keys": 20_000,
                "n_ops": 200_000,
                "op_skew": 0.99,
                "mix": "C (50/50, 30% of writes insert)",
            },
            run_hot,
        ),
        Scenario(
            "run-cold-durable",
            {
                "engine": "DCART",
                "dataset": "RS",
                "n_keys": 32_000,
                "n_ops": 64_000,
                "op_skew": 0.0,
                "write_ratio": 0.5,
                "delete_share_of_reads": 0.1,
                "batch_size": 4096,
                "checkpoint_every": 8,
            },
            run_cold_durable,
            extra_phases={"recover": "recover_s"},
        ),
        Scenario(
            "serve-shards-failover",
            {
                "engine": "DCART",
                "dataset": "RS",
                "n_keys": 20_000,
                "n_ops": 60_000,
                "n_shards": 4,
                "replicas": 1,
                "offered_load": 0.9,
                "arrival": "poisson",
                "admission": "drop-tail",
                "batch_size": 512,
                "slo_us": 100.0,
                "fault": "one shard primary fail-stop at 1/4 of the stream",
            },
            serve_shards_failover,
        ),
        Scenario(
            "campaign-roster",
            {
                "engines": list(ENGINE_ORDER),
                "datasets": ["IPGEO", "RS"],
                "n_keys": 1_000,
                "n_ops": 10_000,
                "jobs": 1,
            },
            campaign_roster,
            extra_phases={"warm": "warm_rerun_s"},
        ),
    )
}

