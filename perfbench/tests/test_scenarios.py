"""Workload determinism, the traced ledger, and BENCHMARK.json agreement."""

import dataclasses
import json
from pathlib import Path

import pytest

import layers
import run
from scenarios import SCENARIOS, Phases
from spans import Patches

SMALL = {
    "run-hot": {"n_keys": 600, "n_ops": 3000},
    "run-cold-durable": {"n_keys": 800, "n_ops": 1600, "batch_size": 256},
    "serve-shards-failover": {"n_keys": 800, "n_ops": 4000},
    "campaign-roster": {"n_keys": 200, "n_ops": 600},
}


def small(name):
    scenario = SCENARIOS[name]
    return dataclasses.replace(scenario, params={**scenario.params, **SMALL[name]})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_seed_gives_one_workload_and_seeds_differ(name, tmp_path):
    scenario = small(name)
    first = scenario.run(scenario, 3, Phases(), str(tmp_path))
    again = scenario.run(scenario, 3, Phases(), str(tmp_path))
    other = scenario.run(scenario, 4, Phases(), str(tmp_path))
    assert run.fingerprint(first) == run.fingerprint(again)
    assert run.fingerprint(first) != run.fingerprint(other)
    assert first.ops > 0


def test_deletes_replace_a_seeded_share_of_reads():
    from repro.workloads import make_workload
    from repro.workloads.ops import OpKind
    from scenarios import with_deletes

    base = make_workload("RS", n_keys=2000, n_ops=4000, seed=1, op_skew=0.0)
    mutated = with_deletes(base, 0.1, seed=1)
    kinds = [(a.kind, b.kind) for a, b in zip(base.operations, mutated.operations)]
    flipped = sum(1 for a, b in kinds if a is OpKind.READ and b is OpKind.DELETE)
    reads = sum(1 for a, _ in kinds if a is OpKind.READ)
    assert 0.05 * reads < flipped < 0.15 * reads
    assert all(a == b for a, b in kinds if a is not OpKind.READ)
    again = with_deletes(base, 0.1, seed=1)
    assert list(again.operations) == list(mutated.operations)


def test_traced_repetition_reconciles_with_the_timed_phase(tmp_path):
    scenario = small("run-cold-durable")
    trace = layers.LayerTrace()
    with Patches(trace.recorder, trace.targets()):
        rep = run.one_rep(scenario, 1, tmp_path, trace.recorder)
    assert rep.problems == []
    ledger = trace.ledger(rep.counts)
    timed = [s for s in trace.recorder.spans if s.name == "phase.timed"]
    assert len(timed) == 1
    # Self times of the spans inside the timed phase plus its own
    # unattributed time add up to the phase.
    index = trace.recorder.spans.index(timed[0])

    def inside(i):
        while i >= 0:
            if i == index:
                return True
            i = trace.recorder.spans[i].parent
        return False

    child_sum = sum(
        span.end - span.start
        for i, span in enumerate(trace.recorder.spans)
        if span.parent == index
    )
    assert ledger["unattributed_s"] == pytest.approx(
        timed[0].end - timed[0].start - child_sum
    )
    assert all(inside(i) for i, s in enumerate(trace.recorder.spans)
               if s.name == "sou.process_bucket")
    assert ledger["accel.execute_batch.calls"] == 1600 // 256 + 1
    assert ledger["durability.recover.calls"] == 1
    assert ledger["durability.accelerator_state.calls"] == 7
    assert ledger["durability.checkpoints_written"] == 1
    assert ledger["art.delete.calls"] > 0
    assert ledger["engines.DCART.run.calls"] == 1
    reported = {m["name"] for m in benchmark()["per_layer"]} - {"trace_overhead_s"}
    assert reported <= set(ledger)
    shares = [ledger[f"{name}.self_share"] for name in layers.SPAN_NAMES]
    assert 0 < sum(shares) < 1


def benchmark():
    return json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_the_benchmark_prints():
    spec = benchmark()
    units = run.metric_units()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert units[metric["name"]] == metric["unit"], metric["name"]
    for metric in spec["end_to_end"]:
        assert run.END_TO_END[metric["name"]][1] == metric["better"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(SCENARIOS)
    assert sorted(run.WORKLOADS) == sorted(SCENARIOS)


def test_phases_rescale_wall_time_by_the_host_speed(monkeypatch):
    import scenarios

    speeds = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(scenarios, "host_speed", lambda: next(speeds))
    phases = Phases()
    with phases("setup"):
        pass
    with phases("timed"):
        pass
    # The timed phase starts right after set-up, so it reuses set-up's
    # closing sample (4.0) instead of taking a new one.
    assert phases.seconds["setup"] == pytest.approx(phases.wall["setup"] * 3.0)
    assert phases.seconds["timed"] == pytest.approx(phases.wall["timed"] * 2.5)
