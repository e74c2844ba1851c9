"""Layered simulator benchmark: end-to-end metrics, or a traced per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload run-hot --seed 1 --seconds 20 --trace 0

One process, one thread.  The workload is repeated from fresh state until
``--seconds`` have passed (at least three times) and each host-time
metric is the median over the repetitions, rescaled to a reference host
speed (hostspeed.py).  ``--trace 1`` instead runs three untraced
repetitions, then three with span wrappers installed, and reports the
per-layer ledger.  Every output is checked; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the ``end_to_end`` (``--trace 0``) or ``per_layer``
(``--trace 1``) list of BENCHMARK.json.  The exit code is 0 only when
every check passed.  README.md documents every metric and workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = (
    "run-hot",
    "run-cold-durable",
    "serve-shards-failover",
    "campaign-roster",
)
MIN_REPS = 3
TRACED_REPS = 3

#: Every end-to-end metric: unit, better direction, and whether it is
#: host time of this process or simulated time of the modelled U280.
END_TO_END = {
    "sim_ops_per_s": ("ops/s", "higher", "host"),
    "setup_s": ("s", "lower", "host"),
    "peak_rss_mb": ("MiB", "lower", "host"),
    "recover_s": ("s", "lower", "host"),
    "warm_rerun_s": ("s", "lower", "host"),
    "model_mops": ("Mops/s", "higher", "model"),
    "model_p99_us": ("us", "lower", "model"),
    "model_rto_us": ("us", "lower", "model"),
    "failed_op_share": ("fraction", "lower", "check"),
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def git_sha() -> str:
    """``HEAD`` with ``-dirty`` for uncommitted changes; ``none`` outside git."""
    if not (ROOT / ".git").exists():
        return "none"
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "none"
    return sha + ("-dirty" if dirty else "")


def source_digest() -> str:
    """SHA-256 over the simulator's sources: identifies the code even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args: argparse.Namespace, scenario) -> Dict[str, object]:
    import numpy

    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "workload": scenario.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": dict(scenario.params),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def one_rep(scenario, seed: int, workdir: Path, recorder=None):
    from scenarios import Phases

    gc.collect()
    phases = Phases(recorder)
    rep = scenario.run(scenario, seed, phases, str(workdir))
    rep.seconds = phases.seconds
    rep.wall = phases.wall
    return rep


def fingerprint(rep) -> str:
    return json.dumps(rep.fingerprint, sort_keys=True, default=str)


def check_repeats(reps, reference: str, what: str) -> None:
    """Modelled outputs of one seed must repeat exactly."""
    for index, rep in enumerate(reps):
        if fingerprint(rep) != reference:
            rep.problems.append(
                f"{what} {index + 1}: modelled outputs differ from the first "
                f"repetition of the same seed"
            )


def measure(scenario, seed: int, seconds: float, workdir: Path) -> list:
    reps = []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - start < seconds:
        reps.append(one_rep(scenario, seed, workdir))
    check_repeats(reps, fingerprint(reps[0]), "repetition")
    return reps


def host_times(scenario, reps, clock: str) -> Dict[str, float]:
    """Medians over the repetitions of the host-time metrics, from
    ``clock``: ``seconds`` (at the reference host speed) or ``wall``."""
    median = statistics.median
    times = [getattr(r, clock) for r in reps]
    metrics = {
        "sim_ops_per_s": median(r.ops / t["timed"] for r, t in zip(reps, times)),
        "setup_s": median(t["setup"] for t in times),
    }
    for phase, name in scenario.extra_phases.items():
        metrics[name] = median(t[phase] for t in times)
    return metrics


def end_to_end(scenario, reps) -> Dict[str, float]:
    metrics = host_times(scenario, reps, "seconds")
    # ru_maxrss is in KiB on Linux.
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics.update(reps[0].model)
    attempted = sum(r.ops for r in reps)
    metrics["failed_op_share"] = sum(r.failed_ops for r in reps) / attempted
    return metrics


def trace(scenario, seed: int, workdir: Path, untraced) -> tuple:
    """Per-layer ledger: medians over traced repetitions, plus residuals."""
    from layers import COUNTS, LayerTrace
    from spans import Patches

    reps, ledgers, last_spans = [], [], []
    for _ in range(TRACED_REPS):
        layer_trace = LayerTrace()
        with Patches(layer_trace.recorder, layer_trace.targets()):
            rep = one_rep(scenario, seed, workdir, layer_trace.recorder)
        reps.append(rep)
        ledgers.append(layer_trace.ledger(rep.counts))
        last_spans = layer_trace.recorder.spans
    # Tracing must not change what the simulator computes.
    check_repeats(reps, fingerprint(untraced[0]), "traced repetition")
    ledger: Dict[str, float] = {}
    for name in ledgers[0]:
        values = [entry[name] for entry in ledgers]
        if name.endswith(("_s", "_share")) and name not in COUNTS:
            ledger[name] = statistics.median(values)
        else:
            ledger[name] = values[0]
            if any(v != values[0] for v in values):
                reps[0].problems.append(f"{name} differs between traced repetitions")
    ledger["trace_overhead_s"] = statistics.median(
        r.wall["timed"] for r in reps
    ) - statistics.median(r.wall["timed"] for r in untraced)
    return reps, ledger, last_spans


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_end_to_end(
    scenario, metrics: Dict[str, float], wall: Dict[str, float], n_reps: int
) -> None:
    print(f"== end-to-end: {scenario.name} ({n_reps} repetitions, medians) ==")
    header = ("metric", "value", "raw wall", "unit", "better", "kind")
    print("{:<18} {:>14} {:>14} {:<9} {:<7} {}".format(*header))
    for name, (unit, better, kind) in END_TO_END.items():
        if name in metrics:
            raw = f"{wall[name]:>14.6g}" if name in wall else f"{'':>14}"
            print(
                f"{name:<18} {metrics[name]:>14.6g} {raw} {unit:<9} {better:<7} {kind}"
            )


def print_ledger(ledger: Dict[str, float]) -> None:
    from layers import COUNTS, SPAN_NAMES

    print(f"== per-layer ledger ({TRACED_REPS} traced repetitions, medians) ==")
    print(f"{'span':<30} {'calls':>10} {'self_s':>12} {'self_share':>10}")
    for name in SPAN_NAMES:
        print(
            f"{name:<30} {ledger[f'{name}.calls']:>10d} "
            f"{ledger[f'{name}.self_s']:>12.6f} {ledger[f'{name}.self_share']:>10.4f}"
        )
    for name in ("unattributed_s", "trace_overhead_s"):
        print(f"{name:<30} {'':>10} {ledger[name]:>12.6f}")
    print(f"{'count':<38} {'value':>14} unit")
    for name, (unit, _) in COUNTS.items():
        print(f"{name:<38} {ledger[name]:>14.6g} {unit}")


def metric_units() -> Dict[str, str]:
    from layers import COUNTS, SPAN_NAMES

    units = {name: unit for name, (unit, _, _) in END_TO_END.items()}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.self_share"] = "fraction"
    units.update({name: unit for name, (unit, _) in COUNTS.items()})
    units.update(unattributed_s="s", trace_overhead_s="s")
    return units


def write_spans(path: Path, spans) -> None:
    names = sorted({span.name for span in spans})
    index = {name: i for i, name in enumerate(names)}
    doc = {
        "fields": ["name", "start_s", "end_s", "parent"],
        "names": names,
        "spans": [[index[s.name], s.start, s.end, s.parent] for s in spans],
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from scenarios import SCENARIOS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scenario = SCENARIOS[args.workload]
    origin = provenance(args, scenario)
    print("== provenance ==")
    print(json.dumps(origin, sort_keys=True))

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # A traced run only needs an untraced baseline of as many
        # repetitions as it traces.
        seconds = 0 if args.trace else args.seconds
        reps = measure(scenario, args.seed, seconds, workdir)
        metrics = end_to_end(scenario, reps)
        wall = host_times(scenario, reps, "wall")
        traced, ledger, spans = [], {}, []
        if args.trace:
            traced, ledger, spans = trace(scenario, args.seed, workdir, reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_end_to_end(scenario, metrics, wall, len(reps))
    if args.trace:
        print_ledger(ledger)
    every_rep = reps + traced
    problems = [p for rep in every_rep for p in rep.problems]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    stem = f"{scenario.name}-seed{args.seed}" + ("-trace" if args.trace else "")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "provenance": origin,
        "end_to_end": metrics,
        "end_to_end_wall": wall,
        "per_layer": ledger,
        "rep_seconds": [rep.seconds for rep in reps],
        "rep_wall": [rep.wall for rep in reps],
        "traced_rep_wall": [rep.wall for rep in traced],
        "problems": problems,
    }, indent=1, sort_keys=True))
    if args.trace:
        write_spans(OUT / f"{stem}-spans.json", spans)

    values = ledger if args.trace else metrics
    units = metric_units()
    selected = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not problems,
        "attempted": sum(rep.ops for rep in every_rep),
        "failed": sum(rep.failed_ops for rep in every_rep),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]}
            for m in selected
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
