"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures`` — regenerate paper figures/tables and print them
  (``--only fig9 fig11`` to select, ``--keys/--ops`` to scale,
  ``--save DIR`` to also write the tables and raw JSON).
* ``run`` — one engine on one workload, printing the result summary.
* ``workload`` — generate a workload and write it as JSON-lines
  (replayable with ``run --replay``).
* ``chaos`` — fault-injection run (``--fail-sous N``, corruption,
  storms, throttling) with graceful-degradation and invariant checks;
  ``--sweep`` produces the full degradation curve.  ``--json [PATH]``
  emits the outcome (or the sweep's curve) as JSON, to stdout or PATH.
* ``checkpoint`` — run DCART with the durability subsystem attached
  (WAL per batch, checkpoint every N batches) into a directory.
* ``recover`` — rebuild the tree from a durability directory (latest
  valid checkpoint + committed WAL tail) and validate it; or, with
  ``--campaign N``, run the seeded crash–recover–validate loop.
* ``sweep`` — run an (engine × workload × seed) grid, fanned over
  ``--jobs N`` worker processes with deterministic, ordered output
  (``--jobs 1`` and ``--jobs N`` are bit-identical).
* ``serve`` — open-loop serving simulation: seeded arrivals at a
  fraction of closed-loop capacity, admission control, size-or-deadline
  batching, and a latency-vs-offered-load sweep with SLO/knee/RTO
  reporting (``--fault`` fires a chaos event mid-traffic).
* ``trace`` — run DCART once with the BatchTracer attached and write a
  Chrome/Perfetto ``trace_event`` JSON timeline (PCU / per-SOU / sync /
  HBM / durability spans per batch) plus a terminal summary table.
* ``stats`` — run one engine with a MetricsRegistry attached and
  pretty-print every counter/gauge (``--json`` for machine output).
* ``bench`` — measure simulator speed (sim-ops/s, wall seconds, peak
  RSS per engine); ``--record`` appends to ``BENCH_speed.json``,
  ``--check`` fails on a >20 % regression vs the best prior entry.
* ``campaign`` — declarative experiment campaigns (docs/EXPERIMENTS.md):
  ``run`` executes a TOML/JSON spec's grid into the SQLite result store,
  skipping every already-completed cell (kill it, re-run it, it
  resumes); ``status`` shows grid completion; ``report`` regenerates
  the campaign's Markdown/HTML report from the store.  ``--no-stamp``
  makes all output byte-deterministic.
* ``lint`` — run reprolint, the AST-based determinism & invariant
  analyzer (rules DET01–03, COST01, PAR01, DUR01; see
  docs/STATIC_ANALYSIS.md), over ``src/repro`` or the given paths.
  Exits 1 on findings, 2 on unparseable files.

Every subcommand exits non-zero when its validation oracle fails: a
broken tree after ``run``/``checkpoint``, a non-graceful or invalid
chaos outcome (any row of a sweep), a recovery that diverges.

``--log-level`` (before the subcommand) turns on fault/event logging;
the library stays silent by default.

Examples:

    python -m repro figures --only fig9 --keys 10000 --ops 100000
    python -m repro run --engine DCART --workload IPGEO --ops 50000
    python -m repro workload --name DICT --keys 5000 --out dict.jsonl
    python -m repro run --engine SMART --replay dict.jsonl
    python -m repro chaos --fail-sous 4 --seed 1
    python -m repro --log-level INFO chaos --sweep --json curve.json
    python -m repro checkpoint --dir /tmp/dcart-state --every 4
    python -m repro recover --dir /tmp/dcart-state --json
    python -m repro recover --campaign 50 --seed 1
    python -m repro sweep --engines ART DCART --seeds 1 2 --jobs 4
    python -m repro serve --load-sweep 0.25 0.5 1.0 --json report.json
    python -m repro serve --fault crash --admission drop-tail --json -
    python -m repro trace IPGEO --keys 2000 --ops 20000 --out trace.json
    python -m repro stats --engine DCART --workload RS
    python -m repro run --engine DCART --metrics metrics.json
    python -m repro bench --quick --check --record
    python -m repro lint
    python -m repro lint src/repro/core --json -
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.harness import experiments
from repro.harness.runner import ENGINE_ORDER, default_engines
from repro.harness.serialize import result_to_dict, save_matrix
from repro.workloads import WORKLOAD_NAMES, make_workload
from repro.workloads.trace import load_workload, save_workload

FIGURES = {
    "fig2a": experiments.fig2a_breakdown,
    "fig2b": experiments.fig2b_redundancy,
    "fig2c": experiments.fig2c_utilisation,
    "fig2d": experiments.fig2d_sync_vs_ops,
    "fig2e": experiments.fig2e_write_ratio,
    "fig3": experiments.fig3_distribution,
    "table1": experiments.table1_config,
    "fig7": experiments.fig7_contentions,
    "fig8": experiments.fig8_matches,
    "fig9": experiments.fig9_performance,
    "fig10": experiments.fig10_throughput_latency,
    "fig11": experiments.fig11_energy,
    "fig12a": experiments.fig12a_op_sensitivity,
    "fig12b": experiments.fig12b_mix_sensitivity,
    "ablation": experiments.ablation,
}

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DCART (DAC 2025) reproduction harness"
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        help="enable library logging at LEVEL (DEBUG/INFO/WARNING/...); "
             "default: silent",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate paper figures/tables")
    figures.add_argument(
        "--only", nargs="*", choices=sorted(FIGURES), default=None,
        help="subset of figures (default: all)",
    )
    figures.add_argument("--keys", type=int, default=experiments.DEFAULT_KEYS)
    figures.add_argument("--ops", type=int, default=experiments.DEFAULT_OPS)
    figures.add_argument("--seed", type=int, default=experiments.DEFAULT_SEED)
    figures.add_argument("--save", metavar="DIR", default=None)

    run = sub.add_parser("run", help="run one engine on one workload")
    run.add_argument("--engine", choices=ENGINE_ORDER, required=True)
    run.add_argument("--workload", choices=WORKLOAD_NAMES, default="IPGEO")
    run.add_argument("--keys", type=int, default=10_000)
    run.add_argument("--ops", type=int, default=100_000)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--write-ratio", type=float, default=None)
    run.add_argument("--replay", metavar="FILE", default=None,
                     help="replay a saved workload instead of generating")
    run.add_argument("--json", action="store_true", help="emit JSON")
    run.add_argument("--metrics", default=None, metavar="PATH",
                     help="attach a MetricsRegistry and write it as JSON "
                          "to PATH ('-' for stdout)")

    workload = sub.add_parser("workload", help="generate + save a workload")
    workload.add_argument("--name", choices=WORKLOAD_NAMES, required=True)
    workload.add_argument("--keys", type=int, default=10_000)
    workload.add_argument("--ops", type=int, default=None)
    workload.add_argument("--seed", type=int, default=1)
    workload.add_argument("--write-ratio", type=float, default=None)
    workload.add_argument("--out", required=True)

    chaos = sub.add_parser(
        "chaos", help="fault-injection run with degradation + invariant checks"
    )
    chaos.add_argument("--fail-sous", type=int, default=0,
                       help="fail-stop this many SOUs at batch 0")
    chaos.add_argument("--corrupt-shortcuts", type=int, default=0,
                       help="corrupt this many shortcut entries mid-run")
    chaos.add_argument("--storm", type=float, default=0.0,
                       help="invalidate this fraction of the Tree_buffer mid-run")
    chaos.add_argument("--throttle", type=float, default=1.0,
                       help="HBM bandwidth multiplier over the run's second half")
    chaos.add_argument("--workload", choices=WORKLOAD_NAMES, default="IPGEO")
    chaos.add_argument("--keys", type=int, default=None)
    chaos.add_argument("--ops", type=int, default=None)
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--sweep", action="store_true",
                       help="degradation curve over 0..n_sous-1 failed SOUs")
    chaos.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit JSON (to PATH, or stdout when bare)")

    checkpoint = sub.add_parser(
        "checkpoint", help="durable DCART run: WAL + periodic checkpoints"
    )
    checkpoint.add_argument("--dir", required=True, metavar="DIR",
                            help="durability directory (created if missing)")
    checkpoint.add_argument("--workload", choices=WORKLOAD_NAMES,
                            default="IPGEO")
    checkpoint.add_argument("--keys", type=int, default=None)
    checkpoint.add_argument("--ops", type=int, default=None)
    checkpoint.add_argument("--seed", type=int, default=1)
    checkpoint.add_argument("--every", type=int, default=4,
                            help="checkpoint every N batches")
    checkpoint.add_argument("--json", nargs="?", const="-", default=None,
                            metavar="PATH",
                            help="emit JSON (to PATH, or stdout when bare)")

    recover = sub.add_parser(
        "recover",
        help="rebuild + validate from a durability directory, or --campaign",
    )
    recover.add_argument("--dir", default=None, metavar="DIR",
                         help="durability directory to recover from")
    recover.add_argument("--campaign", type=int, default=None, metavar="N",
                         help="run the seeded crash-recover-validate loop "
                              "over N random crash points instead")
    recover.add_argument("--seed", type=int, default=1)
    recover.add_argument("--keys", type=int, default=None)
    recover.add_argument("--ops", type=int, default=None)
    recover.add_argument("--workload", choices=WORKLOAD_NAMES,
                         default="IPGEO")
    recover.add_argument("--json", nargs="?", const="-", default=None,
                         metavar="PATH",
                         help="emit JSON (to PATH, or stdout when bare)")

    sweep = sub.add_parser(
        "sweep", help="run an (engine x workload x seed) grid, optionally "
                      "in parallel"
    )
    sweep.add_argument("--engines", nargs="+", choices=ENGINE_ORDER,
                       default=["ART", "DCART"])
    sweep.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                       default=["IPGEO"])
    sweep.add_argument("--seeds", nargs="+", type=int, default=[1])
    sweep.add_argument("--keys", type=int, default=10_000)
    sweep.add_argument("--ops", type=int, default=100_000)
    sweep.add_argument("--write-ratio", type=float, default=None)
    sweep.add_argument("--op-skew", type=float, default=None)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
    sweep.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit full per-cell results as JSON")
    sweep.add_argument("--metrics", default=None, metavar="PATH",
                       help="collect a per-cell MetricsRegistry and write "
                            "all of them as JSON to PATH ('-' for stdout)")

    from repro.serve.admission import ADMISSION_NAMES
    from repro.serve.arrivals import ARRIVAL_NAMES

    serve = sub.add_parser(
        "serve", help="open-loop serving sweep: arrivals, admission, SLO/RTO"
    )
    serve.add_argument("--engine", choices=ENGINE_ORDER, default="DCART")
    serve.add_argument("--workload", choices=WORKLOAD_NAMES, default="IPGEO")
    serve.add_argument("--keys", type=int, default=None)
    serve.add_argument("--ops", type=int, default=None)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--arrival", choices=ARRIVAL_NAMES, default="poisson")
    serve.add_argument("--admission", choices=ADMISSION_NAMES,
                       default="drop-tail")
    serve.add_argument("--load-sweep", nargs="+", type=float, default=None,
                       metavar="LOAD",
                       help="offered loads as fractions of closed-loop "
                            "capacity (default: 0.25 0.5 0.75 1.0 1.5)")
    serve.add_argument("--batch-size", type=int, default=None,
                       help="serving batch size (default: 512)")
    serve.add_argument("--deadline-us", type=float, default=None,
                       help="batch-forming deadline (default: 100)")
    serve.add_argument("--queue-capacity", type=int, default=None,
                       help="ingest queue bound (default: 8192)")
    serve.add_argument("--slo-us", type=float, default=None,
                       help="latency SLO (default: derived from the "
                            "lowest swept load)")
    serve.add_argument("--fault",
                       choices=("none", "sou-failstop", "crash",
                                "shard-failstop"),
                       default="none",
                       help="fire a chaos event mid-traffic and report RTO "
                            "(shard-failstop needs --shards)")
    serve.add_argument("--fault-batch", type=int, default=9,
                       help="serving batch index the fault lands on")
    serve.add_argument("--shards", type=int, default=None, metavar="N",
                       help="serve through an N-shard cluster instead of "
                            "one accelerator")
    serve.add_argument("--replicas", type=int, default=1, choices=(0, 1),
                       help="replicas per shard with --shards (default: 1)")
    serve.add_argument("--partitioning", choices=("hash", "range"),
                       default="hash",
                       help="key-space partitioning with --shards")
    serve.add_argument("--rebalance", action="store_true",
                       help="enable the skew-driven bucket rebalancer "
                            "with --shards")
    serve.add_argument("--dir", default=None, metavar="DIR",
                       help="durability directory for --fault crash "
                            "(default: a fresh temp dir)")
    serve.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit the serve-sweep/v1 report as JSON")

    cluster = sub.add_parser(
        "cluster",
        help="closed-loop sharded cluster run: routing, replication, "
             "failover, rebalancing",
    )
    cluster.add_argument("--shards", type=int, default=4, metavar="N",
                         help="number of DCART shards (default: 4)")
    cluster.add_argument("--replicas", type=int, default=1, choices=(0, 1),
                         help="replicas per shard (default: 1)")
    cluster.add_argument("--partitioning", choices=("hash", "range"),
                         default="hash",
                         help="key-space partitioning (default: hash)")
    cluster.add_argument("--rebalance", action="store_true",
                         help="enable the skew-driven bucket rebalancer")
    cluster.add_argument("--workload", choices=WORKLOAD_NAMES,
                         default="IPGEO")
    cluster.add_argument("--keys", type=int, default=None)
    cluster.add_argument("--ops", type=int, default=None)
    cluster.add_argument("--seed", type=int, default=1)
    cluster.add_argument("--batch-size", type=int, default=1024,
                         help="cluster batch size (default: 1024)")
    cluster.add_argument("--fault",
                         choices=("none", "shard-failstop",
                                  "replication-slowdown"),
                         default="none",
                         help="shard-level fault to inject mid-run")
    cluster.add_argument("--fault-batch", type=int, default=2,
                         help="batch index the fault lands on")
    cluster.add_argument("--json", nargs="?", const="-", default=None,
                         metavar="PATH",
                         help="emit the cluster-run/v1 report as JSON")

    trace = sub.add_parser(
        "trace", help="run DCART and write a Chrome trace_event timeline"
    )
    trace.add_argument("workload", nargs="?", choices=WORKLOAD_NAMES,
                       default="IPGEO")
    trace.add_argument("--keys", type=int, default=10_000)
    trace.add_argument("--ops", type=int, default=100_000)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="trace file (default: trace.json); load it at "
                            "chrome://tracing or ui.perfetto.dev")
    trace.add_argument("--metrics", default=None, metavar="PATH",
                       help="also write the MetricsRegistry as JSON")
    trace.add_argument("--no-stamp", action="store_true",
                       help="omit the wall-clock exported_at metadata "
                            "(bit-identical output across runs)")

    stats = sub.add_parser(
        "stats", help="run one engine and print its metrics registry"
    )
    stats.add_argument("--engine", choices=ENGINE_ORDER, default="DCART")
    stats.add_argument("--workload", choices=WORKLOAD_NAMES, default="IPGEO")
    stats.add_argument("--keys", type=int, default=10_000)
    stats.add_argument("--ops", type=int, default=100_000)
    stats.add_argument("--seed", type=int, default=1)
    stats.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH",
                       help="emit the registry as JSON (to PATH, or stdout)")

    bench = sub.add_parser(
        "bench", help="measure simulator speed; record/check BENCH_speed.json"
    )
    bench.add_argument("--quick", action="store_true",
                       help="CI-sized workload instead of the 1 M-op "
                            "reference")
    bench.add_argument("--engines", nargs="+", choices=ENGINE_ORDER,
                       default=None,
                       help="engines to time (default: ART DCART)")
    bench.add_argument("--record", action="store_true",
                       help="append this sample to the trajectory file")
    bench.add_argument("--check", action="store_true",
                       help="fail on >20%% sim-ops/s regression vs the best "
                            "prior same-mode entry")
    bench.add_argument("--file", default=None, metavar="PATH",
                       help="trajectory file (default: BENCH_speed.json "
                            "at the repo root)")
    bench.add_argument("--workload-cache", default=None, metavar="DIR",
                       help="cache generated bench workloads in DIR")
    bench.add_argument("--repeats", type=int, default=1, metavar="N",
                       help="time each engine N times and keep the fastest "
                            "(best-of-N; use >=3 on noisy/shared machines)")

    campaign = sub.add_parser(
        "campaign",
        help="declarative experiment campaigns: run/status/report over a "
             "SQLite result store",
    )
    campaign.add_argument("action", choices=["run", "status", "report"],
                          help="run the spec's grid (resumable), show "
                               "completion, or regenerate the report")
    campaign.add_argument("--spec", required=True, metavar="FILE",
                          help="campaign spec (.toml on Python >= 3.11, "
                               "or .json)")
    campaign.add_argument("--store", default=None, metavar="PATH",
                          help="SQLite result store (default: campaigns.db "
                               "in the current directory)")
    campaign.add_argument("--mode", default="full", metavar="NAME",
                          help="store namespace label, e.g. full/smoke "
                               "(default: full)")
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes (1 = in-process)")
    campaign.add_argument("--no-stamp", action="store_true",
                          help="deterministic output: store under git SHA "
                               "'unstamped' with no timestamps")
    campaign.add_argument("--md", default=None, metavar="PATH",
                          help="report: write the Markdown report to PATH "
                               "(default: stdout)")
    campaign.add_argument("--html", default=None, metavar="PATH",
                          help="report: also write a standalone HTML report")
    campaign.add_argument("--json", nargs="?", const="-", default=None,
                          metavar="PATH",
                          help="emit the run summary / status / report "
                               "document as JSON")

    lint = sub.add_parser(
        "lint", help="reprolint: AST determinism & invariant analyzer"
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files/directories to scan (default: the "
                           "installed repro package source)")
    lint.add_argument("--pyproject", default=None, metavar="FILE",
                      help="pyproject.toml with [tool.reprolint] overrides "
                           "(default: auto-detect at the repo root)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every rule code and one-line summary")
    lint.add_argument("--json", nargs="?", const="-", default=None,
                      metavar="PATH",
                      help="emit findings as JSON (to PATH, or stdout)")
    lint.add_argument("--sarif", default=None, metavar="PATH",
                      help="additionally write findings as SARIF 2.1.0 "
                           "(CI code-scanning annotations)")
    lint.add_argument("--cache", default=None, metavar="PATH",
                      help="incremental-cache DB path (default: "
                           ".reprolint-cache.json next to the detected "
                           "pyproject)")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the content-hash incremental cache")
    lint.add_argument("--update-schemas", action="store_true",
                      help="regenerate the SCHEMA01 lockfile "
                           "(lint/schemas.lock) from the current tree, "
                           "then lint")
    return parser


def _emit_json(payload, dest: str) -> None:
    """Write ``payload`` as JSON to stdout (``-``) or a file path."""
    import json

    text = json.dumps(payload, indent=1)
    if dest == "-":
        print(text)
    else:
        with open(dest, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote JSON to {dest}")


def _cmd_figures(args) -> int:
    names = args.only if args.only else sorted(FIGURES)
    for name in names:
        fn = FIGURES[name]
        if name == "table1":
            result = fn()
        elif name in ("fig2d", "fig10", "fig12a"):
            result = fn(n_keys=args.keys, seed=args.seed)
        elif name == "fig2e":
            result = fn(n_keys=args.keys, n_ops=args.ops, seed=args.seed)
        else:
            result = fn(n_keys=args.keys, n_ops=args.ops, seed=args.seed)
        print(result.render())
        print()
        if args.save:
            from repro.analysis.export import experiment_to_csv

            os.makedirs(args.save, exist_ok=True)
            with open(os.path.join(args.save, f"{name}.txt"), "w") as handle:
                handle.write(result.render() + "\n")
            experiment_to_csv(result, os.path.join(args.save, f"{name}.csv"))
            if result.raw:
                save_matrix(result.raw, os.path.join(args.save, f"{name}.json"))
    return 0


def _cmd_run(args) -> int:
    if args.replay:
        workload = load_workload(args.replay)
        n_keys = workload.n_keys
    else:
        workload = make_workload(
            args.workload,
            n_keys=args.keys,
            n_ops=args.ops,
            seed=args.seed,
            write_ratio=args.write_ratio,
        )
        n_keys = args.keys
    from repro.art.validate import validate_tree

    engine = default_engines(n_keys, include=[args.engine])[0]
    if args.metrics is not None:
        from repro.obs import Telemetry

        engine.telemetry = Telemetry()
    tree = engine.build_tree(workload)
    result = engine.run(workload, tree=tree)
    validation = validate_tree(tree)
    if args.metrics is not None:
        _emit_json(engine.telemetry.registry.as_dict(), args.metrics)
    if args.json:
        import json

        print(json.dumps(result_to_dict(result), indent=1))
    else:
        print(workload.summary())
        print(result.summary())
        print(
            f"p99 latency: {result.p99_latency_us:.1f} us, "
            f"redundancy {100 * result.redundancy_ratio:.1f} %, "
            f"cacheline utilisation {100 * result.cacheline_utilisation:.1f} %"
        )
    if not validation.ok:
        print(f"tree validation FAILED: {validation.summary()}", file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args) -> int:
    import json

    from repro.errors import ConfigError, FaultError
    from repro.faults import (
        BufferStorm,
        FaultSchedule,
        HbmThrottle,
        ShortcutCorruption,
    )
    from repro.harness import resilience

    n_keys = args.keys if args.keys is not None else resilience.DEFAULT_KEYS
    n_ops = args.ops if args.ops is not None else resilience.DEFAULT_OPS

    if args.sweep:
        curve = resilience.degradation_curve(
            n_keys=n_keys, n_ops=n_ops, seed=args.seed,
            workload_name=args.workload,
        )
        # A sweep fails when any row degraded non-gracefully or broke
        # the tree (columns 5 and 6 of the curve).
        all_ok = all(
            row[5] == "yes" and row[6] == "ok" for row in curve.rows
        )
        if args.json is not None:
            _emit_json(
                {
                    "experiment": curve.experiment,
                    "headers": curve.headers,
                    "rows": curve.rows,
                    "all_graceful": all_ok,
                },
                args.json,
            )
        else:
            print(curve.render())
        return 0 if all_ok else 1

    config = resilience.chaos_config(n_keys)
    n_batches = -(-n_ops // config.batch_size)
    mid = min(max(1, n_batches // 2), n_batches - 1)
    try:
        events = list(
            FaultSchedule.fail_sous(
                args.fail_sous, args.seed, n_sous=config.n_sous
            ).events
        )
        if args.corrupt_shortcuts > 0:
            events.append(ShortcutCorruption(mid, args.corrupt_shortcuts))
        if args.storm > 0.0:
            events.append(BufferStorm(mid, args.storm))
        if args.throttle < 1.0:
            events.append(HbmThrottle(mid, n_batches - 1, args.throttle))
        schedule = FaultSchedule(seed=args.seed, events=tuple(events))
    except ConfigError as exc:
        print(f"bad chaos scenario: {exc}", file=sys.stderr)
        return 2

    try:
        outcome = resilience.chaos_run(
            seed=args.seed, workload_name=args.workload,
            n_keys=n_keys, n_ops=n_ops,
            schedule=schedule, config=config,
        )
    except FaultError as exc:
        if args.json is not None:
            _emit_json(exc.to_dict(), args.json)
        else:
            print(f"chaos run aborted: {exc}")
            for key, value in sorted(exc.diagnostics.items()):
                print(f"  {key}: {value}")
        return 3

    if args.json is not None:
        _emit_json(
            {
                "schedule_signature": schedule.signature(),
                "n_failed": outcome.n_failed,
                "degradation": outcome.degradation,
                "proportional_loss": outcome.proportional_loss,
                "graceful": outcome.graceful,
                "tree_valid": outcome.validation.ok,
                "baseline": result_to_dict(outcome.baseline),
                "result": result_to_dict(outcome.result),
            },
            args.json,
        )
    else:
        print(schedule.describe())
        print(f"schedule signature: {schedule.signature()}")
        print(outcome.baseline.summary())
        print(outcome.result.summary())
        print(outcome.summary())
    return 0 if outcome.graceful else 1


def _cmd_checkpoint(args) -> int:
    from repro.art.validate import validate_tree
    from repro.core.accelerator import DcartAccelerator
    from repro.durability import DurabilityManager
    from repro.errors import ConfigError
    from repro.harness import resilience

    n_keys = args.keys if args.keys is not None else resilience.DEFAULT_KEYS
    n_ops = args.ops if args.ops is not None else resilience.DEFAULT_OPS
    workload = make_workload(
        args.workload, n_keys=n_keys, n_ops=n_ops, seed=args.seed
    )
    try:
        durability = DurabilityManager(args.dir, checkpoint_every=args.every)
    except ConfigError as exc:
        print(f"bad durability setup: {exc}", file=sys.stderr)
        return 2
    config = resilience.chaos_config(n_keys)
    accelerator = DcartAccelerator(config=config, durability=durability)
    tree = accelerator.build_tree(workload)
    try:
        result = accelerator.run(workload, tree=tree)
    except ConfigError as exc:
        print(f"bad durability setup: {exc}", file=sys.stderr)
        return 2
    validation = validate_tree(tree)

    durability_stats = {
        key: value
        for key, value in sorted(result.extra.items())
        if key.startswith(("wal_", "checkpoint")) or key == "durability_cycles"
    }
    if args.json is not None:
        _emit_json(
            {
                "directory": args.dir,
                "workload": workload.summary(),
                "throughput_mops": result.throughput_mops,
                "tree_valid": validation.ok,
                "durability": durability_stats,
            },
            args.json,
        )
    else:
        print(workload.summary())
        print(result.summary())
        print(f"durable state in {args.dir}:")
        for key, value in durability_stats.items():
            print(f"  {key}: {value}")
    if not validation.ok:
        print(f"tree validation FAILED: {validation.summary()}", file=sys.stderr)
        return 1
    return 0


def _cmd_recover(args) -> int:
    from repro.durability import recover
    from repro.errors import RecoveryError
    from repro.harness import resilience

    if args.campaign is not None:
        n_keys = args.keys if args.keys is not None else resilience.DEFAULT_KEYS
        n_ops = args.ops if args.ops is not None else resilience.DEFAULT_OPS
        result = resilience.crash_recovery_campaign(
            n_trials=args.campaign,
            seed=args.seed,
            workload_name=args.workload,
            n_keys=n_keys,
            n_ops=n_ops,
        )
        all_ok = bool(result.raw.get("all_ok"))
        if args.json is not None:
            _emit_json(
                {
                    "experiment": result.experiment,
                    "headers": result.headers,
                    "rows": result.rows,
                    "all_ok": all_ok,
                },
                args.json,
            )
        else:
            print(result.render())
        return 0 if all_ok else 1

    if args.dir is None:
        print("recover: --dir (or --campaign N) is required", file=sys.stderr)
        return 2
    try:
        recovery = recover(args.dir)
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    if args.json is not None:
        _emit_json(recovery.to_dict(), args.json)
    else:
        print(recovery.summary())
    if not recovery.ok:
        print(
            f"recovered tree FAILED validation: {recovery.validation.summary()}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_workload(args) -> int:
    workload = make_workload(
        args.name,
        n_keys=args.keys,
        n_ops=args.ops,
        seed=args.seed,
        write_ratio=args.write_ratio,
    )
    save_workload(workload, args.out)
    print(f"wrote {workload.summary()} to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    from repro.harness.parallel import expand_grid, run_cells, summarise

    cells = expand_grid(
        engines=args.engines,
        workloads=args.workloads,
        seeds=args.seeds,
        n_keys=args.keys,
        n_ops=args.ops,
        write_ratio=args.write_ratio,
        op_skew=args.op_skew,
        collect_metrics=args.metrics is not None,
    )
    results = run_cells(cells, jobs=args.jobs)
    if args.metrics is not None:
        _emit_json(
            [
                {"cell": doc["cell"], "metrics": doc.get("metrics")}
                for doc in results
            ],
            args.metrics,
        )
    if args.json is not None:
        _emit_json({"jobs": args.jobs, "results": results}, args.json)
    else:
        header = ("engine", "workload", "seed", "Mops/s", "ms", "hit-rate")
        rows = [header] + summarise(results)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        for row in rows:
            print("  ".join(col.ljust(w) for col, w in zip(row, widths)))
    return 0


#: Default offered-load fractions for ``repro serve --load-sweep``.
SERVE_DEFAULT_LOADS = (0.25, 0.5, 0.75, 1.0, 1.5)


def _cmd_serve(args) -> int:
    import tempfile

    from repro.errors import ConfigError
    from repro.faults import FaultSchedule
    from repro.faults.schedule import CrashFault
    from repro.harness import resilience
    from repro.serve import ServeConfig, load_sweep

    n_keys = args.keys if args.keys is not None else resilience.DEFAULT_KEYS
    n_ops = args.ops if args.ops is not None else resilience.DEFAULT_OPS
    workload = make_workload(
        args.workload, n_keys=n_keys, n_ops=n_ops, seed=args.seed
    )
    accel_config = resilience.chaos_config(n_keys)

    overrides = {
        "arrival": args.arrival,
        "admission": args.admission,
        "slo_us": args.slo_us,
    }
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.deadline_us is not None:
        overrides["deadline_us"] = args.deadline_us
    if args.queue_capacity is not None:
        overrides["queue_capacity"] = args.queue_capacity
    try:
        serve_config = ServeConfig(**overrides)
        schedule = None
        durability_dir = None
        cluster_config = None
        if args.shards is not None:
            from repro.cluster import ClusterConfig

            cluster_config = ClusterConfig(
                n_shards=args.shards,
                replicas=args.replicas,
                partitioning=args.partitioning,
                rebalance=args.rebalance,
                seed=args.seed,
            )
        if args.fault == "shard-failstop":
            if cluster_config is None:
                raise ConfigError(
                    "--fault shard-failstop needs --shards (there is no "
                    "shard to kill on a single machine)"
                )
            schedule = FaultSchedule.fail_shards(
                1, args.seed, n_shards=args.shards,
                at_batch=args.fault_batch,
            )
        elif args.fault == "sou-failstop":
            schedule = FaultSchedule.fail_sous(
                2, args.seed, n_sous=accel_config.n_sous,
                at_batch=args.fault_batch,
            )
        elif args.fault == "crash":
            schedule = FaultSchedule(
                seed=args.seed,
                events=(
                    CrashFault(
                        args.fault_batch, "wal-pre-commit", args.seed % 1024
                    ),
                ),
            )
            durability_dir = (
                args.dir if args.dir is not None
                else tempfile.mkdtemp(prefix="dcart-serve-")
            )
        loads = (
            args.load_sweep if args.load_sweep is not None
            else list(SERVE_DEFAULT_LOADS)
        )
        report = load_sweep(
            workload,
            serve_config,
            loads,
            seed=args.seed,
            engine=args.engine,
            accel_config=accel_config,
            schedule=schedule,
            durability_dir=durability_dir,
            cluster_config=cluster_config,
        )
    except ConfigError as exc:
        print(f"bad serving setup: {exc}", file=sys.stderr)
        return 2

    if args.json is not None:
        _emit_json(report, args.json)
    else:
        knee = (
            f"knee at {report['knee_load']}x"
            if report["knee_load"] is not None
            else "knee below the lowest swept load"
        )
        print(
            f"{args.engine} on {workload.name}: closed-loop capacity "
            f"{report['capacity_ops_per_s'] / 1e6:.2f} Mops/s, "
            f"SLO {report['slo_us']:.1f} us, {knee}"
        )
        header = (
            "load", "p50 us", "p99 us", "goodput", "shed", "lost",
            "peak q", "crashes", "RTO cyc",
        )
        rows = [header]
        for row in report["rows"]:
            rows.append((
                f"{row['offered_load']:g}",
                f"{row['p50_us']:.1f}",
                f"{row['p99_us']:.1f}",
                f"{row['goodput_mops']:.2f}",
                str(row["shed_ops"]),
                str(row["lost_ops"]),
                str(row["queue_peak"]),
                str(row["crashes"]),
                "-" if row["rto_cycles"] is None else str(row["rto_cycles"]),
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for r in rows:
            print("  ".join(col.rjust(w) for col, w in zip(r, widths)))
        if durability_dir is not None:
            print(f"durable state under {durability_dir}")

    if args.fault != "none":
        recovered = any(
            row["fault_cycles"] and row["rto_cycles"] is not None
            for row in report["rows"]
        )
        if not recovered:
            print(
                "serve: tail latency never re-entered the SLO after the "
                "fault (no RTO)", file=sys.stderr,
            )
            return 1
    return 0


def _cmd_cluster(args) -> int:
    from repro.cluster import ClusterConfig, ClusterCoordinator
    from repro.errors import ConfigError, FaultError
    from repro.faults import FaultSchedule, ReplicationLinkSlowdown
    from repro.harness import resilience

    n_keys = args.keys if args.keys is not None else resilience.DEFAULT_KEYS
    n_ops = args.ops if args.ops is not None else resilience.DEFAULT_OPS
    try:
        workload = make_workload(
            args.workload, n_keys=n_keys, n_ops=n_ops, seed=args.seed
        )
        cluster_config = ClusterConfig(
            n_shards=args.shards,
            replicas=args.replicas,
            partitioning=args.partitioning,
            rebalance=args.rebalance,
            seed=args.seed,
        )
        schedule = None
        if args.fault == "shard-failstop":
            schedule = FaultSchedule.fail_shards(
                1, args.seed, n_shards=args.shards,
                at_batch=args.fault_batch,
            )
        elif args.fault == "replication-slowdown":
            schedule = FaultSchedule(
                seed=args.seed,
                events=(
                    ReplicationLinkSlowdown(
                        start_batch=args.fault_batch,
                        end_batch=args.fault_batch + 4,
                        shard_id=args.seed % args.shards,
                        factor=8.0,
                    ),
                ),
            )
        coordinator = ClusterCoordinator(
            workload,
            cluster_config,
            accel_config=resilience.chaos_config(n_keys),
            schedule=schedule,
        )
        report = coordinator.run(batch_size=args.batch_size)
        coordinator.validate_trees()
    except ConfigError as exc:
        print(f"bad cluster setup: {exc}", file=sys.stderr)
        return 2
    except FaultError as exc:
        print(f"cluster unrecoverable: {exc}", file=sys.stderr)
        return 1

    if args.json is not None:
        _emit_json(report, args.json)
    else:
        print(
            f"{args.shards}-shard {args.partitioning} cluster on "
            f"{workload.name}: {report['completed_ops']}/{report['n_ops']} "
            f"ops in {report['makespan_cycles']} cycles "
            f"({report['throughput_mops']:.2f} Mops/s)"
        )
        shares = (
            ("route", report["route_cycles"]),
            ("shards", report["shard_cycles"]),
            ("admin", report["admin_cycles"]),
        )
        makespan = max(1, report["makespan_cycles"])
        print("  " + ", ".join(
            f"{name} {cycles} cyc ({100 * cycles / makespan:.1f}%)"
            for name, cycles in shares
        ))
        for record in report["failovers"]:
            print(
                f"  failover shard {record['shard_id']}: died batch "
                f"{record['died_batch']}, RTO {record['rto_cycles']} cyc, "
                f"catch-up {record['catchup_ops']} ops, handoff "
                f"{record['handoff_ops']} ops"
            )
        migration = report["migration"]
        if migration["bucket_moves"]:
            print(
                f"  rebalanced {migration['bucket_moves']} buckets "
                f"({migration['keys_moved']} keys, "
                f"{migration['cycles']} cyc)"
            )

    if args.fault == "shard-failstop" and not report["failovers"]:
        print(
            "cluster: the fail-stopped shard never failed over",
            file=sys.stderr,
        )
        return 1
    if report["completed_ops"] != report["n_ops"]:
        print(
            f"cluster: {report['n_ops'] - report['completed_ops']} ops "
            "never completed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args) -> int:
    from repro.art.validate import validate_tree
    from repro.obs import Telemetry

    workload = make_workload(
        args.workload, n_keys=args.keys, n_ops=args.ops, seed=args.seed
    )
    engine = default_engines(args.keys, include=["DCART"])[0]
    telemetry = Telemetry.with_tracer()
    engine.telemetry = telemetry
    tree = engine.build_tree(workload)
    result = engine.run(workload, tree=tree)
    validation = validate_tree(tree)
    n_events = telemetry.tracer.write(args.out, stamp=not args.no_stamp)
    print(workload.summary())
    print(result.summary())
    print(telemetry.tracer.summary_table())
    print(f"wrote {n_events} trace events to {args.out}")
    if args.metrics is not None:
        _emit_json(telemetry.registry.as_dict(), args.metrics)
    if not validation.ok:
        print(f"tree validation FAILED: {validation.summary()}", file=sys.stderr)
        return 1
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import Telemetry

    workload = make_workload(
        args.workload, n_keys=args.keys, n_ops=args.ops, seed=args.seed
    )
    engine = default_engines(args.keys, include=[args.engine])[0]
    engine.telemetry = Telemetry()
    result = engine.run(workload)
    registry = engine.telemetry.registry
    if args.json is not None:
        _emit_json(registry.as_dict(), args.json)
    else:
        print(workload.summary())
        print(result.summary())
        if len(registry) == 0:
            print(f"(engine {args.engine} reports no metrics)")
        else:
            print(registry.render())
    return 0


def _cmd_bench(args) -> int:
    from repro.errors import ConfigError
    from repro.harness import benchmarking

    engines = args.engines or list(benchmarking.DEFAULT_BENCH_ENGINES)
    path = args.file
    if path is None:
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))),
            benchmarking.BENCH_FILENAME,
        )
    entry = benchmarking.run_bench(
        engines=engines, quick=args.quick, cache_dir=args.workload_cache,
        repeats=args.repeats,
    )
    print(benchmarking.format_entry(entry))
    status = 0
    # A corrupt/foreign trajectory file is a configuration problem, not
    # a crash: one line on stderr and exit 2 (the CLI's bad-input code).
    try:
        if args.check:
            history = benchmarking.load_trajectory(path)["history"]
            ok, messages = benchmarking.check_regression(entry, history)
            for line in messages:
                print(line)
            if not ok:
                print(
                    "bench: performance regression detected", file=sys.stderr
                )
                status = 1
        if args.record:
            benchmarking.append_entry(path, entry)
            print(f"recorded in {path}")
    except ConfigError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return status


def _cmd_campaign(args) -> int:
    from repro.errors import ConfigError
    from repro.experiments import campaign as campaign_mod
    from repro.experiments import report as report_mod
    from repro.experiments.spec import load_spec
    from repro.experiments.store import ResultStore, default_store_path
    from repro.harness import benchmarking

    # Spec problems (missing file, bad TOML, unknown engine) and store
    # problems (version skew, corrupt payload) are configuration errors:
    # one line on stderr, exit 2.
    try:
        spec = load_spec(args.spec)
    except ConfigError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2
    if args.no_stamp:
        sha, created = "unstamped", ""
    else:
        sha, created = benchmarking.git_sha(), benchmarking.utc_stamp()
    try:
        with ResultStore(args.store or default_store_path()) as store:
            if args.action == "run":
                summary = campaign_mod.run_campaign(
                    spec, store, git_sha=sha, mode=args.mode,
                    jobs=args.jobs, created_at=created,
                )
                print(
                    f"campaign {spec.name} [{summary['spec_hash']}] "
                    f"mode={args.mode}: {summary['total']} cells - "
                    f"{summary['reused']} reused, {summary['ran']} ran, "
                    f"{summary['failed']} failed"
                )
                if args.json:
                    _emit_json(summary, args.json)
                return 1 if summary["failed"] else 0
            if args.action == "status":
                status = campaign_mod.campaign_status(
                    spec, store, git_sha=sha, mode=args.mode
                )
                print(
                    f"campaign {spec.name} [{status['spec_hash']}] "
                    f"mode={args.mode}: {status['ok']}/{status['total']} ok, "
                    f"{status['error']} failed, {status['pending']} pending"
                )
                if args.json:
                    _emit_json(status, args.json)
                return 0 if status["complete"] else 1
            doc = report_mod.build_report(
                spec, store, git_sha=sha, mode=args.mode, created_at=created
            )
            markdown = report_mod.render_markdown(doc)
            if args.md:
                with open(args.md, "w") as handle:
                    handle.write(markdown)
                print(f"wrote Markdown report to {args.md}")
            else:
                print(markdown, end="")
            if args.html:
                with open(args.html, "w") as handle:
                    handle.write(report_mod.render_html(doc))
                print(f"wrote HTML report to {args.html}")
            if args.json:
                _emit_json(doc, args.json)
            return 0 if doc["complete"] else 1
    except ConfigError as exc:
        print(f"campaign: {exc}", file=sys.stderr)
        return 2


def _cmd_lint(args) -> int:
    from repro.analysis import reprolint

    paths = args.paths
    package_root = os.path.dirname(os.path.abspath(__file__))
    if not paths:
        paths = [package_root]
    pyproject = args.pyproject
    if pyproject is None:
        # src/repro -> src -> repo root
        candidate = os.path.join(
            os.path.dirname(os.path.dirname(package_root)), "pyproject.toml"
        )
        if os.path.isfile(candidate):
            pyproject = candidate
    cache = args.cache
    if cache is None and not args.no_cache:
        cache_root = os.path.dirname(pyproject) if pyproject else os.getcwd()
        cache = os.path.join(cache_root, ".reprolint-cache.json")
    if args.no_cache:
        cache = None
    return reprolint.main(
        paths,
        pyproject=pyproject,
        json_out=args.json,
        list_rules=args.list_rules,
        sarif_out=args.sarif,
        cache=cache,
        update_schemas=args.update_schemas,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.log_level is not None:
        from repro.log import configure

        try:
            configure(args.log_level)
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "workload":
        return _cmd_workload(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "recover":
        return _cmd_recover(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "lint":
        return _cmd_lint(args)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
