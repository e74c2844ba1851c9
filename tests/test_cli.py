"""Tests for the command-line interface."""

import glob
import json
import os

import pytest

from repro.cli import main


class TestRunCommand:
    def test_run_prints_summary(self, capsys):
        code = main([
            "run", "--engine", "DCART", "--workload", "DE",
            "--keys", "500", "--ops", "1000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "DCART" in out and "DE" in out
        assert "Mops/s" in out

    def test_run_json_output(self, capsys):
        code = main([
            "run", "--engine", "SMART", "--workload", "RS",
            "--keys", "400", "--ops", "800", "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["engine"] == "SMART"
        assert data["n_ops"] == 800

    def test_write_ratio_flag(self, capsys):
        main([
            "run", "--engine", "ART", "--workload", "DE",
            "--keys", "400", "--ops", "800", "--write-ratio", "0.0", "--json",
        ])
        data = json.loads(capsys.readouterr().out)
        assert data["lock_contentions"] == 0

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--engine", "BTREE"])


class TestWorkloadCommand:
    def test_generate_and_replay(self, capsys, tmp_path):
        path = str(tmp_path / "wl.jsonl")
        assert main([
            "workload", "--name", "DICT", "--keys", "400",
            "--ops", "800", "--out", path,
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main([
            "run", "--engine", "DCART", "--replay", path, "--json",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "DICT"
        assert data["n_ops"] == 800


class TestChaosCommand:
    ARGS = ["chaos", "--keys", "800", "--ops", "6000", "--seed", "1"]

    def test_healthy_chaos_run(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "0/16 SOUs failed" in out
        assert "schedule signature:" in out

    def test_fail_sous_graceful(self, capsys):
        assert main(self.ARGS + ["--fail-sous", "4"]) == 0
        out = capsys.readouterr().out
        assert "4/16 SOUs failed" in out
        assert "validated" in out

    def test_json_output(self, capsys):
        assert main(self.ARGS + ["--fail-sous", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_failed"] == 2
        assert data["tree_valid"] is True
        assert data["graceful"] is True
        assert data["result"]["engine"] == "DCART"
        assert len(data["schedule_signature"]) == 64

    def test_mixed_faults(self, capsys):
        assert main(self.ARGS + [
            "--fail-sous", "2", "--corrupt-shortcuts", "64",
            "--storm", "0.5", "--throttle", "0.5",
        ]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out  # schedule description lists the event

    def test_bad_scenario_exits_2(self, capsys):
        assert main(self.ARGS + ["--fail-sous", "16"]) == 2
        assert "bad chaos scenario" in capsys.readouterr().err

    def test_zero_throttle_runs_as_blackout(self, capsys):
        # --throttle 0.0 is a legal full HBM blackout: the run completes
        # (every off-chip line priced at the blackout cost) instead of
        # dying on a division by zero.
        assert main(self.ARGS + ["--throttle", "0.0"]) in (0, 1)
        out = capsys.readouterr().out
        assert "validated" in out

    def test_negative_throttle_rejected(self, capsys):
        # --throttle outside [0, 1] is a schedule error, not a crash.
        assert main(self.ARGS + ["--throttle", "-0.5"]) == 2

    def test_sweep_renders_curve(self, capsys):
        assert main([
            "chaos", "--keys", "600", "--ops", "4000", "--sweep",
        ]) == 0
        out = capsys.readouterr().out
        assert "degradation" in out
        assert "failed SOUs" in out

    def test_sweep_json_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "curve.json")
        assert main([
            "chaos", "--keys", "600", "--ops", "4000", "--sweep",
            "--json", path,
        ]) == 0
        assert "wrote JSON to" in capsys.readouterr().out
        with open(path) as handle:
            data = json.load(handle)
        assert data["all_graceful"] is True
        assert data["headers"][0] == "failed SOUs"
        assert len(data["rows"]) == 16

    def test_json_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "chaos.json")
        assert main(self.ARGS + ["--fail-sous", "2", "--json", path]) == 0
        with open(path) as handle:
            data = json.load(handle)
        assert data["n_failed"] == 2

    def test_log_level_flag_accepted(self, capsys):
        from repro.log import reset

        try:
            assert main(["--log-level", "WARNING"] + self.ARGS) == 0
        finally:
            reset()

    def test_bad_log_level_exits_2(self, capsys):
        assert main(["--log-level", "CHATTY"] + self.ARGS) == 2
        assert "unknown log level: CHATTY" in capsys.readouterr().err


class TestDurabilityCommands:
    CKPT = ["checkpoint", "--workload", "DE", "--keys", "600",
            "--ops", "4000", "--every", "2"]

    def test_checkpoint_then_recover(self, capsys, tmp_path):
        directory = str(tmp_path / "state")
        assert main(self.CKPT + ["--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "durable state in" in out
        assert "wal_bytes" in out

        assert main(["recover", "--dir", directory]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out and "OK" in out

    def test_checkpoint_json(self, capsys, tmp_path):
        directory = str(tmp_path / "state")
        assert main(self.CKPT + ["--dir", directory, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tree_valid"] is True
        assert data["durability"]["checkpoints_written"] >= 1
        assert data["durability"]["wal_batches_logged"] >= 1

    def test_recover_json_report(self, capsys, tmp_path):
        directory = str(tmp_path / "state")
        assert main(self.CKPT + ["--dir", directory]) == 0
        capsys.readouterr()
        assert main(["recover", "--dir", directory, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["validation_ok"] is True
        assert data["n_keys"] > 0
        assert data["wal_torn"] is False

    def test_recover_empty_directory_fails(self, capsys, tmp_path):
        assert main(["recover", "--dir", str(tmp_path / "nothing")]) == 1
        assert "recovery failed" in capsys.readouterr().err

    @staticmethod
    def _truncate(path):
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[: max(1, len(data) // 3)])

    def test_recover_skips_a_truncated_manifest(self, capsys, tmp_path):
        """A torn newest manifest falls back to the previous checkpoint
        plus WAL replay — exit 0, not a crash."""
        directory = str(tmp_path / "state")
        assert main(self.CKPT + ["--dir", directory]) == 0
        capsys.readouterr()
        manifests = sorted(glob.glob(os.path.join(directory, "ckpt-*.json")))
        assert len(manifests) >= 2
        self._truncate(manifests[-1])
        assert main(["recover", "--dir", directory, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["validation_ok"] is True
        assert data["n_keys"] > 0

    def test_recover_unrecoverable_state_exits_1_with_diagnostic(
        self, capsys, tmp_path
    ):
        """Every manifest truncated and the WAL gone: a clean non-zero
        exit and a 'recovery failed:' line on stderr, never a traceback."""
        directory = str(tmp_path / "state")
        assert main(self.CKPT + ["--dir", directory]) == 0
        capsys.readouterr()
        for manifest in glob.glob(os.path.join(directory, "ckpt-*.json")):
            self._truncate(manifest)
        os.remove(os.path.join(directory, "wal.log"))
        assert main(["recover", "--dir", directory]) == 1
        err = capsys.readouterr().err
        assert "recovery failed:" in err
        assert "Traceback" not in err

    def test_recover_needs_dir_or_campaign(self, capsys):
        assert main(["recover"]) == 2
        assert "--dir" in capsys.readouterr().err

    def test_serve_table_reports_capacity_and_knee(self, capsys):
        assert main([
            "serve", "--keys", "800", "--ops", "4000",
            "--batch-size", "256", "--load-sweep", "0.5", "1.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "closed-loop capacity" in out
        assert "p99 us" in out and "RTO cyc" in out

    def test_serve_json_report_schema(self, capsys, tmp_path):
        path = str(tmp_path / "serve.json")
        assert main([
            "serve", "--keys", "800", "--ops", "4000",
            "--batch-size", "256", "--load-sweep", "0.5",
            "--json", path,
        ]) == 0
        with open(path) as handle:
            data = json.load(handle)
        assert data["schema"] == "serve-sweep/v1"
        assert len(data["rows"]) == 1
        assert data["rows"][0]["completed_ops"] > 0

    def test_serve_crash_fault_reports_rto(self, capsys, tmp_path):
        path = str(tmp_path / "crash.json")
        assert main([
            "serve", "--keys", "1000", "--ops", "40000",
            "--batch-size", "1024", "--queue-capacity", "2048",
            "--slo-us", "300", "--load-sweep", "0.1",
            "--fault", "crash", "--dir", str(tmp_path / "durable"),
            "--json", path,
        ]) == 0
        with open(path) as handle:
            data = json.load(handle)
        (row,) = data["rows"]
        assert row["crashes"] == 1
        assert row["rto_cycles"] is not None and row["rto_cycles"] > 0
        assert data["fault_schedule_signature"] is not None

    def test_serve_bad_load_exits_2(self, capsys):
        assert main([
            "serve", "--keys", "600", "--ops", "1000",
            "--load-sweep", "-1.0",
        ]) == 2
        assert "bad serving setup" in capsys.readouterr().err

    def test_bad_checkpoint_interval_exits_2(self, capsys, tmp_path):
        assert main(self.CKPT[:-1] + ["0", "--dir", str(tmp_path)]) == 2
        assert "bad durability setup" in capsys.readouterr().err

    def test_checkpoint_dir_that_is_a_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"")
        assert main(self.CKPT + ["--dir", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bad durability setup:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_recover_corrupt_wal_names_the_damage(self, capsys, tmp_path):
        (tmp_path / "wal.log").write_bytes(b"garbage")
        assert main(["recover", "--dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "recovery failed:" in err
        assert "WAL unusable: bad file magic" in err

    def test_campaign(self, capsys):
        assert main([
            "recover", "--campaign", "2", "--seed", "3",
            "--keys", "800", "--ops", "6000",
        ]) == 0
        out = capsys.readouterr().out
        assert "crash/recover/validate" in out
        assert "EXACT" in out


class TestFiguresCommand:
    def test_table1_only(self, capsys):
        assert main(["figures", "--only", "table1"]) == 0
        out = capsys.readouterr().out
        assert "16 x SOUs" in out

    def test_figure_with_save(self, capsys, tmp_path):
        from repro.harness import experiments

        experiments.clear_cache()
        save_dir = str(tmp_path / "figs")
        assert main([
            "figures", "--only", "fig3", "--keys", "1000",
            "--ops", "3000", "--save", save_dir,
        ]) == 0
        out = capsys.readouterr().out
        assert "Fig. 3" in out
        assert (tmp_path / "figs" / "fig3.txt").exists()
        assert (tmp_path / "figs" / "fig3.csv").exists()
        assert (tmp_path / "figs" / "fig3.json").exists()
        experiments.clear_cache()


class TestSweepCommand:
    def test_table_output(self, capsys):
        assert main([
            "sweep", "--engines", "ART", "DCART", "--seeds", "1",
            "--keys", "400", "--ops", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine" in out and "Mops/s" in out
        assert "ART" in out and "DCART" in out

    def test_jobs_parallel_matches_serial_json(self, capsys, tmp_path):
        common = [
            "sweep", "--engines", "ART", "DCART", "--seeds", "1", "2",
            "--keys", "400", "--ops", "1000",
        ]
        serial_path = str(tmp_path / "serial.json")
        pooled_path = str(tmp_path / "pooled.json")
        assert main(common + ["--jobs", "1", "--json", serial_path]) == 0
        assert main(common + ["--jobs", "2", "--json", pooled_path]) == 0
        capsys.readouterr()
        with open(serial_path) as handle:
            serial = json.load(handle)
        with open(pooled_path) as handle:
            pooled = json.load(handle)
        assert serial["jobs"] == 1 and pooled["jobs"] == 2
        assert serial["results"] == pooled["results"]


class TestTraceCommand:
    ARGS = ["trace", "IPGEO", "--keys", "500", "--ops", "2000"]

    def test_writes_chrome_loadable_json(self, capsys, tmp_path):
        path = str(tmp_path / "trace.json")
        assert main(self.ARGS + ["--out", path]) == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "batch timeline" in out
        with open(path) as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases <= {"X", "M"}
        assert any(e["ph"] == "X" for e in events)
        # Every complete event carries the trace_event complete schema.
        for event in events:
            if event["ph"] == "X":
                assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)

    def test_no_stamp_is_deterministic(self, capsys, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        assert main(self.ARGS + ["--out", a, "--no-stamp"]) == 0
        assert main(self.ARGS + ["--out", b, "--no-stamp"]) == 0
        capsys.readouterr()
        with open(a) as ha, open(b) as hb:
            assert json.load(ha) == json.load(hb)

    def test_metrics_sidecar(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        assert main(self.ARGS + ["--out", trace, "--metrics", metrics]) == 0
        with open(metrics) as handle:
            doc = json.load(handle)
        assert "pcu.total_cycles" in doc["counters"]


class TestStatsCommand:
    def test_table_output(self, capsys):
        assert main([
            "stats", "--workload", "RS", "--keys", "400", "--ops", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "pcu.total_cycles" in out
        assert "counter" in out and "gauge" in out

    def test_json_output(self, capsys):
        assert main([
            "stats", "--workload", "RS", "--keys", "400", "--ops", "1000",
            "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["pcu.total_ops"] == 1000

    def test_cpu_engine_stats(self, capsys):
        assert main([
            "stats", "--engine", "ART", "--keys", "400", "--ops", "1000",
            "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counters"]["llc.hits"] > 0


class TestMetricsFlag:
    def test_run_metrics_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.json")
        assert main([
            "run", "--engine", "DCART", "--workload", "DE",
            "--keys", "400", "--ops", "1000", "--metrics", path,
        ]) == 0
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["counters"]["run.batches"] >= 1

    def test_sweep_metrics_to_file(self, capsys, tmp_path):
        path = str(tmp_path / "metrics.json")
        assert main([
            "sweep", "--engines", "DCART", "--seeds", "1",
            "--keys", "400", "--ops", "1000", "--metrics", path,
        ]) == 0
        with open(path) as handle:
            docs = json.load(handle)
        assert all("cell" in doc and doc["metrics"] for doc in docs)


class TestBenchCommand:
    def test_quick_bench_records_and_checks(self, capsys, tmp_path, monkeypatch):
        from repro.harness import benchmarking

        monkeypatch.setattr(
            benchmarking, "QUICK_SPEC",
            {"name": "IPGEO", "n_keys": 400, "n_ops": 1000,
             "seed": 5, "op_skew": 0.99},
        )
        path = str(tmp_path / "BENCH_speed.json")
        assert main([
            "bench", "--quick", "--engines", "DCART",
            "--record", "--check", "--file", path,
        ]) == 0
        out = capsys.readouterr().out
        assert "sim-ops/s" in out
        assert "no quick baseline" in out
        assert f"recorded in {path}" in out
        doc = benchmarking.load_trajectory(path)
        assert len(doc["history"]) == 1
        assert doc["history"][0]["mode"] == "quick"

    def test_check_fails_on_regression(self, capsys, tmp_path, monkeypatch):
        from repro.harness import benchmarking

        monkeypatch.setattr(
            benchmarking, "QUICK_SPEC",
            {"name": "IPGEO", "n_keys": 400, "n_ops": 1000,
             "seed": 5, "op_skew": 0.99},
        )
        path = str(tmp_path / "BENCH_speed.json")
        impossible = {
            "git_sha": "f" * 40,
            "timestamp": "2026-08-06T00:00:00Z",
            "mode": "quick",
            "workload": dict(benchmarking.QUICK_SPEC),
            "engines": {"DCART": {
                "sim_ops_per_sec": 1e12, "wall_seconds": 1e-9,
                "peak_rss_bytes": 1, "sim_throughput_mops": 1.0,
            }},
        }
        benchmarking.append_entry(path, impossible)
        assert main([
            "bench", "--quick", "--engines", "DCART",
            "--check", "--file", path,
        ]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regression detected" in captured.err

class TestCampaignCommand:
    def _write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "cli-smoke", "engines": ["ART", "DCART"],
            "workloads": ["IPGEO"], "seeds": [1],
            "n_keys": 400, "n_ops": 1000,
        }))
        return str(path)

    def test_run_resume_and_report(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        store = str(tmp_path / "c.db")
        base = ["campaign", "run", "--spec", spec, "--store", store,
                "--mode", "smoke", "--no-stamp"]
        assert main(base) == 0
        assert "2 ran" in capsys.readouterr().out
        # Second invocation: every cell reused, zero re-simulation.
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "2 reused" in out and "0 ran" in out

        assert main(["campaign", "status", "--spec", spec, "--store",
                     store, "--mode", "smoke", "--no-stamp"]) == 0
        assert "2/2 ok" in capsys.readouterr().out

        md_path = str(tmp_path / "report.md")
        html_path = str(tmp_path / "report.html")
        assert main(["campaign", "report", "--spec", spec, "--store",
                     store, "--mode", "smoke", "--no-stamp",
                     "--md", md_path, "--html", html_path]) == 0
        with open(md_path) as fh:
            md = fh.read()
        assert md.startswith("<!-- GENERATED FILE")
        assert "| DCART " in md
        with open(html_path) as fh:
            assert "<table>" in fh.read()

    def test_report_is_byte_deterministic_under_no_stamp(
        self, capsys, tmp_path
    ):
        spec = self._write_spec(tmp_path)
        store = str(tmp_path / "c.db")
        assert main(["campaign", "run", "--spec", spec, "--store", store,
                     "--no-stamp"]) == 0
        capsys.readouterr()
        texts = []
        for path in ("a.md", "b.md"):
            out = str(tmp_path / path)
            assert main(["campaign", "report", "--spec", spec, "--store",
                         store, "--no-stamp", "--md", out]) == 0
            with open(out) as fh:
                texts.append(fh.read())
        assert texts[0] == texts[1]

    def test_missing_spec_exits_2_one_line(self, capsys, tmp_path):
        assert main(["campaign", "run", "--spec",
                     str(tmp_path / "absent.json")]) == 2
        err = capsys.readouterr().err
        assert "not found" in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_spec_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "x", "engines": ["BTREE"], "workloads": ["IPGEO"],
            "seeds": [1],
        }))
        assert main(["campaign", "run", "--spec", str(path)]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_incomplete_campaign_status_exits_1(self, capsys, tmp_path):
        spec = self._write_spec(tmp_path)
        assert main(["campaign", "status", "--spec", spec, "--store",
                     str(tmp_path / "c.db"), "--no-stamp"]) == 1
        assert "2 pending" in capsys.readouterr().out


class TestBenchCorruptTrajectory:
    def test_check_on_corrupt_trajectory_exits_2_one_line(
        self, capsys, tmp_path, monkeypatch
    ):
        # A torn trajectory file is a configuration problem: one line on
        # stderr and exit code 2, never a JSONDecodeError traceback.
        from repro.harness import benchmarking

        monkeypatch.setattr(
            benchmarking, "QUICK_SPEC",
            {"name": "IPGEO", "n_keys": 400, "n_ops": 1000,
             "seed": 5, "op_skew": 0.99},
        )
        path = tmp_path / "BENCH_speed.json"
        path.write_text('{"schema": 1, "history": [{"git_sha": "tor')
        assert main([
            "bench", "--quick", "--engines", "DCART",
            "--check", "--file", str(path),
        ]) == 2
        captured = capsys.readouterr()
        assert "not valid JSON" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
