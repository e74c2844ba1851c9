"""Campaign runner: grid expansion, resume-from-store, kill-and-resume.

The resume contract is the platform's whole point, so it gets the full
adversarial treatment: a campaign killed mid-grid (worker raising
KeyboardInterrupt, exactly what Ctrl-C does) must, on restart, re-run
*only* the unfinished cells and end with a store byte-identical to an
uninterrupted run's.  Workers here are injected fakes — deterministic
documents derived from the cell value — so the suite exercises the
machinery, not the simulator; one real-simulation smoke cell at the end
keeps the integration honest.
"""

import hashlib

import pytest

import repro.workloads
from repro.engines.base import Engine
from repro.errors import ConfigError
from repro.experiments.campaign import (
    ENGINE_PLATFORM_KIND,
    CampaignCell,
    campaign_status,
    expand_spec,
    run_campaign,
    run_campaign_cell,
)
from repro.experiments.spec import KNOWN_ENGINES, CampaignSpec
from repro.experiments.store import ResultStore
from repro.harness.runner import ENGINE_ORDER


def _spec(**overrides):
    base = dict(
        name="camp-test",
        engines=("ART", "DCART"),
        workloads=("IPGEO", "DICT"),
        seeds=(1, 2),
        n_keys=500,
        n_ops=2_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def _fake_worker(cell, shared=None):
    """Deterministic stand-in for a simulation run."""
    return {
        "cell": {"engine": cell.engine, "workload": cell.workload,
                 "seed": cell.seed, "fault": cell.fault},
        "throughput_mops": float(cell.seed) * (
            10.0 if cell.engine == "DCART" else 1.0
        ),
        "energy_joules": 0.01,
        "latency": {"p99_us": 40.0},
    }


class TestExpandSpec:
    def test_grid_order_and_keys(self):
        cells = expand_spec(_spec(seeds=(1,), workloads=("IPGEO",)))
        assert [c.key() for c in cells] == [
            "ART/IPGEO/seed=1/none",
            "DCART/IPGEO/seed=1/none",
        ]

    def test_fault_dimension_multiplies(self):
        spec = _spec(engines=("DCART",), workloads=("IPGEO",),
                     faults=("none", "sou-failstop:2"))
        keys = [c.key() for c in expand_spec(spec)]
        assert keys == [
            "DCART/IPGEO/seed=1/none",
            "DCART/IPGEO/seed=2/none",
            "DCART/IPGEO/seed=1/sou-failstop:2",
            "DCART/IPGEO/seed=2/sou-failstop:2",
        ]

    def test_cells_inherit_spec_scale(self):
        cell = expand_spec(_spec(n_keys=777, op_skew=1.3))[0]
        assert cell.n_keys == 777
        assert cell.op_skew == 1.3

    def test_every_known_engine_has_a_platform_kind(self):
        assert set(KNOWN_ENGINES) == set(ENGINE_PLATFORM_KIND)


class TestRunAndResume:
    def test_second_run_reuses_every_cell(self, tmp_path):
        spec = _spec()
        with ResultStore(str(tmp_path / "c.db")) as store:
            first = run_campaign(spec, store, git_sha="unstamped",
                                 worker=_fake_worker)
            assert first["ran"] == 8 and first["reused"] == 0
            second = run_campaign(spec, store, git_sha="unstamped",
                                  worker=_fake_worker)
            assert second["ran"] == 0 and second["reused"] == 8
            assert second["failed"] == 0

    def test_status_reports_pending(self, tmp_path):
        spec = _spec(seeds=(1,))
        with ResultStore(str(tmp_path / "c.db")) as store:
            status = campaign_status(spec, store, git_sha="unstamped")
            assert status["pending"] == 4 and not status["complete"]
            run_campaign(spec, store, git_sha="unstamped",
                         worker=_fake_worker)
            status = campaign_status(spec, store, git_sha="unstamped")
            assert status["complete"] and status["ok"] == 4

    def test_failed_cells_are_recorded_and_retried_on_resume(
        self, tmp_path
    ):
        spec = _spec(seeds=(1,), workloads=("IPGEO",))

        def flaky(cell, shared):
            if cell.engine == "DCART":
                raise ValueError("transient")
            return _fake_worker(cell)

        with ResultStore(str(tmp_path / "c.db")) as store:
            first = run_campaign(spec, store, git_sha="unstamped",
                                 worker=flaky)
            assert first["ran"] == 2 and first["failed"] == 1
            # The failure is stored (status=error), visible in status...
            status = campaign_status(spec, store, git_sha="unstamped")
            assert status["error"] == 1 and status["pending"] == 1
            # ...and a re-run retries exactly that cell.
            second = run_campaign(spec, store, git_sha="unstamped",
                                  worker=_fake_worker)
            assert second["reused"] == 1 and second["ran"] == 1
            assert second["failed"] == 0

    def test_killed_campaign_resumes_bit_for_bit(self, tmp_path):
        """Kill mid-grid, restart, and the final store must equal an
        uninterrupted run's byte-for-byte — with zero completed cells
        re-simulated."""
        spec = _spec()  # 8 cells
        kill_after = 3
        progress = {"n": 0}

        def killer(cell, shared):
            if progress["n"] >= kill_after:
                raise KeyboardInterrupt  # Ctrl-C mid-campaign
            progress["n"] += 1
            return _fake_worker(cell)

        interrupted = str(tmp_path / "interrupted.db")
        with ResultStore(interrupted) as store:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(spec, store, git_sha="unstamped",
                             worker=killer)
        # The kill landed between cells: exactly the committed prefix
        # survives.
        with ResultStore(interrupted) as store:
            h = spec.content_hash()
            done = store.completed_keys(h, "unstamped", "full")
            assert len(done) == kill_after

            ran_keys = []

            def counting(cell, shared):
                ran_keys.append(cell.key())
                return _fake_worker(cell)

            summary = run_campaign(spec, store, git_sha="unstamped",
                                   worker=counting)
            # Completed cells were not re-run...
            assert summary["reused"] == kill_after
            assert summary["ran"] == 8 - kill_after
            assert not (set(ran_keys) & done)
            resumed_dump = store.dump(h, "unstamped", "full")

        # ...and the merged store equals the uninterrupted run's, down
        # to the byte.
        clean = str(tmp_path / "clean.db")
        with ResultStore(clean) as store:
            run_campaign(spec, store, git_sha="unstamped",
                         worker=_fake_worker)
            assert store.dump(h, "unstamped", "full") == resumed_dump

    def test_duplicate_grid_rejected_by_spec(self):
        with pytest.raises(ConfigError):
            _spec(engines=("ART", "ART"))


class TestRealCellExecution:
    """One real simulated cell per path (healthy / fault / power)."""

    def test_healthy_cell_document_shape(self):
        doc = run_campaign_cell(CampaignCell(
            engine="DCART", workload="IPGEO", seed=1,
            n_keys=400, n_ops=1_000,
        ))
        assert doc["cell"]["engine"] == "DCART"
        assert doc["cell"]["platform_kind"] == "fpga"
        assert doc["cell"]["tree_valid"] is None  # no fault, no oracle
        assert doc["throughput_mops"] > 0
        assert doc["energy_joules"] > 0

    def test_fault_cell_runs_and_validates_tree(self):
        doc = run_campaign_cell(CampaignCell(
            engine="DCART", workload="IPGEO", seed=1,
            fault="sou-failstop:2", n_keys=400, n_ops=1_000,
        ))
        assert doc["cell"]["fault"] == "sou-failstop:2"
        assert doc["cell"]["tree_valid"] is True
        assert doc["throughput_mops"] > 0

    @staticmethod
    def _ipgeo_cell(fault, n_keys, n_ops):
        return run_campaign_cell(CampaignCell(
            engine="DCART", workload="IPGEO", seed=1, fault=fault,
            n_keys=n_keys, n_ops=n_ops,
        ))

    def test_fault_cell_runs_the_healthy_cells_dcart(self):
        # faults.toml scale: a fault may only cost throughput (a fault
        # cell on its own smaller-batch config once read 83.06 Mops/s
        # here against the healthy 65.50).
        healthy = self._ipgeo_cell("none", 2_000, 20_000)
        faulted = self._ipgeo_cell("sou-failstop:2", 2_000, 20_000)
        assert faulted["cell"]["tree_valid"] is True
        assert faulted["throughput_mops"] <= healthy["throughput_mops"]

    def test_one_batch_throttle_fires(self):
        # 1,000 ops is one batch; the throttle window must still cover
        # it rather than start at a batch that never runs.
        healthy = self._ipgeo_cell("none", 500, 1_000)
        throttled = self._ipgeo_cell("hbm-throttle:0.0001", 500, 1_000)
        assert throttled["elapsed_seconds"] > healthy["elapsed_seconds"]

    def test_power_override_rescales_energy_exactly(self):
        base = run_campaign_cell(CampaignCell(
            engine="DCART", workload="IPGEO", seed=1,
            n_keys=400, n_ops=1_000,
        ))
        doubled = run_campaign_cell(CampaignCell(
            engine="DCART", workload="IPGEO", seed=1,
            n_keys=400, n_ops=1_000,
            power=(135.0, 165.0, 84.0),  # fpga 42 W -> 84 W
        ))
        assert doubled["energy_joules"] == pytest.approx(
            2.0 * base["energy_joules"]
        )
        assert doubled["cell"]["platform_watts"] == 84.0
        # Energy is the only number the power dimension may touch.
        assert doubled["throughput_mops"] == base["throughput_mops"]


class TestGroups:
    """Cells sharing a seeded workload run as one group: the workload is
    generated once and the operation-centric baselines price one walk."""

    #: sha256 of the store dump this spec produced when every cell ran
    #: alone (workload, tree and walk rebuilt per cell).
    PINNED_DUMP = (
        "6235dfd7be1102cc9cdfa5cbc1e84dc58c1d3b870b666731c723249f0302b264"
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_grouped_store_matches_the_per_cell_store(self, tmp_path, jobs):
        spec = CampaignSpec(
            name="group-pin",
            engines=ENGINE_ORDER,
            workloads=("IPGEO", "RS"),
            seeds=(1, 2),
            n_keys=500,
            n_ops=3_000,
            write_ratio=0.4,
        )
        with ResultStore(str(tmp_path / "c.db")) as store:
            run_campaign(spec, store, git_sha="unstamped", jobs=jobs)
            dump = store.dump(spec.content_hash(), "unstamped", "full")
        assert hashlib.sha256(dump.encode()).hexdigest() == self.PINNED_DUMP

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"make_workload": 0, "collect_records": 0}
        make_workload = repro.workloads.make_workload
        collect_records = Engine.collect_records

        def counting_make_workload(*args, **kwargs):
            calls["make_workload"] += 1
            return make_workload(*args, **kwargs)

        def counting_collect_records(tree, workload):
            calls["collect_records"] += 1
            return collect_records(tree, workload)

        monkeypatch.setattr(repro.workloads, "make_workload",
                            counting_make_workload)
        monkeypatch.setattr(Engine, "collect_records",
                            staticmethod(counting_collect_records))
        return calls

    def test_cold_run_walks_each_group_once(self, tmp_path, monkeypatch):
        spec = _spec(engines=ENGINE_ORDER, workloads=("IPGEO", "RS"),
                     seeds=(1,), n_keys=300, n_ops=1_500)
        calls = self._count_calls(monkeypatch)
        with ResultStore(str(tmp_path / "c.db")) as store:
            summary = run_campaign(spec, store, git_sha="unstamped")
        assert summary["ran"] == 12 and summary["failed"] == 0
        assert calls == {"make_workload": 2, "collect_records": 2}

    def test_resumed_dcart_only_group_collects_no_records(
        self, tmp_path, monkeypatch
    ):
        spec = _spec(engines=ENGINE_ORDER, workloads=("IPGEO",),
                     seeds=(1,), n_keys=300, n_ops=1_500)

        def all_but_dcart(cell, shared):
            if cell.engine == "DCART":
                raise KeyboardInterrupt  # killed before its last cell
            return run_campaign_cell(cell, shared)

        with ResultStore(str(tmp_path / "c.db")) as store:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(spec, store, git_sha="unstamped",
                             worker=all_but_dcart)
            calls = self._count_calls(monkeypatch)
            summary = run_campaign(spec, store, git_sha="unstamped")
        assert summary["reused"] == 5 and summary["ran"] == 1
        assert summary["failed"] == 0
        assert calls == {"make_workload": 1, "collect_records": 0}
