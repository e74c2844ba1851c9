"""Report generator: best-of-N folding, significance, determinism."""

import pytest

from repro.errors import ConfigError
from repro.experiments.campaign import run_campaign
from repro.experiments.report import (
    GENERATED_BANNER,
    build_report,
    render_html,
    render_markdown,
)
from repro.experiments.spec import CampaignSpec
from repro.experiments.store import ResultStore


def _spec(**overrides):
    base = dict(
        name="report-test",
        engines=("ART", "DCART"),
        workloads=("IPGEO",),
        seeds=(1, 2, 3, 4, 5),
        n_keys=500,
        n_ops=2_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def _worker(cell, shared=None):
    # DCART decisively faster across every seed; ART's best at seed 5.
    rate = {
        "ART": {1: 1.0, 2: 1.2, 3: 1.1, 4: 1.3, 5: 1.4},
        "DCART": {1: 50.0, 2: 52.0, 3: 51.0, 4: 53.0, 5: 49.0},
    }[cell.engine][cell.seed]
    return {
        "cell": {"engine": cell.engine, "seed": cell.seed},
        "throughput_mops": rate,
        "energy_joules": 0.5 / rate,
        "latency": {"p99_us": 100.0 / rate},
    }


@pytest.fixture()
def populated(tmp_path):
    spec = _spec()
    store = ResultStore(str(tmp_path / "c.db"))
    run_campaign(spec, store, git_sha="unstamped", worker=_worker)
    yield spec, store
    store.close()


class TestBuildReport:
    def test_best_of_n_and_seed_attribution(self, populated):
        spec, store = populated
        doc = build_report(spec, store, git_sha="unstamped")
        assert doc["schema"] == "campaign-report/v1"
        assert doc["complete"]
        by_engine = {row["engine"]: row for row in doc["rows"]}
        assert by_engine["ART"]["best_throughput_mops"] == 1.4
        assert by_engine["ART"]["best_seed"] == 5
        assert by_engine["ART"]["median_throughput_mops"] == 1.2
        assert by_engine["ART"]["n"] == 5
        assert by_engine["ART"]["seeds"] == [1, 2, 3, 4, 5]

    def test_significance_against_baseline(self, populated):
        spec, store = populated
        doc = build_report(spec, store, git_sha="unstamped")
        by_engine = {row["engine"]: row for row in doc["rows"]}
        assert by_engine["ART"]["vs_baseline"] is None  # is the baseline
        vs = by_engine["DCART"]["vs_baseline"]
        assert vs["significant"] is True  # 5 vs 5, full separation
        assert vs["p"] < 0.05
        assert vs["speedup_median"] == pytest.approx(51.0 / 1.2)

    def test_missing_cells_flag_incomplete(self, tmp_path):
        spec = _spec(seeds=(1, 2))
        with ResultStore(str(tmp_path / "c.db")) as store:
            store.register_campaign(spec)
            doc = build_report(spec, store, git_sha="unstamped")
            assert not doc["complete"]
            assert len(doc["missing_cells"]) == 4

    def test_stray_store_cells_rejected(self, populated):
        spec, store = populated
        # Reporting a *narrower* spec against a store holding the wider
        # grid is a spec/store mismatch, not something to paper over.
        narrower = _spec(seeds=(1, 2))
        store.register_campaign(narrower)
        assert narrower.content_hash() != spec.content_hash()
        # Same hash + extra cells is the corruption case:
        h = spec.content_hash()
        store.put_cell(h, "unstamped", "full", "ART/RS/seed=9/none",
                       "ART", "RS", 9, "none", "ok", {})
        with pytest.raises(ConfigError, match="outside the spec"):
            build_report(spec, store, git_sha="unstamped")


class TestRenderers:
    def test_markdown_carries_banner_and_methodology(self, populated):
        spec, store = populated
        doc = build_report(spec, store, git_sha="unstamped")
        md = render_markdown(doc)
        assert md.startswith(GENERATED_BANNER)
        assert "best-of-N" in md
        assert "Mann-Whitney" in md
        assert "| DCART " in md

    def test_markdown_is_deterministic(self, populated):
        spec, store = populated
        doc1 = build_report(spec, store, git_sha="unstamped")
        doc2 = build_report(spec, store, git_sha="unstamped")
        assert render_markdown(doc1) == render_markdown(doc2)
        assert render_html(doc1) == render_html(doc2)

    def test_unstamped_report_has_no_timestamp(self, populated):
        spec, store = populated
        doc = build_report(spec, store, git_sha="unstamped")
        assert doc["created_at"] == ""
        assert "generated" not in render_markdown(doc).split("\n")[6]

    def test_html_is_selfcontained_and_escaped(self, populated):
        spec, store = populated
        html = render_html(build_report(spec, store, git_sha="unstamped"))
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html
        # Markup-hostile metadata (e.g. a weird SHA string) is escaped.
        hostile = render_html(
            build_report(spec, store, git_sha="<dirty&sha>")
        )
        assert "&lt;dirty&amp;sha&gt;" in hostile
        assert "<dirty" not in hostile

    def test_incomplete_report_warns(self, tmp_path):
        spec = _spec(seeds=(1,))
        with ResultStore(str(tmp_path / "c.db")) as store:
            store.register_campaign(spec)
            doc = build_report(spec, store, git_sha="unstamped")
            assert "Incomplete campaign" in render_markdown(doc)
            assert "Incomplete:" in render_html(doc)
