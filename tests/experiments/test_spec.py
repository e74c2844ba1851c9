"""Campaign spec: validation, content hashing, TOML/JSON loading."""

import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import main
from repro.errors import ConfigError
from repro.experiments.campaign import ENGINE_PLATFORM_KIND, expand_spec
from repro.experiments.spec import (
    KNOWN_ENGINES,
    N_SOUS,
    NO_FAULT,
    POWER_KEYS,
    CampaignSpec,
    load_spec,
    parse_fault,
    spec_from_dict,
)
from repro.workloads import WORKLOAD_NAMES


def _spec(**overrides):
    base = dict(
        name="unit",
        engines=("ART", "DCART"),
        workloads=("IPGEO",),
        seeds=(1, 2),
        n_keys=500,
        n_ops=2_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestValidation:
    def test_minimal_spec_validates(self):
        spec = _spec()
        assert spec.baseline_engine == "ART"  # defaults to first engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            _spec(engines=("ART", "BTREE"))

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            _spec(workloads=("NOPE",))

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match="duplicate seeds"):
            _spec(seeds=(1, 1))

    def test_empty_engines_rejected(self):
        with pytest.raises(ConfigError, match="at least one engine"):
            _spec(engines=())

    def test_bad_name_rejected(self):
        with pytest.raises(ConfigError, match="slug"):
            _spec(name="has spaces")

    def test_write_ratio_bounds(self):
        with pytest.raises(ConfigError, match="write_ratio"):
            _spec(write_ratio=1.5)

    def test_baseline_must_be_in_roster(self):
        with pytest.raises(ConfigError, match="baseline_engine"):
            _spec(baseline_engine="DCART-C")

    def test_faults_need_fault_capable_engines(self):
        # ART has no SOUs to kill: a fault dimension over it is a spec
        # authoring error, caught at load, not a mid-campaign surprise.
        with pytest.raises(ConfigError, match="fault-capable"):
            _spec(faults=("none", "sou-failstop:2"))

    def test_fault_dimension_on_dcart_validates(self):
        spec = _spec(engines=("DCART",), faults=("none", "sou-failstop:2"))
        assert spec.faults == ("none", "sou-failstop:2")

    def test_bad_power_rejected_at_spec_load(self):
        with pytest.raises(ConfigError):
            _spec(power=(135.0, 165.0, -1.0))


class TestParseFault:
    def test_none(self):
        assert parse_fault("none") == ("none", None)

    def test_sou_failstop(self):
        assert parse_fault("sou-failstop:4") == ("sou-failstop", 4.0)

    def test_hbm_throttle(self):
        assert parse_fault("hbm-throttle:0.25") == ("hbm-throttle", 0.25)

    @pytest.mark.parametrize("bad", [
        "sou-failstop", "sou-failstop:0", "sou-failstop:x",
        f"sou-failstop:{N_SOUS}", "hbm-throttle:1.5", "hbm-throttle:0",
        "quake:9", 1, None,
    ])
    def test_bad_signatures_rejected(self, bad):
        with pytest.raises(ConfigError):
            parse_fault(bad)


class TestContentHash:
    def test_hash_is_stable(self):
        assert _spec().content_hash() == _spec().content_hash()
        assert len(_spec().content_hash()) == 16

    def test_any_semantic_change_changes_the_hash(self):
        base = _spec().content_hash()
        assert _spec(seeds=(1, 2, 3)).content_hash() != base
        assert _spec(n_ops=2_001).content_hash() != base
        assert _spec(op_skew=0.9).content_hash() != base
        assert _spec(power=(135.0, 165.0, 42.0)).content_hash() != base

    def test_round_trips_through_dict(self):
        spec = _spec(faults=("none",), op_skew=1.1)
        clone = spec_from_dict(spec.to_dict())
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()


class TestSpecFromDict:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown campaign spec key"):
            spec_from_dict({
                "name": "x", "engines": ["ART"], "workloads": ["IPGEO"],
                "seeds": [1], "colour": "red",
            })

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError, match="missing 'seeds'"):
            spec_from_dict({
                "name": "x", "engines": ["ART"], "workloads": ["IPGEO"],
            })

    def test_string_where_list_expected_rejected(self):
        with pytest.raises(ConfigError, match="must be a list"):
            spec_from_dict({
                "name": "x", "engines": "ART", "workloads": ["IPGEO"],
                "seeds": [1],
            })

    def test_power_table_partial_override(self):
        spec = spec_from_dict({
            "name": "x", "engines": ["ART"], "workloads": ["IPGEO"],
            "seeds": [1], "power": {"fpga_watts": 84.0},
        })
        assert spec.power == (135.0, 165.0, 84.0)

    def test_power_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown power key"):
            spec_from_dict({
                "name": "x", "engines": ["ART"], "workloads": ["IPGEO"],
                "seeds": [1], "power": {"tpu_watts": 1.0},
            })


class TestLoadSpec:
    def test_json_spec_loads(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "name": "file", "engines": ["ART"], "workloads": ["DICT"],
            "seeds": [7],
        }))
        spec = load_spec(str(path))
        assert spec.name == "file"
        assert spec.seeds == (7,)

    def test_nested_campaign_table(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"campaign": {
            "name": "nested", "engines": ["ART"], "workloads": ["DICT"],
            "seeds": [1],
        }}))
        assert load_spec(str(path)).name == "nested"

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_spec(str(tmp_path / "absent.json"))

    def test_corrupt_json_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_spec(str(path))

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("name: x")
        with pytest.raises(ConfigError, match="toml or .json"):
            load_spec(str(path))

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tomllib needs Python >= 3.11")
    def test_toml_spec_loads(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            '[campaign]\nname = "toml"\nengines = ["ART"]\n'
            'workloads = ["EA"]\nseeds = [1, 2]\n'
        )
        spec = load_spec(str(path))
        assert spec.name == "toml"
        assert spec.workloads == ("EA",)

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="tomllib needs Python >= 3.11")
    def test_corrupt_toml_is_config_error(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("[campaign\nname=")
        with pytest.raises(ConfigError, match="not valid TOML"):
            load_spec(str(path))

    def test_toml_and_json_specs_hash_identically(self, tmp_path):
        # The two formats are surface syntax for the same spec: the
        # content hash must not depend on which file fed it.
        if sys.version_info < (3, 11):
            pytest.skip("tomllib needs Python >= 3.11")
        toml = tmp_path / "c.toml"
        toml.write_text(
            'name = "both"\nengines = ["ART"]\nworkloads = ["RS"]\n'
            'seeds = [3]\n'
        )
        as_json = tmp_path / "c.json"
        as_json.write_text(json.dumps({
            "name": "both", "engines": ["ART"], "workloads": ["RS"],
            "seeds": [3],
        }))
        assert (
            load_spec(str(toml)).content_hash()
            == load_spec(str(as_json)).content_hash()
        )


def _run_cli(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(
        io.StringIO()
    ):
        code = main(argv)
    return code, err.getvalue()


_MINIMAL = {
    "name": "bad", "engines": ["DCART"], "workloads": ["IPGEO"],
    "seeds": [1], "n_keys": 300, "n_ops": 600,
}


@pytest.mark.parametrize("override", [
    pytest.param({"power": {"cpu_watts": "abc"}}, id="power-not-a-number"),
    pytest.param({"faults": [1]}, id="fault-not-a-string"),
    pytest.param({"seeds": [-1]}, id="negative-seed"),
    pytest.param({"faults": [f"sou-failstop:{N_SOUS}"]}, id="no-sou-survives"),
])
def test_bad_spec_is_rejected_at_load(override, tmp_path):
    # Each of these once printed a traceback or failed every cell at
    # run time; the spec loader must reject them before any cell runs.
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(_MINIMAL, **override)))
    code, err = _run_cli([
        "campaign", "run", "--spec", str(path),
        "--store", str(tmp_path / "store.db"), "--no-stamp",
    ])
    assert code == 2
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith("repro campaign: ")
    assert not (tmp_path / "store.db").exists()


_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(),
    st.text(max_size=5),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_VALID_FAULTS = (
    "none", "sou-failstop:1", f"sou-failstop:{N_SOUS - 1}", "hbm-throttle:0.5",
)
_WATTS = st.floats(min_value=1.0, max_value=500.0)
#: In-domain values per field (faults only with the DCART-only roster).
_VALID = {
    "name": st.sampled_from(["prop", "a-b_c"]),
    "engines": st.lists(st.sampled_from(KNOWN_ENGINES), min_size=1,
                        max_size=3, unique=True),
    "workloads": st.lists(st.sampled_from(WORKLOAD_NAMES), min_size=1,
                          max_size=2, unique=True),
    "seeds": st.lists(st.integers(min_value=0, max_value=2**63 - 1),
                      min_size=1, max_size=3, unique=True),
    "n_keys": st.integers(min_value=1, max_value=10**6),
    "n_ops": st.integers(min_value=1, max_value=10**6),
    "write_ratio": st.floats(min_value=0.0, max_value=1.0),
    "op_skew": st.floats(min_value=0.01, max_value=3.0),
    "faults": st.lists(st.sampled_from(_VALID_FAULTS), min_size=1,
                       max_size=3, unique=True),
    "power": st.fixed_dictionaries({}, optional={k: _WATTS for k in POWER_KEYS}),
}
#: Values just outside each field's domain, plus junk of every type.
_EDGE = {
    "name": st.one_of(st.sampled_from(["", "-", "a b"]), _JUNK),
    "engines": st.one_of(st.just([]), st.just(["DCART", "DCART"]),
                         st.just(["dcart-vec"]), _JUNK),
    "workloads": st.one_of(st.just([]), st.just(["NOPE"]), _JUNK),
    "seeds": st.one_of(
        st.lists(st.one_of(st.sampled_from([-1, 2**63, 2**70, 1.0, True]),
                           _JUNK), min_size=1, max_size=2),
        _JUNK,
    ),
    "n_keys": st.one_of(st.sampled_from([0, -1, 1.5, 2.0]), _JUNK),
    "n_ops": st.one_of(st.sampled_from([0, -1, 1.5, 2.0]), _JUNK),
    "write_ratio": st.one_of(
        st.sampled_from([-0.1, 1.5, math.nan, math.inf]), _JUNK),
    "op_skew": st.one_of(
        st.sampled_from([0, -1.0, math.nan, math.inf]), _JUNK),
    "faults": st.one_of(
        st.lists(st.one_of(st.sampled_from([
            f"sou-failstop:{N_SOUS}", "sou-failstop:0", "sou-failstop:x",
            "hbm-throttle:1", "hbm-throttle:nan", "quake:1", "none:1",
        ]), _JUNK), min_size=1, max_size=2),
        st.just([]), st.just(["none", "none"]), _JUNK,
    ),
    "power": st.one_of(
        st.dictionaries(
            st.sampled_from(POWER_KEYS + ("gpu",)),
            st.one_of(st.sampled_from([0, -5.0, math.nan, math.inf, 10**400]),
                      _JUNK),
            min_size=1, max_size=2,
        ),
        _JUNK,
    ),
    "baseline_engine": st.one_of(st.just("SMART"), _JUNK),
    "colour": _JUNK,
}
_REQUIRED = ("name", "engines", "workloads", "seeds")


@st.composite
def _spec_docs(draw):
    """A valid spec with zero to two fields pushed out of their domain."""
    doc = {key: draw(_VALID[key]) for key in _REQUIRED}
    for key in sorted(set(_VALID) - set(_REQUIRED)):
        if draw(st.booleans()):
            doc[key] = draw(_VALID[key])
    if doc.get("faults", [NO_FAULT]) != [NO_FAULT]:
        doc["engines"] = ["DCART"]
    for key in draw(st.lists(st.sampled_from(sorted(_EDGE)), max_size=2,
                             unique=True)):
        doc[key] = draw(_EDGE[key])
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        del doc[draw(st.sampled_from(_REQUIRED))]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        doc[draw(st.text(max_size=4))] = 0
    return doc


@given(doc=_spec_docs())
@example(doc=dict(_MINIMAL, power={"\r0": 0}))  # a key that breaks the line
@settings(max_examples=300, deadline=None)
def test_spec_field_space_rejects_in_one_line_or_runs(doc, tmp_path_factory):
    """Any spec either loads into runnable cells or is one line, exit 2.

    Runnable means every value a cell passes on is in its domain: the
    SQLite store can hold the seed, the workload factory gets positive
    integer sizes, at least one SOU survives, and the power model is
    finite.  A rejection must never be a traceback.
    """
    directory = tmp_path_factory.getbasetemp()
    path = directory / "prop-spec.json"
    path.write_text(json.dumps(doc))
    code, err = _run_cli([
        "campaign", "status", "--spec", str(path),
        "--store", str(directory / "prop-store.db"), "--no-stamp",
    ])
    if code == 2:
        assert len(err.strip().splitlines()) == 1, err
        assert err.startswith("repro campaign: ")
        return
    spec = load_spec(str(path))
    assert all(0 <= seed < 2**63 for seed in spec.seeds)
    assert spec.n_keys > 0 and spec.n_ops > 0
    assert all(type(n) is int for n in (spec.n_keys, spec.n_ops, *spec.seeds))
    for fault in spec.faults:
        kind, arg = parse_fault(fault)
        if kind == "sou-failstop":
            assert 1 <= arg < N_SOUS
        if fault != NO_FAULT:
            assert spec.engines == ("DCART",)
    if spec.power is not None:
        assert all(0 < watts < math.inf for watts in spec.power)
    for cell in expand_spec(spec):
        assert cell.engine in ENGINE_PLATFORM_KIND
        cell.power_model()
