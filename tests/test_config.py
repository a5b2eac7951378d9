"""Strict run-configuration parsing."""

import inspect
import json

import pytest

from trdwell.config import _SECTIONS, DEFAULT_CONFIG, Config, ConfigError, SweepSpec, load_config, parse_config
from trdwell.potential import Potential, Units


def test_minimal_document_fills_defaults():
    cfg = parse_config({"units": {"hbar": 1, "mass": 1}, "potential": {"kind": "step", "U": 0.5}})
    assert cfg.units.hbar == 1.0 and cfg.units.mass == 1.0
    assert cfg.potential.kind == "step" and cfg.potential.U == 0.5
    assert cfg.epsilon == 1e-6
    assert cfg.sweep is None


def test_empty_document_is_the_default_config():
    cfg = parse_config({})
    assert cfg == DEFAULT_CONFIG
    assert cfg.potential is None


def test_unknown_top_level_key_named_in_the_error():
    with pytest.raises(ConfigError, match="'foo'"):
        parse_config({"foo": 1})


def test_unknown_nested_key_reported_with_dotted_path():
    with pytest.raises(ConfigError, match="units.bar"):
        parse_config({"units": {"bar": 2}})
    with pytest.raises(ConfigError, match="defaults.foo"):
        parse_config({"defaults": {"foo": 1e-3}})


def test_well_requires_half_width():
    with pytest.raises(ConfigError, match="q"):
        parse_config({"potential": {"kind": "well", "U": 1.0}})


def test_step_refuses_half_width():
    with pytest.raises(ConfigError, match="q"):
        parse_config({"potential": {"kind": "step", "U": 1.0, "q": 2.0}})


def test_unknown_potential_kind():
    with pytest.raises(ConfigError, match="kind"):
        parse_config({"potential": {"kind": "slope", "U": 1.0}})


def test_numbers_validated():
    with pytest.raises(ConfigError):
        parse_config({"units": {"hbar": "one"}})
    with pytest.raises(ConfigError):
        parse_config({"units": {"hbar": True}})
    with pytest.raises(ConfigError):
        parse_config({"units": {"hbar": -1.0}})
    with pytest.raises(ConfigError):
        parse_config({"potential": {"kind": "step", "U": 0.0}})


def test_epsilon_range():
    cfg = parse_config({"defaults": {"epsilon": 1e-4}})
    assert cfg.epsilon == 1e-4
    with pytest.raises(ConfigError):
        parse_config({"defaults": {"epsilon": 2.0}})
    with pytest.raises(ConfigError):
        parse_config({"defaults": {"epsilon": 0.0}})


def test_removed_tolerance_keys_are_unknown():
    # quad_rel went with the action quadrature; node_density_floor was never
    # read (coverage reads the node phase).  Old files fail loudly.
    for tolerances in ({"quad_rel": 1e-8}, {"node_density_floor": 1e-18}, {}):
        with pytest.raises(ConfigError, match="defaults.tolerances"):
            parse_config({"defaults": {"tolerances": tolerances}})
    assert not hasattr(DEFAULT_CONFIG, "quad_rel")
    assert not hasattr(DEFAULT_CONFIG, "node_density_floor")


def test_every_table_key_is_a_parameter_of_what_its_section_builds():
    builds = {"units": Units, "potential": Potential, "defaults": Config, "sweep": SweepSpec}
    assert {name: build for name, (build, _) in _SECTIONS.items()} == builds
    for name, (build, types) in _SECTIONS.items():
        assert set(types) <= set(inspect.signature(build).parameters), name
        assert set(types.values()) <= {str, float, int}, name


def test_range_errors_name_their_section():
    with pytest.raises(ConfigError, match=r"^units: hbar must be finite and positive, got -1\.0$"):
        parse_config({"units": {"hbar": -1.0}})
    with pytest.raises(ConfigError, match=r"^potential: unknown potential kind 'slope'$"):
        parse_config({"potential": {"kind": "slope", "U": 1.0}})
    with pytest.raises(ConfigError, match=r"^defaults: epsilon must lie in \(0, 2\), got 2\.0$"):
        parse_config({"defaults": {"epsilon": 2.0}})


def test_shape_errors_name_their_key():
    with pytest.raises(ConfigError, match=r"^config key potential\.U is required$"):
        parse_config({"potential": {"kind": "step"}})
    with pytest.raises(ConfigError, match=r"^config key potential\.kind must be a string, got 5$"):
        parse_config({"potential": {"kind": 5, "U": 1.0}})
    with pytest.raises(ConfigError, match=r"^config key units\.mass is too large for a double$"):
        parse_config({"units": {"mass": 10**400}})
    with pytest.raises(ConfigError, match=r"^config key sweep\.count is too large for a double$"):
        parse_config({"sweep": {"param": "E", "start": 0.0, "stop": 1.0, "count": 10**400}})


class TestSweep:
    def test_valid_sweep(self):
        cfg = parse_config(
            {"sweep": {"param": "E", "start": 0.1, "stop": 0.4, "count": 11}}
        )
        assert cfg.sweep == SweepSpec("E", 0.1, 0.4, 11)

    def test_all_fields_required(self):
        with pytest.raises(ConfigError, match="count"):
            parse_config({"sweep": {"param": "E", "start": 0.1, "stop": 0.4}})

    def test_param_restricted(self):
        with pytest.raises(ConfigError):
            parse_config({"sweep": {"param": "Z", "start": 0.0, "stop": 1.0, "count": 3}})

    def test_count_must_be_a_real_integer(self):
        with pytest.raises(ConfigError):
            parse_config({"sweep": {"param": "E", "start": 0.0, "stop": 1.0, "count": 1}})
        with pytest.raises(ConfigError):
            parse_config({"sweep": {"param": "E", "start": 0.0, "stop": 1.0, "count": 2.5}})
        with pytest.raises(ConfigError):
            parse_config({"sweep": {"param": "E", "start": 0.0, "stop": 1.0, "count": True}})


class TestLoadConfig:
    def test_reads_a_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"units": {"hbar": 2.0}}))
        cfg = load_config(str(path))
        assert cfg.units.hbar == 2.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config(str(path))


def test_config_is_frozen():
    with pytest.raises(Exception):
        DEFAULT_CONFIG.epsilon = 0.5


def test_config_error_is_not_a_domain_error():
    # usage problems exit with a different status than physics problems
    from trdwell.errors import TrdwellError

    assert not issubclass(ConfigError, TrdwellError)
