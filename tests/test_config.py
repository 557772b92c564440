"""Config parsing, validation, presets, overrides and the derived builders."""

import copy
import hashlib
import json
import math
import os
import pathlib
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

import cdmr
from cdmr import config as schema
from cdmr.config import (
    ConfigError,
    SweepSpec,
    apply_overrides,
    build_field_map,
    coupling_axes,
    dbm_to_watts,
    group_builder,
    laser_level,
    list_presets,
    load_config_raw,
    load_preset,
    load_preset_raw,
    validate_config,
    watts_to_dbm,
)
from cdmr.constants import NV_AXES, TWO_PI
from cdmr.spins import nv_transition_frequencies, p1_transition_frequencies, rotate_to_unit_vector

# Effective (T1, P_zS) per laser intensity for the nv_default numbers,
# computed standalone from the rate-addition forms.
LASER_STATES = {
    5600.0: (0.01973276776632391, -0.10815759131926903),
    12800.0: (0.016685350211268737, -0.17639324526941746),
    30000.0: (0.012188638031278525, -0.2770804962561548),
}
NV_QUARTER_SHARE = 817950000000.0001


def test_presets_are_discoverable():
    assert list_presets() == ("nv_default", "p1_default")
    with pytest.raises(ConfigError, match="unknown preset 'missing'"):
        load_preset_raw("missing")


@pytest.mark.parametrize("source", ["preset nv", None])
def test_config_error_survives_pickling(source):
    """A job's exception crosses a pipe pickled: it keeps its errors and its source."""
    error = ConfigError(["config.x: bad", "config.y: worse"], source)
    copied = pickle.loads(pickle.dumps(error))
    assert type(copied) is ConfigError
    assert copied.errors == error.errors
    assert str(copied) == str(error)


def test_nv_preset_spot_values():
    config = load_preset("nv_default")
    assert config.scenario == "nv"
    assert config.cavity.omega_c == pytest.approx(TWO_PI * 2.53e9, rel=1e-15)
    assert config.cavity.gamma_c == pytest.approx(TWO_PI * 253e3, rel=1e-15)
    assert config.cavity.kerr == 0.0
    assert config.ensemble.density == 1.23e23
    assert config.ensemble.p_zs_thermal == -0.035
    assert config.ensemble.g_s_off == pytest.approx(TWO_PI * 2.72, rel=1e-15)
    assert config.ensemble.g_s_on == pytest.approx(TWO_PI * 5.05, rel=1e-15)
    assert config.powers_dbm == (-90, -70, -60, -50)
    assert config.field_sweep == SweepSpec(start=0.014, stop=0.02, steps=200)
    assert config.field_angles == (-0.6283185307179586, 0.006283185307179587,
                                   0.15707963267948966)
    # Frequencies are converted to angular units at the config boundary.
    assert config.frequency_sweep.start == pytest.approx(TWO_PI * 2.525e9, rel=1e-15)
    assert config.field_map.source == "loop"
    assert config.field_map.region_bounds[5] == 0.00096
    assert config.output_dir == "out"
    assert len(config.sha256) == 64
    assert sorted(config.laser.level_names()) == ["L0", "L1", "L2", "L3"]


def test_p1_preset_loads():
    config = load_preset("p1_default")
    assert config.scenario == "p1"
    assert config.laser.levels == {"L0": 0.0}
    assert config.field_angles == (0.0, 0.0, 0.0)


# Prints the config hash of each config in argv[1] (JSON) with the module
# imported as on an interpreter that has no built-in SHA-256.
_HASHLIB_FALLBACK = """
import hashlib, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from cdmr.config import sha256, validate_config
assert sha256 is hashlib.sha256
print(json.dumps([validate_config(raw).sha256 for raw in json.loads(sys.argv[1])]))
"""


def test_sha256_tracks_content(nv_raw, p1_raw):
    first = validate_config(nv_raw)
    second = validate_config(json.loads(json.dumps(nv_raw)))
    assert first.sha256 == second.sha256
    changed = apply_overrides(nv_raw, ["cavity.gamma_c_hz=254000.0"])
    assert validate_config(changed).sha256 != first.sha256
    # The stamp is hashlib's SHA-256 of the canonical JSON, whichever module computes it.
    raws = [nv_raw, p1_raw, {**nv_raw, "output_dir": "Ausgabe/Größe-ε/試料"}]
    want = [hashlib.sha256(json.dumps(raw, sort_keys=True, separators=(",", ":")).encode())
            .hexdigest() for raw in raws]
    assert [validate_config(raw).sha256 for raw in raws] == want
    src = os.path.dirname(os.path.dirname(cdmr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _HASHLIB_FALLBACK, json.dumps(raws)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == want


def test_sweep_spec_values_are_inclusive():
    spec = SweepSpec(start=1.0, stop=2.0, steps=5)
    assert np.array_equal(spec.values(), np.linspace(1.0, 2.0, 5))


def test_dbm_conversion():
    assert dbm_to_watts(0.0) == 1e-3
    assert dbm_to_watts(-90) == pytest.approx(1e-12, rel=1e-12)
    assert dbm_to_watts(30) == pytest.approx(1.0, rel=1e-12)
    assert watts_to_dbm(1e-3) == 0.0
    for dbm in (-90.0, -13.5, 0.0, 30.0):
        assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, rel=1e-12, abs=1e-12)
    assert watts_to_dbm(0.0) == -math.inf


def test_validation_collects_every_error(nv_raw):
    raw = json.loads(json.dumps(nv_raw))
    raw["scenario"] = "squid"
    raw["cavity"]["omega_c_hz"] = -1.0
    raw["ensemble"]["t2_s"] = "fast"
    raw["ensemble"]["p_zs_thermal"] = 0.0
    raw["powers_dbm"] = []
    raw["mystery"] = 1
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    errors = excinfo.value.errors
    assert len(errors) >= 5
    text = str(excinfo.value)
    assert "config.scenario" in text
    assert "config.cavity.omega_c_hz" in text
    assert "config.ensemble.t2_s" in text
    assert "p_zs_thermal" in text
    assert "mystery" in text
    # One bullet line per problem.
    assert text.count("\n  - ") == len(errors)


def test_sizes_are_bounded(nv_raw):
    raw = json.loads(json.dumps(nv_raw))
    raw["field_sweep"]["steps"] = 10**6
    raw["frequency_sweep"]["steps"] = 10
    raw["field_map"]["grid_points"] = [100, 100, 1000]
    config = validate_config(raw)  # the bounds themselves pass
    assert config.field_sweep.steps == 10**6 and config.field_map.z_span[2] == 1000
    raw["field_sweep"]["steps"] = 10**6 + 1
    raw["frequency_sweep"]["steps"] = 1e308
    raw["field_map"]["grid_points"] = [100, 100, 1001]
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    assert excinfo.value.errors == (
        "config.field_sweep.steps: must be <= 1000000, got 1000001.0",
        "config.frequency_sweep.steps: must be <= 1000000, got 1e+308",
        "config.field_map.grid_points: nx * ny * nz must be <= 10000000, got 10010000",
    )


@pytest.mark.parametrize("field_steps, frequency_steps", [(10**6, 11), (5000, 2001), (20, 10**6)])
def test_sweep_size_is_bounded(nv_raw, field_steps, frequency_steps):
    """Each step count within its own bound, but a sweep of more than 10^7
    cells is one error that names both keys; validation runs no sweep."""
    raw = json.loads(json.dumps(nv_raw))
    raw["field_sweep"]["steps"] = field_steps
    raw["frequency_sweep"]["steps"] = frequency_steps
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    assert excinfo.value.errors == (
        "config.field_sweep.steps * config.frequency_sweep.steps: must be <= 10000000, "
        f"got {field_steps * frequency_steps}",
    )
    raw["frequency_sweep"]["steps"] = 10**7 // field_steps
    assert validate_config(raw).frequency_sweep.steps == 10**7 // field_steps


def test_powers_entries_overflowing_watts_are_config_errors(nv_raw):
    """10^(1e308 / 10) W overflows a double: a fault of the entry's key,
    reported beside the other errors."""
    raw = json.loads(json.dumps(nv_raw))
    raw["powers_dbm"] = [1e308, -60, 3100.0, "x"]
    raw["cavity"]["omega_c_hz"] = -1.0
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    assert excinfo.value.errors == (
        "config.cavity.omega_c_hz: must be > 0, got -1.0",
        "config.powers_dbm[0]: overflows when converted to watts, got 1e+308",
        "config.powers_dbm[2]: overflows when converted to watts, got 3100.0",
        "config.powers_dbm[3]: expected a number, got 'x'",
    )
    raw["cavity"]["omega_c_hz"] = nv_raw["cavity"]["omega_c_hz"]
    raw["powers_dbm"] = [3080.0, -1e308]  # 1e305 W, and an underflow to 0 W
    assert validate_config(raw).powers_dbm == (3080.0, -1e308)


def test_powers_entries_read_like_other_numbers(nv_raw):
    raw = json.loads(json.dumps(nv_raw))
    raw["powers_dbm"] = [-60, 10**400, "x", None, -70.5]
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    # Every bad entry is reported, and an oversized one is not echoed.
    assert excinfo.value.errors == (
        "config.powers_dbm[1]: must be finite",
        "config.powers_dbm[2]: expected a number, got 'x'",
        "config.powers_dbm[3]: must not be null",
    )
    raw["powers_dbm"] = [-60, -70.5]
    assert validate_config(raw).powers_dbm == (-60.0, -70.5)


def test_validation_rejects_booleans_as_numbers(nv_raw):
    raw = json.loads(json.dumps(nv_raw))
    raw["ensemble"]["density_per_m3"] = True
    with pytest.raises(ConfigError, match="density_per_m3"):
        validate_config(raw)


def test_validation_requires_laser_on_parameters(nv_raw):
    raw = json.loads(json.dumps(nv_raw))
    del raw["ensemble"]["t1_thermal_laser_on_s"]
    with pytest.raises(ConfigError, match="t1_thermal_laser_on_s"):
        validate_config(raw)
    # With only a zero-intensity level the laser-on block is optional.
    raw["laser"]["levels_w_per_m2"] = {"L0": 0.0}
    del raw["ensemble"]["p_zs_optical"]
    del raw["ensemble"]["g_s_laser_on_hz"]
    validate_config(raw)


def test_validation_field_map_sources(nv_raw):
    raw = json.loads(json.dumps(nv_raw))
    raw["field_map"] = {"source": "file", "region_bounds_m": raw["field_map"]["region_bounds_m"]}
    with pytest.raises(ConfigError, match="field_map.path"):
        validate_config(raw)
    raw = json.loads(json.dumps(nv_raw))
    del raw["field_map"]["z_span_m"]
    with pytest.raises(ConfigError, match="z_span_m"):
        validate_config(raw)
    raw = json.loads(json.dumps(nv_raw))
    raw["field_map"]["source"] = "dipole"
    with pytest.raises(ConfigError, match="source"):
        validate_config(raw)
    raw = json.loads(json.dumps(nv_raw))
    raw["field_map"]["region_bounds_m"] = [0, 1, 0, 1]
    with pytest.raises(ConfigError, match="region_bounds_m"):
        validate_config(raw)


def test_load_config_round_trip(tmp_path, nv_raw):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(nv_raw))
    config = validate_config(load_config_raw(path))
    assert config.scenario == "nv"
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config_raw(broken)
    with pytest.raises(OSError):
        load_config_raw(tmp_path / "absent.json")


def test_apply_overrides_semantics(nv_raw):
    before = json.dumps(nv_raw, sort_keys=True)
    out = apply_overrides(nv_raw, [
        "cavity.kerr_hz_per_photon=-96.3",
        "field_sweep.steps=11",
        "scenario=nv",
        "output_dir=elsewhere",
    ])
    assert out["cavity"]["kerr_hz_per_photon"] == -96.3
    assert out["field_sweep"]["steps"] == 11
    assert out["output_dir"] == "elsewhere"
    # The source dict is untouched.
    assert json.dumps(nv_raw, sort_keys=True) == before
    with pytest.raises(ConfigError, match="key.path=value"):
        apply_overrides(nv_raw, ["cavity.kerr_hz_per_photon"])
    with pytest.raises(ConfigError, match="empty key path"):
        apply_overrides(nv_raw, ["=3"])
    # Unknown paths survive the override step and die in validation.
    bad = apply_overrides(nv_raw, ["cavity.qqq=1"])
    with pytest.raises(ConfigError, match="qqq"):
        validate_config(bad)


@pytest.mark.parametrize("preset", ["nv_default", "p1_default"])
@pytest.mark.parametrize("name", [None, "L0"])
def test_laser_level_off_keeps_thermal_values(preset, name):
    config = load_preset(preset)
    level = laser_level(config, name)
    assert (level.name, level.intensity) == (name or "off", 0.0)
    assert level.t1 == config.ensemble.t1_thermal_off
    assert level.p_zs == config.ensemble.p_zs_thermal
    share = {"nv_default": NV_QUARTER_SHARE, "p1_default": 2216666666666.667}[preset]
    assert level.n_eff == pytest.approx(share, rel=1e-12)


def test_laser_level_frozen_states():
    config = load_preset("nv_default")
    for name in ("L1", "L2", "L3"):
        level = laser_level(config, name)
        t1_ref, p_ref = LASER_STATES[level.intensity]
        assert level.t1 == pytest.approx(t1_ref, rel=1e-12)
        assert level.p_zs == pytest.approx(p_ref, rel=1e-12)
        # The quarter share scales with |P_zS|.
        assert level.n_eff == pytest.approx(
            NV_QUARTER_SHARE * p_ref / config.ensemble.p_zs_thermal, rel=1e-12)


def test_laser_level_switches_g():
    config = load_preset("nv_default")
    off, on = laser_level(config), laser_level(config, "L1")
    assert off.g_s == config.ensemble.g_s_off
    assert on.g_s == config.ensemble.g_s_on
    assert on.t1 < off.t1
    assert abs(on.p_zs) > abs(off.p_zs)


@pytest.mark.parametrize("preset", ["nv_default", "p1_default"])
def test_laser_level_unknown_name_is_a_config_error(preset):
    config = load_preset(preset)
    available = ", ".join(config.laser.level_names())
    with pytest.raises(ConfigError) as excinfo:
        laser_level(config, "L9")
    assert excinfo.value.errors == (f"laser level 'L9' not in config; available: {available}",)


def test_group_builder_nv_shares_and_labels():
    config = load_preset("nv_default")
    build = group_builder(config, laser_level(config))
    bank = build(np.array([0.017]), np.array([0.0, 0.0, 1.0]))
    assert bank.delta.shape == (1, 8) and len(bank.labels) == 8
    assert np.all(bank.n_eff == pytest.approx(NV_QUARTER_SHARE, rel=1e-12))
    assert np.all(bank.t1 == config.ensemble.t1_thermal_off)
    assert np.all(bank.t2 == config.ensemble.t2)
    assert np.all(bank.g_s == config.ensemble.g_s_off)
    lines = nv_transition_frequencies(np.array([0.0, 0.0, 0.017]))
    assert np.array_equal(bank.delta, config.cavity.omega_c - lines[None])
    labels = set(bank.labels)
    assert len(labels) == 8
    assert {label[-1] for label in labels} == {"-", "+"}


def test_group_builder_p1_shares_and_labels():
    config = load_preset("p1_default")
    build = group_builder(config, laser_level(config))
    bank = build(np.array([0.089]), np.array([0.0, 0.0, 1.0]))
    assert bank.delta.shape == (1, 12)
    ens = config.ensemble
    share = ens.density * ens.sample_volume * abs(ens.p_zs_thermal) / 12.0
    assert np.all(bank.n_eff == pytest.approx(share, rel=1e-12))
    assert len(set(bank.labels)) == 12


@pytest.mark.parametrize("preset", ["nv_default", "p1_default"])
def test_group_builder_rows_equal_single_field_lines_bitwise(preset):
    """Bank row i holds, in label order, omega_c minus the line formula on field i alone."""
    config = load_preset(preset)
    b_mags = config.field_sweep.values()
    b_hat = rotate_to_unit_vector(*config.field_angles)
    bank = group_builder(config, laser_level(config))(b_mags, b_hat)
    assert bank.delta.shape == (b_mags.size, 8 if preset == "nv_default" else 12)
    for i, b_mag in enumerate(b_mags):
        b_vec = b_mag * (b_hat / np.linalg.norm(b_hat))
        if preset == "nv_default":
            lines = nv_transition_frequencies(b_vec)
        else:
            lines = [w for axis in NV_AXES for w in p1_transition_frequencies(b_vec, axis)]
        assert np.array_equal(bank.delta[i], config.cavity.omega_c - np.array(lines)), i


def test_coupling_axes_by_scenario():
    nv = load_preset("nv_default")
    axes = coupling_axes(nv)
    assert axes.shape == (2, 3)
    b_hat = rotate_to_unit_vector(*nv.field_angles)
    alignment = np.abs(NV_AXES @ b_hat)
    picked = {tuple(a) for a in axes}
    best_two = {tuple(NV_AXES[i]) for i in np.argsort(alignment)[::-1][:2]}
    assert picked == best_two

    p1 = load_preset("p1_default")
    p1_axes = coupling_axes(p1)
    assert p1_axes.shape == (1, 3)
    assert np.allclose(p1_axes[0], rotate_to_unit_vector(*p1.field_angles), atol=1e-15)


def test_build_field_map(nv_raw, shrink):
    config = validate_config(shrink(nv_raw, grid=6))
    field_map = build_field_map(config)
    assert field_map.shape == (6, 6, 6)


@pytest.mark.parametrize("key", ["p_zs_thermal", "p_zs_optical"])
def test_validation_rejects_an_inverted_polarization(nv_raw, key):
    """The model has no gain path, so no P_zS may be positive; the optical one may be 0."""
    raw = copy.deepcopy(nv_raw)
    raw["ensemble"][key] = 0.035
    with pytest.raises(ConfigError) as excinfo:
        validate_config(raw)
    assert excinfo.value.errors == (f"config.ensemble.{key}: must be <= 0.0, got 0.035",)
    raw["ensemble"]["p_zs_thermal"], raw["ensemble"]["p_zs_optical"] = -1.0, 0.0
    validate_config(raw)


def test_validate_config_rejects_non_object():
    with pytest.raises(ConfigError, match="JSON object"):
        validate_config([1, 2, 3])
    with pytest.raises(ConfigError, match="got None"):
        validate_config({"scenario": None})


PRESETS = ("nv_default", "p1_default")
SECTIONS = {"cavity": schema._CAVITY, "ensemble": schema._ENSEMBLE, "laser": schema._LASER,
            "field_sweep": schema._FIELD_SWEEP, "frequency_sweep": schema._FREQUENCY_SWEEP}
# (field-map source of the base config, dotted key, row) for every row of every table.
SCHEMA_ROWS = (
    [("loop", row.key, row) for row in schema._TOP]
    + [("loop", f"{name}.{row.key}", row) for name, rows in SECTIONS.items() for row in rows]
    + [(source, f"field_map.{row.key}", row)
       for source, rows in schema._FIELD_MAPS.items() for row in rows]
)
ABSENT = object()
FAULTS = {
    "absent": ABSENT, "null": None, "true": True, "'x'": "x", "inf": math.inf, "nan": math.nan,
    "-1.5": -1.5, "0": 0.0, "2.5": 2.5, "[]": [], "['x']": ["x"], "[1.0, 0.0]": [1.0, 0.0],
    "{'L0': -1.0}": {"L0": -1.0},
    # Finite in the file, but not as an angular frequency (2 pi x 1e308 overflows).
    "1e308": 1e308,
    # JSON integers too large for a double.
    "10**400": 10**400, "[10**400]": [10**400],
}
# The exact text of one case per message template.
PINNED = {
    ("nv_default", "loop", "cavity.omega_c_hz", "absent"):
        "config.cavity.omega_c_hz: missing required key",
    ("nv_default", "loop", "cavity.kerr_hz_per_photon", "null"):
        "config.cavity.kerr_hz_per_photon: must not be null",
    ("nv_default", "loop", "ensemble.t2_s", "'x'"):
        "config.ensemble.t2_s: expected a number, got 'x'",
    ("nv_default", "loop", "field_sweep.theta_x_rad", "inf"):
        "config.field_sweep.theta_x_rad: must be finite",
    ("p1_default", "loop", "frequency_sweep.steps", "2.5"):
        "config.frequency_sweep.steps: expected an integer, got 2.5",
    ("nv_default", "loop", "cavity.gamma_f_hz", "-1.5"):
        "config.cavity.gamma_f_hz: must be > 0, got -1.5",
    ("nv_default", "loop", "cavity.cubic_damping_hz_per_photon", "-1.5"):
        "config.cavity.cubic_damping_hz_per_photon: must be >= 0, got -1.5",
    ("nv_default", "loop", "ensemble.p_zs_optical", "-1.5"):
        "config.ensemble.p_zs_optical: must be >= -1.0, got -1.5",
    ("p1_default", "loop", "ensemble.p_zs_thermal", "2.5"):
        "config.ensemble.p_zs_thermal: must be <= 0.0, got 2.5",
    ("nv_default", "loop", "field_sweep.steps", "0"):
        "config.field_sweep.steps: must be >= 2, got 0.0",
    ("p1_default", "loop", "ensemble.p_zs_thermal", "0"):
        "config.ensemble.p_zs_thermal: must be non-zero (no polarized spins)",
    ("nv_default", "loop", "ensemble.g_s_laser_on_hz", "absent"):
        "config.ensemble.g_s_laser_on_hz: required because a laser level has non-zero intensity",
    ("nv_default", "loop", "field_sweep.min_t", "2.5"):
        "config.field_sweep: min_t must be < max_t (2.5 >= 0.02)",
    ("nv_default", "loop", "laser", "true"): "config.laser: expected an object",
    ("p1_default", "loop", "scenario", "'x'"): "config.scenario: must be 'nv' or 'p1', got 'x'",
    ("nv_default", "loop", "powers_dbm", "[]"):
        "config.powers_dbm: expected a non-empty list of dBm values",
    ("nv_default", "loop", "powers_dbm", "['x']"):
        "config.powers_dbm[0]: expected a number, got 'x'",
    ("p1_default", "loop", "powers_dbm", "[10**400]"):
        "config.powers_dbm[0]: must be finite",
    ("nv_default", "loop", "cavity.omega_c_hz", "10**400"):
        "config.cavity.omega_c_hz: must be finite",
    ("nv_default", "loop", "field_sweep.steps", "10**400"):
        "config.field_sweep.steps: must be finite",
    ("p1_default", "loop", "cavity.omega_c_hz", "1e308"):
        "config.cavity.omega_c_hz: overflows when converted to rad/s, got 1e+308",
    ("nv_default", "loop", "frequency_sweep.max_hz", "1e308"):
        "config.frequency_sweep.max_hz: overflows when converted to rad/s, got 1e+308",
    ("nv_default", "loop", "laser.levels_w_per_m2", "[]"):
        "config.laser.levels_w_per_m2: expected a non-empty object of level -> W/m^2",
    ("nv_default", "loop", "laser.levels_w_per_m2", "{'L0': -1.0}"):
        "config.laser.levels_w_per_m2.L0: must be >= 0, got -1.0",
    ("nv_default", "loop", "field_map.x_span_m", "[1.0, 0.0]"):
        "config.field_map.x_span_m: expected [min, max] with min < max, got [1.0, 0.0]",
    ("p1_default", "loop", "field_map.grid_points", "short"):
        "config.field_map.grid_points: expected [nx, ny, nz] integers >= 2, got [50, 50]",
    ("nv_default", "loop", "field_map.region_bounds_m", "[]"):
        "config.field_map.region_bounds_m: expected [x0, x1, y0, y1, z0, z1], got []",
    ("p1_default", "file", "field_map.region_bounds_m", "decreasing"):
        "config.field_map.region_bounds_m: each (min, max) pair must be increasing",
    ("nv_default", "file", "field_map.path", "null"):
        "config.field_map.path: expected a non-empty string, got None",
    ("nv_default", "loop", "field_map.source", "'x'"):
        "config.field_map.source: must be 'loop' or 'file', got 'x'",
}


def _base_config(preset, source):
    raw = load_preset_raw(preset)
    if source == "file":
        raw["field_map"] = {"source": "file", "path": "map.csv",
                            "region_bounds_m": raw["field_map"]["region_bounds_m"]}
    return raw


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("source,dotted,row", SCHEMA_ROWS,
                         ids=[f"{source}-{dotted}" for source, dotted, _ in SCHEMA_ROWS])
def test_each_single_fault_gives_one_error_naming_its_key(preset, source, dotted, row):
    base = _base_config(preset, source)
    *parents, key = dotted.split(".")
    node = base
    for name in parents:
        node = node[name]
    faults = dict(FAULTS)
    value = node.get(key)
    if isinstance(value, list):
        faults["short"] = value[:-1]
        faults["decreasing"] = [value[1], value[0], *value[2:]]
    if isinstance(value, dict) and key != "levels_w_per_m2":
        del faults["{'L0': -1.0}"]  # replacing a whole section is many faults
    errors = {}
    for label, fault in faults.items():
        raw = copy.deepcopy(base)
        target = raw
        for name in parents:
            target = target[name]
        if fault is ABSENT:
            target.pop(key, None)
        else:
            target[key] = fault
        try:
            validate_config(raw)
        except ConfigError as exc:
            errors[label] = exc.errors

    where = f"config.{dotted}"
    for label, found in errors.items():
        assert len(found) == 1, (label, found)
        path, _, message = found[0].partition(": ")
        # The sweep order rule names its section and, in the message, both keys.
        assert (path == where or path.startswith((f"{where}.", f"{where}["))
                or (path == where.rpartition(".")[0] and key in message)), (label, found)
    assert "true" in errors and "10**400" in errors and "[10**400]" in errors
    if row.key.endswith(schema._HZ):
        assert "1e308" in errors
    if row.default is schema._REQUIRED:
        assert "absent" in errors
    for (pinned_preset, pinned_source, pinned_key, label), text in PINNED.items():
        if (pinned_preset, pinned_source, pinned_key) == (preset, source, dotted):
            assert errors[label] == (text,)


def test_readme_configuration_table_lists_the_schema_keys():
    assert {row.key for row in schema._TOP} == {
        *SECTIONS, "scenario", "powers_dbm", "field_map", "output_dir"}
    schema_keys = sorted({dotted for _, dotted, _ in SCHEMA_ROWS}
                         - {*SECTIONS, "field_map"})
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z_.0-9]+)` \|", section, flags=re.MULTILINE)
    assert sorted(listed) == schema_keys
    # The "default" column, the last cell of a row, is each key's schema default.
    defaults = dict(re.findall(r"^\| `([a-z_.0-9]+)` \|.* \| ([^|]+) \|$", section,
                               flags=re.MULTILINE))
    assert sorted(defaults) == schema_keys
    for _, dotted, row in SCHEMA_ROWS:
        cell = defaults.get(dotted)
        if cell is None:
            continue
        if row.default is schema._REQUIRED:
            assert cell == "required", dotted
        elif row.default is None:
            assert cell.startswith("none; "), dotted
        elif isinstance(row.default, str):
            assert cell == f"`{json.dumps(row.default)}`", dotted
        else:
            assert float(cell) == row.default, dotted
    # Every pinned message case belongs to a parametrized row.
    cases = {(preset, source, dotted) for preset in PRESETS for source, dotted, _ in SCHEMA_ROWS}
    assert {key[:3] for key in PINNED} <= cases
