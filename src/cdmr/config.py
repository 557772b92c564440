"""Run configuration: JSON schema validation, units, and scenario builders.

All config keys carry explicit unit suffixes (``gamma_c_hz``,
``intensity_w_per_m2``) because unit mixups between Hz and rad/s, dBm and
watts, and mW/mm^2 and W/m^2 are the dominant error source in this problem
domain.  Frequencies in config files are plain Hz: the value of every key
ending in ``_hz`` or ``_hz_per_photon`` is multiplied by 2 pi when the specs
are built, after validation, so error messages quote the file's values.
Each key is declared once, in one row of a schema table.  Validation
collects every problem it finds before reporting, and unknown keys are hard
errors so typos cannot silently fall back to defaults.
"""

import json
import math
import os
from collections.abc import Callable
from importlib import resources
from typing import NamedTuple

import numpy as np

from .cavity import CavityMode, SpinBank, sweep_lines
from .constants import NV_AXES, NV_AXIS_LABELS, TWO_PI
from .coupling import FieldMap, generate_loop_field, load_field_map
from .spins import (effective_relaxation, nv_transition_frequencies, optical_pumping_rate,
                    p1_transition_frequencies, rotate_to_unit_vector, sweep_fields)

# The interpreter's built-in SHA-256, as the standard library's random takes
# its sha512: importing hashlib maps OpenSSL's libcrypto into the process.
try:
    from _sha2 import sha256            # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256      # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

SCENARIO_NV = "nv"
SCENARIO_P1 = "p1"


class ConfigError(ValueError):
    """Validation failure carrying the full list of problems found, and where the config came from."""

    def __init__(self, errors, source=None):
        self.errors, self.source = tuple(errors), source
        header = f"invalid configuration in {source}:" if source else "invalid configuration:"
        super().__init__("\n".join([header, *(f"  - {e}" for e in self.errors)]))

    def __reduce__(self):
        # Pickled by its own arguments: the default rebuilds it from its message.
        return type(self), (self.errors, self.source)


def dbm_to_watts(dbm):
    """P[W] = 1e-3 * 10^(dBm/10)."""
    return 1e-3 * 10.0 ** (float(dbm) / 10.0)


def watts_to_dbm(watts):
    """P[dBm] = 10 log10(P[W] / 1e-3); -inf at 0 W, such as a power that underflowed."""
    return -math.inf if watts == 0.0 else 10.0 * math.log10(watts / 1e-3)


class SweepSpec(NamedTuple):
    """Inclusive linear sweep."""

    start: float
    stop: float
    steps: int

    def values(self):
        return np.linspace(self.start, self.stop, self.steps)


class LaserSpec(NamedTuple):
    levels: dict            # level name -> intensity, W/m^2
    cross_section: float    # m^2
    wavelength: float       # m
    efficiency: float       # pumping events per absorbed photon

    def level_names(self):
        return tuple(sorted(self.levels))


class EnsembleSpec(NamedTuple):
    density: float              # spins per m^3
    t2: float                   # s
    t1_thermal_off: float       # s, laser off
    p_zs_thermal: float
    g_s_off: float              # rad/s
    sample_volume: float        # m^3
    t1_thermal_on: float | None = None   # s, laser on
    p_zs_optical: float | None = None
    g_s_on: float | None = None          # rad/s


class FieldMapSpec(NamedTuple):
    source: str                         # "loop" or "file"
    region_bounds: tuple                # (x0, x1, y0, y1, z0, z1), m
    path: str | None = None
    loop_radius: float | None = None    # m
    loop_current: float | None = None   # A
    x_span: tuple | None = None         # (min, max, n)
    y_span: tuple | None = None
    z_span: tuple | None = None


class RunConfig(NamedTuple):
    scenario: str
    cavity: CavityMode
    ensemble: EnsembleSpec
    laser: LaserSpec
    powers_dbm: tuple
    field_sweep: SweepSpec          # tesla
    field_angles: tuple             # (theta_x, theta_y, theta_z), rad
    frequency_sweep: SweepSpec      # rad/s
    field_map: FieldMapSpec
    output_dir: str
    sha256: str


class _Validator:
    def __init__(self):
        self.errors = []

    def fail(self, where, message):
        """Record one problem; returns None, the value a failed reader gives."""
        self.errors.append(f"{where}: {message}")


_REQUIRED = object()
# Key suffixes of plain-frequency values, converted to rad/s when the specs are built.
_HZ = ("_hz", "_hz_per_photon")


class _Key(NamedTuple):
    """One JSON key of a config object: the spec attribute it fills and its reader.

    ``read(v, where, value)`` returns the parsed value, or None after
    ``v.fail``.  ``default`` is the value of an absent key: ``_REQUIRED`` makes
    absence an error, and None also lets the key be null.
    """

    key: str
    attr: str
    read: Callable
    default: object = _REQUIRED


def _is_real(x):
    """A finite JSON number; an integer too large for a double is not finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _number(low=None, high=None, *, strict=False, integer=False):
    """Reader of a finite number in [low, high], or above ``low`` when ``strict``."""

    def read(v, where, value):
        if value is None:
            return v.fail(where, "must not be null")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return v.fail(where, f"expected a number, got {value!r}")
        if not _is_real(value):
            return v.fail(where, "must be finite")
        value = float(value)
        if integer and value != int(value):
            return v.fail(where, f"expected an integer, got {value!r}")
        if low is not None and (value <= low if strict else value < low):
            return v.fail(where, f"must be {'>' if strict else '>='} {low}, got {value!r}")
        if high is not None and value > high:
            return v.fail(where, f"must be <= {high}, got {value!r}")
        return int(value) if integer else value

    return read


_ANY = _number()
_POSITIVE = _number(0, strict=True)
_NONNEGATIVE = _number(0)
_POLARIZATION = _number(-1.0, 0.0)  # the model has no gain path, so P_zS > 0 is an error
_MAX_STEPS = 10**6
_MAX_GRID_POINTS = 10**7  # also the bound of field steps x frequency steps of a sweep
_STEPS = _number(2, _MAX_STEPS, integer=True)


def _pairs(form, size, fault=None):
    """Reader of a list of ``size`` finite numbers whose (min, max) pairs increase, as floats.

    A pair that does not increase is reported as ``fault``, or else like any
    other list that is not ``form``.
    """

    def read(v, where, value):
        malformed = f"expected {form}, got {value!r}"
        if not (isinstance(value, list) and len(value) == size and all(map(_is_real, value))):
            return v.fail(where, malformed)
        items = tuple(float(x) for x in value)
        if not all(lo < hi for lo, hi in zip(items[::2], items[1::2])):
            return v.fail(where, fault or malformed)
        return items

    return read


def _grid(v, where, value):
    if not (isinstance(value, list) and len(value) == 3
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 2 for n in value)):
        return v.fail(where, f"expected [nx, ny, nz] integers >= 2, got {value!r}")
    if math.prod(value) > _MAX_GRID_POINTS:
        return v.fail(where, f"nx * ny * nz must be <= {_MAX_GRID_POINTS}, got {math.prod(value)}")
    return tuple(value)


def _text(v, where, value):
    if isinstance(value, str) and value:
        return value
    return v.fail(where, f"expected a non-empty string, got {value!r}")


def _levels(v, where, value):
    """Laser level name -> intensity in W/m^2, in name order, without the levels that failed."""
    if not isinstance(value, dict) or not value:
        return v.fail(where, "expected a non-empty object of level -> W/m^2")
    levels = {}
    for name in sorted(value):
        if not name or any(c and c in name for c in ("/", os.sep, os.altsep, "\0")):
            v.fail(f"{where}.{name}", "a level name is part of its panel file names, so it must be "
                                      f"non-empty with no path separator or NUL, got {name!r}")
        else:
            levels[name] = _NONNEGATIVE(v, f"{where}.{name}", value[name])
    return {name: x for name, x in levels.items() if x is not None}


def _scenario(v, where, value):
    if isinstance(value, str) and value.lower() in (SCENARIO_NV, SCENARIO_P1):
        return value.lower()
    return v.fail(where, f"must be 'nv' or 'p1', got {value!r}")


def _dbm(v, where, value):
    """A finite dBm value whose power in watts is a finite double too."""
    value = _ANY(v, where, value)
    if value is not None:
        try:
            dbm_to_watts(value)
        except OverflowError:
            return v.fail(where, f"overflows when converted to watts, got {value!r}")
    return value


def _powers(v, where, value):
    if not isinstance(value, list) or not value:
        return v.fail(where, "expected a non-empty list of dBm values")
    powers = [_dbm(v, f"{where}[{i}]", x) for i, x in enumerate(value)]
    return None if None in powers else tuple(powers)


def _section(rows):
    """Reader of a nested object with the keys of ``rows``."""

    def read(v, where, value):
        if not isinstance(value, dict):
            return v.fail(where, "expected an object")
        return _read(v, where, value, rows)

    return read


def _field_map(v, where, value):
    """Reader of the field-map object, whose keys depend on its ``source``."""
    if not isinstance(value, dict):
        return v.fail(where, "expected an object")
    source = value.get("source")
    rows = _FIELD_MAPS.get(source) if isinstance(source, str) else None
    if rows is None:
        return v.fail(f"{where}.source", f"must be 'loop' or 'file', got {source!r}")
    return _read(v, where, value, rows)


def _read(v, path, obj, rows):
    """The values of ``obj`` by key, as read by ``rows``: unknown keys first, then each row.

    A Hz value whose angular frequency overflows is a fault of its key.
    """
    for key in sorted(set(obj) - {row.key for row in rows}):
        v.fail(f"{path}.{key}", "unknown key")
    values = {}
    for row in rows:
        where = f"{path}.{row.key}"
        if row.key in obj and not (obj[row.key] is None and row.default is None):
            value = row.read(v, where, obj[row.key])
            if row.key.endswith(_HZ) and value is not None and not math.isfinite(TWO_PI * value):
                value = v.fail(where, f"overflows when converted to rad/s, got {value!r}")
            values[row.key] = value
        elif row.default is _REQUIRED:
            values[row.key] = v.fail(where, "missing required key")
        else:
            values[row.key] = row.default
    return values


def _spec_fields(rows, values):
    """Spec keyword arguments from one object's values; ``*_hz`` and ``*_hz_per_photon`` times 2 pi."""
    fields = {row.attr: values[row.key] for row in rows}
    for row in rows:
        if row.key.endswith(_HZ) and values[row.key] is not None:
            fields[row.attr] = TWO_PI * values[row.key]
    return fields


_CAVITY = (
    _Key("omega_c_hz", "omega_c", _POSITIVE),
    _Key("gamma_c_hz", "gamma_c", _POSITIVE),
    _Key("gamma_f_hz", "gamma_f", _POSITIVE),
    _Key("kerr_hz_per_photon", "kerr", _ANY, 0.0),
    _Key("cubic_damping_hz_per_photon", "cubic_damping", _NONNEGATIVE, 0.0),
)
_ENSEMBLE = (
    _Key("density_per_m3", "density", _POSITIVE),
    _Key("t2_s", "t2", _POSITIVE),
    _Key("t1_thermal_laser_off_s", "t1_thermal_off", _POSITIVE),
    _Key("p_zs_thermal", "p_zs_thermal", _POLARIZATION),
    _Key("g_s_laser_off_hz", "g_s_off", _POSITIVE),
    _Key("sample_volume_m3", "sample_volume", _POSITIVE),
    # The laser-on values: optional and nullable, but required by a non-zero laser level.
    _Key("t1_thermal_laser_on_s", "t1_thermal_on", _POSITIVE, None),
    _Key("p_zs_optical", "p_zs_optical", _POLARIZATION, None),
    _Key("g_s_laser_on_hz", "g_s_on", _POSITIVE, None),
)
_LASER = (
    _Key("levels_w_per_m2", "levels", _levels),
    _Key("cross_section_m2", "cross_section", _POSITIVE, 3e-21),
    _Key("wavelength_m", "wavelength", _POSITIVE, 532e-9),
    _Key("pumping_efficiency", "efficiency", _POSITIVE, 0.16),
)
_FIELD_SWEEP = (
    _Key("min_t", "start", _POSITIVE),
    _Key("max_t", "stop", _POSITIVE),
    _Key("steps", "steps", _STEPS),
    _Key("theta_x_rad", "theta_x", _ANY),
    _Key("theta_y_rad", "theta_y", _ANY),
    _Key("theta_z_rad", "theta_z", _ANY),
)
_FREQUENCY_SWEEP = (
    _Key("min_hz", "start", _POSITIVE),
    _Key("max_hz", "stop", _POSITIVE),
    _Key("steps", "steps", _STEPS),
)
_SOURCE = _Key("source", "source", _text)
_REGION = _Key("region_bounds_m", "region_bounds",
               _pairs("[x0, x1, y0, y1, z0, z1]", 6, "each (min, max) pair must be increasing"))
_SPAN = _pairs("[min, max] with min < max", 2)
_FIELD_MAPS = {
    "loop": (
        _SOURCE,
        _Key("loop_radius_m", "loop_radius", _POSITIVE),
        _Key("loop_current_a", "loop_current", _POSITIVE),
        _Key("x_span_m", "x_span", _SPAN),
        _Key("y_span_m", "y_span", _SPAN),
        _Key("z_span_m", "z_span", _SPAN),
        _Key("grid_points", "grid_points", _grid),
        _REGION,
    ),
    "file": (_SOURCE, _Key("path", "path", _text), _REGION),
}
_TOP = (
    _Key("scenario", "scenario", _scenario),
    _Key("cavity", "cavity", _section(_CAVITY)),
    _Key("ensemble", "ensemble", _section(_ENSEMBLE)),
    _Key("laser", "laser", _section(_LASER)),
    _Key("powers_dbm", "powers_dbm", _powers),
    _Key("field_sweep", "field_sweep", _section(_FIELD_SWEEP)),
    _Key("frequency_sweep", "frequency_sweep", _section(_FREQUENCY_SWEEP)),
    _Key("field_map", "field_map", _field_map),
    _Key("output_dir", "output_dir", _text, "out"),
)


def _canonical_sha256(raw):
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return sha256(blob).hexdigest()


def validate_config(raw) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig.

    Raises ConfigError carrying every problem found, not just the first.
    """
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    v = _Validator()
    top = _read(v, "config", raw, _TOP)

    ensemble = top["ensemble"] or {}
    if ensemble.get("p_zs_thermal") == 0.0:
        v.fail("config.ensemble.p_zs_thermal", "must be non-zero (no polarized spins)")
    for name, lo, hi in (("field_sweep", "min_t", "max_t"),
                         ("frequency_sweep", "min_hz", "max_hz")):
        sweep = top[name] or {}
        if None not in (sweep.get(lo), sweep.get(hi)) and not sweep[lo] < sweep[hi]:
            v.fail(f"config.{name}", f"{lo} must be < {hi} ({sweep[lo]!r} >= {sweep[hi]!r})")
    steps = [(top[name] or {}).get("steps") for name in ("field_sweep", "frequency_sweep")]
    if None not in steps and math.prod(steps) > _MAX_GRID_POINTS:
        v.fail("config.field_sweep.steps * config.frequency_sweep.steps",
               f"must be <= {_MAX_GRID_POINTS}, got {math.prod(steps)}")
    spins = (ensemble.get("density_per_m3"), ensemble.get("sample_volume_m3"))
    if None not in spins and not math.isfinite(math.prod(spins)):
        v.fail("config.ensemble", "density_per_m3 * sample_volume_m3 overflows "
                                  f"({spins[0]!r} * {spins[1]!r})")
    levels = (top["laser"] or {}).get("levels_w_per_m2") or {}
    if ensemble and any(i > 0.0 for i in levels.values()):
        for row in _ENSEMBLE:
            if row.default is None and raw["ensemble"].get(row.key) is None:
                v.fail(f"config.ensemble.{row.key}",
                       "required because a laser level has non-zero intensity")
    if v.errors:
        raise ConfigError(v.errors)

    sweep = _spec_fields(_FIELD_SWEEP, top["field_sweep"])
    angles = tuple(sweep.pop(name) for name in ("theta_x", "theta_y", "theta_z"))
    field_map = _spec_fields(_FIELD_MAPS[top["field_map"]["source"]], top["field_map"])
    if field_map["source"] == "loop":
        grid = field_map.pop("grid_points")
        for axis, n in zip(("x_span", "y_span", "z_span"), grid):
            field_map[axis] += (n,)
    return RunConfig(
        scenario=top["scenario"],
        cavity=CavityMode(**_spec_fields(_CAVITY, top["cavity"])),
        ensemble=EnsembleSpec(**_spec_fields(_ENSEMBLE, top["ensemble"])),
        laser=LaserSpec(**_spec_fields(_LASER, top["laser"])),
        powers_dbm=top["powers_dbm"],
        field_sweep=SweepSpec(**sweep),
        field_angles=angles,
        frequency_sweep=SweepSpec(**_spec_fields(_FREQUENCY_SWEEP, top["frequency_sweep"])),
        field_map=FieldMapSpec(**field_map),
        output_dir=top["output_dir"],
        sha256=_canonical_sha256(raw),
    )


def load_config_raw(path) -> dict:
    """Parse a JSON config file without validating it; its top level must be an object."""
    with open(path) as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"], path)
    return raw


def list_presets():
    root = resources.files("cdmr").joinpath("presets")
    return tuple(sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json")))


def load_preset_raw(name) -> dict:
    root = resources.files("cdmr").joinpath("presets")
    candidate = root.joinpath(f"{name}.json")
    if not candidate.is_file():
        raise ConfigError(
            [f"unknown preset {name!r}; available: {', '.join(list_presets())}"]
        )
    return json.loads(candidate.read_text())


def load_preset(name) -> RunConfig:
    return validate_config(load_preset_raw(name))


def apply_overrides(raw, assignments):
    """Apply ``section.key=value`` strings to a parsed config dict.

    Values are parsed as JSON when possible, kept as strings otherwise.  The
    modified dict still goes through full validation, so a typo in the path
    surfaces as an unknown-key error.
    """
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError([f"override {assignment!r}: expected key.path=value"])
        dotted, text = assignment.split("=", 1)
        keys = [k for k in dotted.strip().split(".") if k]
        if not keys:
            raise ConfigError([f"override {assignment!r}: empty key path"])
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        node = out
        for key in keys[:-1]:
            nxt = node.get(key) if isinstance(node, dict) else None
            if not isinstance(nxt, dict):
                nxt = {}
                node[key] = nxt
            node = nxt
        node[keys[-1]] = value
    return out


class LaserLevel(NamedTuple):
    """One laser level resolved to the plain numbers the spin groups read.

    ``g_s`` is the laser-off or laser-on single-spin coupling in rad/s and
    ``t1``, ``p_zs`` the effective (T1 in s, P_zS).  ``n_eff`` is the polarized
    spins behind one spin group, counting |P_zS|.  NV: the density is split
    equally over the four orientation classes and both transitions of a class
    carry the full class population (the same ground-state spins respond on
    either branch in linear response).  P1: the density is split over the
    four hyperfine-axis classes and the three nuclear manifolds.
    """

    name: str
    intensity: float                # W/m^2
    g_s: float                      # rad/s
    t1: float                       # s
    p_zs: float
    n_eff: float


def laser_level(config: RunConfig, name=None) -> LaserLevel:
    """The configured laser level ``name`` resolved; None is the laser off, named "off".

    Laser off keeps the thermal values; laser on switches to the laser-on
    thermal T1 and coupling and adds the optical pumping channel at rate
    efficiency * I_L * sigma * lambda / (h c).
    """
    if name is None:
        name, intensity = "off", 0.0
    elif name in config.laser.levels:
        intensity = config.laser.levels[name]
    else:
        raise ConfigError(
            [f"laser level {name!r} not in config; available: {', '.join(config.laser.level_names())}"]
        )
    ens = config.ensemble
    if intensity == 0.0:
        g_s = ens.g_s_off
        t1, p_zs = effective_relaxation(
            t1_thermal=ens.t1_thermal_off, p_zs_thermal=ens.p_zs_thermal,
            t1_optical=math.inf, p_zs_optical=0.0,
        )
    else:
        # validate_config requires the laser-on values when a level is non-zero.
        g_s = ens.g_s_on
        rate = optical_pumping_rate(intensity, config.laser.cross_section,
                                    config.laser.wavelength, config.laser.efficiency)
        t1, p_zs = effective_relaxation(
            t1_thermal=ens.t1_thermal_on, p_zs_thermal=ens.p_zs_thermal,
            t1_optical=1.0 / rate, p_zs_optical=ens.p_zs_optical,
        )
    groups = len(NV_AXES) if config.scenario == SCENARIO_NV else len(NV_AXES) * 3
    n_eff = ens.density * ens.sample_volume * abs(p_zs) / groups
    return LaserLevel(name, intensity, g_s, t1, p_zs, n_eff)


def group_builder(config: RunConfig, level: LaserLevel):
    """Callable ``build(b_mags, b_hat) -> SpinBank`` for the configured scenario.

    The fields are :func:`sweep_fields`.  NV: ``nv_transition_frequencies(fields)``,
    two groups per orientation class.  P1: ``p1_transition_frequencies(fields,
    NV_AXES)``, one group per (hyperfine-axis class, nuclear line).  Every group
    carries the ``g_s``, T1 and ``n_eff`` of the resolved :func:`laser_level`
    ``level``.  A field the line formula rejects raises RuntimeError naming it.
    """
    omega_c = config.cavity.omega_c

    if config.scenario == SCENARIO_NV:
        labels = tuple(f"{label}{branch}" for label in NV_AXIS_LABELS for branch in "-+")

        def lines(fields):
            return nv_transition_frequencies(fields)
    else:
        labels = tuple(f"{label}m{j}" for label in NV_AXIS_LABELS for j in range(3))

        def lines(fields):
            return p1_transition_frequencies(fields, NV_AXES)

    def build(b_mags, b_hat):
        b_mags, fields = sweep_fields(b_mags, b_hat)
        omega_s = sweep_lines(lines, b_mags, fields)
        return SpinBank(b_mags=b_mags, labels=labels, delta=omega_c - omega_s, g_s=level.g_s,
                        n_eff=level.n_eff, t1=level.t1, t2=config.ensemble.t2)

    return build


def build_field_map(config: RunConfig) -> FieldMap:
    spec = config.field_map
    if spec.source == "file":
        return load_field_map(spec.path)
    return generate_loop_field(
        radius=spec.loop_radius, current=spec.loop_current,
        x_span=spec.x_span, y_span=spec.y_span, z_span=spec.z_span,
    )


def coupling_axes(config: RunConfig):
    """Defect quantization axes entering the coupling integral.

    NV spins quantize along their own defect axis; the two classes most
    aligned with the applied field are the ones brought into resonance, so
    those two enter the average.  P1 spins have an isotropic g-factor and
    quantize along the applied field itself.
    """
    b_hat = rotate_to_unit_vector(*config.field_angles)
    if config.scenario == SCENARIO_P1:
        return np.array([b_hat])
    alignment = np.abs(NV_AXES @ b_hat)
    best = np.argsort(alignment, kind="stable")[::-1][:2]
    return NV_AXES[np.sort(best)]
