"""Run configuration: JSON schema validation, units, and scenario builders.

All config keys carry explicit unit suffixes (``gamma_c_hz``,
``intensity_w_per_m2``) because unit mixups between Hz and rad/s, dBm and
watts, and mW/mm^2 and W/m^2 are the dominant error source in this problem
domain.  Frequencies in config files are plain Hz and are converted to rad/s
at the package boundary.  Validation collects every problem it finds before
reporting, and unknown keys are hard errors so typos cannot silently fall
back to defaults.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .cavity import CavityMode, SpinBank, sweep_failure
from .constants import DEFAULT_CONSTANTS, NV_AXES, NV_AXIS_LABELS, TWO_PI, PhysicalConstants
from .coupling import FieldMap, SampleRegion, generate_loop_field, load_field_map
from .polarization import OpticalParams, RelaxationState, effective_relaxation, optical_pumping_rate
from .spins import FieldOrientation, nv_transition_frequencies, p1_transition_frequencies

SCENARIO_NV = "nv"
SCENARIO_P1 = "p1"


class ConfigError(ValueError):
    """Validation failure carrying the full list of problems found."""

    def __init__(self, errors):
        self.errors = tuple(errors)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {e}" for e in self.errors))


def dbm_to_watts(dbm):
    """P[W] = 1e-3 * 10^(dBm/10)."""
    return 1e-3 * 10.0 ** (float(dbm) / 10.0)


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive linear sweep."""

    start: float
    stop: float
    steps: int

    def values(self):
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class LaserSpec:
    levels: dict            # level name -> intensity, W/m^2
    cross_section: float    # m^2
    wavelength: float       # m
    efficiency: float       # pumping events per absorbed photon

    def level_names(self):
        return tuple(sorted(self.levels))


@dataclass(frozen=True)
class EnsembleSpec:
    density: float              # spins per m^3
    t2: float                   # s
    t1_thermal_off: float       # s, laser off
    p_zs_thermal: float
    g_s_off: float              # rad/s
    sample_volume: float        # m^3
    t1_thermal_on: float | None = None   # s, laser on
    p_zs_optical: float | None = None
    g_s_on: float | None = None          # rad/s


@dataclass(frozen=True)
class FieldMapSpec:
    source: str                         # "loop" or "file"
    region_bounds: tuple                # (x0, x1, y0, y1, z0, z1), m
    path: str | None = None
    loop_radius: float | None = None    # m
    loop_current: float | None = None   # A
    x_span: tuple | None = None         # (min, max, n)
    y_span: tuple | None = None
    z_span: tuple | None = None


@dataclass(frozen=True)
class RunConfig:
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

    @property
    def powers_w(self):
        return tuple(dbm_to_watts(p) for p in self.powers_dbm)

    def field_orientation(self, magnitude=1.0):
        return FieldOrientation(*self.field_angles, magnitude)


class _Validator:
    def __init__(self):
        self.errors = []

    def fail(self, path, message):
        self.errors.append(f"{path}: {message}")

    def section(self, raw, key):
        """``raw[key]`` when it is an object, else None; any other present value is an error."""
        if isinstance(raw.get(key), dict):
            return raw[key]
        if key in raw:
            self.fail(f"config.{key}", "expected an object")
        return None

    def check_keys(self, obj, path, required, optional=()):
        if not isinstance(obj, dict):
            self.fail(path, f"expected an object, got {type(obj).__name__}")
            return False
        for key in sorted(set(obj) - set(required) - set(optional)):
            self.fail(f"{path}.{key}", "unknown key")
        ok = True
        for key in required:
            if key not in obj:
                self.fail(f"{path}.{key}", "missing required key")
                ok = False
        return ok

    def number(self, obj, path, key, *, positive=False, nonnegative=False,
               minimum=None, maximum=None, integer=False, default=None, allow_none=False):
        if key not in obj:
            return default
        value = obj[key]
        where = f"{path}.{key}"
        if value is None:
            if not allow_none:
                self.fail(where, "must not be null")
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(where, f"expected a number, got {value!r}")
            return None
        value = float(value)
        if not math.isfinite(value):
            self.fail(where, "must be finite")
            return None
        if integer and value != int(value):
            self.fail(where, f"expected an integer, got {value!r}")
            return None
        if positive and not value > 0.0:
            self.fail(where, f"must be > 0, got {value!r}")
            return None
        if nonnegative and value < 0.0:
            self.fail(where, f"must be >= 0, got {value!r}")
            return None
        if minimum is not None and value < minimum:
            self.fail(where, f"must be >= {minimum}, got {value!r}")
            return None
        if maximum is not None and value > maximum:
            self.fail(where, f"must be <= {maximum}, got {value!r}")
            return None
        return int(value) if integer else value

    def sweep(self, obj, path, min_key, max_key, *, positive=False):
        lo = self.number(obj, path, min_key, positive=positive)
        hi = self.number(obj, path, max_key, positive=positive)
        steps = self.number(obj, path, "steps", integer=True, minimum=2)
        if lo is not None and hi is not None and not lo < hi:
            self.fail(path, f"{min_key} must be < {max_key} ({lo!r} >= {hi!r})")
            return None
        if lo is None or hi is None or steps is None:
            return None
        return SweepSpec(start=lo, stop=hi, steps=steps)


def _canonical_sha256(raw):
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


_TOP_KEYS = ("scenario", "cavity", "ensemble", "laser", "powers_dbm",
             "field_sweep", "frequency_sweep", "field_map")
_TOP_OPTIONAL = ("output_dir",)


def validate_config(raw) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig.

    Raises ConfigError carrying every problem found, not just the first.
    """
    v = _Validator()
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    v.check_keys(raw, "config", _TOP_KEYS, _TOP_OPTIONAL)

    scenario = raw.get("scenario")
    if isinstance(scenario, str) and scenario.lower() in (SCENARIO_NV, SCENARIO_P1):
        scenario = scenario.lower()
    elif "scenario" in raw:
        v.fail("config.scenario", f"must be 'nv' or 'p1', got {scenario!r}")
        scenario = None

    cavity = None
    section = v.section(raw, "cavity")
    if section is not None:
        v.check_keys(section, "config.cavity",
                     ("omega_c_hz", "gamma_c_hz", "gamma_f_hz"),
                     ("kerr_hz_per_photon", "cubic_damping_hz_per_photon"))
        omega_c = v.number(section, "config.cavity", "omega_c_hz", positive=True)
        gamma_c = v.number(section, "config.cavity", "gamma_c_hz", positive=True)
        gamma_f = v.number(section, "config.cavity", "gamma_f_hz", positive=True)
        kerr = v.number(section, "config.cavity", "kerr_hz_per_photon", default=0.0)
        g_c = v.number(section, "config.cavity", "cubic_damping_hz_per_photon",
                       nonnegative=True, default=0.0)
        if None not in (omega_c, gamma_c, gamma_f, kerr, g_c):
            cavity = CavityMode(
                omega_c=TWO_PI * omega_c, gamma_c=TWO_PI * gamma_c,
                gamma_f=TWO_PI * gamma_f, kerr=TWO_PI * kerr, cubic_damping=TWO_PI * g_c,
            )

    ensemble = None
    section = v.section(raw, "ensemble")
    if section is not None:
        v.check_keys(section, "config.ensemble",
                     ("density_per_m3", "t2_s", "t1_thermal_laser_off_s",
                      "p_zs_thermal", "g_s_laser_off_hz", "sample_volume_m3"),
                     ("t1_thermal_laser_on_s", "p_zs_optical", "g_s_laser_on_hz"))
        density = v.number(section, "config.ensemble", "density_per_m3", positive=True)
        t2 = v.number(section, "config.ensemble", "t2_s", positive=True)
        t1_off = v.number(section, "config.ensemble", "t1_thermal_laser_off_s", positive=True)
        p_zst = v.number(section, "config.ensemble", "p_zs_thermal", minimum=-1.0, maximum=1.0)
        g_off = v.number(section, "config.ensemble", "g_s_laser_off_hz", positive=True)
        volume = v.number(section, "config.ensemble", "sample_volume_m3", positive=True)
        t1_on = v.number(section, "config.ensemble", "t1_thermal_laser_on_s",
                         positive=True, allow_none=True)
        p_zso = v.number(section, "config.ensemble", "p_zs_optical",
                         minimum=-1.0, maximum=1.0, allow_none=True)
        g_on = v.number(section, "config.ensemble", "g_s_laser_on_hz",
                        positive=True, allow_none=True)
        if p_zst == 0.0:
            v.fail("config.ensemble.p_zs_thermal", "must be non-zero (no polarized spins)")
        if None not in (density, t2, t1_off, p_zst, g_off, volume):
            ensemble = EnsembleSpec(
                density=density, t2=t2, t1_thermal_off=t1_off, p_zs_thermal=p_zst,
                g_s_off=TWO_PI * g_off, sample_volume=volume,
                t1_thermal_on=t1_on, p_zs_optical=p_zso,
                g_s_on=None if g_on is None else TWO_PI * g_on,
            )

    laser = None
    section = v.section(raw, "laser")
    if section is not None:
        v.check_keys(section, "config.laser", ("levels_w_per_m2",),
                     ("cross_section_m2", "wavelength_m", "pumping_efficiency"))
        levels = {}
        raw_levels = section.get("levels_w_per_m2")
        if isinstance(raw_levels, dict) and raw_levels:
            for name in sorted(raw_levels):
                value = v.number(raw_levels, "config.laser.levels_w_per_m2", name, nonnegative=True)
                if value is not None:
                    levels[name] = value
        elif "levels_w_per_m2" in section:
            v.fail("config.laser.levels_w_per_m2", "expected a non-empty object of level -> W/m^2")
        cross_section = v.number(section, "config.laser", "cross_section_m2",
                                 positive=True, default=3e-21)
        wavelength = v.number(section, "config.laser", "wavelength_m",
                              positive=True, default=532e-9)
        efficiency = v.number(section, "config.laser", "pumping_efficiency",
                              positive=True, default=0.16)
        if levels and None not in (cross_section, wavelength, efficiency):
            laser = LaserSpec(levels=levels, cross_section=cross_section,
                              wavelength=wavelength, efficiency=efficiency)

    powers = None
    if isinstance(raw.get("powers_dbm"), list) and raw["powers_dbm"]:
        powers = []
        for i, value in enumerate(raw["powers_dbm"]):
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(float(value))):
                v.fail(f"config.powers_dbm[{i}]", f"expected a finite number, got {value!r}")
                powers = None
                break
            powers.append(float(value))
        if powers is not None:
            powers = tuple(powers)
    elif "powers_dbm" in raw:
        v.fail("config.powers_dbm", "expected a non-empty list of dBm values")

    field_sweep = None
    angles = None
    section = v.section(raw, "field_sweep")
    if section is not None:
        v.check_keys(section, "config.field_sweep",
                     ("min_t", "max_t", "steps", "theta_x_rad", "theta_y_rad", "theta_z_rad"))
        field_sweep = v.sweep(section, "config.field_sweep", "min_t", "max_t", positive=True)
        ax = v.number(section, "config.field_sweep", "theta_x_rad")
        ay = v.number(section, "config.field_sweep", "theta_y_rad")
        az = v.number(section, "config.field_sweep", "theta_z_rad")
        if None not in (ax, ay, az):
            angles = (ax, ay, az)

    frequency_sweep = None
    section = v.section(raw, "frequency_sweep")
    if section is not None:
        v.check_keys(section, "config.frequency_sweep", ("min_hz", "max_hz", "steps"))
        hz = v.sweep(section, "config.frequency_sweep", "min_hz", "max_hz", positive=True)
        if hz is not None:
            frequency_sweep = SweepSpec(start=TWO_PI * hz.start, stop=TWO_PI * hz.stop,
                                        steps=hz.steps)

    field_map = None
    section = v.section(raw, "field_map")
    if section is not None:
        field_map = _validate_field_map(v, section)

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        v.fail("config.output_dir", f"expected a non-empty string, got {output_dir!r}")
        output_dir = "out"

    if ensemble is not None and laser is not None:
        needs_on = any(i > 0.0 for i in laser.levels.values())
        missing_on = [
            name for name, value in (
                ("t1_thermal_laser_on_s", ensemble.t1_thermal_on),
                ("p_zs_optical", ensemble.p_zs_optical),
                ("g_s_laser_on_hz", ensemble.g_s_on),
            ) if value is None
        ]
        if needs_on and missing_on:
            for name in missing_on:
                v.fail(f"config.ensemble.{name}",
                       "required because a laser level has non-zero intensity")

    if v.errors:
        raise ConfigError(v.errors)
    return RunConfig(
        scenario=scenario, cavity=cavity, ensemble=ensemble, laser=laser,
        powers_dbm=powers, field_sweep=field_sweep, field_angles=angles,
        frequency_sweep=frequency_sweep, field_map=field_map,
        output_dir=output_dir, sha256=_canonical_sha256(raw),
    )


def _validate_field_map(v, section):
    source = section.get("source")
    if source == "file":
        v.check_keys(section, "config.field_map", ("source", "path", "region_bounds_m"))
        path = section.get("path")
        if not isinstance(path, str) or not path:
            v.fail("config.field_map.path", f"expected a non-empty string, got {path!r}")
            path = None
        bounds = _validate_bounds(v, section)
        if path is None or bounds is None:
            return None
        return FieldMapSpec(source="file", path=path, region_bounds=bounds)
    if source == "loop":
        v.check_keys(section, "config.field_map",
                     ("source", "loop_radius_m", "loop_current_a",
                      "x_span_m", "y_span_m", "z_span_m", "grid_points", "region_bounds_m"))
        radius = v.number(section, "config.field_map", "loop_radius_m", positive=True)
        current = v.number(section, "config.field_map", "loop_current_a", positive=True)
        spans = {}
        for key in ("x_span_m", "y_span_m", "z_span_m"):
            pair = section.get(key)
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
                    or not all(math.isfinite(float(x)) for x in pair)
                    or not float(pair[0]) < float(pair[1])):
                v.fail(f"config.field_map.{key}", f"expected [min, max] with min < max, got {pair!r}")
            else:
                spans[key] = (float(pair[0]), float(pair[1]))
        grid = section.get("grid_points")
        counts = None
        if (isinstance(grid, list) and len(grid) == 3
                and all(isinstance(n, int) and not isinstance(n, bool) and n >= 2 for n in grid)):
            counts = tuple(grid)
        else:
            v.fail("config.field_map.grid_points", f"expected [nx, ny, nz] integers >= 2, got {grid!r}")
        bounds = _validate_bounds(v, section)
        if None in (radius, current, counts, bounds) or len(spans) != 3:
            return None
        return FieldMapSpec(
            source="loop", region_bounds=bounds, loop_radius=radius, loop_current=current,
            x_span=spans["x_span_m"] + (counts[0],),
            y_span=spans["y_span_m"] + (counts[1],),
            z_span=spans["z_span_m"] + (counts[2],),
        )
    v.fail("config.field_map.source", f"must be 'loop' or 'file', got {source!r}")
    return None


def _validate_bounds(v, section):
    bounds = section.get("region_bounds_m")
    if (not isinstance(bounds, list) or len(bounds) != 6
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in bounds)
            or not all(math.isfinite(float(x)) for x in bounds)):
        v.fail("config.field_map.region_bounds_m",
               f"expected [x0, x1, y0, y1, z0, z1], got {bounds!r}")
        return None
    bounds = tuple(float(x) for x in bounds)
    if not (bounds[0] < bounds[1] and bounds[2] < bounds[3] and bounds[4] < bounds[5]):
        v.fail("config.field_map.region_bounds_m", "each (min, max) pair must be increasing")
        return None
    return bounds


def load_config_raw(path) -> dict:
    """Parse a JSON config file without validating it."""
    with open(path) as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: invalid JSON: {exc}"]) from exc


def load_config(path) -> RunConfig:
    """Parse and validate a JSON config file."""
    return validate_config(load_config_raw(path))


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


def laser_relaxation(config: RunConfig, intensity, constants: PhysicalConstants = DEFAULT_CONSTANTS) -> RelaxationState:
    """Effective (T1, P_zS) for one laser intensity in W/m^2.

    Laser off keeps the thermal values; laser on switches to the laser-on
    thermal T1 and adds the optical pumping channel at rate
    efficiency * I_L * sigma * lambda / (h c).
    """
    ens = config.ensemble
    if intensity < 0.0 or not math.isfinite(intensity):
        raise ValueError(f"laser intensity must be finite and >= 0, got {intensity!r}")
    if intensity == 0.0:
        return effective_relaxation(
            t1_thermal=ens.t1_thermal_off, p_zs_thermal=ens.p_zs_thermal,
            t1_optical=math.inf, p_zs_optical=0.0,
        )
    if ens.t1_thermal_on is None or ens.p_zs_optical is None:
        raise ValueError("laser-on parameters missing from the ensemble config")
    optical = OpticalParams(
        intensity=intensity, cross_section=config.laser.cross_section,
        wavelength=config.laser.wavelength, efficiency=config.laser.efficiency,
    )
    rate = optical_pumping_rate(optical, constants)
    return effective_relaxation(
        t1_thermal=ens.t1_thermal_on, p_zs_thermal=ens.p_zs_thermal,
        t1_optical=1.0 / rate, p_zs_optical=ens.p_zs_optical,
    )


def coupling_for_level(config: RunConfig, intensity):
    """(g_s, T1 effective, P_zS effective) for a laser intensity."""
    ens = config.ensemble
    state = laser_relaxation(config, intensity)
    if intensity > 0.0:
        if ens.g_s_on is None:
            raise ValueError("g_s_laser_on_hz missing from the ensemble config")
        return ens.g_s_on, state
    return ens.g_s_off, state


def group_population(config: RunConfig, p_zs):
    """Polarized spins behind one spin group, n_eff.

    NV: the density is split equally over the four orientation classes and
    both transitions of a class carry the full class population (the same
    ground-state spins respond on either branch in linear response).
    P1: the density is split over the four hyperfine-axis classes and the
    three nuclear manifolds.
    """
    ens = config.ensemble
    n_total = ens.density * ens.sample_volume * abs(p_zs)
    if config.scenario == SCENARIO_NV:
        return n_total / len(NV_AXES)
    return n_total / (len(NV_AXES) * 3)


def group_builder(config: RunConfig, intensity, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Callable ``build(b_mags, b_hat) -> SpinBank`` for the configured scenario.

    The fields are ``b_mags[:, None] * (b_hat / |b_hat|)``.  NV: two groups
    (minus, plus) per orientation class.  P1: one group per (hyperfine-axis
    class, nuclear line).  Every group carries :func:`group_population`
    spins.  A field the line formula rejects raises RuntimeError naming it.
    """
    ens = config.ensemble
    g_s, state = coupling_for_level(config, intensity)
    share = group_population(config, state.p_zs)
    omega_c = config.cavity.omega_c

    if config.scenario == SCENARIO_NV:
        labels = tuple(f"{label}{branch}" for label in NV_AXIS_LABELS for branch in "-+")

        def lines(fields):
            table = nv_transition_frequencies(fields, constants)
            return np.stack([table.omega_minus, table.omega_plus], axis=-1).reshape(-1, 8)
    else:
        labels = tuple(f"{label}m{j}" for label in NV_AXIS_LABELS for j in range(3))

        def lines(fields):
            return np.hstack([p1_transition_frequencies(fields, axis, constants)
                              for axis in NV_AXES])

    def build(b_mags, b_hat):
        b_mags = np.asarray(b_mags, dtype=float)
        b_hat = np.asarray(b_hat, dtype=float)
        norm = np.linalg.norm(b_hat)
        if b_mags.ndim != 1 or b_mags.size == 0 or b_hat.shape != (3,) or norm == 0.0:
            raise ValueError("b_mags must be a non-empty 1-D array and b_hat a non-zero 3-vector")
        fields = b_mags[:, None] * (b_hat / norm)
        try:
            omega_s = lines(fields)
        except ValueError:
            # Rerun row by row to name the first field the formula rejects.
            for index in range(len(fields)):
                try:
                    lines(fields[index:index + 1])
                except ValueError as exc:
                    raise sweep_failure(b_mags, index, exc) from exc
            raise
        return SpinBank(b_mags=b_mags, labels=labels, omega_s=omega_s, delta=omega_c - omega_s,
                        g_s=g_s, n_eff=share, t1=state.t1, t2=ens.t2)

    return build


def build_field_map(config: RunConfig) -> FieldMap:
    spec = config.field_map
    if spec.source == "file":
        return load_field_map(spec.path)
    return generate_loop_field(
        radius=spec.loop_radius, current=spec.loop_current,
        x_span=spec.x_span, y_span=spec.y_span, z_span=spec.z_span,
    )


def build_sample_region(config: RunConfig, p_zs) -> SampleRegion:
    return SampleRegion(
        bounds=config.field_map.region_bounds,
        rho_s=config.ensemble.density,
        p_zs=p_zs,
    )


def coupling_axes(config: RunConfig, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Defect quantization axes entering the coupling integral.

    NV spins quantize along their own defect axis; the two classes most
    aligned with the applied field are the ones brought into resonance, so
    those two enter the average.  P1 spins have an isotropic g-factor and
    quantize along the applied field itself.
    """
    b_hat = config.field_orientation().unit_vector()
    if config.scenario == SCENARIO_P1:
        return np.array([b_hat])
    alignment = np.abs(NV_AXES @ b_hat)
    best = np.argsort(alignment, kind="stable")[::-1][:2]
    return NV_AXES[np.sort(best)]
