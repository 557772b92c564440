"""Seeded inputs and command lists of the three benchmark workloads.

A workload is a fixed list of CLI invocations plus the input files they read.
The seed only changes values inside those inputs (angles, field windows,
detunings, synthetic data); the number of commands, the grid sizes and the
set of invocations that are expected to fail never depend on it, so every
pass of every run does the same amount of work and fails the same share.

Each command has a role that names the end-to-end metric its wall time
feeds (see ROLES); commands without a role only count toward ``workload_s``.
"""

import copy
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles

# End-to-end metric slot fed by each role, per workload.  The benchmark
# contract requires every end-to-end metric on every workload, so the
# per-command figures share three generic slots; ROLE_NAMES gives the
# command-specific name printed in the human-readable summary.
ROLES = {"heavy": "heavy_cmd_s", "second": "second_cmd_s", "short": "short_cmd_s"}
ROLE_NAMES = {
    "maps": {"heavy": "cdmr_nv_s", "second": "cdmr_p1_s", "short": "freqs_s"},
    "fieldmap-io": {"heavy": "gen_loop_s", "second": "coupling_file_s",
                    "short": "coupling_loop_s"},
    "analysis": {"heavy": "fit_orientation_mc_s", "second": "bistability_s",
                 "short": "expand_sens_fits_s"},
}

# Copies of the shipped presets, kept here so that the workloads do not move
# when a preset file changes.
NV_BASE = {
    "scenario": "nv",
    "cavity": {"omega_c_hz": 2530000000.0, "gamma_c_hz": 253000.0, "gamma_f_hz": 367000.0,
               "kerr_hz_per_photon": 0.0, "cubic_damping_hz_per_photon": 0.0},
    "ensemble": {"density_per_m3": 1.23e23, "t2_s": 2.19e-07,
                 "t1_thermal_laser_off_s": 0.565, "t1_thermal_laser_on_s": 0.023,
                 "p_zs_thermal": -0.035, "p_zs_optical": -0.55,
                 "g_s_laser_off_hz": 2.72, "g_s_laser_on_hz": 5.05,
                 "sample_volume_m3": 7.6e-10},
    "laser": {"levels_w_per_m2": {"L0": 0.0, "L1": 5600.0, "L2": 12800.0, "L3": 30000.0},
              "cross_section_m2": 3e-21, "wavelength_m": 5.32e-07, "pumping_efficiency": 0.16},
    "powers_dbm": [-90, -70, -60, -50],
    "field_sweep": {"min_t": 0.014, "max_t": 0.02, "steps": 200,
                    "theta_x_rad": -0.6283185307179586, "theta_y_rad": 0.006283185307179587,
                    "theta_z_rad": 0.15707963267948966},
    "frequency_sweep": {"min_hz": 2525000000.0, "max_hz": 2535000000.0, "steps": 200},
    "field_map": {"source": "loop", "loop_radius_m": 0.001, "loop_current_a": 1.0,
                  "x_span_m": [-0.0005, 0.0005], "y_span_m": [-0.0005, 0.0005],
                  "z_span_m": [0.0002, 0.00112], "grid_points": [50, 50, 46],
                  "region_bounds_m": [-0.0005, 0.0005, -0.0005, 0.0005, 0.0002, 0.00096]},
    "output_dir": "out",
}
P1_BASE = {
    **copy.deepcopy(NV_BASE),
    "scenario": "p1",
    "cavity": {"omega_c_hz": 2530000000.0, "gamma_c_hz": 304000.0, "gamma_f_hz": 349000.0,
               "kerr_hz_per_photon": 0.0, "cubic_damping_hz_per_photon": 0.0},
    "ensemble": {"density_per_m3": 1e24, "t2_s": 4.38e-07, "t1_thermal_laser_off_s": 0.47,
                 "p_zs_thermal": -0.035, "g_s_laser_off_hz": 2.72, "sample_volume_m3": 7.6e-10},
    "laser": {"levels_w_per_m2": {"L0": 0.0}, "cross_section_m2": 3e-21,
              "wavelength_m": 5.32e-07, "pumping_efficiency": 0.16},
    "powers_dbm": [-90, -80, -70],
    "field_sweep": {"min_t": 0.085, "max_t": 0.095, "steps": 200,
                    "theta_x_rad": 0.0, "theta_y_rad": 0.0, "theta_z_rad": 0.0},
}

MC_TRIALS = 100
MC_KEYS = ("fit_orientation_a", "fit_orientation_b")
MC_NOISE_FRAC = 1e-4
TRUTH_JITTER = 0.01
START_OFFSET = 0.01
ODMR_RECORDS = 12
TRACE_POINTS = 201


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``key`` also names its output directory."""

    key: str
    argv: tuple
    role: str = ""
    expect_fail: bool = False


@dataclass
class Workload:
    name: str
    commands: list
    spec: dict = field(default_factory=dict)  # what the oracles need


def _write_json(path, obj):
    Path(path).write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _cmd(key, out, *argv, role="", expect_fail=False):
    return Command(key, (*argv, "--output-dir", str(out / key)), role, expect_fail)


def _sci(value):
    # Scientific notation, as users type detunings; a negative value in this
    # form is what argparse mistakes for an option flag.
    return f"{value:.6e}"


def _shift_window(sweep, rng, lo_key, hi_key, frac):
    width = sweep[hi_key] - sweep[lo_key]
    shift = float(rng.uniform(-frac, frac)) * width
    sweep[lo_key] += shift
    sweep[hi_key] += shift


def _jitter_powers(raw, rng):
    raw["powers_dbm"] = [float(p + rng.uniform(-2.0, 2.0)) for p in raw["powers_dbm"]]


def build_maps(rng, inputs, out):
    nv = copy.deepcopy(NV_BASE)
    for key in ("theta_x_rad", "theta_y_rad", "theta_z_rad"):
        nv["field_sweep"][key] += float(rng.uniform(-0.05, 0.05))
    _shift_window(nv["field_sweep"], rng, "min_t", "max_t", 0.05)
    _jitter_powers(nv, rng)
    p1 = copy.deepcopy(P1_BASE)
    # The field stays along [001], at the magic angle to every <111> axis;
    # a rotation about z leaves it there.
    p1["field_sweep"]["theta_z_rad"] = float(rng.uniform(-0.5, 0.5))
    _shift_window(p1["field_sweep"], rng, "min_t", "max_t", 0.05)
    _jitter_powers(p1, rng)
    nv_path, p1_path = inputs / "nv.json", inputs / "p1.json"
    _write_json(nv_path, nv)
    _write_json(p1_path, p1)
    commands = [
        _cmd("cdmr_nv", out, "cdmr", "--config", str(nv_path), role="heavy"),
        _cmd("cdmr_p1", out, "cdmr", "--config", str(p1_path), role="second"),
        _cmd("nv_freqs", out, "nv-freqs", "--exact", "--config", str(nv_path), role="short"),
        _cmd("p1_freqs", out, "p1-freqs", "--config", str(p1_path), role="short"),
    ]
    spec = {"nv": nv, "p1": p1, "pixel_seed": int(rng.integers(2**31))}
    return commands, spec


def build_fieldmap_io(rng, inputs, out):
    loop = copy.deepcopy(NV_BASE)
    for key in ("theta_x_rad", "theta_y_rad", "theta_z_rad"):
        loop["field_sweep"][key] += float(rng.uniform(-0.05, 0.05))
    loop["field_map"]["loop_radius_m"] = float(1e-3 * rng.uniform(0.9, 1.3))
    loop["field_map"]["loop_current_a"] = float(rng.uniform(0.5, 2.0))
    map_path = out / "gen_loop" / "loop_fieldmap.csv"
    from_file = copy.deepcopy(loop)
    from_file["field_map"] = {"source": "file", "path": str(map_path),
                              "region_bounds_m": loop["field_map"]["region_bounds_m"]}
    loop_path, file_path = inputs / "loop.json", inputs / "file.json"
    _write_json(loop_path, loop)
    _write_json(file_path, from_file)
    levels = sorted(loop["laser"]["levels_w_per_m2"])
    file_level = str(rng.choice(levels))
    commands = [
        _cmd("gen_loop", out, "fieldmap", "gen-loop", "--config", str(loop_path),
             "--output", map_path.name, role="heavy"),
        _cmd("coupling_file", out, "coupling", "--config", str(file_path),
             "--laser-level", file_level, role="second"),
    ]
    commands += [
        _cmd(f"coupling_{level}", out, "coupling", "--config", str(loop_path),
             "--laser-level", level, role="short")
        for level in levels
    ]
    spec = {"loop": loop, "file": from_file, "file_level": file_level, "levels": levels,
            "map_path": str(map_path), "sample_seed": int(rng.integers(2**31))}
    return commands, spec


def _log_uniform(rng, lo, hi):
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def build_analysis(rng, inputs, out):
    nv = copy.deepcopy(NV_BASE)
    nv_path = inputs / "nv.json"
    _write_json(nv_path, nv)
    cfg = ("--config", str(nv_path))
    levels = sorted(nv["laser"]["levels_w_per_m2"])
    cases = []
    commands = []
    # Spin-dominated grid: two positive and two negative detunings each for
    # bistability and expand.  The negative ones fail while argparse reads
    # "-1.5e+06" as a flag.
    for kind, n_each in (("bistability", 2), ("expand", 2)):
        for sign in (1.0, -1.0):
            for i in range(n_each):
                delta = sign * _log_uniform(rng, 0.3e6, 5e6)
                level = str(rng.choice(levels))
                key = f"{kind}_{'pos' if sign > 0 else 'neg'}{i}"
                role = "second" if kind == "bistability" else "short"
                commands.append(_cmd(key, out, kind, *cfg, "--delta-hz", _sci(delta),
                                     "--laser-level", level, role=role,
                                     expect_fail=sign < 0))
                cases.append({"key": key, "kind": kind, "delta_hz": float(_sci(delta)),
                              "level": level, "kerr_hz": 0.0})
    # Kerr-dominated cases: an intrinsic Kerr term far above the spin terms
    # puts the onset at the Yurke-Buks cusp.
    for i in range(2):
        delta = _log_uniform(rng, 0.3e6, 5e6)
        kerr = _log_uniform(rng, 5e4, 5e5)
        level = str(rng.choice(levels))
        key = f"bistability_kerr{i}"
        commands.append(_cmd(key, out, "bistability", *cfg, "--delta-hz", _sci(delta),
                             "--laser-level", level,
                             "--set", f"cavity.kerr_hz_per_photon={kerr!r}", role="second"))
        cases.append({"key": key, "kind": "bistability", "delta_hz": float(_sci(delta)),
                      "level": level, "kerr_hz": kerr})

    n_eff = _log_uniform(rng, 1e11, 3e12)
    commands.append(_cmd("sensitivity", out, "sensitivity", *cfg, "--n-eff", repr(n_eff),
                         role="short"))

    angles = np.array([nv["field_sweep"][k] for k in ("theta_x_rad", "theta_y_rad",
                                                      "theta_z_rad")])
    truth = angles + np.array([*rng.uniform(-TRUTH_JITTER, TRUTH_JITTER, 2), 0.0])
    turn = float(rng.uniform(0.0, 2.0 * math.pi))
    initial = truth + START_OFFSET * np.array([math.cos(turn), math.sin(turn), 0.0])
    b_hat = oracles.field_direction(*truth)
    lines_path = inputs / "lines.csv"
    rows = ["b_t," + ",".join(f"f{i}_hz" for i in range(8))]
    for b_mag in np.linspace(0.014, 0.02, ODMR_RECORDS):
        minus, plus = oracles.nv_lines(b_mag * b_hat)
        rows.append(",".join(repr(float(v)) for v in (b_mag, *(minus / oracles.TWO_PI),
                                                        *(plus / oracles.TWO_PI))))
    lines_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    # Two Monte Carlo refits per pass, with their own noise seeds, give the
    # heavy-command median twice the samples.
    mc_seeds = {key: int(rng.integers(2**31)) for key in MC_KEYS}
    for key, mc_seed in mc_seeds.items():
        commands.append(_cmd(
            key, out, "fit-orientation", *cfg, "--data", str(lines_path),
            "--initial=" + ",".join(repr(float(v)) for v in initial),
            "--monte-carlo", str(MC_TRIALS), "--noise-frac", repr(MC_NOISE_FRAC),
            "--seed", str(mc_seed), role="heavy"))

    cavity = {"f_c_hz": 2.53e9 + float(rng.uniform(-50e3, 50e3)),
              "gamma_c_hz": 253e3 * float(rng.uniform(0.9, 1.1)),
              "gamma_f_hz": 367e3 * float(rng.uniform(0.9, 1.1))}
    f_hz = np.linspace(cavity["f_c_hz"] - 3e6, cavity["f_c_hz"] + 3e6, TRACE_POINTS)
    r_c = oracles.bare_reflectivity(f_hz, cavity["f_c_hz"], cavity["gamma_c_hz"],
                                    cavity["gamma_f_hz"])
    trace_path = inputs / "trace.csv"
    _write_trace(trace_path, "freq_hz,rc", f_hz, r_c)
    commands.append(_cmd("fit_cavity", out, "fit-cavity", *cfg, "--data", str(trace_path),
                         role="short"))

    dip = {"center_hz": 2.53e9 + float(rng.uniform(-1e6, 1e6)),
           "fwhm_hz": float(rng.uniform(0.5e6, 2e6)),
           "depth": float(rng.uniform(0.2, 0.8)),
           "offset": float(rng.uniform(0.9, 1.0))}
    f_hz = np.linspace(dip["center_hz"] - 5e6, dip["center_hz"] + 5e6, TRACE_POINTS)
    signal = oracles.lorentzian_dip(f_hz, dip["center_hz"], dip["fwhm_hz"], dip["depth"],
                                    dip["offset"])
    dip_path = inputs / "dip.csv"
    _write_trace(dip_path, "freq_hz,signal", f_hz, signal)
    commands.append(_cmd("fit_fwhm", out, "fit-fwhm", *cfg, "--data", str(dip_path),
                         role="short"))

    spec = {"nv": nv, "cases": cases, "n_eff": n_eff,
            "orientation": {"truth": truth.tolist(), "initial": initial.tolist(),
                            "trials": MC_TRIALS, "noise_frac": MC_NOISE_FRAC,
                            "seeds": mc_seeds},
            "cavity": cavity, "dip": dip}
    return commands, spec


def _write_trace(path, header, f_hz, values):
    rows = [header] + [f"{float(f)!r},{float(v)!r}" for f, v in zip(f_hz, values)]
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


BUILDERS = {"maps": build_maps, "fieldmap-io": build_fieldmap_io, "analysis": build_analysis}


def build(name, seed, work):
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    inputs, out = work / "inputs", work / "out"
    inputs.mkdir(parents=True)
    out.mkdir()
    rng = np.random.default_rng(seed)
    commands, spec = BUILDERS[name](rng, inputs, out)
    for command in commands:
        (out / command.key).mkdir()
    return Workload(name=name, commands=commands, spec={**spec, "out": str(out)})
