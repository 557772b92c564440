"""Command-line interface: reproducible parameter sweeps and fits.

Every run is driven by a JSON config (shipped preset or user file, with
``--set section.key=value`` overrides applied before validation).  Output
files embed the SHA-256 of the effective config and the package version, so
a result file always identifies the exact inputs that produced it.

Exit codes: 0 success, 1 configuration or input validation error,
2 numerical failure (diverged fit, singular system, failed sweep, a result
that is not a finite number) or command-line usage error.
"""

import argparse
import contextlib
import json
import math
import os
import re
import sys
import warnings
from typing import NamedTuple

import numpy as np

from . import __version__
from .cavity import SpinBank, cdmr_sweep, drive_power, sweep_lines
from .config import (
    ConfigError,
    LaserLevel,
    RunConfig,
    apply_overrides,
    build_field_map,
    coupling_axes,
    dbm_to_watts,
    group_builder,
    laser_level,
    list_presets,
    load_config_raw,
    load_preset_raw,
    validate_config,
    watts_to_dbm,
)
from .constants import NV_AXES, NV_AXIS_LABELS, TWO_PI
from .coupling import effective_coupling, save_field_map
from .fitting import (
    fit_cavity_lineshape,
    fit_lorentzian_fwhm,
    fit_orientation,
    fit_orientations,
    load_odmr_csv,
    load_trace_csv,
)
from .floattext import csv_blocks, csv_text
from .nonlinear import (
    bistability_onset,
    cooperativity,
    critical_photon_number,
    sensitivity,
    weak_expansion,
)
from .panels import in_processes
from .spins import (
    defect_frame_components,
    nv_exact_transitions,
    nv_transition_frequencies,
    p1_transition_frequencies,
    rotate_to_unit_vector,
    sweep_fields,
)

_DEFAULT_PRESET = "nv_default"


def _load_raw_config(args):
    """The run's unvalidated config and where it comes from, as its error header names it."""
    if args.config:
        source, raw = args.config, load_config_raw(args.config)
    else:
        name = args.preset or _DEFAULT_PRESET
        source, raw = f"preset {name}", load_preset_raw(name)
    if args.set:
        source += " with --set overrides"
        raw = apply_overrides(raw, args.set)
    if args.output_dir:
        raw["output_dir"] = args.output_dir
    return source, raw


def _stamp_comments(config: RunConfig, extra=()):
    return [f"config_sha256={config.sha256}", f"version={__version__}", *extra]


def _output_path(config: RunConfig, name):
    """Path of ``name`` in the output directory, which is made here, before the first write."""
    os.makedirs(config.output_dir, exist_ok=True)
    return os.path.join(config.output_dir, name)


def _nonfinite(value, key):
    """(key path, number) of each non-finite number in the JSON document ``value``, in its order."""
    if isinstance(value, dict):
        for name in sorted(value):
            yield from _nonfinite(value[name], f"{key}.{name}" if key else name)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _nonfinite(item, f"{key}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        yield key, value


def _write_json(config: RunConfig, name, payload):
    """Write and print the stamped payload as ``name``; an inf or NaN in it raises, unwritten."""
    doc = {"config_sha256": config.sha256, "version": __version__, **payload}
    bad = next(_nonfinite(doc, ""), None)
    if bad is not None:
        raise ArithmeticError(f"{os.path.join(config.output_dir, name)}: {bad[0]} is {bad[1]!r}, "
                              "which JSON cannot hold; nothing written")
    text = json.dumps(doc, indent=2, sort_keys=True)
    with open(_output_path(config, name), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(text)


def write_table_csv(path, comments, column_names, rows):
    """Plain CSV with '#' comment lines; floats written with repr for exact round trips."""
    with open(path, "w", encoding="utf-8") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        handle.write(",".join(column_names) + "\n")
        handle.writelines(csv_blocks(rows))


def write_matrix_csv(path, comments, b_mags, omega_p, row_blocks):
    """Reflectivity matrix with the probe axis (Hz) as the header row and |B| as the first column.

    ``row_blocks`` yields the (n_b, n_w) matrix's rows in order as 2-D blocks
    of any height; each block is written as it comes, so one block is held at
    a time.
    """
    with open(path, "w", encoding="utf-8") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        handle.write("b_t\\f_hz," + csv_text(np.asarray(omega_p, dtype=float) / TWO_PI))
        start = 0
        for block in row_blocks:
            stop = start + len(block)
            handle.writelines(csv_blocks(np.column_stack([b_mags[start:stop], block])))
            start = stop
    if start != len(b_mags):
        raise ValueError(f"{path}: {start} matrix rows for {len(b_mags)} fields")


def _write_field_table(config: RunConfig, filename, names, lines_fn):
    """CSV of |B| and the ``lines_fn(fields)`` row in Hz at each of the sweep's fields.

    A field the line formula rejects raises RuntimeError naming it, as the maps do.
    """
    b_mags, fields = sweep_fields(config.field_sweep.values(),
                                  rotate_to_unit_vector(*config.field_angles))
    rows = np.column_stack([b_mags, sweep_lines(lines_fn, b_mags, fields) / TWO_PI])
    path = _output_path(config, filename)
    write_table_csv(path, _stamp_comments(config), ["b_t", *names], rows)
    print(f"wrote {path} ({len(rows)} field steps)")


def _cmd_nv_freqs(args, config):
    """NV branch table, optionally with exact-diagonalization columns."""
    sides = ("minus", "plus")
    names = [f"f_{side}_{label}_hz" for label in NV_AXIS_LABELS for side in sides]
    if args.exact:
        names += [f"f_{side}_exact_{label}_hz" for label in NV_AXIS_LABELS for side in sides]

    def lines(fields):
        columns = [nv_transition_frequencies(fields)]
        if args.exact:
            columns += [nv_exact_transitions(defect_frame_components(fields, axis))
                        for axis in NV_AXES]
        return np.hstack(columns)

    _write_field_table(config, "nv_freqs.csv", names, lines)


def _cmd_p1_freqs(args, config):
    lines = ("low", "center", "high")
    names = [f"f_{line}_{label}_hz" for label in NV_AXIS_LABELS for line in lines]
    _write_field_table(config, "p1_freqs.csv", names,
                       lambda fields: p1_transition_frequencies(fields, NV_AXES))


# Pixels (field steps x probe frequencies) of a panel swept and written per
# block, and at least one field row: bounds the sweep's complex temporaries
# and the block's CSV text (together a few dozen bytes per pixel) whatever
# the panel's size.
_BLOCK_PIXELS = 2**14


class _Panel(NamedTuple):
    tag: str              # P<power>dBm_<level>, which names its files
    power_dbm: float
    level: LaserLevel
    bank: SpinBank        # the level's
    rc_path: str
    eff_path: str


class _PanelRecord(NamedTuple):
    """What sweeping one panel left: its manifest numbers."""
    min_rc: float
    flat_rows: list
    edge_rows: int


def _sweep_panel(config, panel, b_mags, omega_p, step):
    """Sweep ``panel`` block by block and write its two tables under their ``.part`` names.

    ``edge_rows`` counts the rows, flat ones aside, whose minimum sits on the
    first or the last probe frequency.
    """
    power_w = dbm_to_watts(panel.power_dbm)
    # Between blocks a panel keeps its omega_eff trace, min R_c and flat rows alone.
    omega_eff, min_rc, flat = np.empty(b_mags.size), math.inf, []

    def r_c_blocks():
        nonlocal min_rc
        for start in range(0, b_mags.size, step):
            rows = slice(start, start + step)
            r_c, omega_eff[rows], block_flat = cdmr_sweep(config.cavity, panel.bank, omega_p,
                                                          power_w, rows)
            flat.extend(block_flat)
            min_rc = min(min_rc, float(np.min(r_c)))
            yield r_c

    level = panel.level
    comments = _stamp_comments(config, [
        f"scenario={config.scenario} power_dbm={panel.power_dbm:g} "
        f"laser_level={level.name} intensity_w_per_m2={level.intensity!r}"
    ])
    write_matrix_csv(panel.rc_path + ".part", comments, b_mags, omega_p, r_c_blocks())
    write_table_csv(
        panel.eff_path + ".part", comments,
        ["b_t", "omega_eff_hz", "omega_eff_over_omega_c"],
        np.column_stack([b_mags, omega_eff / TWO_PI, omega_eff / config.cavity.omega_c]),
    )
    on_edge = (omega_eff == omega_p[0]) | (omega_eff == omega_p[-1])
    on_edge[flat] = False
    return _PanelRecord(min_rc, flat, int(np.count_nonzero(on_edge)))


def _cmd_cdmr(args, config):
    b_hat = rotate_to_unit_vector(*config.field_angles)
    b_mags = config.field_sweep.values()
    omega_p = config.frequency_sweep.values()
    # Panel files are named by the power's %g text, so two powers must not share it.
    powers = {}
    for power_dbm in config.powers_dbm:
        tag = f"{power_dbm:g}"
        if tag in powers:
            raise ConfigError([f"config.powers_dbm: {powers[tag]!r} and {power_dbm!r} would write "
                               f"the same panel files (P{tag}dBm_*)"])
        powers[tag] = power_dbm
    # The groups depend on the field and the laser level only, not on the power.
    levels = [laser_level(config, name) for name in config.laser.level_names()]
    banks = {level: group_builder(config, level)(b_mags, b_hat) for level in levels}
    step = max(1, _BLOCK_PIXELS // omega_p.size)
    panels = []
    for power_dbm in config.powers_dbm:
        for level, bank in banks.items():
            tag = f"P{power_dbm:g}dBm_{level.name}"
            panels.append(_Panel(tag, power_dbm, level, bank,
                                 _output_path(config, f"cdmr_rc_{tag}.csv"),
                                 _output_path(config, f"cdmr_omega_eff_{tag}.csv")))
    # Each panel is swept and written in its share's process, then published here in panel
    # order up to the first that failed, which leaves no file.
    records = in_processes(lambda panel: _sweep_panel(config, panel, b_mags, omega_p, step),
                           panels, name=lambda panel: f"panel {panel.tag}",
                           doing=lambda held: f"sweeping panels {', '.join(p.tag for p in held)}")
    manifest = []
    try:
        for panel, record in zip(panels, records):
            os.replace(panel.rc_path + ".part", panel.rc_path)
            os.replace(panel.eff_path + ".part", panel.eff_path)
            if record.flat_rows:
                warnings.warn(f"panel {panel.tag}: reflectivity rows {record.flat_rows} are flat; "
                              "effective resonance is degenerate")
            if record.edge_rows:
                warnings.warn(f"panel {panel.tag}: effective resonance on the probe-window edge "
                              f"in {record.edge_rows} of {b_mags.size} rows")
            manifest.append({
                "power_dbm": panel.power_dbm,
                "laser_level": panel.level.name,
                "intensity_w_per_m2": panel.level.intensity,
                "rc_csv": panel.rc_path,
                "omega_eff_csv": panel.eff_path,
                "min_rc": record.min_rc,
                "flat_rows": record.flat_rows,
                "edge_rows": record.edge_rows,
            })
            print(f"panel {panel.tag}: min R_c = {record.min_rc:.6f} -> {panel.rc_path}")
    finally:
        for panel in panels:
            for path in (panel.rc_path, panel.eff_path):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path + ".part")
    return {"panels": manifest}


def _cmd_coupling(args, config):
    level, t2 = laser_level(config, args.laser_level), config.ensemble.t2
    field_map = build_field_map(config)
    result = effective_coupling(field_map, config.field_map.region_bounds, coupling_axes(config),
                                config.cavity.omega_c)
    return {
        "laser_level": level.name,
        "intensity_w_per_m2": level.intensity,
        "g_s_rad_per_s": result.g_s,
        "g_s_hz": result.g_s / TWO_PI,
        "g_s_config_hz": level.g_s / TWO_PI,
        "n_eff": config.ensemble.density * abs(level.p_zs) * result.region_volume,
        "e_cc": critical_photon_number(result.g_s, level.t1, t2),
        "e_cc_config": critical_photon_number(level.g_s, level.t1, t2),
        "g_s_field_map_over_config": result.g_s / level.g_s,
        "region_volume_m3": result.region_volume,
        "t1_s": level.t1,
        "p_zs": level.p_zs,
        "map_points": list(field_map.shape),
    }


def _cmd_sensitivity(args, config):
    level, t2 = laser_level(config), config.ensemble.t2
    s_n = sensitivity(level.p_zs, config.cavity.gamma_c, level.g_s, level.t1, t2)
    payload = {
        "s_n_per_sqrt_hz": s_n,
        "p_zs_thermal": level.p_zs,
        "gamma_c_rad_per_s": config.cavity.gamma_c,
        "g_s_rad_per_s": level.g_s,
        "t1_s": level.t1,
        "t2_s": t2,
    }
    if args.n_eff is not None:
        payload["n_eff"] = args.n_eff
        payload["cooperativity"] = cooperativity(
            args.n_eff, level.g_s, config.cavity.gamma_c, 1.0 / t2,
        )
    return payload


def _weak_drive(args, config):
    """The expansion of the ``--laser-level`` group at ``--delta-hz``: expand.json, which
    bistability.json extends."""
    level = laser_level(config, args.laser_level)
    expansion = weak_expansion(level.n_eff, level.g_s, TWO_PI * args.delta_hz, level.t1,
                               config.ensemble.t2)
    return {
        "laser_level": level.name,
        "intensity_w_per_m2": level.intensity,
        "delta_hz": args.delta_hz,
        "n_eff": level.n_eff,
        "e_cc": expansion.e_cc,
        "zeta2": expansion.zeta2,
        "omega_cs_rad_per_s": expansion.omega_cs,
        "gamma_cs_rad_per_s": expansion.gamma_cs,
        "k_cs_rad_per_s_per_photon": expansion.k_cs,
        "g_cs_rad_per_s_per_photon": expansion.g_cs,
        "omega_cs_hz": expansion.omega_cs / TWO_PI,
        "gamma_cs_hz": expansion.gamma_cs / TWO_PI,
    }


def _cmd_bistability(args, config):
    payload = _weak_drive(args, config)
    cavity, e_cc = config.cavity, payload["e_cc"]
    gamma_t = cavity.gamma_c + cavity.gamma_f + payload["gamma_cs_rad_per_s"]
    kerr = cavity.kerr + payload["k_cs_rad_per_s_per_photon"]
    cubic_damping = cavity.cubic_damping + payload["g_cs_rad_per_s_per_photon"]
    onset = bistability_onset(cavity.omega_c + payload["omega_cs_rad_per_s"], gamma_t, kerr,
                              cubic_damping)
    payload.update({
        "kerr_rad_per_s_per_photon": kerr,
        "cubic_damping_rad_per_s_per_photon": cubic_damping,
        "gamma_t_rad_per_s": gamma_t,
        "bistable": onset is not None,
    })
    if onset is not None:
        power_w = drive_power(onset.drive, cavity)
        weak_expansion_valid = onset.photon_number < e_cc
        payload.update({
            "e_co": onset.photon_number,
            "e_co_over_e_cc": onset.photon_number / e_cc,
            "omega_p_at_cusp_rad_per_s": onset.omega_p,
            "f_p_at_cusp_hz": onset.omega_p / TWO_PI,
            "drive_photons_rad2_per_s2": onset.drive,
            "power_at_cusp_w": power_w,
            "power_at_cusp_dbm": watts_to_dbm(power_w),
            "cusp_is_onset": onset.is_onset,
            "weak_expansion_valid": weak_expansion_valid,
        })
        # Deprecated aliases, kept for one release: the cusp is an onset only
        # when cusp_is_onset is true.
        for key in ("omega_p_at_cusp_rad_per_s", "f_p_at_cusp_hz", "power_at_cusp_w",
                    "power_at_cusp_dbm"):
            payload[key.replace("_at_cusp_", "_at_onset_")] = payload[key]
        if not onset.is_onset:
            warnings.warn("|K| + sqrt(3) g <= 0, so the cusp is the largest drive at which "
                          "the fold survives, not the onset of bistability")
        if not weak_expansion_valid:
            warnings.warn(f"e_co/e_cc = {payload['e_co_over_e_cc']:.3g} >= 1, outside "
                          "the weak-drive expansion's range")
    return payload


def _fit_status(result):
    return {"residual_norm": result.residual_norm, "iterations": result.iterations,
            "converged": result.converged, "message": result.message,
            "jacobian_condition": result.jacobian_condition}


def _sigmas(result):
    """Standard error of each parameter by name: the square roots of the covariance
    diagonal in ``parameter_order``, with negative round-off read as 0."""
    return {name: math.sqrt(max(float(result.covariance[i, i]), 0.0))
            for i, name in enumerate(result.parameter_order)}


def _fit_report(result, rates):
    """A lineshape fit's JSON: each parameter and its standard error, then the fit status.

    A rate, named in ``rates`` with its Hz name ``hz``, is written as
    ``<name>_rad_per_s``, ``<hz>_hz`` and ``sigma_<hz>_hz``; any other
    parameter under its own name, with ``sigma_<name>``.
    """
    report = {}
    for name, sigma in _sigmas(result).items():
        value = result.parameters[name]
        if name in rates:
            report.update({f"{name}_rad_per_s": value, f"{rates[name]}_hz": value / TWO_PI,
                           f"sigma_{rates[name]}_hz": sigma / TWO_PI})
        else:
            report.update({name: value, f"sigma_{name}": sigma})
    return {**report, **_fit_status(result)}


_ANGLES = ("theta_x", "theta_y", "theta_z")


def _cmd_fit_orientation(args, config):
    dataset = load_odmr_csv(args.data)
    initial = config.field_angles if args.initial is None else tuple(args.initial)
    result = fit_orientation(dataset, initial)
    sigma = _sigmas(result)
    payload = {
        "initial_angles_rad": list(initial),
        "theta_x_rad": result.parameters["theta_x"],
        "theta_y_rad": result.parameters["theta_y"],
        "theta_z_rad": result.parameters["theta_z"],
        "sigma_rad": [sigma[k] for k in _ANGLES],
        **_fit_status(result),
        "refits": result.refits,
        "records": len(dataset.b_mags),
    }
    if args.monte_carlo:
        # One draw of every line of every trial, record by record: the stream
        # of one normal draw per record and trial.
        rng = np.random.default_rng(args.seed)
        jitter = rng.normal(0.0, args.noise_frac, size=(args.monte_carlo, dataset.lines.size))
        draws, trial_converged, _ = fit_orientations(dataset, dataset.lines * (1.0 + jitter),
                                                     initial)
        converged = int(trial_converged.sum())
        truth = np.array([result.parameters[k] for k in _ANGLES])
        # theta_z is held: its mean is the held value and its spread 0, exactly.
        payload["monte_carlo"] = {
            "trials": args.monte_carlo,
            "noise_frac": args.noise_frac,
            "seed": args.seed,
            "converged_trials": converged,
            "mean_rad": [*(float(v) for v in draws[:, :2].mean(axis=0)),
                         result.parameters["theta_z"]],
            "std_rad": [*(float(v) for v in draws[:, :2].std(axis=0)), 0.0],
            "max_abs_error_rad": [float(v) for v in np.max(np.abs(draws - truth), axis=0)],
        }
        if converged < args.monte_carlo:
            warnings.warn(f"{args.monte_carlo - converged} of {args.monte_carlo} Monte Carlo "
                          "refits did not converge; their angles are still in the statistics")
    return payload


def _cmd_fit_cavity(args, config):
    omega, r_c = load_trace_csv(args.data)
    if args.initial is not None:
        initial = tuple(TWO_PI * hz for hz in args.initial)
    else:
        initial = (config.cavity.omega_c, config.cavity.gamma_c, config.cavity.gamma_f)
    result = fit_cavity_lineshape(omega, r_c, initial, overcoupled=not args.undercoupled)
    return {**_fit_report(result, {"omega_c": "f_c", "gamma_c": "gamma_c", "gamma_f": "gamma_f"}),
            "overcoupled": not args.undercoupled}


def _cmd_fit_fwhm(args, config):
    result = fit_lorentzian_fwhm(*load_trace_csv(args.data))
    return _fit_report(result, {"center": "center", "fwhm": "fwhm"})


def _cmd_fieldmap_gen_loop(args, config):
    if config.field_map.source != "loop":
        raise ConfigError(["config.field_map.source: gen-loop needs source='loop'"])
    field_map = build_field_map(config)
    path = _output_path(config, args.output)
    save_field_map(field_map, path, extra_comments=_stamp_comments(config))
    print(f"wrote {path} (grid {field_map.shape[0]}x{field_map.shape[1]}x{field_map.shape[2]})")


def _parsed(text, parse, ok, expected):
    """``parse(text)`` if it reads and passes ``ok``; else a usage error naming ``expected``.

    A ``ValueError`` left to argparse would name the type function instead.
    """
    with contextlib.suppress(ValueError):
        value = parse(text)
        if ok(value):
            return value
    raise argparse.ArgumentTypeError(f"expected {expected}, got {text}")


def _angles_triple(text):
    return _parsed(text, lambda t: [float(p) for p in t.split(",")],
                   lambda parts: len(parts) == 3, "three comma-separated numbers")


def _count(text):
    return _parsed(text, int, lambda n: n >= 0, "a non-negative integer")


def _finite(text):
    """A finite number of Hz whose rad/s is finite too."""
    value = _parsed(text, float, math.isfinite, "a finite number")
    if not math.isfinite(TWO_PI * value):
        raise argparse.ArgumentTypeError(f"overflows when converted to rad/s, got {text}")
    return value


def _nonnegative(text):
    return _parsed(text, float, lambda x: math.isfinite(x) and x >= 0.0,
                   "a finite non-negative number")


_NEGATIVE_VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


class _ArgumentParser(argparse.ArgumentParser):
    """Parser that reads every token starting with a minus sign and a number as a value.

    Stock argparse takes only plain negative numbers such as ``-1.5`` for
    values, so ``--delta-hz -1.5e6``, ``--delta-hz -inf`` or ``--initial
    -0.6,0.01,0.15`` failed as unknown options.  A token that is a minus sign
    followed by a digit, a '.', "inf" or "nan" (any case) is a value: no cdmr
    option name starts that way.
    """

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser():
    parser = _ArgumentParser(
        prog="cdmr",
        description="Cavity-detected magnetic resonance: sweeps, nonlinear analysis and fits.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # The options every command reads through _load_raw_config.
    config_options = argparse.ArgumentParser(add_help=False)
    group = config_options.add_mutually_exclusive_group()
    group.add_argument("--config", help="path to a JSON config file")
    group.add_argument(
        "--preset",
        help=f"shipped preset name (default {_DEFAULT_PRESET}); available: {', '.join(list_presets())}",
    )
    config_options.add_argument(
        "--set", action="append", default=[], metavar="KEY.PATH=VALUE",
        help="override a config entry (JSON-parsed value); may repeat",
    )
    config_options.add_argument("--output-dir", help="override the config output directory")

    def command(name, func, json_name=None, parents=(), **kwargs):
        p = sub.add_parser(name, parents=[config_options, *parents], **kwargs)
        p.set_defaults(func=func, json_name=json_name)
        return p

    p = command("nv-freqs", _cmd_nv_freqs,
                help="NV transition table over the configured field sweep")
    p.add_argument("--exact", action="store_true", help="add exact-diagonalization columns")

    command("p1-freqs", _cmd_p1_freqs,
            help="P1 hyperfine line table over the configured field sweep")
    command("cdmr", _cmd_cdmr, "cdmr_manifest.json",
            help="reflectivity maps over (field, probe) per power and laser level")

    p = command("coupling", _cmd_coupling, "coupling.json",
                help="ensemble coupling rate from the configured field map")
    p.add_argument("--laser-level", help="laser level name for the polarization (default: laser off)")

    p = command("sensitivity", _cmd_sensitivity, "sensitivity.json",
                help="shot-noise-limited spin-number sensitivity")
    p.add_argument("--n-eff", type=_nonnegative, help="also report the cooperativity for this N_eff")

    expansion = argparse.ArgumentParser(add_help=False)
    expansion.add_argument("--delta-hz", type=_finite, required=True,
                           help="cavity-minus-spin detuning, Hz (non-zero)")
    expansion.add_argument("--laser-level", help="laser level name (default: laser off)")
    command("expand", _weak_drive, "expand.json", parents=[expansion],
            help="weak-drive expansion coefficients of the spin shift")
    command("bistability", _cmd_bistability, "bistability.json", parents=[expansion],
            help="onset of bistability for the expanded nonlinearity")

    p = command("fit-orientation", _cmd_fit_orientation, "fit_orientation.json",
                help="fit field angles to observed resonance lines")
    p.add_argument("--data", required=True, help="CSV rows: B_T,freq_Hz[,freq_Hz...]")
    p.add_argument("--initial", type=_angles_triple, metavar="TX,TY,TZ",
                   help="initial angles in rad (default: config field_sweep angles)")
    p.add_argument("--monte-carlo", type=_count, default=0, metavar="N",
                   help="refit N noisy replicas to calibrate the covariance")
    p.add_argument("--noise-frac", type=_nonnegative, default=0.05,
                   help="relative frequency noise for --monte-carlo (default 0.05)")
    p.add_argument("--seed", type=_count, default=0, help="RNG seed for --monte-carlo")

    p = command("fit-cavity", _cmd_fit_cavity, "fit_cavity.json",
                help="fit (omega_c, gamma_c, gamma_f) to a reflectivity trace")
    p.add_argument("--data", required=True, help="CSV rows: freq_Hz,Rc")
    p.add_argument("--initial", type=_angles_triple, metavar="F_HZ,GC_HZ,GF_HZ",
                   help="initial guess in Hz (default: config cavity values)")
    p.add_argument("--undercoupled", action="store_true",
                   help="order the fitted pair as gamma_f <= gamma_c")

    p = command("fit-fwhm", _cmd_fit_fwhm, "fit_fwhm.json",
                help="Lorentzian dip fit returning the FWHM")
    p.add_argument("--data", required=True, help="CSV rows: freq_Hz,signal")

    p = sub.add_parser("fieldmap", help="field-map utilities")
    fieldmap_sub = p.add_subparsers(dest="fieldmap_command", required=True)
    gen = fieldmap_sub.add_parser("gen-loop", parents=[config_options],
                                  help="generate the loop-surrogate field map CSV")
    gen.add_argument("--output", default="loop_fieldmap.csv", help="output file name")
    gen.set_defaults(func=_cmd_fieldmap_gen_loop)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    """Show a warning as one ``warning:`` line on stderr: the package prints no other."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command: load its config, make the output directory, write its JSON.

    A command returns its JSON payload, or None when it writes only tables
    or maps; a payload with ``"converged": false`` is written, then exits 2.
    Warnings raised while it runs are printed as ``warning:`` lines.
    The output directory is made at the first write, so a command failing before it makes none.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            source, raw = _load_raw_config(args)
            try:
                config = validate_config(raw)
                payload = args.func(args, config)
            except ConfigError as exc:
                # Validation and a command's own config checks both name the config.
                raise ConfigError(exc.errors, source) from None
            if payload is None:
                return 0
            _write_json(config, args.json_name, payload)
            return 0 if payload.get("converged", True) else 2
        except ConfigError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
