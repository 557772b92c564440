"""End-to-end CLI tests: in-process main(), real files, small configs."""

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import cdmr
from cdmr import __version__
from cdmr.cavity import SpinBank, cdmr_sweep
from cdmr.cli import build_parser, main
from cdmr.config import (
    apply_overrides,
    build_field_map,
    group_builder,
    laser_level,
    load_preset_raw,
    validate_config,
)
from cdmr.constants import HBAR, NV_AXES, TWO_PI
from cdmr.coupling import load_field_map
from cdmr.fitting import (
    OdmrDataset,
    cavity_reflectivity_model,
    fit_cavity_lineshape,
    fit_lorentzian_fwhm,
    fit_orientation,
    load_odmr_csv,
    load_trace_csv,
)
from cdmr.nonlinear import critical_photon_number, weak_expansion
from cdmr.spins import (
    defect_frame_components,
    nv_transition_frequencies,
    p1_transition_frequencies,
    rotate_to_unit_vector,
    sweep_fields,
)

# Shot-noise sensitivity and cooperativity for the stock NV parameters,
# matching the frozen values exercised in test_nonlinear.
S_N_FROZEN = 51185448.82953324
NV_QUARTER_SHARE = 817950000000.0001
COOP_FROZEN = 32.913042216502596

# laser_level(config, "L1").t1 and .p_zs (5600 W/m^2) for the NV preset (see test_config).
T1_AT_5600 = 0.01973276776632391
PZS_AT_5600 = -0.10815759131926903


def write_config(tmp_path, raw, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def read_table(path):
    """Parse a write_table_csv file into (comments, names, float rows)."""
    comments, names, rows = [], None, []
    with open(path) as handle:
        for line in handle:
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                comments.append(text[1:].strip())
            elif names is None:
                names = text.split(",")
            else:
                rows.append([float(c) for c in text.split(",")])
    return comments, names, rows


def run_dirs(tmp_path, shrink, raw, **kwargs):
    cfg = write_config(tmp_path, shrink(raw, **kwargs))
    out = tmp_path / "out"
    return cfg, str(out)


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_no_command_imports_scipy(tmp_path):
    # A fresh interpreter: this test process has scipy loaded already.
    script = textwrap.dedent("""
        import json
        import os
        import sys

        def scipy_modules():
            return sorted(name for name in sys.modules if name.startswith("scipy"))

        def importable(name):
            try:
                __import__(name)
            except ImportError:
                return False
            return True

        # The config hash needs no OpenSSL where the interpreter has its own
        # SHA-256.  numpy.random, which only the Monte Carlo fits (run last)
        # import, loads it itself: secrets -> hmac -> _hashlib.
        builtin_sha256 = importable("_sha2") or importable("_sha256")

        def loads_openssl():
            return (builtin_sha256 and "_hashlib" in sys.modules
                    and "numpy.random" not in sys.modules)

        import cdmr.cli
        assert not scipy_modules(), scipy_modules()
        assert "numpy.polynomial" not in sys.modules
        assert not loads_openssl()
        try:
            cdmr.cli.main(["--version"])
        except SystemExit as exc:
            assert exc.code == 0
        out, dip, lines, trace, ragged = sys.argv[1:6]
        small = ["--output-dir", out, "--set", "field_sweep.steps=5",
                 "--set", "frequency_sweep.steps=7", "--set", "powers_dbm=[-70]"]
        grid = ["--set", "field_map.grid_points=[6,6,6]"]
        region = cdmr.config.load_preset_raw("nv_default")["field_map"]["region_bounds_m"]
        file_map = json.dumps({"source": "file", "region_bounds_m": region,
                               "path": os.path.join(out, "loop_fieldmap.csv")})
        fit = ["--preset", "nv_default", "--output-dir", out]
        runs = [
            ["nv-freqs", "--preset", "nv_default", "--exact", *small],
            ["p1-freqs", "--preset", "p1_default", *small],
            ["cdmr", "--preset", "nv_default", *small],
            ["cdmr", "--preset", "p1_default", *small],
            ["expand", "--preset", "nv_default", "--output-dir", out, "--delta-hz", "1e6"],
            ["bistability", "--preset", "nv_default", "--output-dir", out, "--delta-hz", "1e6"],
            ["bistability", "--preset", "nv_default", "--output-dir", out, "--delta-hz", "1e6",
             "--laser-level", "L3"],
            ["sensitivity", "--preset", "nv_default", "--output-dir", out, "--n-eff", "1e12"],
            ["fieldmap", "gen-loop", "--preset", "nv_default", "--output-dir", out, *grid],
            ["coupling", "--preset", "nv_default", "--output-dir", out, *grid],
            ["coupling", "--preset", "nv_default", "--output-dir", out,
             "--set", "field_map=" + file_map],
            ["fit-cavity", *fit, "--data", trace],
            ["fit-fwhm", *fit, "--data", dip],
            ["fit-orientation", *fit, "--data", lines, "--monte-carlo", "2"],
            ["fit-orientation", *fit, "--data", ragged, "--monte-carlo", "3"],
        ]
        for argv in runs:
            assert cdmr.cli.main(argv) == 0, argv
            assert not scipy_modules(), (argv, scipy_modules())
            assert "numpy.polynomial" not in sys.modules, argv
            assert not loads_openssl(), argv
        print("ok")
    """)
    f_hz = np.linspace(2.53e9 - 50e6, 2.53e9 + 50e6, 101)
    hw = 6.75e6
    signal = 0.97 - 0.7 * hw * hw / ((f_hz - 2.53e9) ** 2 + hw * hw)
    dip = tmp_path / "dip.csv"
    dip.write_text("".join(f"{f!r},{v!r}\n" for f, v in zip(f_hz.tolist(), signal.tolist())))
    raw = load_preset_raw("nv_default")
    angles = tuple(raw["field_sweep"][k] for k in ("theta_x_rad", "theta_y_rad", "theta_z_rad"))
    lines = synthetic_odmr_csv(tmp_path, angles)
    cav = raw["cavity"]
    f_hz = np.linspace(cav["omega_c_hz"] - 3e6, cav["omega_c_hz"] + 3e6, 101)
    r_c = cavity_reflectivity_model(f_hz, cav["omega_c_hz"], cav["gamma_c_hz"], cav["gamma_f_hz"])
    trace = tmp_path / "trace.csv"
    trace.write_text("".join(f"{f!r},{v!r}\n" for f, v in zip(f_hz.tolist(), r_c.tolist())))
    src = os.path.dirname(os.path.dirname(cdmr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"), str(dip), lines, str(trace),
         ragged_odmr_csv(tmp_path, angles)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("ok")


def leaf_commands(parser, prefix=()):
    """Every runnable command path under ``parser``, e.g. ("fieldmap", "gen-loop")."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return [(prefix, parser)]
    return [leaf for name, child in subparsers[0].choices.items()
            for leaf in leaf_commands(child, (*prefix, name))]


LEAF_COMMANDS = leaf_commands(build_parser())


@pytest.mark.parametrize("command", [path for path, _ in LEAF_COMMANDS], ids="-".join)
def test_config_and_preset_are_mutually_exclusive(command, capsys):
    leaf = dict(LEAF_COMMANDS)[command]
    required = [token for action in leaf._actions if action.required
                for token in (action.option_strings[0], "1")]
    with pytest.raises(SystemExit) as excinfo:
        main([*command, *required, "--config", "x.json", "--preset", "nv_default"])
    assert excinfo.value.code == 2
    assert "argument --preset: not allowed with argument --config" in capsys.readouterr().err
    args = build_parser().parse_args(
        [*command, *required, "--set", "a.b=1", "--set", "c=[2]", "--output-dir", "out"])
    assert args.set == ["a.b=1", "c=[2]"] and args.output_dir == "out"
    assert args.config is None and args.preset is None


def test_nv_freqs_table_layout(tmp_path, shrink, nv_raw):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    assert main(["nv-freqs", "--config", cfg, "--output-dir", out]) == 0
    comments, names, rows = read_table(os.path.join(out, "nv_freqs.csv"))
    assert any(c.startswith("config_sha256=") for c in comments)
    assert any(c == f"version={__version__}" for c in comments)
    assert names[0] == "b_t" and len(names) == 9
    assert len(rows) == 5
    b_col = [row[0] for row in rows]
    assert b_col == list(np.linspace(0.014, 0.02, 5))
    # the exact-diagonalization columns double the per-axis block
    assert main(["nv-freqs", "--config", cfg, "--output-dir", out, "--exact"]) == 0
    _, names, rows = read_table(os.path.join(out, "nv_freqs.csv"))
    assert len(names) == 17 and len(rows[0]) == 17


def test_nv_freqs_exact_is_one_stacked_call_per_axis(tmp_path, shrink, nv_raw, monkeypatch):
    """The exact columns come from one eigensolve per NV axis, whatever the
    number of field steps, and equal the per-field diagonalization."""
    import cdmr.cli

    calls = []
    exact = cdmr.cli.nv_exact_transitions

    def counting(frames):
        calls.append(np.shape(frames))
        return exact(frames)

    monkeypatch.setattr(cdmr.cli, "nv_exact_transitions", counting)
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    assert main(["nv-freqs", "--config", cfg, "--output-dir", out, "--exact"]) == 0
    assert calls == [(5, 3)] * 4
    _, _, rows = read_table(os.path.join(out, "nv_freqs.csv"))
    b_hat = rotate_to_unit_vector(*validate_config(shrink(nv_raw)).field_angles)
    for row in rows:
        per_field = [exact(defect_frame_components(row[0] * b_hat, axis)) / TWO_PI
                     for axis in NV_AXES]
        assert row[9:] == np.concatenate(per_field).tolist()


def test_p1_freqs_table_layout(tmp_path, shrink, p1_raw):
    cfg, out = run_dirs(tmp_path, shrink, p1_raw)
    assert main(["p1-freqs", "--config", cfg, "--output-dir", out]) == 0
    _, names, rows = read_table(os.path.join(out, "p1_freqs.csv"))
    assert len(names) == 13  # b_t + 3 hyperfine lines x 4 axes
    assert len(rows) == 5
    assert all(f > 0 for f in rows[0][1:])


def test_nv_freqs_lines_match_model(tmp_path, shrink, nv_raw):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    assert main(["nv-freqs", "--config", cfg, "--output-dir", out]) == 0
    _, names, rows = read_table(os.path.join(out, "nv_freqs.csv"))
    config = validate_config(shrink(nv_raw))
    b_hat = rotate_to_unit_vector(*config.field_angles)
    expected = nv_transition_frequencies(rows[0][0] * b_hat) / TWO_PI
    # repr round trip: the file reproduces the model bit for bit
    assert rows[0][1:] == expected.tolist()


@pytest.mark.parametrize("command,preset,filename", [
    ("nv-freqs", "nv_default", "nv_freqs.csv"),
    ("p1-freqs", "p1_default", "p1_freqs.csv"),
])
def test_line_tables_hold_the_lines_of_the_spin_groups(tmp_path, shrink, command, preset,
                                                       filename):
    """A table row holds the lines whose detunings are the row of the bank the maps
    sweep, bit for bit, also where the rotated field direction's norm rounds away from 1."""
    angles = (1e-3, -2e-3, 0.5)
    assert np.linalg.norm(rotate_to_unit_vector(*angles)) != 1.0
    raw = shrink(load_preset_raw(preset), field_steps=40)
    raw["field_sweep"].update(zip(("theta_x_rad", "theta_y_rad", "theta_z_rad"), angles))
    cfg, out = write_config(tmp_path, raw), str(tmp_path / "out")
    assert main([command, "--config", cfg, "--output-dir", out]) == 0
    _, _, rows = read_table(os.path.join(out, filename))
    config = validate_config(raw)
    b_mags, b_hat = config.field_sweep.values(), rotate_to_unit_vector(*config.field_angles)
    bank = group_builder(config, laser_level(config))(b_mags, b_hat)
    _, fields = sweep_fields(b_mags, b_hat)
    lines = (nv_transition_frequencies(fields) if command == "nv-freqs"
             else p1_transition_frequencies(fields, NV_AXES))
    assert [row[0] for row in rows] == bank.b_mags.tolist()
    assert [row[1:] for row in rows] == (lines / TWO_PI).tolist()
    assert np.array_equal(bank.delta, config.cavity.omega_c - lines)


def test_cdmr_panel_outputs(tmp_path, shrink, nv_raw, read_matrix_csv):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw, powers=[-90], levels=["L0"])
    assert main(["cdmr", "--config", cfg, "--output-dir", out]) == 0
    manifest = json.loads((tmp_path / "out" / "cdmr_manifest.json").read_text())
    assert manifest["version"] == __version__
    assert len(manifest["config_sha256"]) == 64
    assert len(manifest["panels"]) == 1
    panel = manifest["panels"][0]
    assert panel["power_dbm"] == -90 and panel["laser_level"] == "L0"
    assert panel["intensity_w_per_m2"] == 0.0
    assert os.path.basename(panel["rc_csv"]) == "cdmr_rc_P-90dBm_L0.csv"
    b_mags, f_hz, matrix = read_matrix_csv(panel["rc_csv"])
    assert matrix.shape == (5, 7)
    assert b_mags.shape == (5,) and f_hz.shape == (7,)
    assert np.all((matrix >= 0.0) & (matrix <= 1.0))
    assert panel["min_rc"] == pytest.approx(np.min(matrix), rel=1e-12)
    _, names, rows = read_table(panel["omega_eff_csv"])
    assert names == ["b_t", "omega_eff_hz", "omega_eff_over_omega_c"]
    assert len(rows) == 5


def test_cdmr_builds_groups_once_per_level_and_field_step(tmp_path, shrink, nv_raw,
                                                          monkeypatch):
    calls = []

    def counting_builder(config, level):
        build = group_builder(config, level)

        def counted(b_mags, b_hat):
            calls.append((level.intensity, b_mags.size))
            return build(b_mags, b_hat)

        return counted

    monkeypatch.setattr("cdmr.cli.group_builder", counting_builder)
    cfg, out = run_dirs(tmp_path, shrink, nv_raw, powers=[-90, -70, -50], levels=["L0", "L2"])
    assert main(["cdmr", "--config", cfg, "--output-dir", out]) == 0
    manifest = json.loads((tmp_path / "out" / "cdmr_manifest.json").read_text())
    assert len(manifest["panels"]) == 6
    # One bank of all 5 field steps per laser level, whatever the number of powers.
    assert sorted(calls) == [(0.0, 5), (12800.0, 5)]


def test_cdmr_power_overflowing_watts_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["cdmr", "--preset", "nv_default", "--output-dir", str(out),
                 "--set", "powers_dbm=[1e308]", "--set", "field_sweep.steps=1"]) == 1
    err = capsys.readouterr().err
    assert "config.powers_dbm[0]: overflows when converted to watts, got 1e+308" in err
    assert "config.field_sweep.steps: must be >= 2" in err  # collected with the others
    assert "numerical failure" not in err
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("powers", [[-90.0000001, -90.0000002], [-90, -90]])
def test_cdmr_rejects_powers_sharing_a_panel_file(tmp_path, capsys, powers):
    out = tmp_path / "out"
    assert main(["cdmr", "--preset", "p1_default", "--output-dir", str(out),
                 "--set", f"powers_dbm={json.dumps(powers)}"]) == 1
    first, second = (repr(float(p)) for p in powers)
    assert (f"config.powers_dbm: {first} and {second} would write the same panel files "
            "(P-90dBm_*)") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", ["", "x/y", "a\0b"])
def test_cdmr_level_name_that_cannot_name_a_panel_file_exits_one(tmp_path, capsys, name):
    out = tmp_path / "out"
    levels = json.dumps({name: 0, "ok": 0})
    assert main(["cdmr", "--preset", "nv_default", "--output-dir", str(out),
                 "--set", "field_sweep.steps=3", "--set", "frequency_sweep.steps=3",
                 "--set", "powers_dbm=[-90]", "--set", f"laser.levels_w_per_m2={levels}"]) == 1
    err = capsys.readouterr().err
    assert f"config.laser.levels_w_per_m2.{name}: a level name is part of its panel file" in err
    assert f"got {name!r}" in err
    assert not out.exists()


def test_cdmr_numerical_failure_exit_code(tmp_path, shrink, nv_raw, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("cdmr.cli.cdmr_sweep", explode)
    cfg, out = run_dirs(tmp_path, shrink, nv_raw, powers=[-90], levels=["L0"])
    assert main(["cdmr", "--config", cfg, "--output-dir", out]) == 2
    assert "numerical failure: panel P-90dBm_L0: boom" in capsys.readouterr().err


def test_cdmr_negative_damping_exits_two_with_context(tmp_path, shrink, nv_raw, monkeypatch,
                                                      capsys):
    def inverted_builder(config, level):
        def build(b_mags, b_hat):
            return SpinBank(b_mags=b_mags, labels=("inverted",), delta=0.0, g_s=TWO_PI * 2.72,
                            n_eff=-1e12, t1=0.565, t2=2.19e-7)

        return build

    monkeypatch.setattr("cdmr.cli.group_builder", inverted_builder)
    cfg, out = run_dirs(tmp_path, shrink, nv_raw, powers=[-90], levels=["L0"])
    assert main(["cdmr", "--config", cfg, "--output-dir", out]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: panel P-90dBm_L0: sweep failed at |B| = " in err
    assert "(row 0)" in err and "damping" in err


def test_cdmr_line_formula_failure_exits_two_with_the_first_row(tmp_path, capsys):
    """A field past ~0.102 T along an NV axis drives a lower branch below zero;
    the stacked bank build must still name the first such field step."""
    angles = dict(theta_x_rad=0.9553166181245093, theta_y_rad=0, theta_z_rad=0.7853981633974483)
    overrides = [f"field_sweep.{key}={value}" for key, value in angles.items()]
    overrides.append("field_sweep.max_t=0.5")
    argv = ["cdmr", "--preset", "nv_default", "--output-dir", str(tmp_path / "out")]
    for assignment in overrides:
        argv += ["--set", assignment]
    assert main(argv) == 2
    err = capsys.readouterr().err
    config = validate_config(apply_overrides(load_preset_raw("nv_default"), overrides))
    b_mags = config.field_sweep.values()
    b_hat = rotate_to_unit_vector(*config.field_angles)
    row = next(i for i, b_mag in enumerate(b_mags) if not _lines_valid(b_mag * b_hat))
    assert row > 0
    assert (f"numerical failure: sweep failed at |B| = {float(b_mags[row])!r} T (row {row}): "
            "transition frequencies must be non-negative") in err
    assert "np.float64" not in err
    assert not list((tmp_path / "out").glob("cdmr_rc_*.csv"))


# Along an NV axis the lower branch goes negative past ~0.102 T.
NV_LINE_FAULT = ["field_sweep.max_t=1.0", "field_sweep.theta_x_rad=0",
                 "field_sweep.theta_y_rad=0.9553166181245093",
                 "field_sweep.theta_z_rad=0.7853981633974483"]


@pytest.mark.parametrize("commands, overrides, fault", [
    ([["cdmr"], ["nv-freqs"], ["nv-freqs", "--exact"]], NV_LINE_FAULT,
     "|B| = 0.1031859296482412 T (row 18): transition frequencies must be non-negative"),
    # Every field's square underflows to 0.
    ([["p1-freqs"]], ["field_sweep.min_t=1e-320", "field_sweep.max_t=1e-300"],
     "|B| = 1e-320 T (row 0): field magnitude must be non-zero for the P1 line positions"),
], ids=["nv", "p1"])
def test_a_line_table_names_the_field_its_formula_rejects_as_the_maps_do(tmp_path, capsys,
                                                                       commands, overrides,
                                                                       fault):
    out = tmp_path / "out"
    for command in commands:
        argv = [*command, "--preset", "nv_default", "--output-dir", str(out)]
        for assignment in overrides:
            argv += ["--set", assignment]
        assert main(argv) == 2, command
        assert capsys.readouterr().err == f"numerical failure: sweep failed at {fault}\n"
        assert not out.exists()


def _lines_valid(b_vec):
    try:
        nv_transition_frequencies(b_vec)
    except ValueError:
        return False
    return True


def _run_files(directory):
    """{name: bytes} of every file a run left in ``directory``."""
    return {path.name: path.read_bytes() for path in sorted(pathlib.Path(directory).iterdir())}


@pytest.mark.parametrize("rows", [1, 7, 80])
def test_cdmr_blocks_of_field_rows_change_no_byte(tmp_path, shrink, nv_raw, monkeypatch, rows):
    """203 field steps in blocks of 1, 7 or 80 rows (the last one short) write
    every panel file and the manifest as one block of all rows does."""
    cfg = write_config(tmp_path, shrink(nv_raw, field_steps=203, powers=[-90, -50],
                                        levels=["L0", "L2"]))
    # Panels may be swept in worker processes: each sweep appends one byte to a file.
    calls = tmp_path / "calls"

    def counting_sweep(*args, **kwargs):
        with open(calls, "ab") as handle:
            handle.write(b".")
        return cdmr_sweep(*args, **kwargs)

    runs = {}
    for name, pixels in (("whole", 10**9), ("blocks", 7 * rows)):
        monkeypatch.setattr("cdmr.cli._BLOCK_PIXELS", pixels)
        monkeypatch.setattr("cdmr.cli.cdmr_sweep", counting_sweep)
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        calls.write_bytes(b"")
        assert main(["cdmr", "--config", cfg, "--output-dir", "out"]) == 0
        runs[name] = (_run_files("out"), calls.stat().st_size)
    whole, blocks = runs["whole"], runs["blocks"]
    assert len(whole[0]) == 9 and whole[1] == 4
    assert blocks[1] == 4 * -(-203 // rows)
    assert blocks[0] == whole[0]


def _altered_banks(alter):
    """A group builder whose banks are ``dataclasses.replace(bank, **alter(level, bank))``."""
    def builder(config, level):
        build = group_builder(config, level)

        def altered(b_mags, b_hat):
            bank = build(b_mags, b_hat)
            return dataclasses.replace(bank, **alter(level, bank))

        return altered

    return builder


def test_cdmr_fault_in_the_second_block_names_the_panel_row(tmp_path, shrink, nv_raw,
                                                           monkeypatch, capsys):
    """Row 150 of 203 lies in the second 81-row block: the failure names its panel,
    its panel row and |B|, and its panel leaves no file, not even a partial one."""
    def undamped_at_row_150(level, bank):
        if level.name != "L2":
            return {}
        n_eff = np.array(bank.n_eff)
        n_eff[150] = -1e20
        return {"n_eff": n_eff}

    assert cdmr.cli._BLOCK_PIXELS // 200 == 81
    monkeypatch.setattr("cdmr.cli.group_builder", _altered_banks(undamped_at_row_150))
    cfg, out = run_dirs(tmp_path, shrink, nv_raw, field_steps=203, freq_steps=200,
                        powers=[-90], levels=["L0", "L2"])
    assert main(["cdmr", "--config", cfg, "--output-dir", out]) == 2
    b_mags = validate_config(json.loads(pathlib.Path(cfg).read_text())).field_sweep.values()
    err = capsys.readouterr().err
    assert (f"numerical failure: panel P-90dBm_L2: sweep failed at |B| = {float(b_mags[150])!r} "
            "T (row 150): effective damping must be positive") in err
    # The L0 panel before it is whole; the failed L2 panel left nothing.
    assert sorted(os.listdir(out)) == ["cdmr_omega_eff_P-90dBm_L0.csv",
                                       "cdmr_rc_P-90dBm_L0.csv"]


def test_cdmr_warns_once_per_panel_and_bank_by_panel_row(tmp_path, shrink, nv_raw,
                                                         monkeypatch, capsys):
    """Probe frequencies far above the cavity make R_c rows flat: blocks of one
    field row give one warning line per panel, naming the panel and listing its
    rows, as one block does, and the bank's 2*T1 < T2 warns once.  The run
    keeps the warning filters it is given, so two panels with the same flat
    rows must still give two lines."""
    raw = shrink(nv_raw, field_steps=12, powers=[-90, -80], levels=["L0"])
    raw["frequency_sweep"].update(min_hz=1e13, max_hz=1.0001e13)
    cfg, out = write_config(tmp_path, raw), str(tmp_path / "out")
    monkeypatch.setattr("cdmr.cli.group_builder",
                        _altered_banks(lambda level, bank: {"t1": bank.t2 / 4.0}))
    messages = {}
    for pixels in (10**9, 7):
        monkeypatch.setattr("cdmr.cli._BLOCK_PIXELS", pixels)
        assert main(["cdmr", "--config", cfg, "--output-dir", out]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert all(line.startswith("warning: ") for line in lines), lines
        messages[pixels] = [line.removeprefix("warning: ") for line in lines]
    flat = [f"panel {tag}: reflectivity rows {list(range(12))} are flat; effective resonance "
            "is degenerate" for tag in ("P-90dBm_L0", "P-80dBm_L0")]
    assert messages[7] == messages[10**9]
    assert sum("unphysical" in m for m in messages[7]) == 1
    assert [m for m in messages[7] if "flat" in m] == flat


def _see_cpus(monkeypatch, count):
    """Let ``cdmr`` see ``count`` CPUs: it sweeps on min(count, panels) processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _far_flank_rows(level, bank):
    """Rows 0-3 gain a spin shift that pulls the resonance far up, towards a probe window
    near 1e13 Hz: those rows see the dip's flank, the others are flat."""
    n_eff, delta = np.array(bank.n_eff), np.array(bank.delta)
    n_eff[:4] *= 1e3
    delta[:4] = 1.0 / bank.t2[:4]
    return {"n_eff": n_eff, "delta": delta}


def _diagnostics_config(case, shrink, nv_raw, p1_raw, monkeypatch):
    """A shrunk config whose panels have edge rows ("offset", "p1") or flat and edge rows."""
    if case == "p1":
        return shrink(p1_raw, field_steps=12, freq_steps=21, powers=[-90, -80, -70])
    raw = shrink(nv_raw, field_steps=12, freq_steps=21, powers=[-90, -50])
    if case == "offset":
        # The window starts 1 MHz below the cavity, so the spin-pulled rows end on an edge.
        raw["frequency_sweep"].update(min_hz=2.529e9, max_hz=2.539e9)
    else:
        raw["laser"]["levels_w_per_m2"] = {"L0": 0.0, "L2": 12800.0}
        raw["frequency_sweep"].update(min_hz=1e13, max_hz=1.0001e13)
        monkeypatch.setattr("cdmr.cli.group_builder", _altered_banks(_far_flank_rows))
    return raw


@pytest.mark.parametrize("case", ["offset", "flat-and-edge"])
def test_cdmr_manifest_counts_flat_and_edge_rows_per_panel(tmp_path, shrink, nv_raw, p1_raw,
                                                           monkeypatch, capsys, read_matrix_csv,
                                                           case):
    """Each panel entry lists its flat rows and counts its edge rows: rows, flat ones
    aside, whose minimum sits on the first or last probe frequency.  A panel with
    edge rows warns once, naming it, after its flat-row line."""
    raw = _diagnostics_config(case, shrink, nv_raw, p1_raw, monkeypatch)
    cfg, out = write_config(tmp_path, raw), str(tmp_path / "out")
    assert main(["cdmr", "--config", cfg, "--output-dir", out]) == 0
    panels = json.loads((tmp_path / "out" / "cdmr_manifest.json").read_text())["panels"]
    expected = []
    for panel in panels:
        _, f_hz, matrix = read_matrix_csv(panel["rc_csv"])
        _, _, rows = read_table(panel["omega_eff_csv"])
        flat = np.flatnonzero(np.ptp(matrix, axis=1) <= 1e-15).tolist()
        edge = sum(row[1] in (f_hz[0], f_hz[-1]) for i, row in enumerate(rows) if i not in flat)
        assert (panel["flat_rows"], panel["edge_rows"]) == (flat, edge)
        tag = f"P{panel['power_dbm']:g}dBm_{panel['laser_level']}"
        if flat:
            expected.append(f"warning: panel {tag}: reflectivity rows {flat} are flat; "
                            "effective resonance is degenerate")
        if edge:
            expected.append(f"warning: panel {tag}: effective resonance on the probe-window "
                            f"edge in {edge} of 12 rows")
    assert capsys.readouterr().err.splitlines() == expected
    counts = [(len(p["flat_rows"]), p["edge_rows"]) for p in panels]
    if case == "offset":
        assert (0, 0) in counts and any(0 < edge < 12 for _, edge in counts)
    else:
        assert counts == [(8, 4)] * 4


@pytest.mark.parametrize("case", ["offset", "p1", "flat-and-edge"])
def test_cdmr_outputs_do_not_depend_on_the_worker_count(tmp_path, shrink, nv_raw, p1_raw,
                                                        monkeypatch, capsys, case):
    """One process, two, and more CPUs than panels write the same files and manifest,
    the same stdout and stderr and the same exit code; the sweeps ran in as many
    processes as were asked for, at most one per panel."""
    raw = _diagnostics_config(case, shrink, nv_raw, p1_raw, monkeypatch)
    cfg = write_config(tmp_path, raw)
    n_panels = len(raw["powers_dbm"]) * len(raw["laser"]["levels_w_per_m2"])
    sweepers = tmp_path / "sweepers"

    def recording_sweep(*args, **kwargs):
        with open(sweepers, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        return cdmr_sweep(*args, **kwargs)

    monkeypatch.setattr("cdmr.cli.cdmr_sweep", recording_sweep)
    runs = {}
    for cpus in (1, 2, n_panels + 3):
        _see_cpus(monkeypatch, cpus)
        (tmp_path / str(cpus)).mkdir()
        monkeypatch.chdir(tmp_path / str(cpus))
        sweepers.write_text("")
        code = main(["cdmr", "--config", cfg, "--output-dir", "out"])
        captured = capsys.readouterr()
        runs[cpus] = (code, captured.out, captured.err, _run_files("out"))
        assert len(set(sweepers.read_text().split())) == min(cpus, n_panels)
    assert runs[1][0] == 0 and len(runs[1][3]) == 2 * n_panels + 1
    assert "probe-window edge" in runs[1][2]
    assert ("are flat" in runs[1][2]) == (case == "flat-and-edge")
    assert runs[2] == runs[1]
    assert runs[n_panels + 3] == runs[1]
    _assert_no_child_left()


def test_cdmr_warnings_raised_in_workers_show_once_in_panel_order(tmp_path, shrink, p1_raw,
                                                                   monkeypatch, capsys):
    """A warning a sweep raises is shown as it would be in one process: once per
    text and place, in panel order, whichever process swept the panel."""
    def warning_sweep(cavity, bank, omega_p, power_w, rows):
        warnings.warn(f"sweep at {power_w!r} W")
        warnings.warn("every sweep")
        return cdmr_sweep(cavity, bank, omega_p, power_w, rows)

    raw = shrink(p1_raw, powers=[-90, -80, -70, -60])
    cfg = write_config(tmp_path, raw)
    monkeypatch.setattr("cdmr.cli.cdmr_sweep", warning_sweep)
    monkeypatch.setattr("cdmr.cli._BLOCK_PIXELS", 7)  # five blocks per panel
    errs = {}
    for cpus in (1, 2, 3):
        _see_cpus(monkeypatch, cpus)
        assert main(["cdmr", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
        errs[cpus] = [line for line in capsys.readouterr().err.splitlines() if "sweep" in line]
    watts = [1e-3 * 10.0 ** (p / 10.0) for p in (-90.0, -80.0, -70.0, -60.0)]
    assert errs[1] == [f"warning: sweep at {watts[0]!r} W", "warning: every sweep",
                       *(f"warning: sweep at {w!r} W" for w in watts[1:])]
    assert errs[2] == errs[1] and errs[3] == errs[1]


def _sweep_failing_at(power_dbm, fault):
    """A ``cdmr_sweep`` that calls ``fault()`` on the panels at ``power_dbm``."""
    target = 1e-3 * 10.0 ** (power_dbm / 10.0)

    def sweep(cavity, bank, omega_p, power_w, rows):
        if power_w == target:
            fault()
        return cdmr_sweep(cavity, bank, omega_p, power_w, rows)

    return sweep


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _boom():
    raise RuntimeError("boom at -80 dBm")


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_cdmr_fault_in_a_middle_panel_publishes_the_panels_before_it(tmp_path, shrink, p1_raw,
                                                                     monkeypatch, capsys,
                                                                     read_matrix_csv, cpus):
    """The second of three panels fails, here or in a worker: the first panel is
    published, the second and third leave no file, not even a partial one."""
    raw = shrink(p1_raw, powers=[-90, -80, -70])
    cfg, out = write_config(tmp_path, raw), tmp_path / "out"
    monkeypatch.setattr("cdmr.cli.cdmr_sweep", _sweep_failing_at(-80, _boom))
    _see_cpus(monkeypatch, cpus)
    assert main(["cdmr", "--config", cfg, "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("numerical failure: panel P-80dBm_L0: boom at -80 dBm\n")
    rc_path = out / "cdmr_rc_P-90dBm_L0.csv"
    min_rc = np.min(read_matrix_csv(rc_path)[2])
    assert captured.out == f"panel P-90dBm_L0: min R_c = {min_rc:.6f} -> {rc_path}\n"
    assert sorted(os.listdir(out)) == ["cdmr_omega_eff_P-90dBm_L0.csv", "cdmr_rc_P-90dBm_L0.csv"]
    _assert_no_child_left()


def test_cdmr_worker_that_dies_names_its_panels(tmp_path, shrink, p1_raw, monkeypatch, capsys):
    """A worker that exits without its result fails the run with exit 2, naming the
    panels it held; none of them, and no panel after the first of them, leaves a file."""
    here = os.getpid()

    def die_in_a_worker():
        if os.getpid() != here:
            os._exit(3)

    raw = shrink(p1_raw, powers=[-90, -80, -70, -60])
    cfg, out = write_config(tmp_path, raw), tmp_path / "out"
    monkeypatch.setattr("cdmr.cli.cdmr_sweep", _sweep_failing_at(-80, die_in_a_worker))
    _see_cpus(monkeypatch, 2)
    assert main(["cdmr", "--config", cfg, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err.endswith(
        "numerical failure: the worker sweeping panels P-80dBm_L0, P-60dBm_L0 ended without "
        "a result\n")
    assert sorted(os.listdir(out)) == ["cdmr_omega_eff_P-90dBm_L0.csv", "cdmr_rc_P-90dBm_L0.csv"]
    _assert_no_child_left()


def test_cdmr_interrupted_leaves_no_worker_and_no_file(tmp_path, shrink, p1_raw, monkeypatch):
    """An interrupt in this process's own panel reaches the caller after every worker
    is reaped and every partial file removed."""
    here = os.getpid()

    def interrupt_here():
        if os.getpid() == here:
            raise KeyboardInterrupt

    raw = shrink(p1_raw, powers=[-90, -80, -70, -60])
    cfg, out = write_config(tmp_path, raw), tmp_path / "out"
    monkeypatch.setattr("cdmr.cli.cdmr_sweep", _sweep_failing_at(-70, interrupt_here))
    _see_cpus(monkeypatch, 2)
    with pytest.raises(KeyboardInterrupt):
        main(["cdmr", "--config", cfg, "--output-dir", str(out)])
    _assert_no_child_left()
    assert os.listdir(out) == []


def test_cdmr_fork_warning_of_a_threaded_process_is_not_shown(tmp_path, shrink, p1_raw,
                                                               monkeypatch, capsys):
    """Python >= 3.12 warns when a process with threads (numpy's BLAS pool) forks;
    ``cdmr`` shows no line for it, even where every warning is shown."""
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    cfg = write_config(tmp_path, shrink(p1_raw, powers=[-90, -80]))
    monkeypatch.setattr(os, "fork", warning_fork)
    _see_cpus(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["cdmr", "--config", cfg, "--output-dir", str(tmp_path / "out")]) == 0
    assert "multi-threaded" not in capsys.readouterr().err
    _assert_no_child_left()


def test_cdmr_peak_memory_does_not_grow_with_the_field_steps(tmp_path, child_peaks_mib):
    """One NV panel of 2000x200 pixels peaks within 2 MiB of one of 200x200.

    Measured on Linux x86-64 with Python 3.11 and numpy 2.4: +0.2 to +0.4 MiB
    with blocks of 81 field rows, against +26 MiB when a panel was held whole.
    """
    run = ["cdmr", "--preset", "nv_default", "--output-dir", str(tmp_path),
           "--set", "powers_dbm=[-90]", "--set", 'laser.levels_w_per_m2={"L0": 0.0}']
    small, large = child_peaks_mib(run, [*run, "--set", "field_sweep.steps=2000"])
    assert large - small < 2.0


def test_coupling_payload(tmp_path, shrink, nv_raw):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    assert main(["coupling", "--config", cfg, "--output-dir", out,
                 "--laser-level", "L1"]) == 0
    payload = json.loads((tmp_path / "out" / "coupling.json").read_text())
    assert payload["laser_level"] == "L1"
    assert payload["intensity_w_per_m2"] == 5600.0
    assert payload["t1_s"] == pytest.approx(T1_AT_5600, rel=1e-12)
    assert payload["p_zs"] == pytest.approx(PZS_AT_5600, rel=1e-12)
    assert payload["map_points"] == [6, 6, 6]
    g = payload["g_s_rad_per_s"]
    assert g > 0 and payload["g_s_hz"] == pytest.approx(g / TWO_PI, rel=1e-12)
    assert payload["g_s_config_hz"] == pytest.approx(5.05, rel=1e-12)
    assert payload["n_eff"] > 0 and payload["region_volume_m3"] > 0
    t2 = nv_raw["ensemble"]["t2_s"]
    assert payload["e_cc"] == critical_photon_number(g, payload["t1_s"], t2)


@pytest.mark.parametrize("preset", ["nv_default", "p1_default"])
def test_coupling_e_cc_is_the_one_critical_photon_number(tmp_path, preset):
    """coupling.json e_cc is critical_photon_number of the field-map g_s, bit for bit, at
    the preset grid and every laser level: the formula e_cc_config and expand.json use."""
    config = validate_config(load_preset_raw(preset))
    for name in [None, *config.laser.level_names()]:
        level_args = [] if name is None else ["--laser-level", name]
        assert main(["coupling", "--preset", preset, "--output-dir", str(tmp_path),
                     *level_args]) == 0
        doc = json.loads((tmp_path / "coupling.json").read_text())
        assert doc["e_cc"] == critical_photon_number(doc["g_s_rad_per_s"], doc["t1_s"],
                                                     config.ensemble.t2)


def test_coupling_g_s_is_one_value_at_every_laser_level(tmp_path, shrink, nv_raw):
    """The field-map g_s is geometry: the same bits with no level and at L0-L3, while
    n_eff = density |P_zS| V follows each level's polarization."""
    cfg, out = run_dirs(tmp_path, shrink, nv_raw, grid=12)
    density = nv_raw["ensemble"]["density_per_m3"]
    g_s = set()
    for level_args in ([], *(["--laser-level", name] for name in ("L0", "L1", "L2", "L3"))):
        assert main(["coupling", "--config", cfg, "--output-dir", out, *level_args]) == 0
        payload = json.loads((tmp_path / "out" / "coupling.json").read_text())
        g_s.add(payload["g_s_rad_per_s"])
        assert payload["n_eff"] == density * abs(payload["p_zs"]) * payload["region_volume_m3"]
    assert len(g_s) == 1


def test_coupling_reports_the_configured_e_cc_beside_the_field_map_one(tmp_path, shrink, nv_raw):
    """coupling.json e_cc comes from the field-map g_s; e_cc_config is expand.json's e_cc,
    bit for bit, and g_s_field_map_over_config the ratio of the two couplings."""
    cfg, out = run_dirs(tmp_path, shrink, nv_raw, grid=12)
    for level in ("L0", "L1", "L2", "L3"):
        assert main(["coupling", "--config", cfg, "--output-dir", out, "--laser-level", level]) == 0
        assert main(["expand", "--config", cfg, "--output-dir", out, "--laser-level", level,
                     "--delta-hz", "1.5e6"]) == 0
        coupling_doc = json.loads((tmp_path / "out" / "coupling.json").read_text())
        expand_doc = json.loads((tmp_path / "out" / "expand.json").read_text())
        assert coupling_doc["e_cc_config"] == expand_doc["e_cc"]
        assert coupling_doc["e_cc_config"] != coupling_doc["e_cc"]
        assert coupling_doc["g_s_field_map_over_config"] == pytest.approx(
            coupling_doc["g_s_hz"] / coupling_doc["g_s_config_hz"], rel=1e-15)


def test_coupling_unknown_level_exits_one(tmp_path, shrink, nv_raw, capsys):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    assert main(["coupling", "--config", cfg, "--output-dir", out,
                 "--laser-level", "L9"]) == 1
    assert "laser level 'L9' not in config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code", [
    (["cdmr", "--set", "ensemble.t1_thermal_laser_on_s=1e-320"], 1),
    (["coupling", "--laser-level", "L9"], 1),
    (["cdmr", "--set", "field_sweep.theta_x_rad=0.9553166181245093",
      "--set", "field_sweep.theta_y_rad=0", "--set", "field_sweep.theta_z_rad=0.7853981633974483",
      "--set", "field_sweep.max_t=0.5"], 2),
], ids=["t1-underflow", "unknown-level", "negative-line"])
def test_a_failed_command_leaves_no_directory_it_made(tmp_path, capsys, argv, code):
    fresh = tmp_path / "fresh"

    def run(out):
        return main([*argv, "--preset", "nv_default", "--output-dir", str(out)])

    assert run(fresh / "out") == code
    assert not fresh.exists()
    # A directory that was there before the run stays, with what it held.
    (fresh / "out").mkdir(parents=True)
    (fresh / "out" / "kept.txt").write_text("kept\n")
    assert run(fresh / "out" / "new") == code
    assert os.listdir(fresh / "out") == ["kept.txt"]
    assert run(fresh / "out") == code
    assert os.listdir(fresh / "out") == ["kept.txt"]


def test_a_command_that_failed_after_writing_keeps_its_files(tmp_path, shrink, nv_raw,
                                                             monkeypatch, capsys):
    # The L1 panel's sweep fails, known by its bank: panels may be swept in worker processes.
    l1_banks = []

    def recording_builder(config, level):
        build = group_builder(config, level)

        def recorded(b_mags, b_hat):
            bank = build(b_mags, b_hat)
            if level.name == "L1":
                l1_banks.append(bank)
            return bank

        return recorded

    def l1_sweep_fails(cavity, bank, *args):
        if any(bank is l1_bank for l1_bank in l1_banks):
            raise RuntimeError("boom")
        return cdmr.cavity.cdmr_sweep(cavity, bank, *args)

    monkeypatch.setattr("cdmr.cli.group_builder", recording_builder)
    monkeypatch.setattr("cdmr.cli.cdmr_sweep", l1_sweep_fails)
    cfg, _ = run_dirs(tmp_path, shrink, nv_raw, powers=[-90], levels=["L0", "L1"])
    out = tmp_path / "fresh" / "out"
    assert main(["cdmr", "--config", cfg, "--output-dir", str(out)]) == 2
    assert sorted(os.listdir(out)) == ["cdmr_omega_eff_P-90dBm_L0.csv", "cdmr_rc_P-90dBm_L0.csv"]


@pytest.mark.parametrize("argv,source,message", [
    (["cdmr", "--preset", "nv_default", "--set", "powers_dbm=[-90,-90]"],
     "preset nv_default with --set overrides",
     "config.powers_dbm: -90.0 and -90.0 would write the same panel files (P-90dBm_*)"),
    (["coupling", "--preset", "nv_default", "--laser-level", "L9"], "preset nv_default",
     "laser level 'L9' not in config; available: L0, L1, L2, L3"),
    (["fieldmap", "gen-loop", "--config", "{config}"], "{config}",
     "config.field_map.source: gen-loop needs source='loop'"),
    (["bistability", "--preset", "nv_default", "--delta-hz", "1.5e6",
      "--set", "ensemble.p_zs_thermal=0.035"], "preset nv_default with --set overrides",
     "config.ensemble.p_zs_thermal: must be <= 0.0, got 0.035"),
])
def test_config_errors_raised_by_commands_name_their_config(tmp_path, capsys, argv, source,
                                                            message):
    raw = load_preset_raw("nv_default")
    raw["field_map"] = {"source": "file", "path": str(tmp_path / "map.csv"),
                        "region_bounds_m": raw["field_map"]["region_bounds_m"]}
    config = write_config(tmp_path, raw)
    argv = [arg.format(config=config) for arg in argv]
    assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"invalid configuration in {source.format(config=config)}:\n  - {message}\n")


def test_sensitivity_payload(tmp_path):
    out = str(tmp_path / "out")
    assert main(["sensitivity", "--preset", "nv_default", "--output-dir", out]) == 0
    payload = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    assert payload["s_n_per_sqrt_hz"] == pytest.approx(S_N_FROZEN, rel=1e-12)
    assert "cooperativity" not in payload
    assert main(["sensitivity", "--preset", "nv_default", "--output-dir", out,
                 "--n-eff", repr(NV_QUARTER_SHARE)]) == 0
    payload = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    assert payload["n_eff"] == NV_QUARTER_SHARE
    assert payload["cooperativity"] == pytest.approx(COOP_FROZEN, rel=1e-12)


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_sensitivity_rejects_a_bad_n_eff(tmp_path, capsys, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["sensitivity", "--preset", "nv_default", "--output-dir", str(out), "--n-eff", value])
    assert excinfo.value.code == 2
    assert "argument --n-eff: expected a " in capsys.readouterr().err
    assert not out.exists()


def test_sensitivity_set_override(tmp_path):
    out = str(tmp_path / "out")
    assert main(["sensitivity", "--preset", "nv_default", "--output-dir", out,
                 "--set", "ensemble.t2_s=4.38e-7"]) == 0
    payload = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    assert payload["t2_s"] == 4.38e-7
    assert payload["s_n_per_sqrt_hz"] != pytest.approx(S_N_FROZEN, rel=1e-6)


def test_expand_payload_matches_library(tmp_path, shrink, nv_raw):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    delta_hz = 1.5e6
    assert main(["expand", "--config", cfg, "--output-dir", out,
                 "--delta-hz", repr(delta_hz)]) == 0
    payload = json.loads((tmp_path / "out" / "expand.json").read_text())
    ens = nv_raw["ensemble"]
    share = ens["density_per_m3"] * ens["sample_volume_m3"] * abs(ens["p_zs_thermal"]) / 4.0
    g_s, t1, t2 = TWO_PI * ens["g_s_laser_off_hz"], ens["t1_thermal_laser_off_s"], ens["t2_s"]
    expansion = weak_expansion(share, g_s, TWO_PI * delta_hz, t1, t2)
    assert payload["laser_level"] == "off" and payload["intensity_w_per_m2"] == 0.0
    assert payload["n_eff"] == share
    assert payload["e_cc"] == expansion.e_cc == 1.0 / (4.0 * g_s**2 * t1 * t2)
    assert payload["zeta2"] == expansion.zeta2
    assert payload["omega_cs_rad_per_s"] == pytest.approx(expansion.omega_cs, rel=1e-14)
    assert payload["gamma_cs_rad_per_s"] == pytest.approx(expansion.gamma_cs, rel=1e-14)
    assert payload["k_cs_rad_per_s_per_photon"] == pytest.approx(expansion.k_cs, rel=1e-14)
    assert payload["g_cs_rad_per_s_per_photon"] == pytest.approx(expansion.g_cs, rel=1e-14)
    assert payload["omega_cs_hz"] == pytest.approx(expansion.omega_cs / TWO_PI, rel=1e-14)


@pytest.mark.parametrize("level_name", [None, "L0", "L1", "L2", "L3"])
def test_coupling_expand_and_maps_read_one_laser_level_record(tmp_path, shrink, nv_raw,
                                                              monkeypatch, level_name):
    """coupling.json, expand.json and the bank cdmr builds carry the g_s, T1, P_zS and
    n_eff of the one resolved laser level, bit for bit."""
    banks = {}

    def recording_builder(config, level):
        build = group_builder(config, level)

        def recorded(b_mags, b_hat):
            banks[level.name] = build(b_mags, b_hat)
            return banks[level.name]

        return recorded

    monkeypatch.setattr("cdmr.cli.group_builder", recording_builder)
    raw = shrink(nv_raw, powers=[-90])
    cfg, out = write_config(tmp_path, raw), tmp_path / "out"
    level_args = [] if level_name is None else ["--laser-level", level_name]
    for argv in (["coupling", *level_args], ["expand", "--delta-hz", "1.5e6", *level_args],
                 ["cdmr"]):
        assert main([*argv, "--config", cfg, "--output-dir", str(out)]) == 0
    level = laser_level(validate_config(raw), level_name)
    coupling = json.loads((out / "coupling.json").read_text())
    assert coupling["laser_level"] == level.name
    assert coupling["g_s_config_hz"] == level.g_s / TWO_PI
    assert coupling["t1_s"] == level.t1
    assert coupling["p_zs"] == level.p_zs
    assert json.loads((out / "expand.json").read_text())["n_eff"] == level.n_eff
    bank = banks[level_name or "L0"]  # L0 is the laser off
    assert np.all(bank.g_s == level.g_s)
    assert np.all(bank.t1 == level.t1)
    assert np.all(bank.n_eff == level.n_eff)


def test_a_subnormal_laser_on_t1_exits_1_naming_the_effective_t1(tmp_path, capsys):
    # 1/1e-320 overflows, so the combined rate is inf and the effective T1 rounds to 0.
    assert main(["cdmr", "--preset", "nv_default", "--output-dir", str(tmp_path),
                 "--set", "ensemble.t1_thermal_laser_on_s=1e-320"]) == 1
    assert capsys.readouterr().err == "error: effective T1 must be finite and positive, got 0.0\n"
    assert not list(tmp_path.glob("*.csv"))


def test_expand_warns_on_an_unphysical_t2_naming_both_times(tmp_path, capsys):
    assert main(["expand", "--preset", "nv_default", "--delta-hz", "1.5e6",
                 "--set", "ensemble.t2_s=1e3", "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ("warning: 2*T1 < T2 is unphysical "
                                       "(T1=0.565, T2=1000.0)\n")
    assert json.loads((tmp_path / "expand.json").read_text())["laser_level"] == "off"


@pytest.mark.parametrize("command", ["expand", "bistability"])
def test_negative_scientific_delta_parses_like_the_equals_form(tmp_path, shrink, nv_raw, command):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    payloads = []
    for delta_args in (["--delta-hz", "-1.5e6"], ["--delta-hz=-1.5e6"]):
        assert main([command, "--config", cfg, "--output-dir", out, *delta_args]) == 0
        payloads.append(json.loads((tmp_path / "out" / f"{command}.json").read_text()))
    assert payloads[0]["delta_hz"] == -1.5e6
    assert payloads[0] == payloads[1]


def test_expand_refuses_a_detuning_whose_product_with_t2_underflows(tmp_path, capsys):
    """2 pi 1e-320 Hz times T2 = 2.19e-7 s is 0: the zero detuning the expansion refuses."""
    out = tmp_path / "out"
    assert main(["expand", "--preset", "nv_default", "--delta-hz", "1e-320",
                 "--output-dir", str(out)]) == 1
    assert capsys.readouterr().err == ("error: weak expansion is undefined at zero detuning; "
                                       "evaluate ensemble_shift directly\n")
    assert not out.exists()


def test_expand_requires_delta(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["expand", "--preset", "nv_default"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["expand", "bistability"])
def test_non_finite_delta_is_a_usage_error(tmp_path, capsys, command, value):
    """A NaN or infinite detuning would reach the JSON as NaN or Infinity, which
    is not JSON: it exits 2 at parsing and makes no output directory."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--preset", "nv_default", "--output-dir", str(out), f"--delta-hz={value}"])
    assert excinfo.value.code == 2
    assert f"argument --delta-hz: expected a finite number, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["expand", "--delta-hz", "abc"], "argument --delta-hz: expected a finite number, got abc"),
    (["fit-orientation", "--data", "x.csv", "--seed", "abc"],
     "argument --seed: expected a non-negative integer, got abc"),
    (["fit-orientation", "--data", "x.csv", "--monte-carlo", "2.5"],
     "argument --monte-carlo: expected a non-negative integer, got 2.5"),
    (["sensitivity", "--n-eff", "abc"],
     "argument --n-eff: expected a finite non-negative number, got abc"),
    (["fit-orientation", "--data", "x.csv", "--initial=a,b,c"],
     "argument --initial: expected three comma-separated numbers, got a,b,c"),
    (["fit-cavity", "--data", "x.csv", "--initial=1,2"],
     "argument --initial: expected three comma-separated numbers, got 1,2"),
], ids=["delta-hz", "seed", "monte-carlo", "n-eff", "initial-angles", "initial-cavity"])
def test_a_value_that_does_not_parse_is_a_usage_error_naming_its_form(tmp_path, capsys, argv,
                                                                      message):
    """The usage error names the form to type, not argparse's ``invalid _name value``."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--preset", "nv_default", "--output-dir", str(out)])
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert err.endswith(f": error: {message}\n")
    assert "invalid _" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e308", "-1e308"])
@pytest.mark.parametrize("command", ["expand", "bistability"])
def test_a_delta_whose_rad_per_s_overflows_is_a_usage_error(tmp_path, capsys, command, value):
    """2 pi x 1e308 Hz is not a finite rad/s: it exits 2 at parsing, as a
    non-finite detuning does, and makes no output directory."""
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--preset", "nv_default", "--output-dir", str(out), f"--delta-hz={value}"])
    assert excinfo.value.code == 2
    assert (f"argument --delta-hz: overflows when converted to rad/s, got {value}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", [["cdmr"], ["expand", "--delta-hz", "1.5e6"],
                                     ["bistability", "--delta-hz", "1.5e6"]])
def test_an_overflowing_spin_count_is_a_config_error(tmp_path, capsys, command):
    """Each finite, density x volume overflows: every group's n_eff would be inf."""
    out = tmp_path / "out"
    assert main([*command, "--preset", "nv_default", "--output-dir", str(out),
                 "--set", "ensemble.density_per_m3=1e300",
                 "--set", "ensemble.sample_volume_m3=1e10"]) == 1
    assert capsys.readouterr().err == (
        "invalid configuration in preset nv_default with --set overrides:\n"
        "  - config.ensemble: density_per_m3 * sample_volume_m3 overflows "
        "(1e+300 * 10000000000.0)\n")
    assert not out.exists()


@pytest.mark.parametrize("command, override, key", [
    # 2 T1 / T2 overflows for a subnormal T2.
    ("sensitivity", "ensemble.t2_s=1e-320", "s_n_per_sqrt_hz"),
    # g_s^2 underflows to 0, so the shot-noise figure is inf.
    ("sensitivity", "ensemble.g_s_laser_off_hz=1e-300", "s_n_per_sqrt_hz"),
    # g_s^2 underflows, so 4 g_s^2 T1 T2 is 0 and e_cc is inf.
    ("coupling", "ensemble.g_s_laser_off_hz=1e-200", "e_cc_config"),
])
def test_a_non_finite_result_exits_2_naming_its_file_and_key(tmp_path, capsys, command, override,
                                                             key):
    """JSON has no inf or NaN: the result is neither written nor printed, and the
    output directory is not made."""
    out = tmp_path / "out"
    assert main([command, "--preset", "nv_default", "--output-dir", str(out),
                 "--set", override]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"numerical failure: {out / f'{command}.json'}: {key} is inf, "
                            "which JSON cannot hold; nothing written\n")
    assert not out.exists()


def test_a_cusp_power_that_underflows_to_0_w_exits_2_naming_its_dbm(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["bistability", "--preset", "nv_default", "--output-dir", str(out),
                 "--delta-hz", "1.5e6", "--set", "cavity.kerr_hz_per_photon=1e150"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"numerical failure: {out / 'bistability.json'}: power_at_cusp_dbm "
                            "is -inf, which JSON cannot hold; nothing written\n")
    assert not out.exists()


def test_the_json_guard_finds_non_finite_numbers_at_any_depth():
    found = list(cdmr.cli._nonfinite({"b": [1.0, {"c": math.nan}], "a": (math.inf, 2),
                                      "d": "inf", "e": 1e308}, ""))
    assert [(key, repr(value)) for key, value in found] == [("a[0]", "inf"), ("b[1].c", "nan")]


def onset_formula(gamma, kerr, cubic):
    y = 2.0 * gamma / (math.sqrt(3.0) * (abs(kerr) - math.sqrt(3.0) * cubic))
    drive = y ** 3 * (kerr * kerr + cubic * cubic)
    delta = math.copysign(1.0, kerr) * 0.5 * y * (3.0 * abs(kerr) + math.sqrt(3.0) * cubic)
    return y, delta, drive


def test_bistability_payload_closed_form(tmp_path, shrink, nv_raw):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    delta_hz = 1.5e6
    assert main(["expand", "--config", cfg, "--output-dir", out,
                 "--delta-hz", repr(delta_hz)]) == 0
    expansion = json.loads((tmp_path / "out" / "expand.json").read_text())
    assert main(["bistability", "--config", cfg, "--output-dir", out,
                 "--delta-hz", repr(delta_hz)]) == 0
    payload = json.loads((tmp_path / "out" / "bistability.json").read_text())
    assert payload["bistable"] is True
    cavity = nv_raw["cavity"]
    gamma_t = TWO_PI * (cavity["gamma_c_hz"] + cavity["gamma_f_hz"])
    gamma_t += expansion["gamma_cs_rad_per_s"]
    assert payload["gamma_t_rad_per_s"] == pytest.approx(gamma_t, rel=1e-14)
    y, delta_star, drive = onset_formula(
        payload["gamma_t_rad_per_s"],
        payload["kerr_rad_per_s_per_photon"],
        payload["cubic_damping_rad_per_s_per_photon"],
    )
    assert payload["e_co"] == pytest.approx(y, rel=1e-9)
    assert payload["drive_photons_rad2_per_s2"] == pytest.approx(drive, rel=1e-9)
    omega_0 = TWO_PI * cavity["omega_c_hz"] + expansion["omega_cs_rad_per_s"]
    assert payload["omega_p_at_onset_rad_per_s"] == pytest.approx(
        omega_0 + delta_star, rel=1e-12)
    assert payload["f_p_at_onset_hz"] == pytest.approx(
        payload["omega_p_at_onset_rad_per_s"] / TWO_PI, rel=1e-14)
    assert payload["e_co_over_e_cc"] == pytest.approx(
        payload["e_co"] / payload["e_cc"], rel=1e-12)
    power_w = drive * HBAR * TWO_PI * cavity["omega_c_hz"] / (
        4.0 * TWO_PI * cavity["gamma_f_hz"])
    assert payload["power_at_onset_w"] == pytest.approx(power_w, rel=1e-9)
    assert payload["power_at_onset_dbm"] == pytest.approx(
        10.0 * math.log10(payload["power_at_onset_w"] / 1e-3), rel=1e-12)


@pytest.mark.parametrize("delta_hz", ["1.5e6", "-2e6", "6e5"])
@pytest.mark.parametrize("preset", ["nv_default", "p1_default"])
def test_bistability_json_holds_expand_json_bit_for_bit(tmp_path, preset, delta_hz):
    """Both commands write one weak-drive record: every expand.json key is in
    bistability.json with the same value, at every laser level and without one."""
    levels = validate_config(load_preset_raw(preset)).laser.level_names()
    for level_args in ([], *(["--laser-level", name] for name in levels)):
        docs = {}
        for command in ("expand", "bistability"):
            assert main([command, "--preset", preset, "--output-dir", str(tmp_path),
                         "--delta-hz", delta_hz, *level_args]) == 0
            docs[command] = json.loads((tmp_path / f"{command}.json").read_text())
        expand = {key: repr(value) for key, value in docs["expand"].items()}
        assert expand == {key: repr(docs["bistability"].get(key)) for key in expand}, level_args


def fold_drives(gamma, kerr, cubic, e_co, u_co, rel):
    """Drive on the fold branch through the cusp at E = (1 - rel) E_co and (1 + rel) E_co.

    At fixed E the fold condition f_E = 0 is a quadratic in u = delta - K E,
    u^2 - 2 K E u + v^2 + 2 G E v = 0 with v = gamma + G E; the branch through
    the cusp is the root nearest u_co, and the fold's drive is E (u^2 + v^2).
    """
    drives = []
    for e in (e_co * (1.0 - rel), e_co * (1.0 + rel)):
        v = gamma + cubic * e
        root = math.sqrt((kerr * e) ** 2 - v * v - 2.0 * cubic * e * v)
        u = min((kerr * e - root, kerr * e + root), key=lambda r: abs(r - u_co))
        drives.append(e * (u * u + v * v))
    return drives


@pytest.mark.parametrize("delta_hz, level", [
    (3e5, None), (6e5, "L3"), (1.5e6, None), (-1.5e6, "L2"), (5e6, "L1"),
])
def test_bistability_cusp_is_onset_matches_the_fold_curve(tmp_path, shrink, nv_raw,
                                                          delta_hz, level):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    argv = ["--config", cfg, "--output-dir", out, "--delta-hz", repr(delta_hz)]
    if level is not None:
        argv += ["--laser-level", level]
    assert main(["expand", *argv]) == 0
    omega_cs = json.loads((tmp_path / "out" / "expand.json").read_text())["omega_cs_rad_per_s"]
    assert main(["bistability", *argv]) == 0
    payload = json.loads((tmp_path / "out" / "bistability.json").read_text())
    assert payload["bistable"] is True
    kerr = payload["kerr_rad_per_s_per_photon"]
    e_co, drive = payload["e_co"], payload["drive_photons_rad2_per_s2"]
    omega_0 = TWO_PI * nv_raw["cavity"]["omega_c_hz"] + omega_cs
    u_co = payload["omega_p_at_onset_rad_per_s"] - omega_0 - kerr * e_co
    below, above = fold_drives(payload["gamma_t_rad_per_s"], kerr,
                               payload["cubic_damping_rad_per_s_per_photon"], e_co, u_co, 1e-2)
    # The cusp is an extremum of the drive along the fold: a minimum (the
    # onset) or a maximum, the same on both sides.
    assert (below > drive) == (above > drive)
    assert payload["cusp_is_onset"] is (below > drive)


def test_bistability_flags_and_warnings(tmp_path, shrink, nv_raw, capsys):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    path = tmp_path / "out" / "bistability.json"
    assert main(["bistability", "--config", cfg, "--output-dir", out, "--delta-hz", "6e5"]) == 0
    payload = json.loads(path.read_text())
    assert payload["bistable"] is True
    assert payload["cusp_is_onset"] is False
    assert payload["weak_expansion_valid"] is True
    assert capsys.readouterr().err.count("warning:") == 1
    for level in ("L0", "L3"):
        assert main(["bistability", "--config", cfg, "--output-dir", out, "--delta-hz", "1.5e6",
                     "--laser-level", level]) == 0
        payload = json.loads(path.read_text())
        assert payload["cusp_is_onset"] is True
        assert payload["weak_expansion_valid"] is False
        assert payload["e_co_over_e_cc"] > 1.0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1 and "weak-drive expansion" in err


@pytest.mark.parametrize("delta_hz, overrides, cusp_is_onset", [
    (6e5, [], False),
    (1.5e6, ["--set", "cavity.kerr_hz_per_photon=2e5"], True),
])
def test_bistability_cusp_keys_and_their_onset_aliases_agree(tmp_path, shrink, nv_raw,
                                                              delta_hz, overrides, cusp_is_onset):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    assert main(["bistability", "--config", cfg, "--output-dir", out,
                 "--delta-hz", repr(delta_hz), *overrides]) == 0
    payload = json.loads((tmp_path / "out" / "bistability.json").read_text())
    assert payload["cusp_is_onset"] is cusp_is_onset
    for key in ("omega_p_at_cusp_rad_per_s", "f_p_at_cusp_hz", "power_at_cusp_w",
                "power_at_cusp_dbm"):
        assert payload[key] == payload[key.replace("_at_cusp_", "_at_onset_")]
    assert payload["f_p_at_cusp_hz"] == payload["omega_p_at_cusp_rad_per_s"] / TWO_PI
    assert payload["power_at_cusp_dbm"] == pytest.approx(
        10.0 * math.log10(payload["power_at_cusp_w"] / 1e-3), rel=1e-14)


def test_bistability_suppressed_by_cubic_damping(tmp_path, shrink, nv_raw):
    cfg, out = run_dirs(tmp_path, shrink, nv_raw)
    assert main(["bistability", "--config", cfg, "--output-dir", out,
                 "--delta-hz", "1.5e6",
                 "--set", "cavity.cubic_damping_hz_per_photon=200"]) == 0
    payload = json.loads((tmp_path / "out" / "bistability.json").read_text())
    assert payload["bistable"] is False
    assert "e_co" not in payload


def synthetic_odmr_csv(tmp_path, angles, name="odmr.csv"):
    b_hat = rotate_to_unit_vector(*angles)
    lines = ["b_t,f_hz"]
    for b_mag in (2e-3, 3.5e-3, 5e-3, 6.5e-3, 8e-3):
        freqs = [float(w) / TWO_PI for w in nv_transition_frequencies(b_mag * b_hat)]
        lines.append(",".join([repr(b_mag)] + [repr(f) for f in freqs]))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def ragged_odmr_csv(tmp_path, angles):
    """Records of 8, 3 and 5 lines, each the lowest lines at its field."""
    b_hat = rotate_to_unit_vector(*angles)
    rows = []
    for b_mag, keep in ((2e-3, 8), (5e-3, 3), (8e-3, 5)):
        lines = np.sort(nv_transition_frequencies(b_mag * b_hat))[:keep] / TWO_PI
        rows.append(",".join(repr(float(v)) for v in (b_mag, *lines)))
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_fit_orientation_cli(tmp_path, nv_raw):
    truth = tuple(nv_raw["field_sweep"][k] for k in
                  ("theta_x_rad", "theta_y_rad", "theta_z_rad"))
    data = synthetic_odmr_csv(tmp_path, truth)
    out = str(tmp_path / "out")
    initial = f"--initial={truth[0] + 0.01!r},{truth[1] - 0.02!r},{truth[2]!r}"
    assert main(["fit-orientation", "--preset", "nv_default", "--output-dir", out,
                 "--data", data, initial,
                 "--monte-carlo", "3", "--noise-frac", "0.002", "--seed", "1"]) == 0
    payload = json.loads((tmp_path / "out" / "fit_orientation.json").read_text())
    assert payload["converged"] is True
    assert payload["theta_x_rad"] == pytest.approx(truth[0], abs=1e-6)
    assert payload["theta_y_rad"] == pytest.approx(truth[1], abs=1e-6)
    assert payload["theta_z_rad"] == truth[2]  # gauge angle stays put
    assert payload["records"] == 5
    assert len(payload["sigma_rad"]) == 3
    result = fit_orientation(load_odmr_csv(data), (truth[0] + 0.01, truth[1] - 0.02, truth[2]))
    assert payload["refits"] == result.refits
    assert payload["jacobian_condition"] == result.jacobian_condition > 1.0
    mc = payload["monte_carlo"]
    assert mc["trials"] == 3 and mc["seed"] == 1
    assert mc["converged_trials"] == 3
    assert len(mc["std_rad"]) == 3
    assert all(e < 0.2 for e in mc["max_abs_error_rad"])


@pytest.mark.parametrize("option, value", [
    ("--monte-carlo", "-3"), ("--noise-frac", "-0.1"), ("--noise-frac", "nan"),
    ("--noise-frac", "inf"), ("--seed", "-1"),
], ids=["negative-trials", "negative-noise", "nan-noise", "inf-noise", "negative-seed"])
def test_fit_orientation_rejects_bad_monte_carlo_arguments(tmp_path, capsys, option, value):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        main(["fit-orientation", "--preset", "nv_default", "--output-dir", str(out),
              "--data", str(tmp_path / "lines.csv"), "--monte-carlo", "2", option, value])
    assert excinfo.value.code == 2
    assert f"argument {option}: expected a " in capsys.readouterr().err
    assert not out.exists()


def test_fit_orientation_reports_non_converged_trials(tmp_path, nv_raw, monkeypatch, capsys):
    import cdmr.fitting

    truth = tuple(nv_raw["field_sweep"][k] for k in
                  ("theta_x_rad", "theta_y_rad", "theta_z_rad"))
    data = synthetic_odmr_csv(tmp_path, truth)
    args = ["fit-orientation", "--preset", "nv_default", "--output-dir", str(tmp_path / "out"),
            "--data", data, f"--initial={truth[0] + 0.01!r},{truth[1] - 0.02!r},{truth[2]!r}"]
    original = cdmr.fitting.least_squares
    calls = []
    failing = set()

    def counting(*a, **kw):
        solves = original(*a, **kw)
        if len(calls) in failing:
            # Status 0: "maximum number of function evaluations exceeded".
            solves[1] = solves[1]._replace(status=0)
        calls.append(solves)
        return solves

    monkeypatch.setattr(cdmr.fitting, "least_squares", counting)
    assert main(args) == 0
    # The first least_squares call after the reference fit solves the three
    # trials as one stack; at this noise every trial keeps its line pairing,
    # so that call is their last, and trial 2's row fails.
    failing.add(len(calls))
    calls.clear()
    assert main(args + ["--monte-carlo", "3", "--noise-frac", "1e-4", "--seed", "1"]) == 0
    assert [len(solves) for solves in calls] == [1, 3]
    mc = json.loads((tmp_path / "out" / "fit_orientation.json").read_text())["monte_carlo"]
    assert mc["trials"] == 3
    assert mc["converged_trials"] == 2
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "1 of 3 Monte Carlo refits did not converge" in err


def test_fit_orientation_monte_carlo_matches_a_per_trial_loop(tmp_path, nv_raw):
    """Oracle: the stacked Monte Carlo block equals the per-trial loop it
    replaced, one normal draw per record and trial and one ``fit_orientation``
    per trial, on ragged records of 8, 3 and 5 lines where some trials re-pair
    their lines and refit."""
    truth = tuple(nv_raw["field_sweep"][k] for k in
                  ("theta_x_rad", "theta_y_rad", "theta_z_rad"))
    data = ragged_odmr_csv(tmp_path, truth)
    initial = (truth[0] + 0.01, truth[1] - 0.02, truth[2])
    trials, noise_frac, seed = 20, 1e-3, 7
    assert main(["fit-orientation", "--preset", "nv_default", "--output-dir", str(tmp_path / "out"),
                 "--data", data, "--initial=" + ",".join(map(repr, initial)),
                 "--monte-carlo", str(trials), "--noise-frac", repr(noise_frac),
                 "--seed", str(seed)]) == 0
    mc = json.loads((tmp_path / "out" / "fit_orientation.json").read_text())["monte_carlo"]

    angles = ("theta_x", "theta_y", "theta_z")
    dataset = load_odmr_csv(data)
    assert dataset.counts.tolist() == [8, 3, 5]
    reference = fit_orientation(dataset, initial)
    rng = np.random.default_rng(seed)
    records = list(zip(dataset.b_mags, np.split(dataset.lines, np.cumsum(dataset.counts)[:-1])))
    draws, converged, refits = [], 0, []
    for _ in range(trials):
        noisy = []
        for b_mag, lines in records:
            jitter = rng.normal(0.0, noise_frac, size=len(lines))
            noisy.append((b_mag, tuple(f * (1.0 + e) for f, e in zip(lines, jitter))))
        trial = fit_orientation(OdmrDataset(records=tuple(noisy)), initial)
        converged += trial.converged
        refits.append(trial.refits)
        draws.append([trial.parameters[k] for k in angles])
    draws = np.asarray(draws)
    truth_fit = np.array([reference.parameters[k] for k in angles])
    assert 0 < sum(r > 0 for r in refits) < trials  # some trials refit, some do not
    assert mc["converged_trials"] == converged
    assert mc["mean_rad"][:2] == [float(v) for v in draws.mean(axis=0)][:2]
    assert mc["std_rad"][:2] == [float(v) for v in draws.std(axis=0)][:2]
    # The held gauge angle: exactly its value, with no spread.
    assert mc["mean_rad"][2] == initial[2] and mc["std_rad"][2] == 0.0
    assert mc["max_abs_error_rad"] == [float(v) for v in np.max(np.abs(draws - truth_fit), axis=0)]


def test_fit_orientation_monte_carlo_names_a_bad_replica(tmp_path, nv_raw, capsys):
    """Noise large enough to draw a negative line exits 1 and names the
    first replica that has one and its value, as its own dataset would."""
    truth = tuple(nv_raw["field_sweep"][k] for k in
                  ("theta_x_rad", "theta_y_rad", "theta_z_rad"))
    data = synthetic_odmr_csv(tmp_path, truth)
    out = tmp_path / "out"
    assert main(["fit-orientation", "--preset", "nv_default", "--output-dir", str(out),
                 "--data", data, "--monte-carlo", "3", "--noise-frac", "5"]) == 1
    dataset = load_odmr_csv(data)
    clean = dataset.lines
    noisy = clean * (1.0 + np.random.default_rng(0).normal(0.0, 5.0, size=(3, clean.size)))
    edges = np.cumsum(dataset.counts)[:-1]
    expected = None
    for replica, row in enumerate(noisy):
        try:
            OdmrDataset(records=tuple(zip(dataset.b_mags, np.split(row, edges))))
        except ValueError as exc:
            expected = f"error: replica {replica}: {exc}\n"
            break
    assert expected is not None
    assert capsys.readouterr().err == expected
    assert not (out / "fit_orientation.json").exists()


def test_fit_orientation_names_the_file_and_line_of_a_bad_field(tmp_path, capsys):
    data = tmp_path / "lines.csv"
    data.write_text("0.005,2.8e9,2.95e9\n-0.006,2.8e9\n")
    out = tmp_path / "out"
    assert main(["fit-orientation", "--preset", "nv_default", "--output-dir", str(out),
                 "--data", str(data)]) == 1
    assert capsys.readouterr().err == (
        f"error: {data}:2: field magnitude must be finite and >= 0, got -0.006\n")
    assert not (out / "fit_orientation.json").exists()


def test_fit_orientation_initial_accepts_a_negative_list(tmp_path, nv_raw):
    truth = tuple(nv_raw["field_sweep"][k] for k in
                  ("theta_x_rad", "theta_y_rad", "theta_z_rad"))
    data = synthetic_odmr_csv(tmp_path, truth)
    initial = [truth[0] + 0.01, truth[1] - 0.02, truth[2]]
    payloads = []
    for initial_args in (["--initial", ",".join(map(repr, initial))],
                         ["--initial=" + ",".join(map(repr, initial))]):
        out = str(tmp_path / "out")
        assert main(["fit-orientation", "--preset", "nv_default", "--output-dir", out,
                     "--data", data, *initial_args]) == 0
        payloads.append(json.loads((tmp_path / "out" / "fit_orientation.json").read_text()))
    assert initial[0] < 0.0
    assert payloads[0]["initial_angles_rad"] == initial
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("option, value", [
    ("--delta-hz", "-inf"), ("--delta-hz", "-nan"), ("--delta-hz", "-Infinity"),
    ("--initial", "-inf,0,0"),
])
def test_a_negative_non_finite_value_parses_like_the_equals_form(tmp_path, capsys, nv_raw,
                                                                 option, value):
    """Both spellings give one message and exit code: the space form is a value,
    not an option left without its argument ("expected one argument")."""
    if option == "--delta-hz":
        argv = ["bistability", "--preset", "nv_default"]
    else:
        truth = tuple(nv_raw["field_sweep"][k] for k in ("theta_x_rad", "theta_y_rad", "theta_z_rad"))
        argv = ["fit-orientation", "--preset", "nv_default", "--data", synthetic_odmr_csv(tmp_path, truth)]
    argv += ["--output-dir", str(tmp_path / "out")]
    results = []
    for spelling in ([option, value], [f"{option}={value}"]):
        try:
            code = main(argv + spelling)
        except SystemExit as exc:
            code = exc.code
        results.append((code, capsys.readouterr().err))
    assert results[0] == results[1]
    code, err = results[0]
    if option == "--delta-hz":
        assert code == 2 and f"argument --delta-hz: expected a finite number, got {value}" in err
    else:
        assert (code, err) == (1, "error: initial angles must be three finite values\n")


def test_fit_orientation_uses_config_initial(tmp_path, nv_raw):
    truth = tuple(nv_raw["field_sweep"][k] for k in
                  ("theta_x_rad", "theta_y_rad", "theta_z_rad"))
    data = synthetic_odmr_csv(tmp_path, truth)
    out = str(tmp_path / "out")
    # preset angles equal the truth here, so the default initial must converge
    assert main(["fit-orientation", "--preset", "nv_default", "--output-dir", out,
                 "--data", data]) == 0
    payload = json.loads((tmp_path / "out" / "fit_orientation.json").read_text())
    assert payload["initial_angles_rad"] == list(truth)
    assert payload["residual_norm"] < 1e-6


def library_sigma(result, name):
    i = result.parameter_order.index(name)
    return math.sqrt(result.covariance[i, i])


def reflectivity_trace(f_hz, f_c, g_c, g_f):
    df = f_hz - f_c
    return (df * df + (g_f - g_c) ** 2) / (df * df + (g_f + g_c) ** 2)


def test_fit_cavity_cli(tmp_path, monkeypatch):
    starts = []

    def recording(omega, r_c, initial, **kwargs):
        starts.append(initial)
        return fit_cavity_lineshape(omega, r_c, initial, **kwargs)

    monkeypatch.setattr("cdmr.cli.fit_cavity_lineshape", recording)
    f_hz = np.linspace(2.528e9, 2.532e9, 401)
    r_c = reflectivity_trace(f_hz, 2.53e9, 253e3, 367e3)
    data = tmp_path / "trace.csv"
    data.write_text("\n".join(
        ["f_hz,r_c"] + [f"{f!r},{r!r}" for f, r in zip(f_hz.tolist(), r_c.tolist())]) + "\n")
    out = str(tmp_path / "out")
    assert main(["fit-cavity", "--preset", "nv_default", "--output-dir", out,
                 "--data", str(data)]) == 0
    payload = json.loads((tmp_path / "out" / "fit_cavity.json").read_text())
    assert payload["converged"] is True and payload["overcoupled"] is True
    assert payload["f_c_hz"] == pytest.approx(2.53e9, rel=1e-9)
    assert payload["gamma_c_hz"] == pytest.approx(253e3, rel=1e-6)
    assert payload["gamma_f_hz"] == pytest.approx(367e3, rel=1e-6)
    cavity = validate_config(load_preset_raw("nv_default")).cavity
    result = fit_cavity_lineshape(*load_trace_csv(str(data)),
                                  (cavity.omega_c, cavity.gamma_c, cavity.gamma_f))
    for key, name in (("sigma_f_c_hz", "omega_c"), ("sigma_gamma_c_hz", "gamma_c"),
                      ("sigma_gamma_f_hz", "gamma_f")):
        assert payload[key] == library_sigma(result, name) / TWO_PI
    assert payload["jacobian_condition"] == result.jacobian_condition > 1.0
    assert "refits" not in payload
    # same trace, opposite coupling convention: the linewidths swap roles
    assert main(["fit-cavity", "--preset", "nv_default", "--output-dir", out,
                 "--data", str(data), "--undercoupled"]) == 0
    payload = json.loads((tmp_path / "out" / "fit_cavity.json").read_text())
    assert payload["overcoupled"] is False
    assert payload["gamma_c_hz"] == pytest.approx(367e3, rel=1e-6)
    assert payload["gamma_f_hz"] == pytest.approx(253e3, rel=1e-6)
    # --initial is in Hz; the solver starts from its rad/s.
    assert main(["fit-cavity", "--preset", "nv_default", "--output-dir", out,
                 "--data", str(data), "--initial", "2.5301e9,2.4e5,3.8e5"]) == 0
    payload = json.loads((tmp_path / "out" / "fit_cavity.json").read_text())
    assert payload["f_c_hz"] == pytest.approx(2.53e9, rel=1e-9)
    configured = (cavity.omega_c, cavity.gamma_c, cavity.gamma_f)
    assert starts == [configured, configured,
                      (TWO_PI * 2.5301e9, TWO_PI * 2.4e5, TWO_PI * 3.8e5)]


def test_fit_fwhm_cli(tmp_path):
    f_hz = np.linspace(2.53e9 - 50e6, 2.53e9 + 50e6, 401)
    hw = 13.5e6 / 2.0
    signal = 0.97 - 0.7 * hw * hw / ((f_hz - 2.53e9) ** 2 + hw * hw)
    data = tmp_path / "dip.csv"
    data.write_text("\n".join(
        ["f_hz,signal"]
        + [f"{f!r},{s!r}" for f, s in zip(f_hz.tolist(), signal.tolist())]) + "\n")
    out = str(tmp_path / "out")
    assert main(["fit-fwhm", "--preset", "nv_default", "--output-dir", out,
                 "--data", str(data)]) == 0
    payload = json.loads((tmp_path / "out" / "fit_fwhm.json").read_text())
    assert payload["converged"] is True
    assert payload["center_hz"] == pytest.approx(2.53e9, rel=1e-12)
    assert payload["fwhm_hz"] == pytest.approx(13.5e6, rel=1e-6)
    assert payload["depth"] == pytest.approx(0.7, rel=1e-6)
    assert payload["offset"] == pytest.approx(0.97, rel=1e-6)
    result = fit_lorentzian_fwhm(*load_trace_csv(str(data)))
    assert payload["sigma_center_hz"] == library_sigma(result, "center") / TWO_PI
    assert payload["sigma_fwhm_hz"] == library_sigma(result, "fwhm") / TWO_PI
    assert payload["sigma_depth"] == library_sigma(result, "depth")
    assert payload["sigma_offset"] == library_sigma(result, "offset")
    assert payload["jacobian_condition"] == result.jacobian_condition > 1.0
    assert all(payload[key] > 0.0 for key in
               ("sigma_center_hz", "sigma_fwhm_hz", "sigma_depth", "sigma_offset"))


FIT_STATUS_KEYS = {"config_sha256", "version", "residual_norm", "iterations", "converged",
                   "message", "jacobian_condition"}


def test_fit_json_key_sets(tmp_path):
    """Each rate under its rad/s, Hz and sigma-Hz names; any other parameter under
    its own name and sigma; then the fit status."""
    f_hz = np.linspace(2.528e9, 2.532e9, 401)
    trace, dip = tmp_path / "trace.csv", tmp_path / "dip.csv"
    trace.write_text("".join(f"{f!r},{r!r}\n" for f, r in
                             zip(f_hz.tolist(), reflectivity_trace(f_hz, 2.53e9, 253e3,
                                                                   367e3).tolist())))
    dip.write_text("".join(f"{f!r},{1.0 - 0.3 / (1.0 + ((f - 2.53e9) / 4e5) ** 2)!r}\n"
                           for f in f_hz.tolist()))
    cavity_keys = FIT_STATUS_KEYS | {
        "omega_c_rad_per_s", "gamma_c_rad_per_s", "gamma_f_rad_per_s",
        "f_c_hz", "gamma_c_hz", "gamma_f_hz",
        "sigma_f_c_hz", "sigma_gamma_c_hz", "sigma_gamma_f_hz", "overcoupled"}
    fwhm_keys = FIT_STATUS_KEYS | {
        "center_rad_per_s", "center_hz", "fwhm_rad_per_s", "fwhm_hz", "depth", "offset",
        "sigma_center_hz", "sigma_fwhm_hz", "sigma_depth", "sigma_offset"}
    out = tmp_path / "out"
    for argv, name, keys in ((["fit-cavity", "--data", str(trace)], "fit_cavity", cavity_keys),
                             (["fit-cavity", "--data", str(trace), "--undercoupled"],
                              "fit_cavity", cavity_keys),
                             (["fit-fwhm", "--data", str(dip)], "fit_fwhm", fwhm_keys)):
        assert main([*argv, "--preset", "nv_default", "--output-dir", str(out)]) == 0
        assert set(json.loads((out / f"{name}.json").read_text())) == keys, argv


@pytest.mark.parametrize("command, fit, names, sigmas", [
    ("fit-orientation", "fit_orientation", ("theta_x", "theta_y", "theta_z"),
     {"sigma_rad": [2.0, 3.0, 4.0]}),
    ("fit-cavity", "fit_cavity_lineshape", ("omega_c", "gamma_c", "gamma_f"),
     {"sigma_f_c_hz": 2.0 / TWO_PI, "sigma_gamma_c_hz": 3.0 / TWO_PI,
      "sigma_gamma_f_hz": 4.0 / TWO_PI}),
    ("fit-fwhm", "fit_lorentzian_fwhm", ("center", "fwhm", "depth", "offset"),
     {"sigma_center_hz": 2.0 / TWO_PI, "sigma_fwhm_hz": 3.0 / TWO_PI, "sigma_depth": 4.0,
      "sigma_offset": 5.0}),
], ids=["fit-orientation", "fit-cavity", "fit-fwhm"])
def test_fit_nonconverged_exits_two(tmp_path, monkeypatch, command, fit, names, sigmas):
    # Every fit has a covariance; its diagonal is 4, 9, 16, 25 in parameter order.
    stuck = SimpleNamespace(
        parameters=dict.fromkeys(names, TWO_PI), parameter_order=names,
        covariance=np.diag([4.0, 9.0, 16.0, 25.0][:len(names)]),
        residual_norm=0.5, iterations=77, converged=False, message="stalled",
        jacobian_condition=None, refits=0,
    )
    monkeypatch.setattr(f"cdmr.cli.{fit}", lambda *a, **k: stuck)
    if command == "fit-orientation":
        data = synthetic_odmr_csv(tmp_path, (0.1, 0.2, 0.3))
    else:
        data = tmp_path / "trace.csv"
        data.write_text("1.0,0.5\n2.0,0.4\n3.0,0.5\n")
    out = str(tmp_path / "out")
    assert main([command, "--preset", "nv_default", "--output-dir", out,
                 "--data", str(data)]) == 2
    payload = json.loads((tmp_path / "out" / f"{command.replace('-', '_')}.json").read_text())
    assert payload["converged"] is False and payload["message"] == "stalled"
    assert {key: value for key, value in payload.items() if key.startswith("sigma_")} == sigmas


def test_fit_missing_data_file_exits_one(tmp_path, capsys):
    assert main(["fit-fwhm", "--preset", "nv_default",
                 "--output-dir", str(tmp_path / "out"),
                 "--data", str(tmp_path / "absent.csv")]) == 1
    assert "error:" in capsys.readouterr().err


def test_fieldmap_gen_loop_roundtrip(tmp_path, shrink, nv_raw):
    raw = shrink(nv_raw)
    cfg = write_config(tmp_path, raw)
    out = str(tmp_path / "out")
    assert main(["fieldmap", "gen-loop", "--config", cfg, "--output-dir", out,
                 "--output", "map.csv"]) == 0
    written = load_field_map(os.path.join(out, "map.csv"))
    direct = build_field_map(validate_config(raw))
    assert written.shape == (6, 6, 6)
    assert np.array_equal(written.b, direct.b)
    assert np.array_equal(written.x, direct.x)
    # default output name
    assert main(["fieldmap", "gen-loop", "--config", cfg, "--output-dir", out]) == 0
    assert os.path.exists(os.path.join(out, "loop_fieldmap.csv"))


def test_fieldmap_gen_loop_needs_loop_source(tmp_path, shrink, nv_raw, capsys):
    raw = shrink(nv_raw)
    cfg = write_config(tmp_path, raw)
    out = str(tmp_path / "out")
    assert main(["fieldmap", "gen-loop", "--config", cfg, "--output-dir", out,
                 "--output", "map.csv"]) == 0
    raw["field_map"] = {
        "source": "file",
        "path": os.path.join(out, "map.csv"),
        "region_bounds_m": raw["field_map"]["region_bounds_m"],
    }
    cfg2 = write_config(tmp_path, raw, name="file_source.json")
    assert main(["fieldmap", "gen-loop", "--config", cfg2, "--output-dir", out]) == 1
    assert "gen-loop needs source='loop'" in capsys.readouterr().err


def test_coupling_with_a_bad_map_file_exits_one_naming_the_file(tmp_path, shrink, nv_raw,
                                                                 capsys):
    raw = shrink(nv_raw)
    cfg = write_config(tmp_path, raw)
    out = str(tmp_path / "out")
    assert main(["fieldmap", "gen-loop", "--config", cfg, "--output-dir", out,
                 "--output", "map.csv"]) == 0
    path = os.path.join(out, "map.csv")
    with open(path) as handle:
        lines = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write("\n".join(lines[:-1] + ["1,2,3"]) + "\n")
    raw["field_map"] = {"source": "file", "path": path,
                        "region_bounds_m": raw["field_map"]["region_bounds_m"]}
    cfg2 = write_config(tmp_path, raw, name="file_source.json")
    capsys.readouterr()
    assert main(["coupling", "--config", cfg2, "--output-dir", out]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: line {len(lines)}: expected 6 comma-separated values, got 3\n")


def test_config_error_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["sensitivity", "--config", str(tmp_path / "nope.json"),
                 "--output-dir", out]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["sensitivity", "--config", str(broken), "--output-dir", out]) == 1
    assert "invalid JSON" in capsys.readouterr().err
    assert main(["sensitivity", "--preset", "qq", "--output-dir", out]) == 1
    assert "unknown preset 'qq'" in capsys.readouterr().err
    assert main(["sensitivity", "--preset", "nv_default", "--output-dir", out,
                 "--set", "nonsense"]) == 1
    assert "expected key.path=value" in capsys.readouterr().err
    assert main(["sensitivity", "--preset", "nv_default", "--output-dir", out,
                 "--set", "cavity.omega_c_hz=-1"]) == 1
    assert capsys.readouterr().err == (
        "invalid configuration in preset nv_default with --set overrides:\n"
        "  - config.cavity.omega_c_hz: must be > 0, got -1.0\n")
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({**load_preset_raw("p1_default"), "scenario": "squid"}))
    assert main(["coupling", "--config", str(invalid), "--output-dir", out]) == 1
    assert capsys.readouterr().err == (
        f"invalid configuration in {invalid}:\n"
        "  - config.scenario: must be 'nv' or 'p1', got 'squid'\n")
    assert main(["coupling", "--config", str(invalid), "--output-dir", out,
                 "--set", "scenario=p1", "--set", "x=1"]) == 1
    assert capsys.readouterr().err == (
        f"invalid configuration in {invalid} with --set overrides:\n"
        "  - config.x: unknown key\n")
    assert main(["sensitivity", "--preset", "nv_default", "--output-dir", out,
                 "--set", "cavity.extra.depth=1"]) == 1
    assert capsys.readouterr().err == (
        "invalid configuration in preset nv_default with --set overrides:\n"
        "  - config.cavity.extra: unknown key\n")


@pytest.mark.parametrize("command,override,message", [
    (["nv-freqs"], "field_sweep.steps=1e308",
     "config.field_sweep.steps: must be <= 1000000, got 1e+308"),
    (["fieldmap", "gen-loop"], "field_map.grid_points=[100000,100000,100000]",
     "config.field_map.grid_points: nx * ny * nz must be <= 10000000, got 1000000000000000"),
])
def test_oversized_sweeps_and_grids_are_config_errors(tmp_path, monkeypatch, capsys, command,
                                                      override, message):
    def refuse(*args, **kwargs):
        raise AssertionError("the command ran on an oversized config")

    monkeypatch.setattr(cdmr.config, "generate_loop_field", refuse)
    monkeypatch.setattr(cdmr.config.SweepSpec, "values", refuse)
    assert main([*command, "--preset", "nv_default", "--output-dir", str(tmp_path),
                 "--set", override]) == 1
    assert capsys.readouterr().err == (
        f"invalid configuration in preset nv_default with --set overrides:\n  - {message}\n")


@pytest.mark.parametrize("flags", [["--output-dir", "out"], ["--set", "a.b=1"]])
def test_config_that_is_not_an_object_exits_one_naming_the_file(tmp_path, monkeypatch, capsys,
                                                               flags):
    monkeypatch.chdir(tmp_path)
    listing = tmp_path / "list.json"
    listing.write_text("[1, 2]")
    assert main(["sensitivity", "--config", str(listing), *flags]) == 1
    assert capsys.readouterr().err == (
        f"invalid configuration in {listing}:\n  - top level: expected a JSON object\n")


def test_tracing_hooks_name_live_functions():
    """Every function the benchmark's traced replay wraps exists under its hooked name."""
    path = pathlib.Path(__file__).parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("cdmr_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    restore, missing = tracing.install(tracing.Tracer())
    restore()
    assert missing == []


def test_read_matrix_csv_errors(tmp_path, read_matrix_csv):
    headerless = tmp_path / "bad.csv"
    headerless.write_text("1.0,2.0\n")
    with pytest.raises(ValueError, match="missing matrix header row"):
        read_matrix_csv(str(headerless))
    empty = tmp_path / "empty.csv"
    empty.write_text("b_t\\f_hz,1.0,2.0\n")
    with pytest.raises(ValueError, match="no matrix data found"):
        read_matrix_csv(str(empty))
