"""Headline acceptance checks.

Each test prints a single PASS line with the measured numbers so a
``pytest tests/test_acceptance.py -v -s`` run reads as a checklist.  The
checks exercise the shipped presets end to end: transition tables, the
sensitivity bound, reflectivity panels, the weak-drive expansion, coupling
integrals, fits and the saturation properties.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
import pytest

from cdmr.cavity import (
    SpinBank,
    cdmr_sweep,
    effective_frequency,
    ensemble_shift,
    intracavity_photon_number,
    reflectivity,
)
from cdmr.cli import main
from cdmr.config import (
    build_field_map,
    coupling_axes,
    dbm_to_watts,
    group_builder,
    laser_level,
    load_preset_raw,
    validate_config,
)
from cdmr.constants import GAMMA_E, HBAR, MU_0, NV_AXES, TWO_PI
from cdmr.coupling import FieldMap, effective_coupling
from cdmr.fitting import (
    OdmrDataset,
    fit_cavity_lineshape,
    fit_lorentzian_fwhm,
    fit_orientation,
)
from cdmr.nonlinear import bistability_onset, weak_expansion
from cdmr.spins import (
    defect_frame_components,
    nv_exact_transitions,
    nv_transition_frequencies,
    p1_transition_frequencies,
    rotate_to_unit_vector,
)


def nv_config(**overrides):
    raw = load_preset_raw("nv_default")
    raw.update(overrides)
    return validate_config(raw)


# The bare cavity: one field step, no spin groups.
NO_SPINS = SpinBank(b_mags=[math.nan], labels=(), delta=0.0, g_s=0.0, n_eff=0.0, t1=1.0, t2=1.0)


def test_criterion_01_p1_splitting_at_magic_angle(tmp_path):
    # The p1_default preset points the field along z, which makes
    # cos^2(theta) = 1/3 against every <111> axis.
    started = time.perf_counter()
    out = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["p1-freqs", "--preset", "p1_default", "--output-dir", out,
                     "--set", "field_sweep.steps=3"]) == 0
    rows = []
    for line in (tmp_path / "out" / "p1_freqs.csv").read_text().splitlines():
        if not line.startswith("#") and not line.startswith("b_t"):
            rows.append([float(c) for c in line.split(",")])
    elapsed = time.perf_counter() - started
    splittings = []
    for row in rows:
        for axis in range(4):
            low, _, high = row[1 + 3 * axis: 4 + 3 * axis]
            splittings.append(0.5 * (high - low))
    worst = max(abs(s - 93.5e6) for s in splittings)
    assert worst <= 0.05e6
    assert elapsed < 1.0
    print(f"criterion 01 PASS: P1 magic-angle splitting {splittings[0] / 1e6:.4f} MHz "
          f"(target 93.5 +/- 0.05 MHz, worst dev {worst / 1e3:.1f} kHz), {elapsed:.2f} s")


def test_criterion_02_spin_number_sensitivity(tmp_path):
    started = time.perf_counter()
    out = str(tmp_path / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sensitivity", "--preset", "nv_default", "--output-dir", out]) == 0
    payload = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    elapsed = time.perf_counter() - started
    s_n = payload["s_n_per_sqrt_hz"]
    assert abs(s_n - 5e7) <= 0.1 * 5e7
    assert elapsed < 1.0
    print(f"criterion 02 PASS: laser-off sensitivity {s_n:.4e} Hz^-1/2 "
          f"(target 5e7 +/- 10%), {elapsed:.2f} s")


def test_criterion_03_nv_zero_field_lines():
    lines = nv_transition_frequencies(np.zeros(3))
    f_minus, f_plus = lines[0::2] / TWO_PI, lines[1::2] / TWO_PI
    # Both branches sit at 2.87 GHz +/- 10 MHz (the strain splitting),
    # identically for all four axes, to machine precision.
    assert np.max(np.abs(f_minus - 2.86e9)) < 1e-4
    assert np.max(np.abs(f_plus - 2.88e9)) < 1e-4
    print(f"criterion 03 PASS: NV zero-field lines {f_minus[0] / 1e9:.6f} / "
          f"{f_plus[0] / 1e9:.6f} GHz = 2.87 GHz -/+ 10 MHz at machine precision")


def test_criterion_04_bare_cavity_dip():
    config = nv_config()
    (shift,) = effective_frequency(config.cavity, NO_SPINS, 0.0)
    r_c = float(reflectivity(config.cavity.omega_c, shift, config.cavity.gamma_f))
    db = float(10.0 * np.log10(r_c))
    assert abs(db - (-14.7)) <= 0.1
    print(f"criterion 04 PASS: bare on-resonance dip {db:.3f} dB (target -14.7 +/- 0.1 dB)")


def _feature_clusters(b_mags, row_depth, bare_depth, merge_gap):
    """B-ranges of strongly deepened rows, nearby rows merged.

    A line crossing shows up as a deep double lobe with a shallow notch at
    the exact crossing (the shift there is purely dissipative and overshoots
    critical coupling), so contiguous thresholding alone would split one
    physical branch into pieces.
    """
    deep = np.flatnonzero(row_depth > bare_depth + 3.0)
    clusters = []
    for i in deep:
        if clusters and b_mags[i] - clusters[-1][1] <= merge_gap:
            clusters[-1][1] = b_mags[i]
        else:
            clusters.append([b_mags[i], b_mags[i]])
    return clusters


def _branch_crossings(b_grid, b_hat, omega_c):
    """Fields where an NV lower-branch line meets the cavity, per axis."""
    crossings = []
    table_grid = np.array([nv_transition_frequencies(b * b_hat)[0::2] for b in b_grid])
    for axis in range(4):
        values = table_grid[:, axis] - omega_c
        for i in np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0):
            lo, hi = b_grid[i], b_grid[i + 1]
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                f_mid = nv_transition_frequencies(mid * b_hat)[2 * axis] - omega_c
                if f_mid == 0.0:
                    lo = hi = mid
                    break
                if np.sign(f_mid) == np.sign(
                        nv_transition_frequencies(lo * b_hat)[2 * axis] - omega_c):
                    lo = mid
                else:
                    hi = mid
            crossings.append(0.5 * (lo + hi))
    return sorted(crossings)


def test_criterion_05_cdmr_panels():
    config = nv_config()
    cavity = config.cavity
    b_hat = rotate_to_unit_vector(*config.field_angles)
    b_mags = config.field_sweep.values()
    omega_p = config.frequency_sweep.values()
    levels = config.laser.level_names()
    powers = config.powers_dbm
    assert b_mags.size == 200 and omega_p.size == 200

    banks = {level: group_builder(config, laser_level(config, level))(b_mags, b_hat)
             for level in levels}
    depth_db = {}
    pull_hz = {}
    panel_l0 = {}
    slowest = 0.0
    for power_dbm in powers:
        power_w = dbm_to_watts(power_dbm)
        for level in levels:
            started = time.perf_counter()
            r_c, omega_eff, _ = cdmr_sweep(cavity, banks[level], omega_p, power_w)
            slowest = max(slowest, time.perf_counter() - started)
            depth_db[power_dbm, level] = -float(10.0 * np.log10(np.min(r_c)))
            pull_hz[power_dbm, level] = float(np.max(np.abs(omega_eff - cavity.omega_c)) / TWO_PI)
            if level == "L0":
                panel_l0[power_dbm] = r_c
    assert slowest < 60.0

    # (a) two spin-dip branches inside the swept window at -90 dBm, L0
    row_depth = -10.0 * np.log10(np.min(panel_l0[-90.0], axis=1))
    bare = -float(10.0 * np.log10(reflectivity(
        cavity.omega_c, effective_frequency(cavity, NO_SPINS, 0.0)[0], cavity.gamma_f)))
    clusters = _feature_clusters(b_mags, row_depth, bare, merge_gap=1e-3)
    assert len(clusters) == 2
    crossings = _branch_crossings(b_mags, b_hat, cavity.omega_c)
    assert len(crossings) == 2
    step = b_mags[1] - b_mags[0]
    hit = set()
    for b_star in crossings:
        for index, (b_lo, b_hi) in enumerate(clusters):
            if b_lo - step <= b_star <= b_hi + step:
                hit.add(index)
    assert hit == {0, 1}

    # (b) deeper drive saturates the spins: dip depth falls with power at L0
    l0_depths = [depth_db[p, "L0"] for p in powers]
    assert all(a >= b for a, b in zip(l0_depths, l0_depths[1:]))
    assert l0_depths[0] > l0_depths[-1]

    # (c) more pumping deepens the spin feature and pulls the dressed
    # resonance further, at every power.  Depth is scored by the peak
    # damping excess at the resonant bare photon number; the reflectivity
    # minimum itself goes non-monotonic once the spins overshoot critical
    # coupling, and the frequency pull clips at the 5 MHz probe half-window.
    for power_dbm in powers:
        e_res = float(intracavity_photon_number(
            cavity.omega_c, dbm_to_watts(power_dbm), cavity))
        excess = [float(np.max(-effective_frequency(cavity, banks[level], e_res).imag))
                  - cavity.gamma_c for level in levels]
        assert all(a <= b for a, b in zip(excess, excess[1:]))
        assert excess[0] < excess[-1]
        # 1 mHz slack: clipped pulls land on either window edge, whose
        # magnitudes differ by sub-microhertz float rounding
        pulls = [pull_hz[power_dbm, level] for level in levels]
        assert all(a <= b + 1e-3 for a, b in zip(pulls, pulls[1:]))

    print("criterion 05 PASS: (a) two dip branches at "
          f"{crossings[0] * 1e3:.2f} / {crossings[1] * 1e3:.2f} mT; "
          f"(b) L0 depth {' >= '.join(f'{d:.1f}' for d in l0_depths)} dB "
          "over -90/-70/-60/-50 dBm; (c) damping excess and pull "
          f"non-decreasing L0->L3 at every power; slowest panel {slowest:.3f} s")


def test_criterion_06_weak_expansion_finite_difference():
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(1000):
        t2 = 10.0 ** rng.uniform(-8.0, -6.0)
        t1 = 10.0 ** rng.uniform(-3.0, 0.0)
        g_s = TWO_PI * 10.0 ** rng.uniform(0.0, 2.0)
        n_eff = 10.0 ** rng.uniform(9.0, 13.0)
        cycles = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-0.5, 1.5)
        delta = cycles / t2
        exp = weak_expansion(n_eff, g_s, delta, t1, t2)
        assert exp.gamma_cs == exp.zeta2 * exp.omega_cs
        assert exp.g_cs == exp.zeta2 * exp.k_cs

        def shift(e_c):
            # rational form once more, valid for the negative e_c the
            # centered differences need
            num = n_eff * g_s**2 * (delta * t2**2 - 1j * t2)
            den = delta**2 * t2**2 + 1.0 + 4.0 * g_s**2 * t1 * t2 * e_c
            return num / den

        # step sized to the zero-drive denominator, so the relative change
        # per step is 1e-3 for every draw; a detuning-blind step loses the
        # difference to rounding at large delta*t2
        h = 1e-3 * (delta**2 * t2**2 + 1.0) * exp.e_cc

        def central(step):
            return (shift(step) - shift(-step)) / (2.0 * step)

        slope = (4.0 * central(h / 2.0) - central(h)) / 3.0
        value = exp.k_cs - 1j * exp.g_cs
        worst = max(worst, abs(value - slope) / abs(slope))
    assert worst <= 1e-10
    print(f"criterion 06 PASS: (K_cs - iG_cs) matches the E_c = 0 slope to "
          f"{worst:.2e} relative over 1000 draws; branch identities exact")


def test_criterion_07_first_order_vs_exact_diagonalization(p1_exact):
    axis = NV_AXES[0]
    b_mag = 89e-3
    worst_p1 = 0.0
    for direction in (axis, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])):
        b = b_mag * direction / np.linalg.norm(direction)
        first_order = p1_transition_frequencies(b, axis)
        exact = p1_exact.transitions(b, axis)
        worst_p1 = max(worst_p1, float(np.max(np.abs(first_order - exact))) / TWO_PI)
    assert worst_p1 <= 5e6

    worst_nv = 0.0
    for b_mag in np.linspace(1e-3, 5e-3, 5):
        b = b_mag * axis
        lines = nv_transition_frequencies(b)
        exact = nv_exact_transitions(defect_frame_components(b, axis))
        worst_nv = max(
            worst_nv,
            abs(float(lines[0]) - float(exact[0])) / TWO_PI,
            abs(float(lines[1]) - float(exact[1])) / TWO_PI,
        )
    assert worst_nv <= 0.1e6
    print(f"criterion 07 PASS: P1 first order within {worst_p1 / 1e6:.2f} MHz of the "
          f"6x6 levels at 89 mT (tol 5 MHz); NV branch formula within "
          f"{worst_nv:.2e} Hz of the 3x3 levels for axial fields <= 5 mT (tol 0.1 MHz)")


def test_criterion_08_bistability_onset():
    # Pure Kerr: the fold sits at 2 gamma / (sqrt(3)|K|) photons, detuned
    # sqrt(3) gamma toward the Kerr shift.
    worst = 0.0
    for kerr in (-120.0, 85.0):
        gamma = 1.4e6
        onset = bistability_onset(0.0, gamma, kerr, 0.0)
        e_co = 2.0 * gamma / (math.sqrt(3.0) * abs(kerr))
        delta = math.copysign(math.sqrt(3.0) * gamma, kerr)
        worst = max(worst, abs(onset.photon_number - e_co) / e_co,
                    abs(onset.omega_p - delta) / abs(delta))
    assert worst <= 1e-6

    # Stock NV numbers, laser off, detuned one linewidth: onset lands within
    # a factor of two of twice the spin-saturation photon number.
    config = nv_config()
    ens = config.ensemble
    delta = 2.0 / ens.t2
    share = ens.density * ens.sample_volume * abs(ens.p_zs_thermal) / 4.0
    exp = weak_expansion(share, ens.g_s_off, delta, ens.t1_thermal_off, ens.t2)
    onset = bistability_onset(config.cavity.omega_c + exp.omega_cs,
                              config.cavity.gamma_c + config.cavity.gamma_f + exp.gamma_cs,
                              exp.k_cs, exp.g_cs)
    ratio = onset.photon_number / (2.0 * exp.e_cc)
    assert 0.5 <= ratio <= 2.0
    assert ratio == pytest.approx(1.0614645553288233, rel=1e-9)
    print(f"criterion 08 PASS: pure-Kerr onset analytic to {worst:.2e} relative; "
          f"NV laser-off E_co = {ratio:.3f} x 2E_cc (required within factor 2)")


def test_criterion_09_coupling_integral_properties():
    config = nv_config()
    omega_c = config.cavity.omega_c

    # uniform transverse field: the mode volume is the only length scale left
    n, span = 8, 2e-3
    axis_pts = (np.arange(n) + 0.5) * (span / n) - span / 2.0
    b = np.broadcast_to(np.array([1e-4, 0.0, 0.0]), (n, n, n, 3)).copy()
    field_map = FieldMap(x=axis_pts, y=axis_pts, z=axis_pts, b=b)
    half = span / 2.0
    region = (-half, half, -half, half, -half, half)
    axes = np.array([[0.0, 0.0, 1.0]])
    result = effective_coupling(field_map, region, axes, omega_c)
    closed_form = GAMMA_E * math.sqrt(MU_0 * HBAR * omega_c / span**3)
    uniform_err = abs(result.g_s - closed_form) / closed_form
    assert uniform_err <= 1e-10

    scaled_map = FieldMap(x=axis_pts, y=axis_pts, z=axis_pts, b=7.3 * b)
    scaled = effective_coupling(scaled_map, region, axes, omega_c)
    scale_err = abs(scaled.g_s - result.g_s) / result.g_s
    assert scale_err <= 1e-12

    # loop surrogate: doubling the grid moves the answer by well under 1%
    raw = load_preset_raw("nv_default")
    coarse_config = validate_config(raw)
    raw_fine = json.loads(json.dumps(raw))
    raw_fine["field_map"]["grid_points"] = [100, 100, 92]
    fine_config = validate_config(raw_fine)
    axes = coupling_axes(coarse_config)
    region = coarse_config.field_map.region_bounds
    coarse = effective_coupling(build_field_map(coarse_config), region, axes, omega_c)
    fine = effective_coupling(build_field_map(fine_config), region, axes, omega_c)
    refine_err = abs(coarse.g_s - fine.g_s) / fine.g_s
    assert refine_err < 0.01
    print(f"criterion 09 PASS: uniform-field closed form to {uniform_err:.1e} "
          f"(tol 1e-10); amplitude-scale invariance to {scale_err:.1e} (tol 1e-12); "
          f"grid refinement 50x50x46 -> 100x100x92 moves g_s by {refine_err:.2e} (tol 1%)")


def test_criterion_10_fit_round_trips():
    config = nv_config()
    truth = config.field_angles
    b_hat = rotate_to_unit_vector(*truth)
    records = []
    for b_mag in (2e-3, 3.5e-3, 5e-3, 6.5e-3, 8e-3):
        records.append((b_mag, tuple(float(w) for w in nv_transition_frequencies(b_mag * b_hat))))
    started = time.perf_counter()
    fit = fit_orientation(OdmrDataset(records=tuple(records)),
                          (truth[0] + 0.01, truth[1] - 0.02, truth[2]))
    t_orientation = time.perf_counter() - started
    angle_err = max(abs(fit.parameters["theta_x"] - truth[0]),
                    abs(fit.parameters["theta_y"] - truth[1]),
                    abs(fit.parameters["theta_z"] - truth[2]))
    assert fit.converged and angle_err <= 1e-3
    assert t_orientation < 5.0

    cavity = config.cavity
    omega = np.linspace(cavity.omega_c - TWO_PI * 2e6, cavity.omega_c + TWO_PI * 2e6, 401)
    (shift,) = effective_frequency(cavity, NO_SPINS, 0.0)
    trace = reflectivity(omega, shift, cavity.gamma_f)
    started = time.perf_counter()
    fit = fit_cavity_lineshape(omega, trace, (cavity.omega_c + TWO_PI * 4e5,
                                              TWO_PI * 3.1e5, TWO_PI * 3.2e5))
    t_cavity = time.perf_counter() - started
    cavity_err = max(
        abs(fit.parameters["omega_c"] - cavity.omega_c) / cavity.omega_c,
        abs(fit.parameters["gamma_c"] - cavity.gamma_c) / cavity.gamma_c,
        abs(fit.parameters["gamma_f"] - cavity.gamma_f) / cavity.gamma_f,
    )
    assert fit.converged and cavity_err <= 1e-3
    assert t_cavity < 5.0

    center, fwhm = TWO_PI * 2.53e9, TWO_PI * 13.5e6
    omega = np.linspace(center - TWO_PI * 60e6, center + TWO_PI * 60e6, 501)
    hw = fwhm / 2.0
    signal = 0.95 - 0.6 * hw**2 / ((omega - center) ** 2 + hw**2)
    started = time.perf_counter()
    fit = fit_lorentzian_fwhm(omega, signal)
    t_fwhm = time.perf_counter() - started
    fwhm_err = abs(fit.parameters["fwhm"] - fwhm) / fwhm
    assert fit.converged and fwhm_err <= 1e-3
    assert t_fwhm < 5.0
    print(f"criterion 10 PASS: orientation angles to {angle_err:.1e} rad "
          f"({t_orientation:.3f} s); cavity rates to {cavity_err:.1e} relative "
          f"({t_cavity:.3f} s); 13.5 MHz FWHM to {fwhm_err:.1e} relative "
          f"({t_fwhm:.3f} s); tolerances 1e-3 / 1e-3 / 1e-3, 5 s each")


def test_criterion_11_saturation_and_damping_floor():
    from cdmr.cavity import CavityMode

    cavity = CavityMode(omega_c=TWO_PI * 2.53e9, gamma_c=TWO_PI * 253e3,
                        gamma_f=TWO_PI * 367e3)
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(10_000):
        t2 = 10.0 ** rng.uniform(-8.0, -6.0)
        t1 = 10.0 ** rng.uniform(-3.0, 0.0)
        g_s = TWO_PI * 10.0 ** rng.uniform(-1.0, 2.0)
        n_eff = 10.0 ** rng.uniform(6.0, 13.0)
        delta = rng.uniform(-5.0, 5.0) / t2
        params = (n_eff, g_s, delta, t1, t2)
        e_cc = 1.0 / (4.0 * g_s**2 * t1 * t2)
        e_1 = rng.uniform(0.0, 5.0) * e_cc
        e_2 = e_1 + 10.0 ** rng.uniform(-2.0, 0.5) * e_cc
        v_0 = abs(complex(ensemble_shift(*params, 0.0)))
        v_1 = abs(complex(ensemble_shift(*params, e_1)))
        v_2 = abs(complex(ensemble_shift(*params, e_2)))
        assert v_2 < v_1 <= v_0
        # decoupling limit: nine decades past saturation the shift is gone
        assert abs(complex(ensemble_shift(*params, 1e9 * e_cc))) < 1e-6 * v_0
        draws.append((*params, e_1))
    # spins only ever add damping, never remove it; no tolerance.  Each bank
    # of 100 draws is evaluated at the 100 drawn photon numbers, its own included.
    for n_eff, g_s, delta, t1, t2, e_1 in (block.T for block in np.split(np.array(draws), 100)):
        bank = SpinBank(b_mags=np.full(e_1.size, math.nan), labels=("group",), delta=delta[:, None],
                        g_s=g_s[:, None], n_eff=n_eff[:, None], t1=t1[:, None], t2=t2[:, None])
        gamma = -effective_frequency(cavity, bank, e_1).imag
        assert np.all(gamma >= cavity.gamma_c)
    print("criterion 11 PASS: per-group |shift| strictly decreasing in photon "
          "number and vanishing at E_c >> E_cc; effective damping never below "
          "the intrinsic rate over 10000 draws (no tolerance)")
