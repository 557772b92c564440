"""Self-tests of the benchmark oracles.

    python3 -m pytest benchmarks/test_oracles.py -q

Each recomputation is compared with a case worked by hand, and each check is
shown to pass on consistent data and to fail on a deliberately perturbed
output.  Kept outside the package's test paths: these test the benchmark,
not the program.
"""

import copy
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles as o  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NV = workloads.NV_BASE


# ------------------------------------------------------ recomputations

def test_field_direction_hand_cases():
    assert np.allclose(o.field_direction(0.0, 0.0, 0.0), [0.0, 0.0, 1.0])
    assert np.allclose(o.field_direction(math.pi / 2, 0.0, 0.0), [0.0, -1.0, 0.0])
    assert np.allclose(o.field_direction(0.0, math.pi / 2, 0.0), [1.0, 0.0, 0.0])
    assert np.allclose(o.field_direction(0.0, math.pi / 2, math.pi / 2), [0.0, 1.0, 0.0])


def test_nv_lines_at_zero_field_sit_at_d_minus_plus_e():
    minus, plus = o.nv_lines(np.zeros(3))
    assert np.allclose(minus / o.TWO_PI, 2.86e9, rtol=0, atol=1e-3)
    assert np.allclose(plus / o.TWO_PI, 2.88e9, rtol=0, atol=1e-3)


def test_nv_exact_equals_secular_for_axial_field():
    b = 0.02 * o.NV_AXES[0]
    minus, plus = o.nv_lines(b)
    exact = o.nv_exact_lines(b, o.NV_AXES[0])
    split = math.sqrt((o.GAMMA_E * 0.02) ** 2 + o.E_STRAIN**2)
    assert exact == pytest.approx([o.D_ZFS - split, o.D_ZFS + split], rel=1e-12)
    assert [minus[0], plus[0]] == pytest.approx(exact, rel=1e-12)


def test_p1_magic_angle_splitting_is_93_51_mhz():
    lines = o.p1_lines(np.array([0.0, 0.0, 0.09]), o.NV_AXES[0])
    split = 0.5 * (lines[2] - lines[0]) / o.TWO_PI
    assert split == pytest.approx(math.sqrt((114.03e6**2 + 2 * 81.33e6**2) / 3), rel=1e-12)
    assert abs(split - 93.51e6) < 0.01e6
    assert lines[1] == pytest.approx(o.GAMMA_E * 0.09, rel=1e-15)


def test_level_params_hand_worked():
    g, t1, p = o.level_params(NV, "L0")
    assert (g / o.TWO_PI, t1, p) == pytest.approx((2.72, 0.565, -0.035), rel=1e-12)
    # L3: pumping 0.16 * 3e4 * 3e-21 * 532e-9 / (h c) = 38.565 /s, thermal 1/0.023 s
    g, t1, p = o.level_params(NV, "L3")
    assert g / o.TWO_PI == pytest.approx(5.05)
    assert t1 == pytest.approx(1.0 / (38.565 + 43.478), rel=1e-4)
    assert p == pytest.approx((43.478 * -0.035 + 38.565 * -0.55) / 82.043, rel=1e-4)


def test_shift_reflectivity_and_photon_number_hand_cases():
    assert o.spin_shift(1.0, 1.0, 0.0, 1.0, 1.0, 0.0) == pytest.approx(-1j)
    assert abs(o.spin_shift(1.0, 1.0, 0.0, 1.0, 1.0, 1e12)) < 1e-12
    assert o.reflectivity(5.0, 5.0, 1.0, 3.0) == pytest.approx(0.25)
    assert o.reflectivity(1e9, 5.0, 1.0, 3.0) == pytest.approx(1.0)
    rate = 4.0 * 3.0 * 1e-12 / (o.HBAR * 10.0)
    assert o.photon_number(10.0, 1e-12, 10.0, 1.0, 3.0) == pytest.approx(rate / 16.0)
    assert o.dbm_to_w(-90.0) == pytest.approx(1e-12)


def test_biot_savart_matches_on_axis_closed_form():
    a, current, z = 1e-3, 1.5, 0.4e-3
    b = o.loop_field([0.0, 0.0, z], a, current)
    assert b[:2] == pytest.approx([0.0, 0.0], abs=1e-15)
    assert b[2] == pytest.approx(o.MU_0 * current * a**2 / (2 * (a**2 + z**2) ** 1.5), rel=1e-12)


def test_coupling_integral_uniform_transverse_field():
    n, span = 4, 2e-3
    axis = o.cell_centers((-span / 2, span / 2), n)
    zz, yy, xx = np.meshgrid(axis, axis, axis, indexing="ij")
    points = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    b = np.tile([1e-4, 0.0, 0.0], (len(points), 1))
    half = span / 2
    omega_c = o.TWO_PI * 2.53e9
    g, volume = o.coupling_integral(points, b, (-half, half) * 3, np.array([[0.0, 0.0, 1.0]]),
                                    omega_c, (span / n) ** 3)
    assert volume == pytest.approx(span**3, rel=1e-12)
    assert g == pytest.approx(o.GAMMA_E * math.sqrt(o.MU_0 * o.HBAR * omega_c / span**3),
                              rel=1e-12)


def _analytic_expansion(n, g, delta, t1, t2):
    big_b, c = delta**2 * t2**2 + 1.0, 4.0 * g**2 * t1 * t2
    return (n * g**2 * delta * t2**2 / big_b, n * g**2 * t2 / big_b,
            -n * g**2 * delta * t2**2 * c / big_b**2, -n * g**2 * t2 * c / big_b**2)


@pytest.mark.parametrize("delta", [o.TWO_PI * 0.3e6, -o.TWO_PI * 5e6])
def test_finite_difference_expansion_matches_derivative(delta):
    args = (3e11, o.TWO_PI * 2.72, delta, 0.565, 2.19e-7)
    assert o.expansion_by_differences(*args) == pytest.approx(_analytic_expansion(*args),
                                                              rel=1e-8)


@pytest.mark.parametrize("cubic", [0.0, -40.0, 25.0])
def test_yurke_buks_cusp_solves_the_cusp_equations(cubic):
    gamma, kerr = 1.4e6, 85.0
    y, delta, drive = o.yurke_buks_onset(gamma, kerr, cubic)
    assert max(o.cusp_residuals(y, delta, drive, gamma, kerr, cubic)) < 1e-12
    if cubic == 0.0:
        assert (y, delta) == pytest.approx((2 * gamma / (math.sqrt(3) * kerr),
                                            math.sqrt(3) * gamma))
    assert max(o.cusp_residuals(1.001 * y, delta, drive, gamma, kerr, cubic)) > 1e-7


def test_sensitivity_and_sha_hand_cases():
    assert o.sensitivity_closed_form(-0.25, 4.0, 1.0, 0.5, 1.0) == pytest.approx(32.0)
    want = hashlib.sha256(b'{"a":2,"b":{"c":1}}').hexdigest()
    assert o.config_sha256({"b": {"c": 1}, "a": 2}) == want


# ------------------------------------------------ checks catch faults

def small_config(scenario="nv"):
    raw = copy.deepcopy(NV if scenario == "nv" else workloads.P1_BASE)
    raw["field_sweep"]["steps"], raw["frequency_sweep"]["steps"] = 6, 5
    return raw


def panel(raw, level="L0", power=-90.0):
    bs, fs = raw["field_sweep"], raw["frequency_sweep"]
    b = np.linspace(bs["min_t"], bs["max_t"], bs["steps"])
    f = np.linspace(fs["min_hz"], fs["max_hz"], fs["steps"])
    rows, cols = np.meshgrid(np.arange(b.size), np.arange(f.size), indexing="ij")
    rows, cols = rows.ravel(), cols.ravel()
    r_c = o.pixel_reflectivity(raw, level, power, b[rows], o.TWO_PI * f[cols]).reshape(
        b.size, f.size)
    header = ["b_t\\f_hz"] + [repr(float(v)) for v in f]
    return header, np.column_stack([b, r_c]), (rows, cols), f


def run_panel(raw, header, data, pixels, sha="abc"):
    rep = o.Report()
    o.check_panel(rep, "t", raw, "L0", -90.0, [f"config_sha256={sha}"], header, data, "abc",
                  pixels)
    return rep.failures


@pytest.mark.parametrize("scenario", ["nv", "p1"])
def test_check_panel_passes_and_catches_perturbations(scenario):
    raw = small_config(scenario)
    header, data, pixels, _ = panel(raw)
    assert run_panel(raw, header, data, pixels) == []
    bad = data.copy()
    bad[2, 3] += 1e-6
    assert run_panel(raw, header, bad, pixels)
    bad = data.copy()
    bad[0, 1] = 1.01
    assert run_panel(raw, header, bad, pixels)
    assert run_panel(raw, header[:-1] + ["2.6e9"], data, pixels)
    assert run_panel(raw, header, data, pixels, sha="other")


def test_check_resonance_and_dip_order():
    raw = small_config()
    _, data, _, f = panel(raw)
    r_c = data[:, 1:]
    at_min = f[np.argmin(r_c, axis=1)]
    eff = np.column_stack([data[:, 0], at_min, o.TWO_PI * at_min / (o.TWO_PI * 2.53e9)])
    rep = o.Report()
    o.check_resonance(rep, "t", raw, f, r_c, eff)
    assert rep.failures == []
    eff[1, 1] += 2.5 * (f[1] - f[0])
    o.check_resonance(rep, "t", raw, f, r_c, eff)
    assert rep.failures
    rep = o.Report()
    o.check_dip_vs_power(rep, "t", {-90.0: 1e-5, -70.0: 0.03, -50.0: 0.034})
    assert rep.failures == []
    o.check_dip_vs_power(rep, "t", {-90.0: 1e-5, -70.0: 0.03, -50.0: 0.02})
    assert rep.failures


def test_check_line_tables_catch_perturbations():
    raw = small_config()
    b = np.linspace(0.014, 0.02, 3)
    b_vec = b[:, None] * o.field_direction(*(raw["field_sweep"][k] for k in
                                            ("theta_x_rad", "theta_y_rad", "theta_z_rad")))
    minus, plus = o.nv_lines(b_vec)
    exact = [[v for axis in o.NV_AXES for v in o.nv_exact_lines(bi, axis)] for bi in b_vec]
    data = np.column_stack([b, np.stack([minus, plus], -1).reshape(3, 8) / o.TWO_PI,
                            np.array(exact) / o.TWO_PI])
    labels = ("[111]", "[1-1-1]", "[-11-1]", "[-1-11]")
    header = ["b_t"] + [f"f_{br}_{lb}_hz" for lb in labels for br in ("minus", "plus")] + [
        f"f_{br}_exact_{lb}_hz" for lb in labels for br in ("minus", "plus")]
    rep = o.Report()
    o.check_nv_table(rep, "t", raw, header, data, exact=True)
    assert rep.failures == []
    data[1, 12] *= 1 + 1e-8
    o.check_nv_table(rep, "t", raw, header, data, exact=True)
    assert rep.failures

    p1 = small_config("p1")
    b = np.linspace(0.085, 0.095, 3)
    lines = np.concatenate([o.p1_lines(b[:, None] * [0.0, 0.0, 1.0], a) for a in o.NV_AXES], -1)
    data = np.column_stack([b, lines / o.TWO_PI])
    rep = o.Report()
    o.check_p1_table(rep, "t", p1, data)
    assert rep.failures == []
    tilted = copy.deepcopy(p1)
    tilted["field_sweep"]["theta_x_rad"] = 0.2
    b_vec = b[:, None] * o.field_direction(0.2, 0.0, 0.0)
    lines = np.concatenate([o.p1_lines(b_vec, a) for a in o.NV_AXES], -1)
    o.check_p1_table(rep, "t", tilted, np.column_stack([b, lines / o.TWO_PI]))
    assert any("magic-angle" in f for f in rep.failures)


def test_check_field_samples_and_coupling_catch_perturbations():
    fmap = NV["field_map"]
    points = np.array([[0.0, 0.0, 3e-4], [2e-4, -1e-4, 6e-4], [-4e-4, 4e-4, 1e-3]])
    b = np.array([o.loop_field(p, fmap["loop_radius_m"], fmap["loop_current_a"])
                  for p in points])
    data = np.column_stack([points, b])
    rep = o.Report()
    o.check_field_samples(rep, fmap, data, [0, 1, 2])
    assert rep.failures == []
    data[1, 4] *= 1 + 1e-6
    o.check_field_samples(rep, fmap, data, [0, 1, 2])
    assert rep.failures

    g_cfg, t1, p = o.level_params(NV, "L2")
    g_s, volume = o.TWO_PI * 1.2, 7.6e-10
    doc = {"t1_s": t1, "p_zs": p, "g_s_config_hz": g_cfg / o.TWO_PI, "g_s_rad_per_s": g_s,
           "region_volume_m3": volume, "n_eff": -NV["ensemble"]["density_per_m3"] * p * volume,
           "e_cc": 1 / (4 * g_s**2 * t1 * NV["ensemble"]["t2_s"]), "map_points": [50, 50, 46]}
    rep = o.Report()
    o.check_coupling(rep, "t", NV, "L2", doc, g_s, volume, [50, 50, 46])
    assert rep.failures == []
    for key in ("e_cc", "n_eff", "g_s_rad_per_s", "p_zs"):
        bad = o.Report()
        o.check_coupling(bad, "t", NV, "L2", {**doc, key: doc[key] * (1 + 1e-9)}, g_s,
                         volume, [50, 50, 46])
        assert bad.failures, key


def expand_doc(case):
    n, g, delta, t1, t2 = o.expansion_group(NV, case["delta_hz"], case["level"])
    omega_cs, gamma_cs, k_cs, g_cs = _analytic_expansion(n, g, delta, t1, t2)
    return {"n_eff": n, "e_cc": 1 / (4 * g**2 * t1 * t2), "zeta2": 1 / (delta * t2),
            "omega_cs_rad_per_s": omega_cs, "gamma_cs_rad_per_s": gamma_cs,
            "k_cs_rad_per_s_per_photon": k_cs, "g_cs_rad_per_s_per_photon": g_cs}


def bistability_doc(raw, case, onset):
    omega_c, gamma_c, gamma_f, kerr_c, cubic_c = o._cavity_rates(raw)
    e = expand_doc(case)
    kerr = kerr_c + e["k_cs_rad_per_s_per_photon"]
    cubic = cubic_c + e["g_cs_rad_per_s_per_photon"]
    gamma_t = gamma_c + gamma_f + e["gamma_cs_rad_per_s"]
    doc = {"e_cc": e["e_cc"], "gamma_t_rad_per_s": gamma_t, "kerr_rad_per_s_per_photon": kerr,
           "cubic_damping_rad_per_s_per_photon": cubic, "bistable": onset}
    if onset:
        y, delta, drive = o.yurke_buks_onset(gamma_t, kerr, cubic)
        omega_p = omega_c + e["omega_cs_rad_per_s"] + delta
        power = drive * o.HBAR * omega_c / (4 * gamma_f)
        doc.update({"e_co": y, "e_co_over_e_cc": y / e["e_cc"], "omega_p_at_onset_rad_per_s":
                    omega_p, "f_p_at_onset_hz": omega_p / o.TWO_PI,
                    "drive_photons_rad2_per_s2": drive, "power_at_onset_w": power,
                    "power_at_onset_dbm": 10 * math.log10(power / 1e-3)})
    return doc


def test_check_expand_and_bistability_catch_perturbations():
    case = {"delta_hz": 1.5e6, "level": "L1", "kerr_hz": 0.0}
    doc = expand_doc(case)
    rep = o.Report()
    o.check_expand(rep, "t", NV, case, doc)
    assert rep.failures == []
    o.check_expand(rep, "t", NV, case, {**doc, "k_cs_rad_per_s_per_photon":
                                        doc["k_cs_rad_per_s_per_photon"] * (1 + 1e-5)})
    assert rep.failures

    kerr_case = {"delta_hz": 2e6, "level": "L0", "kerr_hz": 1e5}
    raw = copy.deepcopy(NV)
    raw["cavity"]["kerr_hz_per_photon"] = 1e5
    doc = bistability_doc(raw, kerr_case, True)
    rep = o.Report()
    o.check_bistability(rep, "t", raw, kerr_case, doc)
    assert rep.failures == []
    for key in ("e_co", "power_at_onset_dbm", "omega_p_at_onset_rad_per_s"):
        bad = o.Report()
        o.check_bistability(bad, "t", raw, kerr_case, {**doc, key: doc[key] * (1 + 1e-6)})
        assert bad.failures, key
    bad = o.Report()
    o.check_bistability(bad, "t", raw, kerr_case, bistability_doc(raw, kerr_case, False))
    assert bad.failures  # a Kerr-dominated case must report its onset
    rep = o.Report()
    o.check_bistability(rep, "t", NV, case, bistability_doc(NV, case, False))
    assert rep.failures == []  # a spin-dominated case may report no onset


def test_check_fits_catch_perturbations():
    spec = {"orientation": {"truth": [-0.6, 0.01, 0.16], "trials": 5,
                            "seeds": {"fit_orientation": 3}, "noise_frac": 1e-4},
            "cavity": {"f_c_hz": 2.53e9, "gamma_c_hz": 2.5e5, "gamma_f_hz": 3.6e5},
            "dip": {"center_hz": 2.53e9, "fwhm_hz": 1e6, "depth": 0.5, "offset": 0.95}}
    docs = {
        "fit_orientation": {"converged": True, "theta_x_rad": -0.6, "theta_y_rad": 0.01,
                            "theta_z_rad": 0.16, "monte_carlo": {
                                "trials": 5, "seed": 3, "noise_frac": 1e-4,
                                "mean_rad": [-0.6001, 0.0101, 0.16],
                                "std_rad": [1e-4, 1e-4, 0.0],
                                "max_abs_error_rad": [3e-4, 3e-4, 0.0]}},
        "fit_cavity": {"converged": True, "f_c_hz": 2.53e9, "gamma_c_hz": 2.5e5,
                       "gamma_f_hz": 3.6e5},
        "fit_fwhm": {"converged": True, "center_hz": 2.53e9, "fwhm_hz": 1e6, "depth": 0.5,
                     "offset": 0.95},
    }
    rep = o.Report()
    o.check_fits(rep, spec, docs)
    assert rep.failures == []
    perturbed = [("fit_orientation", "theta_x_rad", -0.6001), ("fit_cavity", "gamma_f_hz", 3.7e5),
                 ("fit_fwhm", "fwhm_hz", 1.01e6), ("fit_fwhm", "converged", False)]
    for key, field, value in perturbed:
        bad = o.Report()
        o.check_fits(bad, spec, {**docs, key: {**docs[key], field: value}})
        assert bad.failures, (key, field)
    mc = {**docs["fit_orientation"]["monte_carlo"], "std_rad": [5e-4, 1e-4, 0.0]}
    bad = o.Report()
    o.check_fits(bad, spec, {**docs, "fit_orientation": {**docs["fit_orientation"],
                                                         "monte_carlo": mc}})
    assert bad.failures


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    import run

    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BUILDERS)
