"""Correctness oracles for the benchmark workloads.

Everything here is computed apart from the program: the physics is written
out again from its formulas (secular NV lines, first-order P1 lines, the
rational ensemble shift, the reflectivity, a Biot-Savart quadrature of the
loop, the coupling integral, the Yurke-Buks cusp) and compared with what the
CLI wrote.  Nothing imports ``cdmr``.  Each ``check_*`` function returns a
list of failure messages; an empty list means the outputs are correct.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
GAMMA_E = TWO_PI * 28.03e9     # rad s^-1 T^-1
D_ZFS = TWO_PI * 2.87e9        # rad/s
E_STRAIN = TWO_PI * 10e6       # rad/s
A_PAR = TWO_PI * 114.03e6      # rad/s
A_PERP = TWO_PI * 81.33e6      # rad/s
HBAR = 1.054571817e-34
PLANCK = 6.62607015e-34
LIGHT = 299792458.0
MU_0 = 1.25663706212e-6
NV_AXES = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                    [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]) / math.sqrt(3.0)
P1_MAGIC_SPLITTING_HZ = 93.5e6
P1_MAGIC_TOL_HZ = 0.05e6


# ---------------------------------------------------------------- physics

def config_sha256(raw):
    """SHA-256 of a config as canonical JSON (sorted keys, no spaces)."""
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def field_direction(theta_x, theta_y, theta_z):
    """z_hat rotated about x, then y, then z (right handed), multiplied out."""
    cx, sx = math.cos(theta_x), math.sin(theta_x)
    cy, sy = math.cos(theta_y), math.sin(theta_y)
    cz, sz = math.cos(theta_z), math.sin(theta_z)
    return np.array([cz * sy * cx + sz * sx, sz * sy * cx - cz * sx, cy * cx])


def nv_lines(b):
    """Secular NV lines (rad/s) for fields ``b`` (..., 3): (minus, plus), each (..., 4)."""
    b = np.asarray(b, dtype=float)
    b_par = b @ NV_AXES.T
    b_perp_sq = np.maximum(np.sum(b * b, axis=-1)[..., None] - b_par**2, 0.0)
    splitting = np.sqrt((GAMMA_E * b_par) ** 2 + E_STRAIN**2)
    transverse = 1.5 * GAMMA_E**2 * b_perp_sq / D_ZFS
    return D_ZFS - splitting + transverse, D_ZFS + splitting + transverse


def nv_exact_lines(b, axis):
    """NV transitions (rad/s, ascending) from the 3x3 triplet Hamiltonian."""
    s = 1.0 / math.sqrt(2.0)
    sx = np.array([[0, s, 0], [s, 0, s], [0, s, 0]], dtype=complex)
    sy = np.array([[0, -1j * s, 0], [1j * s, 0, -1j * s], [0, 1j * s, 0]])
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    b_par = float(np.dot(b, axis))
    b_perp = float(np.linalg.norm(np.asarray(b) - b_par * axis))
    h = (D_ZFS * sz @ sz + E_STRAIN * (sx @ sx - sy @ sy)
         + GAMMA_E * (b_perp * sx + b_par * sz))
    levels, vectors = np.linalg.eigh(h)
    zero = int(np.argmax(np.abs(vectors[1, :]) ** 2))  # state of m = 0 character
    return np.sort(np.delete(levels, zero) - levels[zero])


def p1_lines(b, axis):
    """First-order P1 lines (rad/s): center -/+ the angle-dependent hyperfine splitting."""
    b = np.asarray(b, dtype=float)
    magnitude = np.linalg.norm(b, axis=-1)
    cos_sq = np.minimum((b @ axis / magnitude) ** 2, 1.0)
    split = np.sqrt(A_PAR**2 * cos_sq + A_PERP**2 * (1.0 - cos_sq))
    center = GAMMA_E * magnitude
    return np.stack([center - split, center, center + split], axis=-1)


def dbm_to_w(dbm):
    return 1e-3 * 10.0 ** (dbm / 10.0)


def level_params(raw, level):
    """(g_s rad/s, effective T1 s, effective P_zS) from the optical-pumping rate model."""
    ens, laser = raw["ensemble"], raw["laser"]
    intensity = laser["levels_w_per_m2"][level]
    if intensity == 0.0:
        rate_th, p_th, g_hz = 1.0 / ens["t1_thermal_laser_off_s"], ens["p_zs_thermal"], \
            ens["g_s_laser_off_hz"]
        rate_opt, p_opt = 0.0, 0.0
    else:
        rate_th, p_th, g_hz = 1.0 / ens["t1_thermal_laser_on_s"], ens["p_zs_thermal"], \
            ens["g_s_laser_on_hz"]
        rate_opt = (laser["pumping_efficiency"] * intensity * laser["cross_section_m2"]
                    * laser["wavelength_m"] / (PLANCK * LIGHT))
        p_opt = ens["p_zs_optical"]
    total = rate_th + rate_opt
    return TWO_PI * g_hz, 1.0 / total, (rate_th * p_th + rate_opt * p_opt) / total


def photon_number(omega_p, power_w, omega_c, gamma_c, gamma_f):
    """Steady-state photon number of the bare driven cavity."""
    return (4.0 * gamma_f * power_w / (HBAR * omega_c)) / (
        (omega_p - omega_c) ** 2 + (gamma_f + gamma_c) ** 2)


def spin_shift(n, g, delta, t1, t2, e_c):
    """Rational ensemble shift n g^2 (delta T2^2 - i T2) / (delta^2 T2^2 + 1 + 4 g^2 T1 T2 E_c)."""
    return n * g**2 * (delta * t2**2 - 1j * t2) / (
        delta**2 * t2**2 + 1.0 + 4.0 * g**2 * t1 * t2 * e_c)


def reflectivity(omega_p, omega, gamma, gamma_f):
    d_sq = (omega_p - omega) ** 2
    return (d_sq + (gamma_f - gamma) ** 2) / (d_sq + (gamma_f + gamma) ** 2)


def bare_reflectivity(f_hz, f_c_hz, gamma_c_hz, gamma_f_hz):
    """Bare-cavity reflectivity; the common 2*pi of every rate cancels."""
    return reflectivity(np.asarray(f_hz, dtype=float), f_c_hz, gamma_c_hz, gamma_f_hz)


def lorentzian_dip(f_hz, center_hz, fwhm_hz, depth, offset):
    hw_sq = (0.5 * fwhm_hz) ** 2
    return offset - depth * hw_sq / ((np.asarray(f_hz, dtype=float) - center_hz) ** 2 + hw_sq)


def _cavity_rates(raw):
    cav = raw["cavity"]
    return (TWO_PI * cav["omega_c_hz"], TWO_PI * cav["gamma_c_hz"], TWO_PI * cav["gamma_f_hz"],
            TWO_PI * cav.get("kerr_hz_per_photon", 0.0),
            TWO_PI * cav.get("cubic_damping_hz_per_photon", 0.0))


def pixel_reflectivity(raw, level, power_dbm, b_mag, omega_p):
    """R_c at pixels (b_mag[k], omega_p[k]) of one panel, from the model formulas."""
    omega_c, gamma_c, gamma_f, kerr, cubic = _cavity_rates(raw)
    ens = raw["ensemble"]
    g_s, t1, p_zs = level_params(raw, level)
    n_total = ens["density_per_m3"] * ens["sample_volume_m3"] * abs(p_zs)
    sweep = raw["field_sweep"]
    b = np.asarray(b_mag)[:, None] * field_direction(
        sweep["theta_x_rad"], sweep["theta_y_rad"], sweep["theta_z_rad"])
    if raw["scenario"] == "nv":
        # Both branches of a class carry the whole class population.
        minus, plus = nv_lines(b)
        omega_s, share = np.concatenate([minus, plus], axis=-1), n_total / 4.0
    else:
        omega_s = np.concatenate([p1_lines(b, axis) for axis in NV_AXES], axis=-1)
        share = n_total / 12.0
    e_c = photon_number(omega_p, dbm_to_w(power_dbm), omega_c, gamma_c, gamma_f)
    shift = np.sum(spin_shift(share, g_s, omega_c - omega_s, t1, ens["t2_s"], e_c[:, None]),
                   axis=-1)
    return reflectivity(omega_p, omega_c + kerr * e_c + shift.real,
                        gamma_c + cubic * e_c - shift.imag, gamma_f)


def loop_field(point, radius, current, segments=4096):
    """Biot-Savart field of the z = 0 current loop at one point (trapezoid rule).

    The integrand is smooth and periodic in the loop angle, so the trapezoid
    rule converges geometrically for any point off the wire.
    """
    phi = np.arange(segments) * (TWO_PI / segments)
    wire = radius * np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
    dl = radius * np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=-1)
    r = np.asarray(point, dtype=float) - wire
    dist = np.linalg.norm(r, axis=-1)[:, None]
    integrand = np.cross(dl, r) / dist**3
    return MU_0 * current / (4.0 * math.pi) * integrand.sum(axis=0) * (TWO_PI / segments)


def cell_centers(span, n):
    lo, hi = span
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


def coupling_axes(raw):
    """NV: the two classes best aligned with the applied field; P1: the field itself."""
    sweep = raw["field_sweep"]
    b_hat = field_direction(sweep["theta_x_rad"], sweep["theta_y_rad"], sweep["theta_z_rad"])
    if raw["scenario"] == "p1":
        return b_hat[None, :]
    best = np.argsort(np.abs(NV_AXES @ b_hat), kind="stable")[::-1][:2]
    return NV_AXES[np.sort(best)]


def coupling_integral(points, b, bounds, axes, omega_c, cell_volume):
    """(g_s, region volume) by the midpoint rule over flat (N, 3) points and fields."""
    b_sq = np.sum(b * b, axis=1)
    cos_sq = np.mean([(b @ axis) ** 2 for axis in axes], axis=0) / np.where(b_sq > 0, b_sq, 1.0)
    lo, hi = np.asarray(bounds[0::2]), np.asarray(bounds[1::2])
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    weighted = np.sum(b_sq[inside] * (1.0 - cos_sq[inside]))
    volume = np.count_nonzero(inside) * cell_volume
    g_sq = GAMMA_E**2 * MU_0 * HBAR * omega_c * weighted * cell_volume / (
        np.sum(b_sq) * cell_volume * volume)
    return math.sqrt(g_sq), volume


def expansion_by_differences(n, g, delta, t1, t2):
    """(omega_cs, gamma_cs, k_cs, g_cs) from the rational shift and its central slope at E_c = 0."""
    # Step sized so that the saturation term moves the denominator by 1e-5.
    h = 1e-5 * (delta**2 * t2**2 + 1.0) / (4.0 * g**2 * t1 * t2)
    at_zero = spin_shift(n, g, delta, t1, t2, 0.0)
    slope = (spin_shift(n, g, delta, t1, t2, h) - spin_shift(n, g, delta, t1, t2, -h)) / (2 * h)
    return at_zero.real, -at_zero.imag, slope.real, -slope.imag


def cusp_residuals(y, delta, drive, gamma, kerr, cubic):
    """Scaled f, df/dE, d2f/dE2 of f(E) = E[(delta - K E)^2 + (gamma + G E)^2] - drive at E = y."""
    u, v = delta - kerr * y, gamma + cubic * y
    f = y * (u * u + v * v) - drive
    f_y = u * u + v * v + 2.0 * y * (cubic * v - kerr * u)
    f_yy = 4.0 * (cubic * v - kerr * u) + 2.0 * y * (kerr**2 + cubic**2)
    scale = delta**2 + gamma**2
    return abs(f) / drive, abs(f_y) / scale, abs(f_yy) * y / scale


def yurke_buks_onset(gamma, kerr, cubic):
    """Cusp (E_co, detuning, drive) of the Kerr oscillator with cubic damping."""
    y = 2.0 * gamma / (math.sqrt(3.0) * (abs(kerr) - math.sqrt(3.0) * cubic))
    drive = y**3 * (kerr**2 + cubic**2)
    delta = math.copysign(1.0, kerr) * (y / 2.0) * (3.0 * abs(kerr) + math.sqrt(3.0) * cubic)
    return y, delta, drive


def sensitivity_closed_form(p_zs, gamma_c, g_s, t1, t2):
    return (2.0 / abs(p_zs) ** 1.5) * math.sqrt((gamma_c / g_s**2) * (2.0 * t1 / t2))


# ------------------------------------------------------------ file access

def read_stamped_csv(path, has_header=True):
    """('#' comment bodies, header cells, float rows) of a CSV the CLI wrote."""
    comments, header, rows = [], None if has_header else [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text:
                continue
            if text.startswith("#"):
                comments.append(text[1:].strip())
            elif header is None:
                header = text.split(",")
            else:
                rows.append([float(cell) for cell in text.split(",")])
    return comments, header, np.array(rows)


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Report:
    """Collects failure messages."""

    def __init__(self):
        self.failures = []

    def true(self, ok, message):
        if not ok:
            self.failures.append(message)
        return bool(ok)

    def close(self, what, got, want, rtol=0.0, atol=0.0):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return self.true(False, f"{what}: shape {got.shape} != {want.shape}")
        err = np.abs(got - want)
        ok = bool(np.all(np.isfinite(got)) and np.all(err <= atol + rtol * np.abs(want)))
        worst = float(np.max(err)) if err.size else 0.0
        return self.true(ok, f"{what}: off by up to {worst:.3e} (rtol {rtol}, atol {atol})")

    def stamp(self, what, comments, sha):
        self.true(f"config_sha256={sha}" in comments, f"{what}: config_sha256 stamp wrong")


def effective(raw, out_dir, **cavity_overrides):
    """The config as the CLI sees it: overrides applied and output_dir set."""
    cfg = json.loads(json.dumps(raw))
    cfg["cavity"].update(cavity_overrides)
    cfg["output_dir"] = str(out_dir)
    return cfg


# ---------------------------------------------------------------- maps

def check_panel(rep, tag, raw, level, power_dbm, comments, header, data, sha, pixels):
    """R_c range, axes, stamp and seeded pixels of one reflectivity matrix."""
    fs, bs = raw["frequency_sweep"], raw["field_sweep"]
    rep.stamp(tag, comments, sha)
    rep.true(header[0].startswith("b_t"), f"{tag}: matrix header does not start with b_t")
    rep.close(f"{tag} probe header", [float(c) for c in header[1:]],
              np.linspace(fs["min_hz"], fs["max_hz"], fs["steps"]), rtol=1e-12)
    rep.close(f"{tag} field column", data[:, 0],
              np.linspace(bs["min_t"], bs["max_t"], bs["steps"]), rtol=1e-12)
    r_c = data[:, 1:]
    rep.true(r_c.shape == (bs["steps"], fs["steps"]), f"{tag}: matrix shape {r_c.shape}")
    rep.true(bool(np.all((r_c >= 0.0) & (r_c <= 1.0))), f"{tag}: R_c outside [0, 1]")
    rows, cols = pixels
    omega_p = np.linspace(TWO_PI * fs["min_hz"], TWO_PI * fs["max_hz"], fs["steps"])
    want = pixel_reflectivity(raw, level, power_dbm, data[rows, 0], omega_p[cols])
    rep.close(f"{tag} sampled pixels", r_c[rows, cols], want, atol=1e-9)
    return r_c


def check_resonance(rep, tag, raw, f_hz, r_c, eff):
    """omega_eff lies within one probe step of each row's minimum."""
    step = f_hz[1] - f_hz[0]
    at_min = f_hz[np.argmin(r_c, axis=1)]
    rep.close(f"{tag} omega_eff vs row minimum", eff[:, 1], at_min, atol=step * (1 + 1e-9))
    omega_c = TWO_PI * raw["cavity"]["omega_c_hz"]
    rep.close(f"{tag} omega_eff/omega_c", eff[:, 2], TWO_PI * eff[:, 1] / omega_c, rtol=1e-12)


def check_dip_vs_power(rep, tag, minima):
    """At L0 the deepest dip must not deepen as the drive power grows."""
    powers = sorted(minima)
    depth = [minima[p] for p in powers]
    rep.true(all(b >= a - 1e-12 for a, b in zip(depth, depth[1:])),
             f"{tag}: L0 minimum R_c deepens with power: {dict(zip(powers, depth))}")


def _check_cdmr(rep, out_dir, raw, rng, monotone):
    cfg = effective(raw, out_dir)
    sha = config_sha256(cfg)
    manifest = read_json(out_dir / "cdmr_manifest.json")
    rep.true(manifest.get("config_sha256") == sha, f"{out_dir.name}: manifest stamp wrong")
    levels = sorted(raw["laser"]["levels_w_per_m2"])
    got = [(p["power_dbm"], p["laser_level"]) for p in manifest["panels"]]
    rep.true(got == [(p, lv) for p in raw["powers_dbm"] for lv in levels],
             f"{out_dir.name}: panels {got}")
    fs, bs = raw["frequency_sweep"], raw["field_sweep"]
    f_hz = np.linspace(fs["min_hz"], fs["max_hz"], fs["steps"])
    l0_minima = {}
    for panel in manifest["panels"]:
        tag = f"{out_dir.name} P{panel['power_dbm']:g} {panel['laser_level']}"
        comments, header, data = read_stamped_csv(panel["rc_csv"])
        pixels = (rng.integers(0, bs["steps"], 16), rng.integers(0, fs["steps"], 16))
        r_c = check_panel(rep, tag, raw, panel["laser_level"], panel["power_dbm"],
                          comments, header, data, sha, pixels)
        rep.true(panel["min_rc"] == float(np.min(r_c)), f"{tag}: manifest min_rc")
        comments, _, eff = read_stamped_csv(panel["omega_eff_csv"])
        rep.stamp(f"{tag} omega_eff", comments, sha)
        check_resonance(rep, tag, raw, f_hz, r_c, eff)
        if raw["laser"]["levels_w_per_m2"][panel["laser_level"]] == 0.0:
            l0_minima[panel["power_dbm"]] = float(np.min(r_c))
    if monotone:
        check_dip_vs_power(rep, out_dir.name, l0_minima)


def check_nv_table(rep, tag, raw, header, data, exact):
    labels = ("[111]", "[1-1-1]", "[-11-1]", "[-1-11]")
    names = ["b_t"] + [f"f_{br}_{lb}_hz" for lb in labels for br in ("minus", "plus")]
    if exact:
        names += [f"f_{br}_exact_{lb}_hz" for lb in labels for br in ("minus", "plus")]
    rep.true(header == names, f"{tag}: columns {header}")
    sweep = raw["field_sweep"]
    b = data[:, :1] * field_direction(sweep["theta_x_rad"], sweep["theta_y_rad"],
                                      sweep["theta_z_rad"])
    minus, plus = nv_lines(b)
    secular = np.stack([minus, plus], axis=-1).reshape(len(b), 8) / TWO_PI
    rep.close(f"{tag} secular lines", data[:, 1:9], secular, rtol=1e-12)
    if exact:
        want = np.array([[line for axis in NV_AXES for line in nv_exact_lines(bi, axis)]
                         for bi in b]) / TWO_PI
        rep.close(f"{tag} exact lines", data[:, 9:17], want, rtol=1e-10)


def check_p1_table(rep, tag, raw, data):
    sweep = raw["field_sweep"]
    b = data[:, :1] * field_direction(sweep["theta_x_rad"], sweep["theta_y_rad"],
                                      sweep["theta_z_rad"])
    want = np.concatenate([p1_lines(b, axis) for axis in NV_AXES], axis=-1) / TWO_PI
    rep.close(f"{tag} first-order lines", data[:, 1:13], want, rtol=1e-12)
    split = 0.5 * (data[:, 3:13:3] - data[:, 1:13:3])
    rep.close(f"{tag} magic-angle splitting", split,
              np.full_like(split, P1_MAGIC_SPLITTING_HZ), atol=P1_MAGIC_TOL_HZ)


def check_maps(spec, succeeded):
    rep = Report()
    out = Path(spec["out"])
    rng = np.random.default_rng(spec["pixel_seed"])
    # Every P1 map crosses critical coupling at each power, so its minimum R_c
    # is ~0 wherever a row lands nearest that crossing: only NV is monotone.
    for key, raw, monotone in (("cdmr_nv", spec["nv"], True), ("cdmr_p1", spec["p1"], False)):
        if key in succeeded:
            _check_cdmr(rep, out / key, raw, rng, monotone)
    for key, raw, name in (("nv_freqs", spec["nv"], "nv_freqs.csv"),
                           ("p1_freqs", spec["p1"], "p1_freqs.csv")):
        if key not in succeeded:
            continue
        comments, header, data = read_stamped_csv(out / key / name)
        rep.stamp(key, comments, config_sha256(effective(raw, out / key)))
        if key == "nv_freqs":
            check_nv_table(rep, key, raw, header, data, exact=True)
        else:
            check_p1_table(rep, key, raw, data)
    return rep.failures


# --------------------------------------------------------- fieldmap-io

def check_field_samples(rep, fmap, data, rows):
    radius, current = fmap["loop_radius_m"], fmap["loop_current_a"]
    want = np.array([loop_field(data[i, :3], radius, current) for i in rows])
    rep.close("field map vs Biot-Savart", data[rows, 3:], want,
              atol=1e-9 * float(np.max(np.abs(want))))


def check_coupling(rep, tag, raw, level, doc, g_s, volume, grid):
    ens = raw["ensemble"]
    g_cfg, t1, p_zs = level_params(raw, level)
    rep.close(f"{tag} t1", doc["t1_s"], t1, rtol=1e-12)
    rep.close(f"{tag} p_zs", doc["p_zs"], p_zs, rtol=1e-12)
    rep.close(f"{tag} g_s_config_hz", doc["g_s_config_hz"], g_cfg / TWO_PI, rtol=1e-12)
    rep.close(f"{tag} g_s vs own integral", doc["g_s_rad_per_s"], g_s, rtol=1e-9)
    rep.close(f"{tag} region volume", doc["region_volume_m3"], volume, rtol=1e-12)
    rep.close(f"{tag} n_eff = -rho P V", doc["n_eff"],
              -ens["density_per_m3"] * p_zs * volume, rtol=1e-12)
    rep.close(f"{tag} e_cc = 1/(4 g^2 T1 T2)", doc["e_cc"],
              1.0 / (4.0 * doc["g_s_rad_per_s"] ** 2 * t1 * ens["t2_s"]), rtol=1e-12)
    rep.true(list(doc["map_points"]) == list(grid), f"{tag}: map_points {doc['map_points']}")


def check_fieldmap_io(spec, succeeded):
    rep = Report()
    out = Path(spec["out"])
    loop = spec["loop"]
    fmap = loop["field_map"]
    grid = fmap["grid_points"]
    spans = [fmap["x_span_m"], fmap["y_span_m"], fmap["z_span_m"]]
    axes = [cell_centers(s, n) for s, n in zip(spans, grid)]
    cell_volume = float(np.prod([(s[1] - s[0]) / n for s, n in zip(spans, grid)]))
    if "gen_loop" not in succeeded:
        return rep.failures + ["gen_loop did not run; nothing to check against"]
    comments, _, data = read_stamped_csv(spec["map_path"], has_header=False)
    rep.true(any(c == "fieldmap v1 nx={} ny={} nz={}".format(*grid) for c in comments),
             "field map magic header missing")
    rep.stamp("field map", comments, config_sha256(effective(loop, out / "gen_loop")))
    if not rep.true(data.shape == (int(np.prod(grid)), 6), f"field map shape {data.shape}"):
        return rep.failures
    # x varies fastest, then y, then z.
    zz, yy, xx = np.meshgrid(axes[2], axes[1], axes[0], indexing="ij")
    coords = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=1)
    rep.close("field map coordinates", data[:, :3], coords, atol=1e-15)
    rng = np.random.default_rng(spec["sample_seed"])
    check_field_samples(rep, fmap, data, rng.integers(0, len(data), 24))
    g_s, volume = coupling_integral(data[:, :3], data[:, 3:], fmap["region_bounds_m"],
                                    coupling_axes(loop), TWO_PI * loop["cavity"]["omega_c_hz"],
                                    cell_volume)
    docs = {}
    for key, raw, level in ([("coupling_file", spec["file"], spec["file_level"])]
                            + [(f"coupling_{lv}", loop, lv) for lv in spec["levels"]]):
        if key not in succeeded:
            continue
        doc = read_json(out / key / "coupling.json")
        rep.true(doc.get("config_sha256") == config_sha256(effective(raw, out / key)),
                 f"{key}: config_sha256 stamp wrong")
        rep.true(doc.get("laser_level") == level, f"{key}: laser level {doc.get('laser_level')}")
        check_coupling(rep, key, raw, level, doc, g_s, volume, grid)
        docs[key] = doc
    twin = f"coupling_{spec['file_level']}"
    if "coupling_file" in docs and twin in docs:
        for name in ("g_s_rad_per_s", "n_eff", "e_cc", "region_volume_m3"):
            rep.close(f"file vs loop coupling {name}", docs["coupling_file"][name],
                      docs[twin][name], rtol=1e-12)
    return rep.failures


# ------------------------------------------------------------ analysis

def expansion_group(raw, delta_hz, level):
    """(n per group, g_s, delta, T1, T2) of the single-line group behind expand/bistability."""
    ens = raw["ensemble"]
    g_s, t1, p_zs = level_params(raw, level)
    share = 4.0 if raw["scenario"] == "nv" else 12.0
    n = ens["density_per_m3"] * ens["sample_volume_m3"] * abs(p_zs) / share
    return n, g_s, TWO_PI * delta_hz, t1, ens["t2_s"]


def check_expand(rep, tag, raw, case, doc):
    n, g, delta, t1, t2 = expansion_group(raw, case["delta_hz"], case["level"])
    omega_cs, gamma_cs, k_cs, g_cs = expansion_by_differences(n, g, delta, t1, t2)
    rep.close(f"{tag} n_eff", doc["n_eff"], n, rtol=1e-12)
    rep.close(f"{tag} e_cc", doc["e_cc"], 1.0 / (4.0 * g**2 * t1 * t2), rtol=1e-12)
    rep.close(f"{tag} zeta2", doc["zeta2"], 1.0 / (delta * t2), rtol=1e-12)
    rep.close(f"{tag} omega_cs", doc["omega_cs_rad_per_s"], omega_cs, rtol=1e-12)
    rep.close(f"{tag} gamma_cs", doc["gamma_cs_rad_per_s"], gamma_cs, rtol=1e-12)
    rep.close(f"{tag} k_cs vs finite difference", doc["k_cs_rad_per_s_per_photon"], k_cs,
              rtol=1e-7)
    rep.close(f"{tag} g_cs vs finite difference", doc["g_cs_rad_per_s_per_photon"], g_cs,
              rtol=1e-7)


def check_bistability(rep, tag, raw, case, doc):
    omega_c, gamma_c, gamma_f, kerr_c, cubic_c = _cavity_rates(raw)
    n, g, delta, t1, t2 = expansion_group(raw, case["delta_hz"], case["level"])
    omega_cs, gamma_cs, k_cs, g_cs = expansion_by_differences(n, g, delta, t1, t2)
    kerr, cubic = doc["kerr_rad_per_s_per_photon"], doc["cubic_damping_rad_per_s_per_photon"]
    gamma_t = doc["gamma_t_rad_per_s"]
    rep.close(f"{tag} e_cc", doc["e_cc"], 1.0 / (4.0 * g**2 * t1 * t2), rtol=1e-12)
    rep.close(f"{tag} gamma_t", gamma_t, gamma_c + gamma_f + gamma_cs, rtol=1e-12)
    rep.close(f"{tag} kerr", kerr, kerr_c + k_cs, rtol=1e-7)
    rep.close(f"{tag} cubic damping", cubic, cubic_c + g_cs, rtol=1e-7)
    kerr_dominated = case["kerr_hz"] != 0.0
    if not isinstance(doc.get("bistable"), bool):
        rep.true(False, f"{tag}: 'bistable' missing or not a boolean")
        return
    if not doc["bistable"]:
        # A spin-dominated case may lie outside the range where an onset is
        # defined; any well-formed non-onset answer is accepted there.
        rep.true(not kerr_dominated, f"{tag}: Kerr-dominated case reports no onset")
        return
    y, omega_p, drive = doc["e_co"], doc["omega_p_at_onset_rad_per_s"], \
        doc["drive_photons_rad2_per_s2"]
    detuning = omega_p - (omega_c + omega_cs)
    rep.close(f"{tag} cusp f, f', f''", cusp_residuals(y, detuning, drive, gamma_t, kerr, cubic),
              [0.0, 0.0, 0.0], atol=1e-6)
    rep.close(f"{tag} e_co/e_cc", doc["e_co_over_e_cc"], y / doc["e_cc"], rtol=1e-12)
    rep.close(f"{tag} f_p", doc["f_p_at_onset_hz"], omega_p / TWO_PI, rtol=1e-12)
    power_w = drive * HBAR * omega_c / (4.0 * gamma_f)
    rep.close(f"{tag} power_w", doc["power_at_onset_w"], power_w, rtol=1e-12)
    rep.close(f"{tag} power_dbm", doc["power_at_onset_dbm"], 10 * math.log10(power_w / 1e-3),
              atol=1e-9)
    if kerr_dominated:
        want = yurke_buks_onset(gamma_t, kerr, cubic)
        rep.close(f"{tag} onset vs Yurke-Buks", [y, detuning, drive], want, rtol=1e-8)


def check_fits(rep, spec, docs):
    orient = spec["orientation"]
    for key, seed in orient["seeds"].items():
        if key not in docs:
            continue
        doc = docs[key]
        truth = orient["truth"]
        rep.true(doc["converged"] is True, f"{key} did not converge")
        rep.close(f"{key} angles", [doc["theta_x_rad"], doc["theta_y_rad"],
                                    doc["theta_z_rad"]], truth, atol=1e-8)
        mc = doc.get("monte_carlo") or {}
        rep.true(mc.get("trials") == orient["trials"] and mc.get("seed") == seed
                 and mc.get("noise_frac") == orient["noise_frac"],
                 f"{key} Monte Carlo settings {mc}")
        stats = [np.asarray(mc.get(k, []), dtype=float)
                 for k in ("mean_rad", "std_rad", "max_abs_error_rad")]
        if rep.true(all(s.shape == (3,) and np.all(np.isfinite(s)) for s in stats),
                    f"{key} Monte Carlo block is not three finite triples"):
            mean, std, worst = stats
            fitted = np.array([doc["theta_x_rad"], doc["theta_y_rad"], doc["theta_z_rad"]])
            # Over N draws: std <= rms error <= max error >= |mean error|.
            slack = worst * (1 + 1e-12) + 1e-12
            rep.true(bool(np.all(std <= slack) and np.all(np.abs(mean - fitted) <= slack)),
                     f"{key} Monte Carlo statistics are inconsistent")
    if "fit_cavity" in docs:
        doc, cav = docs["fit_cavity"], spec["cavity"]
        rep.true(doc["converged"] is True, "fit_cavity did not converge")
        rep.close("fit_cavity f_c", doc["f_c_hz"], cav["f_c_hz"], rtol=1e-10)
        rep.close("fit_cavity rates", [doc["gamma_c_hz"], doc["gamma_f_hz"]],
                  [cav["gamma_c_hz"], cav["gamma_f_hz"]], rtol=1e-6)
    if "fit_fwhm" in docs:
        doc, dip = docs["fit_fwhm"], spec["dip"]
        rep.true(doc["converged"] is True, "fit_fwhm did not converge")
        rep.close("fit_fwhm center", doc["center_hz"], dip["center_hz"], rtol=1e-10)
        rep.close("fit_fwhm fwhm, depth, offset", [doc["fwhm_hz"], doc["depth"], doc["offset"]],
                  [dip["fwhm_hz"], dip["depth"], dip["offset"]], rtol=1e-6)


def check_analysis(spec, succeeded):
    rep = Report()
    out = Path(spec["out"])
    raw = spec["nv"]
    for case in spec["cases"]:
        key = case["key"]
        if key not in succeeded:
            continue
        extra = {"kerr_hz_per_photon": case["kerr_hz"]} if case["kerr_hz"] else {}
        cfg = effective(raw, out / key, **extra)
        doc = read_json(out / key / f"{case['kind']}.json")
        rep.true(doc.get("config_sha256") == config_sha256(cfg),
                 f"{key}: config_sha256 stamp wrong")
        rep.true((doc.get("delta_hz"), doc.get("laser_level")) == (case["delta_hz"], case["level"]),
                 f"{key}: echoed detuning or level wrong")
        check = check_expand if case["kind"] == "expand" else check_bistability
        check(rep, key, cfg, case, doc)
    if "sensitivity" in succeeded:
        doc = read_json(out / "sensitivity" / "sensitivity.json")
        ens, cav = raw["ensemble"], raw["cavity"]
        g, gamma_c = TWO_PI * ens["g_s_laser_off_hz"], TWO_PI * cav["gamma_c_hz"]
        rep.close("sensitivity S_N", doc["s_n_per_sqrt_hz"], sensitivity_closed_form(
            ens["p_zs_thermal"], gamma_c, g, ens["t1_thermal_laser_off_s"], ens["t2_s"]),
            rtol=1e-12)
        rep.close("sensitivity cooperativity", doc["cooperativity"],
                  spec["n_eff"] * g**2 * ens["t2_s"] / gamma_c, rtol=1e-12)
    names = {**{key: "fit_orientation.json" for key in spec["orientation"]["seeds"]},
             "fit_cavity": "fit_cavity.json", "fit_fwhm": "fit_fwhm.json"}
    docs = {k: read_json(out / k / f) for k, f in names.items() if k in succeeded}
    check_fits(rep, spec, docs)
    return rep.failures


CHECKS = {"maps": check_maps, "fieldmap-io": check_fieldmap_io, "analysis": check_analysis}


def check(workload, succeeded):
    """Failure messages for the outputs of the commands in ``succeeded``."""
    try:
        return CHECKS[workload.name](workload.spec, succeeded)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"could not read the outputs: {type(exc).__name__}: {exc}"]
