"""Photon number, saturating ensemble shifts, reflectivity and the 2-D sweep.

Numeric anchors were computed with a standalone script implementing the same
rational shift form directly from the group parameters; they pin both the
algebra and the unit conventions (angular frequencies everywhere).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdmr.cavity import (
    CavityMode,
    SpinBank,
    cdmr_sweep,
    drive_power,
    drive_rate,
    effective_frequency,
    ensemble_shift,
    extract_effective_resonance,
    intracavity_photon_number,
    reflectivity,
)
from cdmr.config import dbm_to_watts, group_builder, laser_level, load_preset_raw, validate_config
from cdmr.constants import TWO_PI
from cdmr.nonlinear import weak_expansion
from cdmr.spins import nv_transition_frequencies, rotate_to_unit_vector

R_BARE = 0.033808532778355896
DB_BARE = -14.709736763235624
EC_90DBM = 362565.31762528577
DRIVE_90DBM = 5.502111328945157e18  # 4 gamma_f P / (hbar omega_c) at 1 pW
SHIFT_AT_E0 = 20928032.81885422 - 10464016.409427112j
SHIFT_AT_E1E4 = 16234339.428748356 - 8117169.71437418j
GROUP_ECC = 6917.511681938901


def nv_cavity(**overrides):
    kwargs = dict(omega_c=TWO_PI * 2.53e9, gamma_c=TWO_PI * 253e3, gamma_f=TWO_PI * 367e3)
    kwargs.update(overrides)
    return CavityMode(**kwargs)


def frozen_params(**overrides):
    """The five arguments of ``ensemble_shift`` for one frozen NV group."""
    t2 = 2.19e-7
    params = dict(n_eff=1.23e23 * 7.6e-10 * 0.035 / 4.0, g_s=TWO_PI * 2.72, delta=2.0 / t2,
                  t1=0.565, t2=t2)
    params.update(overrides)
    return params


def frozen_bank(labels=("frozen",), **overrides):
    """The frozen group in every column of a one-row bank, at |B| = nan."""
    params = frozen_params(**overrides)
    return SpinBank(b_mags=[math.nan], labels=labels, **params)


def bare_bank(b_mags):
    return SpinBank(b_mags=b_mags, labels=(), delta=0.0, g_s=0.0, n_eff=0.0, t1=1.0, t2=1.0)


def test_cavity_mode_validation():
    nv_cavity()
    with pytest.raises(ValueError, match="omega_c"):
        nv_cavity(omega_c=0.0)
    with pytest.raises(ValueError, match="gamma_c"):
        nv_cavity(gamma_c=-1.0)
    with pytest.raises(ValueError, match="gamma_f"):
        nv_cavity(gamma_f=math.inf)
    with pytest.raises(ValueError, match="kerr"):
        nv_cavity(kerr=math.nan)
    with pytest.raises(ValueError, match="cubic_damping"):
        nv_cavity(cubic_damping=-0.1)
    # Negative Kerr is a real operating point, not an error.
    assert nv_cavity(kerr=-600.0).kerr == -600.0


def test_group_validation_and_saturation_scale():
    assert weak_expansion(**frozen_params()).e_cc == pytest.approx(GROUP_ECC, rel=1e-12)
    # 4 g_s^2 T1 T2 is 0 at g_s = 0, and when g_s^2 underflows.
    for g_s in (0.0, 1e-200):
        assert weak_expansion(**frozen_params(g_s=g_s)).e_cc == math.inf
    where = r"\(group frozen at row 0 \(\|B\| = nan T\)\)"
    for name, value in (("t1", 0.0), ("t2", -1e-7), ("g_s", -1.0), ("n_eff", math.nan)):
        with pytest.raises(ValueError, match=rf"{name} .*{where}"):
            frozen_bank(**{name: value})
    with pytest.warns(UserWarning, match="group frozen at row 0 .*unphysical"):
        frozen_bank(t1=1e-8, t2=2.19e-7)


def test_intracavity_photon_number_frozen_value():
    cavity = nv_cavity()
    e_res = intracavity_photon_number(cavity.omega_c, 1e-12, cavity)
    assert e_res == pytest.approx(EC_90DBM, rel=1e-12)


def test_drive_rate_conversion():
    cavity = nv_cavity()
    assert drive_rate(1e-12, cavity) == pytest.approx(DRIVE_90DBM, rel=1e-12)
    assert drive_rate(0.0, cavity) == 0.0
    with pytest.raises(ValueError, match=">= 0"):
        drive_rate(-1e-12, cavity)
    assert drive_power(DRIVE_90DBM, cavity) == pytest.approx(1e-12, rel=1e-12)


def test_intracavity_photon_number_peaks_on_resonance():
    cavity = nv_cavity()
    omega = cavity.omega_c + np.linspace(-5e6, 5e6, 11)
    e_c = intracavity_photon_number(omega, 1e-12, cavity)
    assert e_c.shape == omega.shape
    assert np.argmax(e_c) == 5
    assert np.all(e_c > 0.0)
    with pytest.raises(ValueError, match=">= 0"):
        intracavity_photon_number(cavity.omega_c, -1e-12, cavity)


def test_ensemble_shift_frozen_points():
    assert complex(ensemble_shift(**frozen_params(), e_c=0.0)) == pytest.approx(SHIFT_AT_E0,
                                                                                rel=1e-12)
    assert complex(ensemble_shift(**frozen_params(), e_c=1e4)) == pytest.approx(SHIFT_AT_E1E4,
                                                                                rel=1e-12)


def test_ensemble_shift_rounds_scalar_calls_as_array_calls():
    """Python-float group parameters give the same bits as 1-element arrays
    over random NV-range groups, so a scalar caller matches the maps."""
    rng = np.random.default_rng(2024)
    n = 2000
    groups = np.column_stack([
        10.0 ** rng.uniform(10.0, 13.0, n),                 # n_eff
        TWO_PI * rng.uniform(0.5, 10.0, n),                 # g_s
        TWO_PI * rng.uniform(-2e7, 2e7, n),                 # delta
        rng.uniform(1e-3, 1.0, n),                          # t1
        rng.uniform(5e-8, 1e-6, n),                         # t2
        10.0 ** rng.uniform(-2.0, 8.0, n),                  # e_c
    ])
    for row in groups:
        scalar = ensemble_shift(*row.tolist())
        array = ensemble_shift(*(np.array([v]) for v in row))
        assert np.asarray(scalar).tobytes() == array.tobytes()


def test_ensemble_shift_reciprocal_product_equals_the_quotient_bitwise():
    """The shift multiplies by 1/denominator; numpy's complex-by-real quotient
    gives the very same bits, signed zeros included, over random groups."""
    rng = np.random.default_rng(28)
    n = 200_000
    n_eff = 10.0 ** rng.uniform(8.0, 14.0, n) * rng.choice([-1.0, 1.0], n)
    g_s = TWO_PI * rng.uniform(0.0, 20.0, n)
    delta = TWO_PI * rng.uniform(-5e7, 5e7, n)
    delta[::7] = 0.0
    delta[3::7] = -0.0
    t1 = rng.uniform(1e-4, 1.0, n)
    t2 = rng.uniform(1e-8, 1e-5, n)
    e_c = 10.0 ** rng.uniform(-4.0, 12.0, n)
    e_c[::5] = 0.0
    g_sq, t2_sq = g_s * g_s, t2 * t2
    numerator = n_eff * g_sq * (delta * t2_sq - 1j * t2)
    denominator = delta * delta * t2_sq + 1.0 + 4.0 * g_sq * t1 * t2 * e_c
    quotient = numerator / denominator
    assert ensemble_shift(n_eff, g_s, delta, t1, t2, e_c).tobytes() == quotient.tobytes()


def test_ensemble_shift_broadcasts_and_saturates():
    e_c = np.array([0.0, 1e2, 1e4, 1e8, 1e12])
    shift = ensemble_shift(**frozen_params(), e_c=e_c)
    assert shift.shape == e_c.shape
    mags = np.abs(shift)
    assert np.all(np.diff(mags) < 0.0)
    assert mags[-1] < 1e-3 * mags[0]
    # Group parameters broadcast against the photon numbers.
    g_s = TWO_PI * np.array([[0.0], [2.72], [5.44]])
    grid = ensemble_shift(**frozen_params(g_s=g_s), e_c=e_c)
    assert grid.shape == (3, 5)
    assert np.all(grid[0] == 0.0)
    assert np.array_equal(grid[1], shift)
    # Finite on resonance.
    on_res = ensemble_shift(**frozen_params(delta=0.0), e_c=0.0)
    assert np.isfinite(on_res)
    assert np.real(on_res) == 0.0
    with pytest.raises(ValueError, match=">= 0"):
        ensemble_shift(**frozen_params(), e_c=-1.0)


@given(
    t2=st.floats(min_value=1e-8, max_value=1e-6),
    t1_factor=st.floats(min_value=0.5, max_value=1e6),
    g_s=st.floats(min_value=0.5, max_value=500.0),
    delta_cycles=st.floats(min_value=-3.0, max_value=3.0),
    e1_frac=st.floats(min_value=0.0, max_value=10.0),
    step_frac=st.floats(min_value=0.01, max_value=5.0),
)
def test_shift_magnitude_strictly_decreases_with_photon_number(
    t2, t1_factor, g_s, delta_cycles, e1_frac, step_frac
):
    params = dict(n_eff=1e12, g_s=g_s, delta=delta_cycles / t2, t1=t1_factor * t2, t2=t2)
    e_cc = 1.0 / (4.0 * g_s**2 * params["t1"] * t2)
    e1 = e1_frac * e_cc
    e2 = e1 + step_frac * e_cc
    assert abs(ensemble_shift(**params, e_c=e2)) < abs(ensemble_shift(**params, e_c=e1))


def test_effective_frequency_bare_is_linear_in_photon_number():
    cavity = nv_cavity(kerr=-605.0, cubic_damping=302.5)
    for e_c in (0.0, 1.0, 3e4):
        (shift,) = effective_frequency(cavity, bare_bank([0.014]), e_c)
        assert shift.real == cavity.omega_c + cavity.kerr * e_c
        assert -shift.imag == cavity.gamma_c + cavity.cubic_damping * e_c


@pytest.mark.parametrize("shape", [(), (4,), (2, 3)])
def test_effective_frequency_of_a_bank_without_groups_is_the_bare_cavity(shape):
    cavity = nv_cavity(kerr=-605.0, cubic_damping=302.5)
    e_c = np.arange(np.prod(shape, dtype=int), dtype=float).reshape(shape) * 1e3
    value = effective_frequency(cavity, bare_bank([0.014, 0.016, 0.018]), e_c)
    assert value.shape == (3, *shape)
    bare = cavity.omega_c + cavity.kerr * e_c - 1j * (cavity.gamma_c + cavity.cubic_damping * e_c)
    assert np.array_equal(value, np.broadcast_to(bare, value.shape))
    # A new array, not a read-only broadcast view.
    value[...] = 0.0


def test_effective_frequency_adds_group_shifts():
    cavity = nv_cavity()
    (shift,) = effective_frequency(cavity, frozen_bank(labels=("a", "b")), 1e4)
    expected = cavity.omega_c - 1j * cavity.gamma_c + 2.0 * SHIFT_AT_E1E4
    assert complex(shift) == pytest.approx(expected, rel=1e-12)
    assert shift.real == pytest.approx(np.real(expected), rel=1e-12)
    assert -shift.imag == pytest.approx(-np.imag(expected), rel=1e-12)


_positive = st.floats(min_value=1e-3, max_value=1e3)


@st.composite
def banks(draw):
    """A random SpinBank: 1-4 field steps, 0-3 groups, parameters spanning decades."""
    n_b = draw(st.integers(1, 4))
    n_g = draw(st.integers(0, 3))

    def table(values):
        return np.array(draw(st.lists(values, min_size=n_b * n_g, max_size=n_b * n_g)),
                        dtype=float).reshape(n_b, n_g)

    t2 = table(_positive.map(lambda x: 1e-7 * x))
    return SpinBank(
        b_mags=np.linspace(0.01, 0.02, n_b), labels=tuple(f"g{k}" for k in range(n_g)),
        delta=table(st.floats(-1e8, 1e8)), g_s=table(_positive),
        n_eff=table(st.floats(-1e12, 1e12)), t1=t2 * table(st.floats(0.5, 1e6)), t2=t2)


@given(bank=banks(), shape=st.sampled_from([(), (5,), (2, 3)]),
       kerr=st.floats(-1e3, 1e3), cubic=st.floats(0.0, 1e3), data=st.data())
def test_effective_frequency_equals_the_python_float_reference_bitwise(
        bank, shape, kerr, cubic, data, reference_frequency):
    cavity = nv_cavity(kerr=kerr, cubic_damping=cubic)
    size = int(np.prod(shape, dtype=int))
    e_c = np.array(data.draw(st.lists(st.floats(0.0, 1e9), min_size=size, max_size=size)),
                   dtype=float).reshape(shape)
    value = effective_frequency(cavity, bank, e_c)
    assert value.shape == (bank.b_mags.size, *shape)
    assert np.array_equal(value, reference_frequency(cavity, bank, e_c))


def test_reflectivity_frozen_dip_and_bounds():
    cavity = nv_cavity()
    bare = cavity.omega_c - 1j * cavity.gamma_c
    r_min = reflectivity(cavity.omega_c, bare, cavity.gamma_f)
    assert r_min == pytest.approx(R_BARE, rel=1e-12)
    assert 10.0 * np.log10(r_min) == pytest.approx(DB_BARE, rel=1e-12)
    omega = cavity.omega_c + np.linspace(-2e7, 2e7, 201)
    r_c = reflectivity(omega, bare, cavity.gamma_f)
    assert np.all((r_c >= 0.0) & (r_c <= 1.0))
    assert np.argmin(r_c) == 100
    # Far off resonance the port reflects everything.
    assert reflectivity(cavity.omega_c + 1e12, bare, cavity.gamma_f) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="damping"):
        reflectivity(cavity.omega_c, cavity.omega_c + 0j, cavity.gamma_f)


def test_extract_effective_resonance_picks_minimum():
    omega = np.array([1.0, 2.0, 3.0, 4.0])
    # Ties, flat rows included, resolve to the lowest frequency.
    for row, lowest, flat_rows in (([0.9, 0.2, 0.5, 0.8], 2.0, []),
                                   ([0.5, 0.2, 0.2, 0.8], 2.0, []), ([1.0] * 4, 1.0, [0])):
        omega_eff, flat = extract_effective_resonance(omega, np.array([row]))
        assert omega_eff.tolist() == [lowest] and flat == flat_rows
    with pytest.raises(ValueError, match="matching"):
        extract_effective_resonance(omega, np.ones((1, 3)))
    with pytest.raises(ValueError, match="matrix"):
        extract_effective_resonance(omega, np.ones(4))
    # A matrix gives one frequency per row, and the list of its flat rows.
    matrix = np.array([[0.9, 0.2, 0.5, 0.8], [0.5, 0.2, 0.2, 0.8], [0.3, 0.3, 0.3, 0.3],
                       [0.9, 0.8, 0.7, 0.1], [0.4, 0.4, 0.4, 0.4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        omega_eff, flat = extract_effective_resonance(omega, matrix)
    assert omega_eff.tolist() == [2.0, 2.0, 1.0, 4.0, 1.0]
    assert flat == [2, 4]
    with pytest.raises(ValueError, match="matching"):
        extract_effective_resonance(omega, np.ones((2, 3)))


def test_cdmr_sweep_rejects_a_reflectivity_above_one(monkeypatch):
    """R_c outside [0, 1 + 1e-12] is a numerical failure naming its first row."""
    cavity = nv_cavity()
    omega = cavity.omega_c + np.linspace(-5e6, 5e6, 7)
    bank = bare_bank(np.array([0.014, 0.015, 0.016]))

    def above_one_on_row_1(omega_p, upsilon, gamma_f):
        r_c = np.full(np.shape(upsilon), 0.5)
        r_c[1, 3] = 1.0 + 1e-9
        return r_c

    monkeypatch.setattr("cdmr.cavity.reflectivity", above_one_on_row_1)
    with pytest.raises(RuntimeError, match=r"\|B\| = 0\.015 T \(row 1\): reflectivity values "
                                           r"must lie in \[0, 1\]"):
        cdmr_sweep(cavity, bank, omega, 1e-12)


def test_cdmr_sweep_bare_rows_are_identical():
    cavity = nv_cavity()
    omega = cavity.omega_c + np.linspace(-5e6, 5e6, 7)
    r_c, omega_eff, flat = cdmr_sweep(cavity, bare_bank(np.linspace(0.014, 0.02, 5)), omega,
                                      1e-12)
    assert r_c.shape == (5, 7) and omega_eff.shape == (5,) and flat == []
    assert np.all(r_c == r_c[0])
    assert np.all(omega_eff == omega[3])
    direct = reflectivity(omega, cavity.omega_c - 1j * cavity.gamma_c, cavity.gamma_f)
    assert np.allclose(r_c[0], direct, rtol=1e-14)


def test_cdmr_sweep_rejects_a_non_finite_reflectivity():
    """A probe frequency whose squared detuning overflows gives R_c = inf/inf = NaN;
    the sweep names the first such row instead of clipping it into the map."""
    cavity = nv_cavity()
    bank = bare_bank(np.array([0.014, 0.015]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"\|B\| = 0\.014 T \(row 0\): reflectivity is "
                                               "not finite"):
            cdmr_sweep(cavity, bank, [cavity.omega_c, 1e160], 1e-12)


@pytest.mark.parametrize("preset, level", [("nv_default", "L2"), ("p1_default", "L0")])
def test_cdmr_sweep_rows_equal_the_per_row_formulas_bitwise(shrink, preset, level,
                                                            reference_frequency):
    """Oracle: every row of the sweep is exactly the reflectivity of the
    Python-float reference Upsilon for that field step, with no clipping."""
    config = validate_config(shrink(load_preset_raw(preset), field_steps=17, freq_steps=23))
    omega_p = config.frequency_sweep.values()
    b_mags = config.field_sweep.values()
    b_hat = rotate_to_unit_vector(*config.field_angles)
    bank = group_builder(config, laser_level(config, level))(b_mags, b_hat)
    for power_dbm in config.powers_dbm:
        power_w = dbm_to_watts(power_dbm)
        r_c, omega_eff, _ = cdmr_sweep(config.cavity, bank, omega_p, power_w)
        e_c = intracavity_photon_number(omega_p, power_w, config.cavity)
        upsilon = reference_frequency(config.cavity, bank, e_c)
        expected = reflectivity(omega_p, upsilon, config.cavity.gamma_f)
        assert np.array_equal(r_c, expected), power_dbm
        assert np.array_equal(omega_eff, extract_effective_resonance(omega_p, expected)[0])


def test_cdmr_sweep_names_the_first_row_with_negative_damping():
    """An inverted (negative n_eff) ensemble can push the effective damping
    below zero; the failure must carry the row and field, not a bare ValueError."""
    cavity = nv_cavity()
    omega = cavity.omega_c + np.linspace(-5e6, 5e6, 7)
    b_mags = np.array([0.014, 0.016, 0.018, 0.02])
    n_eff = np.where(b_mags > 0.015, -1e12, 1e12)[:, None]
    bank = SpinBank(b_mags=b_mags, labels=("inverted",), delta=0.0, g_s=TWO_PI * 2.72,
                    n_eff=n_eff, t1=0.565, t2=2.19e-7)

    with pytest.raises(RuntimeError, match=r"\|B\| = 0\.016 T \(row 1\)") as excinfo:
        cdmr_sweep(cavity, bank, omega, 1e-12)
    assert "damping" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_cdmr_sweep_of_a_row_block_equals_those_rows_of_the_whole_sweep(shrink):
    """A block of bank rows sweeps to the same bits as those rows of one whole
    sweep, and its flat rows and failures are named by bank row."""
    config = validate_config(shrink(load_preset_raw("nv_default"), field_steps=23,
                                    freq_steps=11))
    omega_p = config.frequency_sweep.values()
    bank = group_builder(config, laser_level(config, "L1"))(
        config.field_sweep.values(), rotate_to_unit_vector(*config.field_angles))
    power_w = dbm_to_watts(-60.0)
    r_c, omega_eff, flat = cdmr_sweep(config.cavity, bank, omega_p, power_w)
    assert flat == []
    for rows in (slice(0, 5), slice(5, 6), slice(20, 40)):
        r_block, eff_block, flat_block = cdmr_sweep(config.cavity, bank, omega_p, power_w, rows)
        assert r_block.tobytes() == r_c[rows].tobytes()
        assert eff_block.tobytes() == omega_eff[rows].tobytes()
        assert flat_block == []
    # Far above the cavity every row is flat: listed by bank row, with no warning.
    far = omega_p + 1e13
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cdmr_sweep(config.cavity, bank, far, power_w, slice(20, 40))[2] == [20, 21, 22]
        assert cdmr_sweep(config.cavity, bank, far, power_w, slice(20, None))[2] == [20, 21, 22]


def test_cdmr_sweep_names_the_first_faulty_row_whatever_its_fault(monkeypatch):
    """Row 1 lies outside [0, 1], row 2 is not finite and row 3 is undamped:
    the first faulty row is named, counted in the bank."""
    cavity = nv_cavity()
    omega = cavity.omega_c + np.linspace(-5e6, 5e6, 7)
    b_mags = np.array([0.013, 0.014, 0.016, 0.018, 0.02])
    n_eff = np.where(b_mags == 0.018, -1e12, 1e12)[:, None]
    bank = SpinBank(b_mags=b_mags, labels=("inverted",), delta=0.0, g_s=TWO_PI * 2.72,
                    n_eff=n_eff, t1=0.565, t2=2.19e-7)
    exact = reflectivity

    def faulty(omega_p, upsilon, gamma_f):
        r_c = exact(omega_p, upsilon, gamma_f)
        for bank_row, value in ((1, 1.5), (2, math.nan)):
            if rows.start <= bank_row < rows.start + len(r_c):
                r_c[bank_row - rows.start, 4] = value
        return r_c

    monkeypatch.setattr("cdmr.cavity.reflectivity", faulty)
    for rows, named in ((slice(0, 5), r"0\.014 T \(row 1\): reflectivity values must lie"),
                        (slice(2, 5), r"0\.016 T \(row 2\): reflectivity is not finite"),
                        (slice(3, 5), r"0\.018 T \(row 3\): effective damping")):
        with pytest.raises(RuntimeError, match=named):
            cdmr_sweep(cavity, bank, omega, 1e-12, rows)


def test_cdmr_sweep_direction_is_normalized(nv_raw, shrink, monkeypatch):
    config = validate_config(shrink(nv_raw))
    b_mags = np.linspace(0.014, 0.02, 4)
    seen = []

    def recording(fields, *args):
        seen.extend(np.array(fields))
        return nv_transition_frequencies(fields, *args)

    monkeypatch.setattr("cdmr.config.nv_transition_frequencies", recording)
    bank = group_builder(config, laser_level(config))(b_mags, [0.0, 0.0, 2.0])
    cdmr_sweep(config.cavity, bank, config.frequency_sweep.values(), 1e-12)
    assert len(seen) == b_mags.size
    assert all(abs(np.linalg.norm(v) - b) < 1e-12 * b for v, b in zip(seen, b_mags))


def test_cdmr_sweep_wraps_group_failures_with_context(nv_raw, shrink, monkeypatch):
    config = validate_config(shrink(nv_raw))
    b_mags = np.array([0.014, 0.016, 0.018])

    def failing(fields, *args):
        if np.any(np.linalg.norm(fields, axis=-1) > 0.017):
            raise ValueError("synthetic group failure")
        return nv_transition_frequencies(fields, *args)

    monkeypatch.setattr("cdmr.config.nv_transition_frequencies", failing)
    with pytest.raises(RuntimeError, match=r"\|B\| = 0\.018 T \(row 2\)") as excinfo:
        group_builder(config, laser_level(config))(b_mags, [0.0, 0.0, 1.0])
    assert "synthetic group failure" in str(excinfo.value)
    assert isinstance(excinfo.value.__cause__, ValueError)


def test_cdmr_sweep_validates_axes(nv_raw, shrink):
    config = validate_config(shrink(nv_raw))
    build = group_builder(config, laser_level(config))
    bank = build(np.array([0.01]), [0, 0, 1])
    with pytest.raises(ValueError, match="non-empty"):
        cdmr_sweep(config.cavity, bank, np.array([]), 1e-12)
    with pytest.raises(ValueError, match="non-empty"):
        build(np.array([]), [0, 0, 1])
    with pytest.raises(ValueError, match="non-zero 3-vector"):
        build(np.array([0.01]), [0, 0, 0])


def test_spin_bank_validation_names_row_field_and_group():
    b_mags = np.array([0.014, 0.016, 0.018])
    good = dict(b_mags=b_mags, labels=("a", "b"), delta=0.0, g_s=1.0, n_eff=1e9, t1=1e-3,
                t2=1e-6)
    bank = SpinBank(**good)
    assert bank.t1.shape == bank.delta.shape == (3, 2)
    for name, bad_value, needs in (("t1", 0.0, "positive"), ("t2", -1.0, "positive"),
                                   ("g_s", -1.0, ">= 0"), ("n_eff", math.nan, "finite"),
                                   ("delta", math.inf, "finite"), ("delta", -math.inf, "finite"),
                                   ("delta", math.nan, "finite")):
        values = np.full((3, 2), good[name])
        values[1, 1] = values[2, 0] = bad_value
        with pytest.raises(ValueError, match=rf"{name} must be .*{needs}") as excinfo:
            SpinBank(**{**good, name: values})
        assert "group b at row 1 (|B| = 0.016 T)" in str(excinfo.value)
    with pytest.raises(ValueError, match="broadcast"):
        SpinBank(**{**good, "g_s": np.ones(2)[:, None]})
    with pytest.raises(ValueError, match="non-empty"):
        SpinBank(**{**good, "b_mags": np.array([])})
    t2 = np.full((3, 2), 1e-6)
    t2[2:, :] = 1.0
    with pytest.warns(UserWarning, match=r"group a at row 2 .*2\*T1 < T2") as record:
        SpinBank(**{**good, "t2": t2})
    assert len(record) == 1


def test_cdmr_sweep_spin_crossing_pulls_the_dip():
    """A group whose line crosses the cavity over the sweep drags the minimum."""
    cavity = nv_cavity()
    omega = cavity.omega_c + np.linspace(-4e6, 4e6, 81)
    b_mags = np.linspace(0.0139, 0.0141, 9)
    gamma_e = TWO_PI * 28.03e9
    b_cross = 0.014

    omega_s = cavity.omega_c + gamma_e * (b_mags - b_cross)
    bank = SpinBank(b_mags=b_mags, labels=("crossing",), delta=cavity.omega_c - omega_s[:, None],
                    g_s=TWO_PI * 2.72, n_eff=8e9, t1=0.565, t2=2.19e-7)
    r_c, omega_eff, _ = cdmr_sweep(cavity, bank, omega, 1e-16)
    pulls = np.abs(omega_eff - cavity.omega_c)
    # On the crossing row the shift is purely dissipative: the dip deepens but
    # stays put.  One row to either side the dispersive pull is near maximal.
    assert pulls[4] == 0.0
    assert pulls[3] > 0.0 and pulls[5] > 0.0
    crossing_depth = r_c[4, 40]
    assert crossing_depth < R_BARE
