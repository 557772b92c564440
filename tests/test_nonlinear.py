"""Weak-expansion coefficients, Duffing steady states and the bistability onset.

The onset values are pinned against the closed form for the cusp of the cubic

    y [(delta - K y)^2 + (gamma + G y)^2] = F:

        y*     = 2 gamma / (sqrt(3) (|K| - sqrt(3) G))
        F*     = y*^3 (K^2 + G^2)
        delta* = sign(K) (y*/2) (3 |K| + sqrt(3) G)

which exists only for |K| > sqrt(3) G.  A standalone brute-force scan
(discriminant sign change over a geometric drive ladder) agreed with the
closed form to ~1e-5 relative and with this package to ~1e-15.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdmr.cavity import ensemble_shift
from cdmr.constants import TWO_PI
from cdmr.nonlinear import (
    BistabilityOnset,
    bistability_onset,
    cooperativity,
    critical_photon_number,
    duffing_steady_states,
    sensitivity,
    weak_expansion,
)

# Expansion of the frozen reference group (delta = 2/T2, laser-off NV numbers).
ZETA2 = 0.5000000000000001
OMEGA_CS = 20928032.818854228
GAMMA_CS = 10464016.409427116
K_CS = -605.0740145042544
G_CS = -302.53700725212724

# (gamma_t, kerr, cubic_damping) -> (E_co, delta at onset, drive at onset, is_onset)
ONSET_CASES = {
    (1e6, -120.0, 0.0): (9622.504486493763, -1732050.8075688775, 1.2830005981991684e16, True),
    (1e6, 120.0, 40.0): (22767.090063073974, 4886751.345948128, 1.8881763745753014e17, True),
    (2e6, -50.0, 20.0): (150361.579875327, -13881457.449153448, 9.858450013394977e18, True),
    (1e6, -120.0, -40.0): (6100.423396407312, -886751.3459481291, 3632452272345036.5, True),
    # |K| + sqrt(3) G < 0: the cusp is the largest drive at which the fold survives.
    (1e6, -120.0, -80.0): (4465.819873852046, -494446.5005348652, 1852537215325392.0, False),
}

S_N_FROZEN = 51185448.82953324
COOP_FROZEN = 32.913042216502596


def frozen_params(**overrides):
    """The five arguments of ``ensemble_shift`` for the frozen reference group."""
    t2 = 2.19e-7
    params = dict(n_eff=1.23e23 * 7.6e-10 * 0.035 / 4.0, g_s=TWO_PI * 2.72, delta=2.0 / t2,
                  t1=0.565, t2=t2)
    params.update(overrides)
    return params


def onset_formula(gamma, kerr, cubic):
    y = 2.0 * gamma / (math.sqrt(3.0) * (abs(kerr) - math.sqrt(3.0) * cubic))
    drive = y**3 * (kerr**2 + cubic**2)
    delta = math.copysign(1.0, kerr) * (y / 2.0) * (3.0 * abs(kerr) + math.sqrt(3.0) * cubic)
    return y, delta, drive


def test_weak_expansion_frozen_coefficients():
    exp = weak_expansion(**frozen_params())
    assert exp.zeta2 == pytest.approx(ZETA2, rel=1e-14)
    assert exp.omega_cs == pytest.approx(OMEGA_CS, rel=1e-12)
    assert exp.gamma_cs == pytest.approx(GAMMA_CS, rel=1e-12)
    assert exp.k_cs == pytest.approx(K_CS, rel=1e-12)
    assert exp.g_cs == pytest.approx(G_CS, rel=1e-12)


def test_weak_expansion_internal_identities():
    exp = weak_expansion(**frozen_params(delta=-1.7 / 2.19e-7))
    assert exp.gamma_cs == exp.zeta2 * exp.omega_cs
    assert exp.g_cs == exp.zeta2 * exp.k_cs


def test_weak_expansion_constant_term_matches_full_shift():
    for cycles in (2.0, -0.7, 0.11, 31.0):
        params = frozen_params(delta=cycles / 2.19e-7)
        exp = weak_expansion(**params)
        full = complex(ensemble_shift(**params, e_c=0.0))
        assert exp.omega_cs - 1j * exp.gamma_cs == pytest.approx(full, rel=1e-12)


def test_weak_expansion_slope_matches_derivative_of_rational_form():
    n_eff, g_s, delta, t1, t2 = frozen_params().values()

    def shift(e_c):
        # Same rational form, written independently; e_c may go negative here,
        # which the finite differences below need.
        num = n_eff * g_s**2 * (delta * t2**2 - 1j * t2)
        den = delta**2 * t2**2 + 1.0 + 4.0 * g_s**2 * t1 * t2 * e_c
        return num / den

    exp = weak_expansion(**frozen_params())
    assert exp.e_cc == 1.0 / (4.0 * g_s**2 * t1 * t2)
    h = 1e-3 * exp.e_cc

    def central(step):
        return (shift(step) - shift(-step)) / (2.0 * step)

    richardson = (4.0 * central(h / 2.0) - central(h)) / 3.0
    assert exp.k_cs - 1j * exp.g_cs == pytest.approx(richardson, rel=1e-10)


def test_weak_expansion_rejects_zero_detuning():
    with pytest.raises(ValueError, match="zero detuning"):
        weak_expansion(**frozen_params(delta=0.0))
    # delta T2 underflows to 0.
    with pytest.raises(ValueError, match="zero detuning"):
        weak_expansion(**frozen_params(delta=TWO_PI * 1e-320))


def test_weak_expansion_warns_on_an_unphysical_t2_with_both_times():
    with pytest.warns(UserWarning) as caught:
        weak_expansion(**frozen_params(t1=1e-8))
    assert [str(w.message) for w in caught] == [
        "2*T1 < T2 is unphysical (T1=1e-08, T2=2.19e-07)"]


def test_duffing_validation():
    """Both functions refuse the same coefficients with the same messages."""
    duffing_steady_states(0.0, 1e6, -120.0, 0.0, 1e15, 0.0)
    for coefficients, match in (((0.0, 0.0, 1.0, 0.0), "gamma_t must be finite and positive"),
                                ((math.inf, 1e6, 1.0, 0.0), "omega_0 must be finite"),
                                ((0.0, 1e6, math.nan, 0.0), "kerr must be finite"),
                                ((0.0, 1e6, 1.0, -math.inf), "cubic_damping must be finite")):
        with pytest.raises(ValueError, match=match):
            duffing_steady_states(*coefficients, 1.0, 0.0)
        with pytest.raises(ValueError, match=match):
            bistability_onset(*coefficients)
    with pytest.raises(ValueError, match="drive must be finite and >= 0"):
        duffing_steady_states(0.0, 1e6, 1.0, 0.0, -1.0, 0.0)
    with pytest.warns(UserWarning, match="negative cubic damping"):
        duffing_steady_states(0.0, 1e6, 0.0, -10.0, 1.0, 0.0)


def test_duffing_linear_limit_is_exact():
    roots = duffing_steady_states(0.0, 1e6, 0.0, 0.0, 1e15, 2e6)
    assert roots.tolist() == [1e15 / ((2e6) ** 2 + (1e6) ** 2)]


def test_duffing_branch_counts_around_the_fold():
    gamma, kerr = 1e6, -120.0
    y_star, delta_star, f_star = onset_formula(gamma, kerr, 0.0)
    params = (0.0, gamma, kerr, 0.0, 8.0 * f_star)
    counts = set()
    for omega_p in np.linspace(4.0 * delta_star, 0.0, 301):
        roots = duffing_steady_states(*params, omega_p)
        counts.add(roots.size)
        assert np.all(roots >= 0.0)
        assert np.all(np.diff(roots) >= 0.0)
    assert 3 in counts and 1 in counts
    # Far off resonance only the low branch survives.
    assert duffing_steady_states(*params, -1e9).size == 1


def test_duffing_drops_roots_without_positive_damping():
    """With g < 0 the cubic has a root pair around E = gamma/|g|; the one past
    it has negative linearized damping and is no steady state."""
    # cdmr bistability --preset nv_default --delta-hz 1.5e6 (laser off): Duffing
    # coefficients of the expanded spin shift plus the bare cavity.
    gamma, kerr, cubic = 13841971.150466992, -564.1939689009171, -273.34629836595445
    _, _, cusp_drive = onset_formula(gamma, kerr, cubic)
    drive = 1e-6 * cusp_drive
    delta = kerr * gamma / abs(cubic)
    roots = duffing_steady_states(0.0, gamma, kerr, cubic, drive, delta)
    assert roots.size == 2
    assert roots[0] == pytest.approx(1.4252e-3, rel=1e-3)
    assert roots[1] == pytest.approx(5.06305e4, rel=1e-5) and roots[1] < gamma / abs(cubic)
    for y in roots:
        assert gamma + cubic * y > 0.0
        residual = y * ((delta - kerr * y) ** 2 + (gamma + cubic * y) ** 2) - drive
        assert abs(residual) <= 1e-8 * y * ((abs(delta) + abs(kerr) * y) ** 2 + gamma**2)
    # The dropped root: the cubic's third real root, past gamma/|g|.
    c = [kerr**2 + cubic**2, 2.0 * (gamma * cubic - delta * kerr), delta**2 + gamma**2,
         -drive]
    third = max(r.real for r in np.roots(c) if abs(r.imag) <= 1e-12 * abs(r))
    assert third == pytest.approx(5.06475e4, rel=1e-5)
    assert gamma + cubic * third < 0.0
    # Far above the cusp drive every root lies past gamma/|g|: no steady state.
    assert duffing_steady_states(0.0, gamma, kerr, cubic, 100.0 * cusp_drive, 0.0).size == 0


@settings(max_examples=60, deadline=None)
@given(
    log_gamma=st.floats(min_value=4.0, max_value=8.0),
    log_kerr=st.floats(min_value=0.0, max_value=4.0),
    kerr_sign=st.booleans(),
    cubic_rel=st.floats(min_value=0.0, max_value=3.0),
    drive_rel=st.floats(min_value=1e-3, max_value=1e3),
    delta_rel=st.floats(min_value=-30.0, max_value=30.0),
)
def test_duffing_roots_satisfy_the_cubic(log_gamma, log_kerr, kerr_sign, cubic_rel,
                                         drive_rel, delta_rel):
    gamma = 10.0**log_gamma
    kerr = (1.0 if kerr_sign else -1.0) * 10.0**log_kerr
    cubic = cubic_rel * abs(kerr)
    drive = drive_rel * gamma**3 / abs(kerr)
    delta = delta_rel * gamma
    roots = duffing_steady_states(0.0, gamma, kerr, cubic, drive, delta)
    assert roots.size >= 1
    for y in roots:
        residual = y * ((delta - kerr * y) ** 2 + (gamma + cubic * y) ** 2) - drive
        scale = drive + y * ((abs(delta) + abs(kerr) * y) ** 2 + (gamma + cubic * y) ** 2)
        assert abs(residual) <= 1e-8 * scale


def test_bistability_onset_frozen_cases():
    for (gamma, kerr, cubic), (y_ref, delta_ref, drive_ref, is_onset) in ONSET_CASES.items():
        onset = bistability_onset(0.0, gamma, kerr, cubic)
        assert onset is not None
        assert onset.photon_number == pytest.approx(y_ref, rel=1e-9)
        assert onset.omega_p == pytest.approx(delta_ref, rel=1e-9)
        assert onset.drive == pytest.approx(drive_ref, rel=1e-9)
        assert onset.is_onset is is_onset


def test_bistability_onset_requires_strong_enough_kerr():
    # |K| < sqrt(3) G: the response never folds.
    assert bistability_onset(0.0, 1e6, 30.0, 40.0) is None
    with pytest.raises(ValueError, match="Kerr"):
        bistability_onset(0.0, 1e6, 0.0, 1.0)


def test_bistability_onset_offsets_by_the_carrier_frequency():
    gamma, kerr = 1e6, -120.0
    base = bistability_onset(0.0, gamma, kerr, 0.0)
    shifted = bistability_onset(TWO_PI * 2.53e9, gamma, kerr, 0.0)
    assert shifted.photon_number == pytest.approx(base.photon_number, rel=1e-9)
    assert shifted.is_onset is base.is_onset is True
    assert shifted.omega_p - TWO_PI * 2.53e9 == pytest.approx(base.omega_p, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    log_gamma=st.floats(min_value=4.0, max_value=8.0),
    log_kerr=st.floats(min_value=0.0, max_value=4.0),
    kerr_sign=st.booleans(),
    cubic_frac=st.floats(min_value=-30.0, max_value=0.95),
)
def test_bistability_onset_matches_closed_form(log_gamma, log_kerr, kerr_sign, cubic_frac):
    gamma = 10.0**log_gamma
    kerr = (1.0 if kerr_sign else -1.0) * 10.0**log_kerr
    cubic = cubic_frac * abs(kerr) / math.sqrt(3.0)
    onset = bistability_onset(0.0, gamma, kerr, cubic)
    y_ref, delta_ref, drive_ref = onset_formula(gamma, kerr, cubic)
    assert onset is not None
    assert onset.is_onset is (abs(kerr) + math.sqrt(3.0) * cubic > 0.0)
    assert onset.photon_number == pytest.approx(y_ref, rel=1e-9)
    assert onset.omega_p == pytest.approx(delta_ref, rel=1e-9)
    assert onset.drive == pytest.approx(drive_ref, rel=1e-9)
    # The cusp nulls f, f' and f'' of f(E) = E[(delta - K E)^2 + (gamma + G E)^2] - F.
    y, delta = onset.photon_number, onset.omega_p
    u, v = delta - kerr * y, gamma + cubic * y
    f = y * (u * u + v * v) - onset.drive
    f_y = u * u + v * v + 2.0 * y * (cubic * v - kerr * u)
    f_yy = 4.0 * (cubic * v - kerr * u) + 2.0 * y * (kerr**2 + cubic**2)
    scale = delta**2 + gamma**2
    assert abs(f) / onset.drive <= 1e-12
    assert abs(f_y) / scale <= 1e-12
    assert abs(f_yy) * y / scale <= 1e-12


def test_sensitivity_frozen_value_and_validation():
    value = sensitivity(-0.035, TWO_PI * 253e3, TWO_PI * 2.72, 0.565, 2.19e-7)
    assert value == pytest.approx(S_N_FROZEN, rel=1e-12)
    # Stronger thermal polarization means a better (smaller) figure.
    better = sensitivity(-0.07, TWO_PI * 253e3, TWO_PI * 2.72, 0.565, 2.19e-7)
    assert better < value
    with pytest.raises(ValueError, match="non-zero"):
        sensitivity(0.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        sensitivity(-2.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="g_s"):
        sensitivity(-0.035, 1.0, 0.0, 1.0, 1.0)
    # g_s^2 underflows to 0.
    assert sensitivity(-0.035, TWO_PI * 253e3, TWO_PI * 1e-300, 0.565, 2.19e-7) == math.inf


def test_sensitivity_is_the_shift_at_its_saturation_optimum():
    """S_N is the limit the model's own saturable shift sets at the best photon number.

    With d = delta T2, |Upsilon_s| sqrt(E_c) = n g_s^2 T2 sqrt(E_c (1 + d^2)) /
    (1 + d^2 + E_c/e_cc) peaks at E_c = e_cc (1 + d^2).  On resonance the peak is
    (n g_s / 4) sqrt(T2 / T1), so S_N times it is n sqrt(2 gamma_c) / (2 |P_zS|^(3/2))
    whatever g_s, T1 and T2 are: the T1 in S_N is the saturation.
    """
    rng = np.random.default_rng(2017)
    n_eff, gamma_c, p_zs = 1e12, TWO_PI * 253e3, -0.035
    # Log-uniform g_s (rad/s), T1 (s), T2 (s) and |delta| T2, and the sign of delta.
    draws = 10.0 ** rng.uniform([0.0, -4.0, -7.0, -1.0], [2.0, -1.0, -5.0, 1.0], size=(200, 4))
    signs = rng.choice((-1.0, 1.0), size=200)
    # One grid for every draw: the optima lie between 25 and 2.6e12 photons.
    e_c = np.logspace(0.0, 14.0, 28_001)
    step = math.log(e_c[1] / e_c[0])
    products = []
    for (g_s, t1, t2, delta_t2), sign in zip(draws, signs):
        assert 2.0 * t1 >= t2
        e_cc = critical_photon_number(g_s, t1, t2)
        for delta in (0.0, sign * delta_t2 / t2):
            scan = np.abs(ensemble_shift(n_eff, g_s, delta, t1, t2, e_c)) * np.sqrt(e_c)
            e_opt = e_cc * (1.0 + (delta * t2) ** 2)
            assert abs(math.log(e_c[np.argmax(scan)] / e_opt)) <= step, (g_s, t1, t2, delta)
            if delta == 0.0:
                shift = ensemble_shift(n_eff, g_s, 0.0, t1, t2, e_cc)
                peak = float(np.abs(shift)) * math.sqrt(e_cc)
                assert peak >= scan.max() * (1.0 - 1e-14)
                products.append(sensitivity(p_zs, gamma_c, g_s, t1, t2) * peak)
    products = np.array(products)
    assert np.ptp(products) <= 1e-12 * products.min()
    limit = n_eff * math.sqrt(2.0 * gamma_c) / (2.0 * abs(p_zs) ** 1.5)
    np.testing.assert_allclose(products, limit, rtol=1e-12)


def test_cooperativity_frozen_value_and_validation():
    n_eff = 1.23e23 * 7.6e-10 * 0.035 / 4.0
    value = cooperativity(n_eff, TWO_PI * 2.72, TWO_PI * 253e3, 1.0 / 2.19e-7)
    assert value == pytest.approx(COOP_FROZEN, rel=1e-12)
    assert cooperativity(0.0, 1.0, 1.0, 1.0) == 0.0
    with pytest.raises(ValueError, match="n_eff"):
        cooperativity(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="gamma_c"):
        cooperativity(1.0, 1.0, 0.0, 1.0)


def test_onset_record_fields():
    onset = BistabilityOnset(photon_number=1.0, omega_p=2.0, drive=3.0, is_onset=False)
    assert (onset.photon_number, onset.omega_p, onset.drive, onset.is_onset) == (1.0, 2.0, 3.0,
                                                                                  False)
