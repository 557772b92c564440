"""Optical pumping and effective relaxation checks.

Frozen values computed with a standalone script from the defining formulas.
"""

import math

import pytest
from hypothesis import given, strategies as st

from cdmr.spins import effective_relaxation, optical_pumping_rate

ABSORPTION_AT_3E4 = 241.03350125394493      # 1/s, sigma=3e-21, lambda=532nm
PUMPING_AT_3E4 = 38.56536020063119          # 1/s, efficiency 0.16
# Thermal channel (T1=0.023 s, p=-0.035) combined with the pump at three intensities.
COMBINED = {
    5600.0: (0.01973276776632391, -0.10815759131926903),
    12800.0: (0.016685350211268737, -0.17639324526941746),
    30000.0: (0.012188638031278525, -0.2770804962561548),
}
# The preset optical parameters: cross section (m^2), wavelength (m), efficiency.
OPTICAL = (3e-21, 532e-9, 0.16)


def test_optical_rates_frozen_values():
    # At unit efficiency the pumping rate is the absorption rate itself.
    assert optical_pumping_rate(3e4, 3e-21, 532e-9, 1.0) == pytest.approx(ABSORPTION_AT_3E4, rel=1e-14)
    assert optical_pumping_rate(3e4, *OPTICAL) == pytest.approx(PUMPING_AT_3E4, rel=1e-14)


def test_optical_rates_scale_linearly_with_intensity():
    one = optical_pumping_rate(1.0, *OPTICAL)
    assert optical_pumping_rate(750.0, *OPTICAL) == pytest.approx(750.0 * one, rel=1e-12)


def test_optical_params_validation():
    assert optical_pumping_rate(0.0, *OPTICAL) == 0.0  # laser off is a valid parameter set
    with pytest.raises(ValueError, match="laser intensity must be finite and >= 0, got -1.0"):
        optical_pumping_rate(-1.0, *OPTICAL)
    with pytest.raises(ValueError, match="laser intensity must be finite and >= 0, got inf"):
        optical_pumping_rate(math.inf, *OPTICAL)
    with pytest.raises(ValueError, match="cross_section must be finite and positive, got 0.0"):
        optical_pumping_rate(1.0, 0.0, 532e-9, 0.16)
    with pytest.raises(ValueError, match="wavelength must be finite and positive, got nan"):
        optical_pumping_rate(1.0, 3e-21, math.nan, 0.16)
    with pytest.raises(ValueError, match="efficiency must be finite and positive, got inf"):
        optical_pumping_rate(1.0, 3e-21, 532e-9, math.inf)


def test_effective_relaxation_laser_off_keeps_thermal_values():
    # 1/(1/0.47) is 0.47000000000000003: a lone channel must keep its T1 as given,
    # whichever of the two it is.
    for t1 in (0.565, 0.47):
        for state in (effective_relaxation(t1, -0.035, math.inf, 0.0),
                      effective_relaxation(math.inf, 0.0, t1, -0.035)):
            assert state == (t1, -0.035)


@pytest.mark.parametrize("intensity", sorted(COMBINED))
def test_effective_relaxation_frozen_combinations(intensity):
    rate = optical_pumping_rate(intensity, *OPTICAL)
    t1, p_zs = effective_relaxation(0.023, -0.035, 1.0 / rate, -0.55)
    assert t1 == pytest.approx(COMBINED[intensity][0], rel=1e-13)
    assert p_zs == pytest.approx(COMBINED[intensity][1], rel=1e-13)


finite_t1 = st.floats(min_value=1e-6, max_value=1e3)
pol = st.floats(min_value=-1.0, max_value=1.0)


@given(finite_t1, pol, finite_t1, pol)
def test_effective_relaxation_symmetric_and_bounded(t1_a, p_a, t1_b, p_b):
    t1, p_zs = effective_relaxation(t1_a, p_a, t1_b, p_b)
    t1_swapped, p_zs_swapped = effective_relaxation(t1_b, p_b, t1_a, p_a)
    assert t1 == pytest.approx(t1_swapped, rel=1e-12)
    assert p_zs == pytest.approx(p_zs_swapped, rel=1e-9, abs=1e-12)
    # Adding a channel only relaxes faster, and the steady state interpolates.
    assert t1 <= min(t1_a, t1_b) * (1.0 + 1e-12)
    assert min(p_a, p_b) - 1e-12 <= p_zs <= max(p_a, p_b) + 1e-12


def test_effective_relaxation_rejects_bad_channels():
    with pytest.raises(ValueError, match="t1_thermal"):
        effective_relaxation(0.0, -0.1, 1.0, -0.5)
    with pytest.raises(ValueError, match="p_zs_optical"):
        effective_relaxation(1.0, -0.1, 1.0, -1.5)
    with pytest.raises(ValueError, match="zero rate"):
        effective_relaxation(math.inf, -0.1, math.inf, -0.5)


def test_relaxation_state_validation():
    # A subnormal T1 overflows its rate, and the combined T1 rounds to 0.
    with pytest.raises(ValueError, match="effective T1 must be finite and positive, got 0.0"):
        effective_relaxation(5e-324, -0.1, 1.0, -0.5)
    with pytest.raises(ValueError, match="effective T1 must be finite and positive, got 0.0"):
        effective_relaxation(1.0, -0.1, 5e-324, -0.5)
    with pytest.raises(ValueError, match=r"p_zs_thermal must lie in \[-1, 1\], got 1.5"):
        effective_relaxation(1.0, 1.5, math.inf, 0.0)


def test_drift_rate_vanishes_at_steady_state():
    t1_optical = 1.0 / optical_pumping_rate(30000.0, *OPTICAL)
    t1, p_zs = effective_relaxation(0.023, -0.035, t1_optical, -0.55)

    def drift(p_z):
        # The rate equation dp_z/dt of both relaxation channels.
        return -(p_z - -0.035) / 0.023 - (p_z - -0.55) / t1_optical

    assert abs(drift(p_zs)) < 1e-10 / t1
    # Relaxation pushes back toward the steady state from either side.
    assert drift(p_zs - 0.01) > 0.0
    assert drift(p_zs + 0.01) < 0.0
