"""Thermal and optically pumped polarization checks.

Frozen values computed with a standalone script from the defining formulas.
"""

import math

import pytest
from hypothesis import given, strategies as st

from cdmr.constants import TWO_PI
from cdmr.polarization import (
    OpticalParams,
    RelaxationState,
    effective_relaxation,
    optical_absorption_rate,
    optical_pumping_rate,
    thermal_polarization,
)

THERMAL_AT_31K = -0.01958150469036801       # omega = 2pi*2.53e9, T = 3.1 K
ABSORPTION_AT_3E4 = 241.03350125394493      # 1/s, sigma=3e-21, lambda=532nm
PUMPING_AT_3E4 = 38.56536020063119          # 1/s, efficiency 0.16
# Thermal channel (T1=0.023 s, p=-0.035) combined with the pump at three intensities.
COMBINED = {
    5600.0: (0.01973276776632391, -0.10815759131926903),
    12800.0: (0.016685350211268737, -0.17639324526941746),
    30000.0: (0.012188638031278525, -0.2770804962561548),
}


def test_thermal_polarization_frozen_value():
    assert thermal_polarization(TWO_PI * 2.53e9, 3.1) == pytest.approx(THERMAL_AT_31K, rel=1e-14)


def test_thermal_polarization_limits():
    assert thermal_polarization(0.0, 1.0) == 0.0
    assert -1.0 < thermal_polarization(TWO_PI * 1e12, 10.0) < -0.9
    # tanh saturates in float for extreme ratios; the bound must still hold.
    assert thermal_polarization(TWO_PI * 1e14, 0.001) >= -1.0


def test_thermal_polarization_monotonicity():
    # More negative with frequency, toward zero with temperature.
    omega = TWO_PI * 2.53e9
    assert thermal_polarization(2 * omega, 3.1) < thermal_polarization(omega, 3.1)
    assert thermal_polarization(omega, 300.0) > thermal_polarization(omega, 3.1)


def test_thermal_polarization_rejects_bad_inputs():
    with pytest.raises(ValueError, match="temperature"):
        thermal_polarization(TWO_PI * 1e9, 0.0)
    with pytest.raises(ValueError, match="temperature"):
        thermal_polarization(TWO_PI * 1e9, -4.0)
    with pytest.raises(ValueError, match="omega_s"):
        thermal_polarization(-1.0, 3.1)


def test_optical_rates_frozen_values():
    optical = OpticalParams(intensity=3e4)
    assert optical_absorption_rate(optical) == pytest.approx(ABSORPTION_AT_3E4, rel=1e-14)
    assert optical_pumping_rate(optical) == pytest.approx(PUMPING_AT_3E4, rel=1e-14)


def test_optical_rates_scale_linearly_with_intensity():
    one = optical_pumping_rate(OpticalParams(intensity=1.0))
    assert optical_pumping_rate(OpticalParams(intensity=750.0)) == pytest.approx(750.0 * one, rel=1e-12)


def test_optical_params_validation():
    OpticalParams(intensity=0.0)  # laser off is a valid parameter set
    with pytest.raises(ValueError, match="intensity"):
        OpticalParams(intensity=-1.0)
    with pytest.raises(ValueError, match="cross_section"):
        OpticalParams(intensity=1.0, cross_section=0.0)
    with pytest.raises(ValueError, match="efficiency"):
        OpticalParams(intensity=1.0, efficiency=math.inf)


def test_effective_relaxation_laser_off_keeps_thermal_values():
    # 1/(1/0.47) is 0.47000000000000003: a lone channel must keep its T1 as given,
    # whichever of the two it is.
    for t1 in (0.565, 0.47):
        for state in (effective_relaxation(t1, -0.035, math.inf, 0.0),
                      effective_relaxation(math.inf, 0.0, t1, -0.035)):
            assert state.t1 == t1
            assert state.p_zs == -0.035


@pytest.mark.parametrize("intensity", sorted(COMBINED))
def test_effective_relaxation_frozen_combinations(intensity):
    rate = optical_pumping_rate(OpticalParams(intensity=intensity))
    state = effective_relaxation(0.023, -0.035, 1.0 / rate, -0.55)
    t1, p_zs = COMBINED[intensity]
    assert state.t1 == pytest.approx(t1, rel=1e-13)
    assert state.p_zs == pytest.approx(p_zs, rel=1e-13)


finite_t1 = st.floats(min_value=1e-6, max_value=1e3)
pol = st.floats(min_value=-1.0, max_value=1.0)


@given(finite_t1, pol, finite_t1, pol)
def test_effective_relaxation_symmetric_and_bounded(t1_a, p_a, t1_b, p_b):
    forward = effective_relaxation(t1_a, p_a, t1_b, p_b)
    swapped = effective_relaxation(t1_b, p_b, t1_a, p_a)
    assert forward.t1 == pytest.approx(swapped.t1, rel=1e-12)
    assert forward.p_zs == pytest.approx(swapped.p_zs, rel=1e-9, abs=1e-12)
    # Adding a channel only relaxes faster, and the steady state interpolates.
    assert forward.t1 <= min(t1_a, t1_b) * (1.0 + 1e-12)
    assert min(p_a, p_b) - 1e-12 <= forward.p_zs <= max(p_a, p_b) + 1e-12


def test_effective_relaxation_rejects_bad_channels():
    with pytest.raises(ValueError, match="t1_thermal"):
        effective_relaxation(0.0, -0.1, 1.0, -0.5)
    with pytest.raises(ValueError, match="p_zs_optical"):
        effective_relaxation(1.0, -0.1, 1.0, -1.5)
    with pytest.raises(ValueError, match="zero rate"):
        effective_relaxation(math.inf, -0.1, math.inf, -0.5)


def test_relaxation_state_validation():
    with pytest.raises(ValueError, match="T1"):
        RelaxationState(t1=0.0, p_zs=0.0, t1_thermal=1.0, p_zs_thermal=0.0,
                        t1_optical=math.inf, p_zs_optical=0.0)
    with pytest.raises(ValueError, match="p_zs"):
        RelaxationState(t1=1.0, p_zs=1.5, t1_thermal=1.0, p_zs_thermal=0.0,
                        t1_optical=math.inf, p_zs_optical=0.0)


def test_drift_rate_vanishes_at_steady_state():
    rate = optical_pumping_rate(OpticalParams(intensity=30000.0))
    state = effective_relaxation(0.023, -0.035, 1.0 / rate, -0.55)

    def drift(p_z):
        # The rate equation dp_z/dt of both relaxation channels.
        return (-(p_z - state.p_zs_thermal) / state.t1_thermal
                - (p_z - state.p_zs_optical) / state.t1_optical)

    assert abs(drift(state.p_zs)) < 1e-10 / state.t1
    # Relaxation pushes back toward the steady state from either side.
    assert drift(state.p_zs - 0.01) > 0.0
    assert drift(state.p_zs + 0.01) < 0.0
