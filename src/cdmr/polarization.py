"""Steady-state longitudinal spin polarization under thermal and optical pumping.

The ensemble relaxes toward the thermal polarization at the lattice rate
1/T1_thermal and toward an optically induced polarization at the pumping rate
1/T1_optical.  The two channels combine into a single effective relaxation
time and a rate-weighted steady-state polarization.
"""

import math
from dataclasses import dataclass

from .constants import HBAR, K_B, LIGHT_SPEED, PLANCK


@dataclass(frozen=True)
class OpticalParams:
    """Green-pumping parameters for the optically induced spin polarization."""

    intensity: float            # W / m^2
    cross_section: float = 3e-21   # absorption cross section, m^2
    wavelength: float = 532e-9     # pump wavelength, m
    efficiency: float = 0.16       # polarization events per absorbed photon

    def __post_init__(self):
        if not (math.isfinite(self.intensity) and self.intensity >= 0.0):
            raise ValueError(f"laser intensity must be finite and >= 0, got {self.intensity!r}")
        for name in ("cross_section", "wavelength", "efficiency"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class RelaxationState:
    """Effective longitudinal relaxation and its two contributing channels."""

    t1: float          # effective relaxation time, s
    p_zs: float        # steady-state polarization, dimensionless
    t1_thermal: float  # s
    p_zs_thermal: float
    t1_optical: float  # s, may be inf when the laser is off
    p_zs_optical: float

    def __post_init__(self):
        if not (self.t1 > 0.0 and math.isfinite(self.t1)):
            raise ValueError(f"effective T1 must be finite and positive, got {self.t1!r}")
        for name in ("p_zs", "p_zs_thermal", "p_zs_optical"):
            value = getattr(self, name)
            if not (-1.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [-1, 1], got {value!r}")


def thermal_polarization(omega_s, temperature):
    """Thermal-equilibrium longitudinal polarization -tanh(hbar*omega_s / 2kT).

    ``omega_s`` is the spin transition frequency in rad/s.  Negative because
    the population favors the lower level.
    """
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ValueError(f"temperature must be finite and positive, got {temperature!r}")
    if not (math.isfinite(omega_s) and omega_s >= 0.0):
        raise ValueError(f"omega_s must be finite and >= 0, got {omega_s!r}")
    return -math.tanh(HBAR * omega_s / (2.0 * K_B * temperature))


def optical_absorption_rate(optical: OpticalParams):
    """Photon absorption rate per defect, I_L * sigma * lambda / (h c), in 1/s."""
    return optical.intensity * optical.cross_section * optical.wavelength / (PLANCK * LIGHT_SPEED)


def optical_pumping_rate(optical: OpticalParams):
    """Optically induced relaxation rate 1/T1_optical = efficiency * absorption rate."""
    return optical.efficiency * optical_absorption_rate(optical)


def effective_relaxation(t1_thermal, p_zs_thermal, t1_optical, p_zs_optical):
    """Combine thermal and optical relaxation channels.

    Rates add, 1/T1 = 1/T1_thermal + 1/T1_optical, and the steady-state
    polarization is the rate-weighted mean of the two target polarizations.
    ``t1_optical`` may be ``math.inf`` (laser off).  A channel whose rate is 0
    leaves the other channel's T1 and P_zS exactly as given, which 1/(1/T1)
    would not.  Symmetric under exchange of the two channels.
    """
    for name, t in (("t1_thermal", t1_thermal), ("t1_optical", t1_optical)):
        if not t > 0.0:
            raise ValueError(f"{name} must be positive, got {t!r}")
    for name, p in (("p_zs_thermal", p_zs_thermal), ("p_zs_optical", p_zs_optical)):
        if not (-1.0 <= p <= 1.0):
            raise ValueError(f"{name} must lie in [-1, 1], got {p!r}")
    rate_thermal = 1.0 / t1_thermal
    rate_optical = 1.0 / t1_optical  # 0 for t1_optical = inf
    total_rate = rate_thermal + rate_optical
    if total_rate == 0.0:
        raise ValueError("both relaxation channels have zero rate; T1 undefined")
    if rate_optical == 0.0:
        t1, p_zs = t1_thermal, p_zs_thermal
    elif rate_thermal == 0.0:
        t1, p_zs = t1_optical, p_zs_optical
    else:
        t1 = 1.0 / total_rate
        p_zs = (rate_thermal * p_zs_thermal + rate_optical * p_zs_optical) / total_rate
    return RelaxationState(
        t1=t1,
        p_zs=p_zs,
        t1_thermal=t1_thermal,
        p_zs_thermal=p_zs_thermal,
        t1_optical=t1_optical,
        p_zs_optical=p_zs_optical,
    )

