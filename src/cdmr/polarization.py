"""Steady-state longitudinal relaxation of the spins under optical pumping.

The ensemble relaxes toward the thermal polarization at the lattice rate
1/T1_thermal and toward an optically induced polarization at the pumping rate
1/T1_optical.  The two channels combine into a single effective relaxation
time and a rate-weighted steady-state polarization.  Both functions take and
return plain numbers; :func:`cdmr.config.laser_level` calls them.
"""

import math

from .constants import LIGHT_SPEED, PLANCK


def optical_pumping_rate(intensity, cross_section, wavelength, efficiency):
    """1/T1_optical = efficiency * I_L * sigma * lambda / (h c), in 1/s.

    Pump intensity in W/m^2, absorption cross section in m^2, pump wavelength
    in m, and polarization events per absorbed photon.
    """
    if not (math.isfinite(intensity) and intensity >= 0.0):
        raise ValueError(f"laser intensity must be finite and >= 0, got {intensity!r}")
    for name, value in (("cross_section", cross_section), ("wavelength", wavelength),
                        ("efficiency", efficiency)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return efficiency * (intensity * cross_section * wavelength / (PLANCK * LIGHT_SPEED))


def effective_relaxation(t1_thermal, p_zs_thermal, t1_optical, p_zs_optical):
    """Combine thermal and optical relaxation channels into the effective (T1, P_zS).

    Rates add, 1/T1 = 1/T1_thermal + 1/T1_optical, and the steady-state
    polarization is the rate-weighted mean of the two target polarizations.
    ``t1_optical`` may be ``math.inf`` (laser off).  A channel whose rate is 0
    leaves the other channel's T1 and P_zS exactly as given, which 1/(1/T1)
    would not.  Symmetric under exchange of the two channels.  A combined T1
    that is not finite and positive (a subnormal T1's rate overflows) raises.
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
    if not (t1 > 0.0 and math.isfinite(t1)):
        raise ValueError(f"effective T1 must be finite and positive, got {t1!r}")
    if not (-1.0 <= p_zs <= 1.0):
        raise ValueError(f"p_zs must lie in [-1, 1], got {p_zs!r}")
    return t1, p_zs
