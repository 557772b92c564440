"""Weak-drive expansion, Duffing steady states and bistability onset.

Expanding the saturable spin shift to first order in the photon number turns
the dressed cavity into a Duffing oscillator with an effective Kerr
coefficient and an effective cubic damping.  The steady-state photon number
then satisfies a cubic equation whose multi-valued regime is the bistable
window.  That window opens at the cusp of the fold, which has a closed form
(Yurke & Buks 2006); see :func:`bistability_onset` for the regime where the
cusp closes the window instead.
"""

import math
import warnings
from typing import NamedTuple

import numpy as np

_REALNESS_RTOL = 1e-12


class WeakExpansion(NamedTuple):
    """First-order expansion of the spin shift in the photon number.

    Upsilon_s = omega_cs - i gamma_cs + (k_cs - i g_cs) E_c + O(E_c^2),
    with the exact ratios gamma_cs = zeta2*omega_cs and g_cs = zeta2*k_cs
    where zeta2 = 1/(delta*T2).  ``e_cc`` = 1/(4 g_s^2 T1 T2) is the critical
    (saturation) photon number that bounds the expansion, ``inf`` where 4 g_s^2 T1 T2 is 0.
    """

    omega_cs: float  # rad/s
    gamma_cs: float  # rad/s
    k_cs: float      # rad/s per photon
    g_cs: float      # rad/s per photon
    zeta2: float     # 1/(delta*T2), dimensionless
    e_cc: float      # photons


def critical_photon_number(g_s, t1, t2):
    """e_cc = 1/(4 g_s^2 T1 T2), the photons that saturate one spin; inf where 4 g^2 T1 T2 is 0."""
    inv_e_cc = 4.0 * g_s**2 * t1 * t2
    return math.inf if inv_e_cc == 0.0 else 1.0 / inv_e_cc


def weak_expansion(n_eff, g_s, delta, t1, t2):
    """Expand the shift of one spin group to first order in E_c; 2*T1 < T2 warns.

    The group is the arguments of :func:`cdmr.cavity.ensemble_shift`, in order, without
    E_c.  At delta = 0 the expansion parameter zeta2 = 1/(delta T2) is undefined: that
    raises, as does a delta T2 that underflows to 0, and the full saturable form must be
    used instead.
    """
    if 2.0 * t1 < t2:
        warnings.warn(f"2*T1 < T2 is unphysical (T1={t1!r}, T2={t2!r})", stacklevel=2)
    if delta == 0.0 or delta * t2 == 0.0:
        raise ValueError("weak expansion is undefined at zero detuning; "
                         "evaluate ensemble_shift directly")
    zeta2 = 1.0 / (delta * t2)
    lorentz = 1.0 / (1.0 + zeta2**2)
    omega_cs = n_eff * g_s**2 / delta * lorentz
    # 1/e_cc written out as 4 g^2 T1 T2 so a zero coupling stays finite.
    inv_e_cc = 4.0 * g_s**2 * t1 * t2
    k_cs = -(n_eff * g_s**2 * inv_e_cc / delta) * (zeta2 * lorentz) ** 2
    return WeakExpansion(omega_cs=omega_cs, gamma_cs=zeta2 * omega_cs, k_cs=k_cs,
                         g_cs=zeta2 * k_cs, zeta2=zeta2, e_cc=critical_photon_number(g_s, t1, t2))


def _check_duffing(omega_0, gamma_t, kerr, cubic_damping):
    """Refuse non-finite Duffing coefficients and a damping gamma_t that is not positive."""
    if not (gamma_t > 0.0 and math.isfinite(gamma_t)):
        raise ValueError(f"gamma_t must be finite and positive, got {gamma_t!r}")
    for name, value in (("omega_0", omega_0), ("kerr", kerr), ("cubic_damping", cubic_damping)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def duffing_steady_states(omega_0, gamma_t, kerr, cubic_damping, drive, omega_p):
    """Physical steady-state photon numbers E of the driven Duffing oscillator at omega_p.

    E solves E [(omega_p - omega_0 - kerr E)^2 + (gamma_t + cubic_damping E)^2] = drive,
    with rates in rad/s (per photon for ``kerr`` and ``cubic_damping``) and drive = 4
    gamma_f P_p / (hbar omega_c) in photons (rad/s)^2.  The roots come from the companion
    matrix; a root counts as real when |Im| <= 1e-12 * max(1, |root|).  Only non-negative
    roots with a positive linearized damping gamma_t + cubic_damping E are kept: a negative
    cubic damping (saturation reduces absorption; with no Kerr term it warns) drops the
    roots beyond E = gamma_t/|cubic_damping|, where the mode would amplify.  Returns a
    sorted array of up to three entries (two only exactly at a fold), empty when no root
    is damped.
    """
    _check_duffing(omega_0, gamma_t, kerr, cubic_damping)
    if not (drive >= 0.0 and math.isfinite(drive)):
        raise ValueError(f"drive must be finite and >= 0, got {drive!r}")
    if cubic_damping < 0.0 and kerr == 0.0:
        warnings.warn("negative cubic damping with no Kerr term gives runaway solutions "
                      "at large drive; check the parameter signs", stacklevel=2)
    delta = omega_p - omega_0
    c1 = delta**2 + gamma_t**2
    c3 = kerr**2 + cubic_damping**2
    if c3 == 0.0:
        # No nonlinearity: plain Lorentzian response.
        return np.array([drive / c1])
    roots = np.roots([c3, 2.0 * (gamma_t * cubic_damping - delta * kerr), c1, -drive])
    tol = _REALNESS_RTOL * np.maximum(1.0, np.abs(roots))
    real = np.maximum(roots.real[(np.abs(roots.imag) <= tol) & (roots.real >= -tol)], 0.0)
    if real.size == 0:
        # A cubic with c3 > 0 and c0 <= 0 always has a non-negative real root;
        # if the threshold filtered everything, keep the most-real candidate.
        real = np.array([max(roots[np.argmin(np.abs(roots.imag))].real, 0.0)])
    return np.sort(real[gamma_t + cubic_damping * real > 0.0])


class BistabilityOnset(NamedTuple):
    """Cusp of the steady-state fold; the bistability onset when ``is_onset``."""

    photon_number: float  # E_co
    omega_p: float        # probe frequency at onset, rad/s
    drive: float          # drive strength at onset, photons * (rad/s)^2
    # |K| + sqrt(3) g > 0.  Along the fold curve the drive's second derivative
    # at the cusp has that sign: below zero the cusp is a maximum.
    is_onset: bool


def bistability_onset(omega_0, gamma_t, kerr, cubic_damping):
    """Cusp of the fold of :func:`duffing_steady_states`, where the two fold branches merge.

    With f(E) = E[(delta - K E)^2 + (gamma + g E)^2] - drive, the cusp solves
    f = f' = f'' = 0 in closed form (Yurke & Buks, J. Lightwave Technol. 24,
    5054 (2006)):

        E_co  = 2 gamma / (sqrt(3) (|K| - sqrt(3) g))
        drive = E_co^3 (K^2 + g^2)
        delta = sign(K) (E_co / 2) (3 |K| + sqrt(3) g)

    Returns None when |K| <= sqrt(3) g: a Kerr term no stronger than that
    never folds the response.  For g > -|K|/sqrt(3) the fold through the cusp
    exists only above the cusp drive, so the cusp is the onset of
    bistability (``is_onset``).  For g <= -|K|/sqrt(3) the second derivative
    of the drive along the fold curve changes sign, and the cusp is instead
    the largest drive at which that fold survives.  A negative g also gives
    the cubic a root pair near E = gamma/|g|, where the linearized damping
    gamma + g E crosses zero; the cusp does not describe those roots.
    """
    _check_duffing(omega_0, gamma_t, kerr, cubic_damping)
    k, g = kerr, cubic_damping
    if k == 0.0:
        raise ValueError("bistability onset requires a non-zero Kerr coefficient")
    margin = abs(k) - math.sqrt(3.0) * g
    if margin <= 0.0:
        return None
    y = 2.0 * gamma_t / (math.sqrt(3.0) * margin)
    drive = y**3 * (k**2 + g**2)
    delta = math.copysign(1.0, k) * (y / 2.0) * (3.0 * abs(k) + math.sqrt(3.0) * g)
    return BistabilityOnset(photon_number=y, omega_p=omega_0 + delta, drive=drive,
                            is_onset=abs(k) + math.sqrt(3.0) * g > 0.0)


def sensitivity(p_zs_thermal, gamma_c, g_s, t1, t2):
    """Shot-noise-limited magnetometer sensitivity figure, Hz^(-1/2).

        S_N = (2 / |P_zST|^(3/2)) * sqrt((gamma_c / g_s^2) * (2 T1 / T2))

    Smaller is better; scales as the inverse of the coupling rate.  A g_s^2 that
    underflows to 0 gives inf.
    """
    if p_zs_thermal == 0.0:
        raise ValueError("thermal polarization must be non-zero")
    if not (-1.0 <= p_zs_thermal <= 1.0):
        raise ValueError(f"thermal polarization must lie in [-1, 1], got {p_zs_thermal!r}")
    for name, value in (("gamma_c", gamma_c), ("g_s", g_s), ("t1", t1), ("t2", t2)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if g_s**2 == 0.0:
        return math.inf
    return (2.0 / abs(p_zs_thermal) ** 1.5) * math.sqrt((gamma_c / g_s**2) * (2.0 * t1 / t2))


def cooperativity(n_eff, g_s, gamma_c, gamma_2):
    """Collective cooperativity C = n_eff g_s^2 / (gamma_c gamma_2).

    ``gamma_2`` is the transverse spin linewidth; the 1/T2 convention is used
    when deriving it from a coherence time.
    """
    for name, value in (("g_s", g_s), ("gamma_c", gamma_c), ("gamma_2", gamma_2)):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if not (n_eff >= 0.0 and math.isfinite(n_eff)):
        raise ValueError(f"n_eff must be finite and >= 0, got {n_eff!r}")
    return n_eff * g_s**2 / (gamma_c * gamma_2)
