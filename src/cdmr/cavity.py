"""Spin-dressed cavity response: complex frequency shifts and reflectivity.

A driven cavity mode acquires a complex frequency shift from each coupled
spin-ensemble group.  The shift saturates with the intracavity photon number,
which is what makes the reflectivity nonlinear in the drive power.  All
frequencies are angular (rad/s).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_CONSTANTS, PhysicalConstants


@dataclass(frozen=True)
class CavityMode:
    """Intrinsic cavity parameters.

    ``kerr`` and ``cubic_damping`` are the intrinsic per-photon nonlinear
    coefficients of the bare mode (rad/s per photon); the spin-induced
    nonlinearity is separate and computed from the ensembles.
    """

    omega_c: float          # resonance, rad/s
    gamma_c: float          # intrinsic damping, rad/s
    gamma_f: float          # feedline (external) coupling rate, rad/s
    kerr: float = 0.0       # rad/s per photon
    cubic_damping: float = 0.0  # rad/s per photon, >= 0

    def __post_init__(self):
        if not (self.omega_c > 0.0 and math.isfinite(self.omega_c)):
            raise ValueError(f"omega_c must be finite and positive, got {self.omega_c!r}")
        for name in ("gamma_c", "gamma_f"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not math.isfinite(self.kerr):
            raise ValueError(f"kerr must be finite, got {self.kerr!r}")
        if not (self.cubic_damping >= 0.0 and math.isfinite(self.cubic_damping)):
            raise ValueError(f"cubic_damping must be finite and >= 0, got {self.cubic_damping!r}")


@dataclass(frozen=True)
class SpinEnsembleGroup:
    """One resonance line of a spin ensemble, reduced to an effective two-level group.

    ``n_eff`` is the effective number of polarized spins behind this line
    (non-negative for a thermal-like population); ``delta`` is the
    cavity-minus-spin detuning omega_c - omega_s.
    """

    omega_s: float  # rad/s
    delta: float    # rad/s, = omega_c - omega_s
    g_s: float      # rad/s
    n_eff: float
    t1: float       # s
    t2: float       # s
    label: str = ""

    def __post_init__(self):
        for name in ("t1", "t2"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not (self.g_s >= 0.0 and math.isfinite(self.g_s)):
            raise ValueError(f"g_s must be finite and >= 0, got {self.g_s!r}")
        if not math.isfinite(self.n_eff):
            raise ValueError(f"n_eff must be finite, got {self.n_eff!r}")
        if 2.0 * self.t1 < self.t2:
            warnings.warn(
                f"group {self.label or '?'}: 2*T1 < T2 is unphysical "
                f"(T1={self.t1!r}, T2={self.t2!r})",
                stacklevel=2,
            )

    @property
    def e_cc(self):
        """Critical (saturation) photon number 1/(4 g_s^2 T1 T2)."""
        if self.g_s == 0.0:
            return math.inf
        return 1.0 / (4.0 * self.g_s**2 * self.t1 * self.t2)


@dataclass(frozen=True)
class ComplexShift:
    """Complex effective cavity frequency Omega_c - i*Gamma_c."""

    value: complex

    @property
    def omega(self):
        return np.real(self.value)

    @property
    def gamma(self):
        return -np.imag(self.value)


def intracavity_photon_number(omega_p, power_w, cavity: CavityMode,
                              constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Steady-state photon number of the bare driven cavity.

        E_c = (4 gamma_f P_p / hbar omega_c) / [(omega_p - omega_c)^2 + (gamma_f + gamma_c)^2]

    The spin-induced and Kerr corrections to the photon number are
    intentionally not fed back here; the drive response is evaluated for the
    bare mode.  ``omega_p`` may be an array.
    """
    if np.any(np.asarray(power_w) < 0.0):
        raise ValueError("drive power must be >= 0")
    detuning = np.asarray(omega_p, dtype=float) - cavity.omega_c
    rate = 4.0 * cavity.gamma_f * power_w / (constants.hbar * cavity.omega_c)
    return rate / (detuning**2 + (cavity.gamma_f + cavity.gamma_c) ** 2)


def _shift(n_eff, g_s, delta, t1, t2, e_c):
    # Squares are plain products: they round the same for Python floats and
    # numpy arrays, so scalar and broadcast callers agree bit for bit.
    g_sq = g_s * g_s
    t2_sq = t2 * t2
    numerator = n_eff * g_sq * (delta * t2_sq - 1j * t2)
    denominator = delta * delta * t2_sq + 1.0 + 4.0 * g_sq * t1 * t2 * e_c
    return numerator / denominator


def ensemble_shift(group: SpinEnsembleGroup, e_c):
    """Complex cavity frequency shift from one spin-ensemble group.

    Evaluated in the rational form

        Upsilon_s = n_eff g_s^2 (delta T2^2 - i T2)
                    / (delta^2 T2^2 + 1 + 4 g_s^2 T1 T2 E_c)

    which is finite at delta = 0 and saturates toward zero as the photon
    number E_c grows.  ``e_c`` may be an array; the result broadcasts.
    """
    e_c = np.asarray(e_c, dtype=float)
    if np.any(e_c < 0.0):
        raise ValueError("photon number must be >= 0")
    return _shift(group.n_eff, group.g_s, group.delta, group.t1, group.t2, e_c)


def per_spin_shift(g_n, delta_n, t1, t2, p_z, e_c):
    """Complex cavity shift from a single spin with local coupling g_n.

        Upsilon_n = -g_n^2 p_z (delta_n T2^2 - i T2)
                    / (delta_n^2 T2^2 + 1 + 4 g_n^2 T1 T2 E_c)

    This is :func:`ensemble_shift` with n_eff = -p_z, so summing it over n
    identical spins with p_z < 0 reproduces n_eff = -n*p_z.
    """
    if not (t1 > 0.0 and t2 > 0.0):
        raise ValueError("t1 and t2 must be positive")
    return _shift(-p_z, g_n, delta_n, t1, t2, np.asarray(e_c, dtype=float))


def _bare_frequency(cavity: CavityMode, e_c):
    return (
        cavity.omega_c
        - 1j * cavity.gamma_c
        + (cavity.kerr - 1j * cavity.cubic_damping) * e_c
    )


def effective_frequency(cavity: CavityMode, groups, e_c):
    """Total complex cavity frequency including intrinsic nonlinearity and spins.

        Upsilon_eff = omega_c - i gamma_c + (K_c - i G_c) E_c + sum_groups Upsilon_s
    """
    e_c = np.asarray(e_c, dtype=float)
    value = _bare_frequency(cavity, e_c)
    for group in groups:
        value = value + ensemble_shift(group, e_c)
    return ComplexShift(value=value)


def reflectivity(omega_p, shift: ComplexShift, gamma_f):
    """Power reflection coefficient of the driven port.

        R_c = [(omega_p - Omega_c)^2 + (gamma_f - Gamma_c)^2]
              / [(omega_p - Omega_c)^2 + (gamma_f + Gamma_c)^2]

    Lies in [0, 1] whenever Gamma_c >= 0.
    """
    if np.any(np.asarray(shift.gamma) <= 0.0):
        raise ValueError("effective damping must be positive for a physical reflectivity")
    return _reflectivity(omega_p, shift.omega, shift.gamma, gamma_f)


def _reflectivity(omega_p, omega, gamma, gamma_f):
    """R_c of a mode at ``omega`` with damping ``gamma``; the dampings may have any sign."""
    detuning_sq = (np.asarray(omega_p, dtype=float) - omega) ** 2
    return (detuning_sq + (gamma_f - gamma) ** 2) / (detuning_sq + (gamma_f + gamma) ** 2)


def reflectivity_db(r_c):
    """Reflectivity in dB, 10*log10(R_c)."""
    return 10.0 * np.log10(r_c)


@dataclass(frozen=True)
class SweepResult:
    """Reflectivity map over (field magnitude, probe frequency)."""

    b_mags: np.ndarray    # (n_b,) tesla
    omega_p: np.ndarray   # (n_w,) rad/s
    r_c: np.ndarray       # (n_b, n_w)
    omega_eff: np.ndarray  # (n_b,) rad/s, reflectivity-minimum trace
    power_w: float

    def __post_init__(self):
        if self.r_c.shape != (self.b_mags.size, self.omega_p.size):
            raise ValueError("reflectivity matrix shape does not match the axes")
        if np.any(self.r_c < 0.0) or np.any(self.r_c > 1.0 + 1e-12):
            raise ValueError("reflectivity values must lie in [0, 1]")


def extract_effective_resonance(omega_p, r_row):
    """Probe frequency minimizing one reflectivity row.

    Ties resolve to the lowest frequency.  A row that is flat to machine
    precision triggers a degenerate-minimum warning and likewise returns the
    lowest frequency.
    """
    omega_p = np.asarray(omega_p, dtype=float)
    r_row = np.asarray(r_row, dtype=float)
    if omega_p.shape != r_row.shape or omega_p.ndim != 1:
        raise ValueError("omega_p and r_row must be matching 1-D arrays")
    if np.max(r_row) - np.min(r_row) <= 1e-15:
        warnings.warn("reflectivity row is flat; effective resonance is degenerate", stacklevel=2)
    return float(omega_p[int(np.argmin(r_row))])


def cdmr_sweep(cavity: CavityMode, group_fn, omega_p, b_mags, b_hat, power_w,
               constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """Reflectivity map over a field sweep at fixed drive power.

    The shift and reflectivity are evaluated once over the whole
    (field, probe) grid.  Groups are added in list order, so every row is
    bit for bit what :func:`effective_frequency` and :func:`reflectivity`
    give for that field step alone.

    Parameters
    ----------
    cavity : CavityMode
    group_fn : callable
        ``group_fn(b_vector) -> sequence of SpinEnsembleGroup`` evaluated at
        every field step; an empty sequence gives the bare cavity, and the
        number of groups may change from step to step.
    omega_p : array_like
        Probe angular frequencies, rad/s.
    b_mags : array_like
        Field magnitudes, tesla.
    b_hat : array_like, shape (3,)
        Field direction (normalized internally).
    power_w : float
        Drive power at the feedline, W.

    Returns
    -------
    SweepResult
    """
    omega_p = np.asarray(omega_p, dtype=float)
    b_mags = np.asarray(b_mags, dtype=float)
    if omega_p.ndim != 1 or b_mags.ndim != 1 or omega_p.size == 0 or b_mags.size == 0:
        raise ValueError("omega_p and b_mags must be non-empty 1-D arrays")
    b_hat = np.asarray(b_hat, dtype=float)
    norm = np.linalg.norm(b_hat)
    if b_hat.shape != (3,) or norm == 0.0:
        raise ValueError("b_hat must be a non-zero 3-vector")
    b_hat = b_hat / norm

    e_c = intracavity_photon_number(omega_p, power_w, cavity, constants)

    def failure(index, exc):
        return RuntimeError(f"sweep failed at |B| = {b_mags[index]!r} T (row {index}): {exc}")

    rows = []
    for index, b_mag in enumerate(b_mags):
        try:
            rows.append([(g.n_eff, g.g_s, g.delta, g.t1, g.t2) for g in group_fn(b_mag * b_hat)])
        except Exception as exc:
            raise failure(index, exc) from exc

    value = np.broadcast_to(_bare_frequency(cavity, e_c), (b_mags.size, omega_p.size))
    # Group k of every row as (n_b, 1) parameter columns; a row with fewer
    # groups gets an inert one (n_eff = 0), whose shift is exactly zero.
    inert = (0.0, 0.0, 0.0, 1.0, 1.0)
    for k in range(max(map(len, rows))):
        params = np.array([row[k] if k < len(row) else inert for row in rows], dtype=float)
        value = value + _shift(*params.T[..., None], e_c)
    shift = ComplexShift(value=value)
    try:
        r_c = reflectivity(omega_p, shift, cavity.gamma_f)
    except ValueError as exc:
        raise failure(int(np.argmax(np.any(shift.gamma <= 0.0, axis=1))), exc) from exc
    r_c = np.clip(r_c, 0.0, 1.0)
    omega_eff = np.array([extract_effective_resonance(omega_p, r_c[i]) for i in range(b_mags.size)])
    return SweepResult(b_mags=b_mags, omega_p=omega_p, r_c=r_c, omega_eff=omega_eff, power_w=float(power_w))
