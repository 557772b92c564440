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

from .constants import HBAR


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


# Group parameters in the argument order of ``ensemble_shift``.
_SHIFT_PARAMS = ("n_eff", "g_s", "delta", "t1", "t2")


@dataclass(frozen=True)
class SpinBank:
    """Spin groups at every step of a field sweep, one (n_b, n_g) array per parameter.

    Row i holds the groups at |B| = ``b_mags[i]``, column k the group ``labels[k]``:
    one resonance line omega_s of a spin ensemble, reduced to an effective
    two-level group with detuning ``delta`` = omega_c - omega_s, coupling
    ``g_s``, ``n_eff`` polarized spins (non-negative for a thermal-like
    population) and relaxation times ``t1``, ``t2``.  Scalars broadcast.  A
    failed check names the first offending row, its |B| and its group; 2*T1 <
    T2 warns once.
    """

    b_mags: np.ndarray   # (n_b,) tesla
    labels: tuple        # (n_g,)
    delta: np.ndarray    # (n_b, n_g) rad/s, = omega_c - omega_s
    g_s: np.ndarray      # (n_b, n_g) rad/s
    n_eff: np.ndarray    # (n_b, n_g)
    t1: np.ndarray       # (n_b, n_g) s
    t2: np.ndarray       # (n_b, n_g) s

    def __post_init__(self):
        b_mags = np.asarray(self.b_mags, dtype=float)
        if b_mags.ndim != 1 or b_mags.size == 0:
            raise ValueError("b_mags must be a non-empty 1-D array")
        object.__setattr__(self, "b_mags", b_mags)
        object.__setattr__(self, "labels", tuple(self.labels))
        shape = (b_mags.size, len(self.labels))
        for name in _SHIFT_PARAMS:
            value = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, np.broadcast_to(value, shape))

        def where(index):
            row, k = divmod(int(index), shape[1])
            return f"group {self.labels[k] or '?'} at row {row} (|B| = {float(b_mags[row])!r} T)"

        t1, t2 = self.t1, self.t2
        for name, ok, condition in (
            ("t1", t1 > 0.0, "finite and positive"), ("t2", t2 > 0.0, "finite and positive"),
            ("g_s", self.g_s >= 0.0, "finite and >= 0"), ("n_eff", True, "finite"),
            ("delta", True, "finite"),
        ):
            values = getattr(self, name)
            bad = np.flatnonzero(~(ok & np.isfinite(values)))
            if bad.size:
                value = float(values.flat[bad[0]])
                raise ValueError(f"{name} must be {condition}, got {value!r} ({where(bad[0])})")
        unphysical = np.flatnonzero(2.0 * t1 < t2)
        if unphysical.size:
            i = unphysical[0]
            warnings.warn(f"{where(i)}: 2*T1 < T2 is unphysical (T1={float(t1.flat[i])!r}, "
                          f"T2={float(t2.flat[i])!r})", stacklevel=3)


def drive_rate(power_w, cavity: CavityMode):
    """Feedline power P (W) as the drive term 4 gamma_f P / (hbar omega_c), photons rad^2/s^2."""
    if np.any(np.asarray(power_w) < 0.0):
        raise ValueError("drive power must be >= 0")
    return 4.0 * cavity.gamma_f * power_w / (HBAR * cavity.omega_c)


def drive_power(rate, cavity: CavityMode):
    """Feedline power (W) of a drive term: the inverse of :func:`drive_rate`."""
    return rate * HBAR * cavity.omega_c / (4.0 * cavity.gamma_f)


def intracavity_photon_number(omega_p, power_w, cavity: CavityMode):
    """Steady-state photon number of the bare driven cavity.

        E_c = (4 gamma_f P_p / hbar omega_c) / [(omega_p - omega_c)^2 + (gamma_f + gamma_c)^2]

    The spin-induced and Kerr corrections to the photon number are
    intentionally not fed back here; the drive response is evaluated for the
    bare mode.  ``omega_p`` may be an array.
    """
    rate = drive_rate(power_w, cavity)
    detuning = np.asarray(omega_p, dtype=float) - cavity.omega_c
    return rate / (detuning**2 + (cavity.gamma_f + cavity.gamma_c) ** 2)


def ensemble_shift(n_eff, g_s, delta, t1, t2, e_c):
    """Complex cavity frequency shift from spin-ensemble groups.

    Evaluated in the rational form

        Upsilon_s = n_eff g_s^2 (delta T2^2 - i T2)
                    / (delta^2 T2^2 + 1 + 4 g_s^2 T1 T2 E_c)

    which is finite at delta = 0 and saturates toward zero as the photon
    number E_c grows.  The group parameters are those of :class:`SpinBank`;
    all arguments broadcast, and Python floats round as 1-element arrays do.
    """
    n_eff, g_s, delta, t1, t2, e_c = (np.asarray(v, dtype=float)
                                      for v in (n_eff, g_s, delta, t1, t2, e_c))
    if np.any(e_c < 0.0):
        raise ValueError("photon number must be >= 0")
    # Squares are plain products; x**2 does not always round like x*x.
    g_sq = g_s * g_s
    t2_sq = t2 * t2
    numerator = n_eff * g_sq * (delta * t2_sq - 1j * t2)
    denominator = np.asarray(delta * delta * t2_sq + 1.0 + 4.0 * g_sq * t1 * t2 * e_c)
    # numpy divides a complex by a real as this very product with the reciprocal,
    # bit for bit, but slower; taken in place, it needs no second temporary.
    return numerator * np.divide(1.0, denominator, out=denominator)


def effective_frequency(cavity: CavityMode, bank: SpinBank, e_c, rows=slice(None)):
    """Total complex cavity frequency at the field steps ``rows`` of ``bank`` (default all).

        Upsilon_eff = omega_c - i gamma_c + (K_c - i G_c) E_c + sum_groups Upsilon_s

    The result is the complex Omega_c - i Gamma_c with shape (n_rows, *e_c.shape);
    ``e_c`` may have any shape.  The groups are added one bank column at a
    time, in column order, so a row is the same whichever rows go with it.
    A bank with no groups gives the bare cavity.
    """
    e_c = np.asarray(e_c, dtype=float)
    value = np.full((bank.b_mags[rows].size, *e_c.shape),
                    cavity.omega_c - 1j * cavity.gamma_c
                    + (cavity.kerr - 1j * cavity.cubic_damping) * e_c)
    for k in range(len(bank.labels)):
        column = (rows, k) + (None,) * e_c.ndim
        value += ensemble_shift(*(getattr(bank, name)[column] for name in _SHIFT_PARAMS), e_c)
    return value


def reflectivity(omega_p, upsilon, gamma_f):
    """Power reflection coefficient of the driven port.

        R_c = [(omega_p - Omega_c)^2 + (gamma_f - Gamma_c)^2]
              / [(omega_p - Omega_c)^2 + (gamma_f + Gamma_c)^2]

    ``upsilon`` is the complex Omega_c - i Gamma_c of :func:`effective_frequency`.
    Lies in [0, 1] whenever Gamma_c >= 0.
    """
    omega, gamma = np.real(upsilon), -np.imag(upsilon)
    if np.any(gamma <= 0.0):
        raise ValueError("effective damping must be positive for a physical reflectivity")
    return cavity_reflectivity_model(omega_p, omega, gamma, gamma_f)


def cavity_reflectivity_model(omega_p, omega_c, gamma_c, gamma_f):
    """Single-mode reflectivity lineshape in linear units, the formula of :func:`reflectivity`.

    R_c of a mode at ``omega_c`` with damping ``gamma_c``; the dampings may
    have any sign, so a fit may step through negative values.
    """
    detuning_sq = (np.asarray(omega_p, dtype=float) - omega_c) ** 2
    return (detuning_sq + (gamma_f - gamma_c) ** 2) / (detuning_sq + (gamma_f + gamma_c) ** 2)


def extract_effective_resonance(omega_p, r_c):
    """Probe frequency minimizing each row of the (n_b, n_w) reflectivity matrix ``r_c``.

    Returns ``(omega_eff, flat)``: the (n_b,) frequencies and the list of the
    rows that are flat to machine precision.  Ties, flat rows included,
    resolve to the lowest frequency.
    """
    omega_p = np.asarray(omega_p, dtype=float)
    r_c = np.asarray(r_c, dtype=float)
    if omega_p.ndim != 1 or r_c.ndim != 2 or r_c.shape[1:] != omega_p.shape:
        raise ValueError("r_c must be a matrix of rows matching the 1-D omega_p")
    flat = np.flatnonzero(np.ptp(r_c, axis=1) <= 1e-15).tolist()
    return omega_p[np.argmin(r_c, axis=1)], flat


def sweep_failure(b_mags, index, exc):
    """RuntimeError naming the field step at which a sweep failed; the CLI exits 2 on it."""
    return RuntimeError(f"sweep failed at |B| = {float(b_mags[index])!r} T (row {index}): {exc}")


def sweep_lines(lines, b_mags, fields):
    """``lines(fields)``, the spin lines at a sweep's fields ``b_mags``.

    A ValueError from ``lines`` reruns it row by row, to raise
    :func:`sweep_failure` naming the first field it rejects.
    """
    try:
        return lines(fields)
    except ValueError:
        for index in range(len(fields)):
            try:
                lines(fields[index:index + 1])
            except ValueError as exc:
                raise sweep_failure(b_mags, index, exc) from exc
        raise


def cdmr_sweep(cavity: CavityMode, bank: SpinBank, omega_p, power_w, rows=slice(None)):
    """Reflectivity over (bank field step, probe frequency ``omega_p``) at feedline power (W).

    :func:`effective_frequency` at the bare-cavity photon number of each probe
    frequency, then :func:`reflectivity`.  Returns ``(r_c, omega_eff, flat)``:
    the (n_rows, n_w) R_c of the bank's field steps ``rows`` (a slice, default
    all), the (n_rows,) trace of its row minima and the list of its flat rows
    by bank row (see :func:`extract_effective_resonance`).  A row whose R_c is
    not finite or lies outside [0, 1 + 1e-12], or whose damping is not
    positive, raises :func:`sweep_failure` naming the first such row by its
    bank row, with that row's first fault in this order.
    """
    omega_p = np.asarray(omega_p, dtype=float)
    if omega_p.ndim != 1 or omega_p.size == 0:
        raise ValueError("omega_p must be a non-empty 1-D array")
    bank_rows = range(*rows.indices(bank.b_mags.size))
    value = effective_frequency(cavity, bank, intracavity_photon_number(omega_p, power_w, cavity),
                                rows)
    # R_c is defined up to the first row with a non-positive damping.
    damped, undamped = len(value), None
    try:
        r_c = reflectivity(omega_p, value, cavity.gamma_f)
    except ValueError as exc:
        damped, undamped = int(np.argmax(np.any(-np.imag(value) <= 0.0, axis=1))), exc
        r_c = reflectivity(omega_p, value[:damped], cavity.gamma_f)
    faults = [(int(np.argmin(np.all(ok, axis=1))), problem) for ok, problem in (
        (np.isfinite(r_c), "reflectivity is not finite"),
        ((r_c >= 0.0) & (r_c <= 1.0 + 1e-12), "reflectivity values must lie in [0, 1]"),
    ) if not np.all(ok)]
    if faults:
        row, problem = min(faults, key=lambda fault: fault[0])
        raise sweep_failure(bank.b_mags, bank_rows[row], problem)
    if undamped is not None:
        raise sweep_failure(bank.b_mags, bank_rows[damped], undamped) from undamped
    omega_eff, flat = extract_effective_resonance(omega_p, r_c)
    return r_c, omega_eff, [bank_rows[i] for i in flat]
