"""Least-squares extraction of model parameters from spectra and traces.

Three fitters share one result type: field orientation angles from sets of
resonance lines, cavity lineshape parameters from a reflectivity trace, and
Lorentzian dip parameters (center, FWHM, depth, offset) from a single-dip
trace.  All use damped least squares with numeric Jacobians and are
deterministic for a given dataset and starting point; datasets are
canonicalized (sorted) on entry so record order does not matter.
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cavity import _reflectivity
from .constants import DEFAULT_CONSTANTS, TWO_PI, PhysicalConstants
from .spins import FieldOrientation, nv_transition_frequencies

_FTOL = 1e-10
_XTOL = 1e-10
_MAX_NFEV = 2000  # LM costs (n_params + 1) evaluations per iteration


def least_squares(fun, x0, **kwargs):
    """``scipy.optimize.least_squares``, imported on first call.

    Importing scipy.optimize costs a few tenths of a second, which commands
    that fit nothing should not pay.  The fits look this name up at call
    time, so it can be wrapped or replaced on the module.
    """
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(fun, x0, **kwargs)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit.

    ``residual_norm`` is relative: ||model - data|| / ||data||.
    ``iterations`` counts residual evaluations (``nfev``), summed over every
    refit of the fit.
    ``covariance`` rows/columns follow the order of ``parameter_order``;
    unidentifiable directions show up as very large variances rather than
    being truncated away.
    """

    parameters: dict
    residual_norm: float
    iterations: int
    converged: bool
    parameter_order: tuple = ()
    covariance: np.ndarray | None = None
    message: str = ""


@dataclass(frozen=True)
class OdmrDataset:
    """Resonance-line observations: (|B| in tesla, line frequencies in rad/s)."""

    records: tuple

    def __post_init__(self):
        if len(self.records) == 0:
            raise ValueError("dataset must contain at least one record")
        canonical = []
        for b_mag, lines in self.records:
            b_mag = float(b_mag)
            if not (math.isfinite(b_mag) and b_mag >= 0.0):
                raise ValueError(f"field magnitude must be finite and >= 0, got {b_mag!r}")
            lines = tuple(sorted(float(f) for f in lines))
            if len(lines) == 0:
                raise ValueError("each record needs at least one line frequency")
            for f in lines:
                if not (math.isfinite(f) and f > 0.0):
                    raise ValueError(f"line frequencies must be finite and positive, got {f!r}")
            canonical.append((b_mag, lines))
        canonical.sort(key=lambda rec: rec[0])
        object.__setattr__(self, "records", tuple(canonical))


def _covariance(jac, cost, n_residuals, n_params):
    """Error covariance from the solution Jacobian.

    sigma^2 estimated from the residual variance; singular values are floored
    rather than truncated so flat (unidentifiable) parameter combinations get
    huge variances instead of misleadingly small ones.
    """
    dof = max(n_residuals - n_params, 1)
    sigma_sq = 2.0 * cost / dof
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    floor = max(s[0], 1.0) * 1e-150
    s_inv_sq = 1.0 / np.maximum(s, floor) ** 2
    return (vt.T * s_inv_sq) @ vt * sigma_sq


def _result_from_scipy(res, names, data_norm):
    cov = _covariance(res.jac, res.cost, res.fun.size, res.x.size)
    return FitResult(
        parameters=dict(zip(names, (float(v) for v in res.x))),
        residual_norm=float(np.linalg.norm(res.fun) / max(data_norm, np.finfo(float).tiny)),
        iterations=int(res.nfev),
        converged=bool(res.status > 0),
        parameter_order=tuple(names),
        covariance=cov,
        message=str(res.message),
    )


def _nv_branch_frequencies(angles, b_mags, constants):
    """All 8 NV branches (4 axes x two transitions), one row per field magnitude."""
    b_hat = FieldOrientation(angles[0], angles[1], angles[2], 1.0).unit_vector()
    table = nv_transition_frequencies(b_mags[:, None] * b_hat, constants)
    return np.concatenate([table.omega_minus, table.omega_plus], axis=1)


def _assign_lines(model, rows, observed):
    """Nearest-branch index for every observed line; ``rows`` maps line -> record."""
    return np.argmin(np.abs(model[rows] - observed[:, None]), axis=1)


def fit_orientation(
    dataset: OdmrDataset,
    initial_angles,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
):
    """Fit field orientation angles (theta_x, theta_y, theta_z) to observed lines.

    Needs at least three distinct field magnitudes with two or more lines
    each.  Observed lines are matched to the nearest model branch at the
    starting point and that assignment is held fixed during the fit; one
    re-assignment pass runs at convergence and triggers a single refit when
    the matching changed.

    The spectra depend on the field direction only, which has two degrees of
    freedom, so the three angles over-parameterize the problem: theta_z is
    held at its initial value as the gauge choice and (theta_x, theta_y) are
    optimized.  The returned minimum is a minimum of the full three-angle
    objective; theta_z covariance entries are zero because it is not
    estimated.
    """
    b_values = {b for b, _ in dataset.records}
    if len(b_values) < 3:
        raise ValueError(
            f"orientation fit needs >= 3 distinct field magnitudes, got {len(b_values)}"
        )
    for b_mag, lines in dataset.records:
        if len(lines) < 2:
            raise ValueError(
                f"orientation fit needs >= 2 lines per record, record at |B|={b_mag} has {len(lines)}"
            )
    initial = np.asarray(initial_angles, dtype=float)
    if initial.shape != (3,) or not np.all(np.isfinite(initial)):
        raise ValueError("initial angles must be three finite values")
    theta_z = float(initial[2])

    b_mags = np.array([b for b, _ in dataset.records])
    observed = np.concatenate([lines for _, lines in dataset.records])
    rows = np.repeat(np.arange(len(b_mags)), [len(lines) for _, lines in dataset.records])
    data_norm = np.linalg.norm(observed)

    def branches(xy):
        return _nv_branch_frequencies((xy[0], xy[1], theta_z), b_mags, constants)

    def residuals(xy):  # under the pairing ``assignment`` holds at call time
        return branches(xy)[rows, assignment] - observed

    # The line-to-branch pairing is discrete, so alternate: fit with the
    # pairing frozen, re-pair at the new angles, repeat until stable.  The
    # pairing count is finite and each refit starts from the previous optimum,
    # so the loop terminates; the cap is belt and braces.
    assignment = _assign_lines(branches(initial[:2]), rows, observed)
    x0 = initial[:2]
    res = None
    nfev = 0
    for _ in range(8):
        res = least_squares(
            residuals, x0, method="lm", ftol=_FTOL, xtol=_XTOL, max_nfev=_MAX_NFEV
        )
        nfev += int(res.nfev)
        final = _assign_lines(branches(res.x), rows, observed)
        if np.array_equal(final, assignment):
            break
        assignment = final
        x0 = res.x
    partial = _result_from_scipy(res, ("theta_x", "theta_y"), data_norm)
    covariance = np.zeros((3, 3))
    covariance[:2, :2] = partial.covariance
    return FitResult(
        parameters={
            "theta_x": partial.parameters["theta_x"],
            "theta_y": partial.parameters["theta_y"],
            "theta_z": theta_z,
        },
        residual_norm=partial.residual_norm,
        iterations=nfev,
        converged=partial.converged,
        parameter_order=("theta_x", "theta_y", "theta_z"),
        covariance=covariance,
        message=partial.message,
    )


def cavity_reflectivity_model(omega_p, omega_c, gamma_c, gamma_f):
    """Single-mode reflectivity lineshape in linear units."""
    return _reflectivity(omega_p, omega_c, gamma_c, gamma_f)


def fit_cavity_lineshape(omega_p, r_c, initial_guess, overcoupled: bool = True):
    """Fit (omega_c, gamma_c, gamma_f) to a reflectivity trace in linear units.

    The lineshape is invariant under exchanging the two damping rates, so the
    returned pair is ordered by the ``overcoupled`` flag: gamma_f >= gamma_c
    when True, gamma_f <= gamma_c when False.
    """
    omega_p = np.asarray(omega_p, dtype=float)
    r_c = np.asarray(r_c, dtype=float)
    if omega_p.shape != r_c.shape or omega_p.ndim != 1:
        raise ValueError("trace arrays must be 1-D and the same length")
    if omega_p.size < 4:
        raise ValueError("trace must contain at least 4 points")
    if not (np.all(np.isfinite(omega_p)) and np.all(np.isfinite(r_c))):
        raise ValueError("trace contains non-finite values")
    order = np.argsort(omega_p, kind="stable")
    omega_p, r_c = omega_p[order], r_c[order]
    span = float(np.max(r_c) - np.min(r_c))
    if span <= 1e-12 * max(1.0, float(np.max(np.abs(r_c)))):
        raise ValueError("trace is flat: lineshape parameters are not identifiable")
    dip = int(np.argmin(r_c))
    if dip == 0 or dip == omega_p.size - 1:
        warnings.warn("reflectivity minimum sits at the trace edge; fit may be poorly constrained", stacklevel=2)

    initial = np.asarray(initial_guess, dtype=float)
    if initial.shape != (3,) or not np.all(np.isfinite(initial)):
        raise ValueError("initial guess must be (omega_c, gamma_c, gamma_f)")

    def residuals(params):
        return cavity_reflectivity_model(omega_p, *params) - r_c

    res = least_squares(
        residuals, initial, method="lm", ftol=_FTOL, xtol=_XTOL, max_nfev=_MAX_NFEV
    )
    omega_c, gamma_c, gamma_f = float(res.x[0]), abs(float(res.x[1])), abs(float(res.x[2]))
    lo, hi = sorted((gamma_c, gamma_f))
    gamma_c, gamma_f = (lo, hi) if overcoupled else (hi, lo)
    result = _result_from_scipy(res, ("omega_c", "gamma_c", "gamma_f"), np.linalg.norm(r_c))
    return FitResult(
        parameters={"omega_c": omega_c, "gamma_c": gamma_c, "gamma_f": gamma_f},
        residual_norm=result.residual_norm,
        iterations=result.iterations,
        converged=result.converged,
        parameter_order=result.parameter_order,
        covariance=result.covariance,
        message=result.message,
    )


def lorentzian_dip_model(omega, center, half_width, depth, offset):
    """offset - depth * hw^2 / ((omega - center)^2 + hw^2)."""
    hw_sq = half_width**2
    return offset - depth * hw_sq / ((np.asarray(omega, dtype=float) - center) ** 2 + hw_sq)


def fit_lorentzian_fwhm(omega, signal):
    """Self-starting Lorentzian dip fit returning center, FWHM, depth, offset.

    A trace with several separated dips triggers an ambiguity warning and the
    fit proceeds around the deepest one.  A trace with no dip (zero depth) is
    rejected as unidentifiable.
    """
    omega = np.asarray(omega, dtype=float)
    signal = np.asarray(signal, dtype=float)
    if omega.shape != signal.shape or omega.ndim != 1:
        raise ValueError("trace arrays must be 1-D and the same length")
    if omega.size < 5:
        raise ValueError("trace must contain at least 5 points")
    if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(signal))):
        raise ValueError("trace contains non-finite values")
    order = np.argsort(omega, kind="stable")
    omega, signal = omega[order], signal[order]

    offset0 = float(np.percentile(signal, 90))
    depth0 = offset0 - float(np.min(signal))
    if depth0 <= 1e-12 * max(1.0, abs(offset0)):
        raise ValueError("trace shows no dip: depth is not identifiable")

    # Count separated runs below the half-depth level to flag multi-dip traces.
    below = signal < offset0 - 0.5 * depth0
    runs = []
    start = None
    for i, flag in enumerate(below):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, below.size - 1))
    if len(runs) > 1:
        warnings.warn(
            f"trace has {len(runs)} separated dips; fitting the deepest one",
            stacklevel=2,
        )
    dip_idx = int(np.argmin(signal))
    run = next((r for r in runs if r[0] <= dip_idx <= r[1]), (dip_idx, dip_idx))
    grid_step = float(np.min(np.diff(omega))) if omega.size > 1 else 1.0
    hw0 = max(0.5 * (omega[run[1]] - omega[run[0]]), grid_step)

    def residuals(params):
        return lorentzian_dip_model(omega, *params) - signal

    initial = np.array([omega[dip_idx], hw0, depth0, offset0])
    res = least_squares(
        residuals, initial, method="lm", ftol=_FTOL, xtol=_XTOL, max_nfev=_MAX_NFEV
    )
    center, hw, depth, offset = (float(v) for v in res.x)
    result = _result_from_scipy(res, ("center", "half_width", "depth", "offset"), np.linalg.norm(signal))
    return FitResult(
        parameters={
            "center": center,
            "fwhm": 2.0 * abs(hw),
            "depth": abs(depth),
            "offset": offset,
        },
        residual_norm=result.residual_norm,
        iterations=result.iterations,
        converged=result.converged,
        parameter_order=("center", "fwhm", "depth", "offset"),
        covariance=result.covariance,
        message=result.message,
    )


def load_odmr_csv(path):
    """Read line observations: rows of B_T, freq_Hz[, freq_Hz ...].

    Frequencies are plain Hz in the file and converted to rad/s.  Rows may
    carry different numbers of lines.  '#' lines are skipped, and so is the
    first other row if it is non-numeric (a header).
    """
    records = []
    rows_read = 0
    with open(path, newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            rows_read += 1
            try:
                values = [float(cell) for cell in row if cell.strip()]
            except ValueError:
                if rows_read > 1:
                    raise ValueError(f"{path}:{lineno}: non-numeric row")
                continue  # header row
            if len(values) < 2:
                raise ValueError(f"{path}:{lineno}: need B_T plus at least one frequency")
            records.append((values[0], tuple(TWO_PI * f for f in values[1:])))
    if not records:
        raise ValueError(f"{path}: no data rows")
    return OdmrDataset(records=tuple(records))


def load_trace_csv(path):
    """Read a two-column trace: freq_Hz, value.  Returns (omega rad/s, values).

    '#' lines are skipped, and so is the first other row if it is non-numeric
    (a header).
    """
    freqs = []
    values = []
    rows_read = 0
    with open(path, newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            rows_read += 1
            cells = [cell for cell in row if cell.strip()]
            try:
                numbers = [float(cell) for cell in cells]
            except ValueError:
                if rows_read > 1:
                    raise ValueError(f"{path}:{lineno}: non-numeric row")
                continue  # header row
            if len(numbers) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(numbers)}")
            freqs.append(numbers[0])
            values.append(numbers[1])
    if not freqs:
        raise ValueError(f"{path}: no data rows")
    return TWO_PI * np.asarray(freqs), np.asarray(values)
