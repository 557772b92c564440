"""Least-squares extraction of model parameters from spectra and traces.

Three fitters share one result type: field orientation angles from sets of
resonance lines, cavity lineshape parameters from a reflectivity trace, and
Lorentzian dip parameters (center, FWHM, depth, offset) from a single-dip
trace.  All solve through ``_solve`` (damped least squares with numeric
Jacobians) and report through ``_fit_result``, which maps the solver's
variables and covariance onto the reported parameters.  Fits are
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
    ``covariance`` rows/columns follow ``parameter_order``: it is mapped
    through the same permutation, signs and scale factors as the reported
    parameters (the FWHM's variance is that of the FWHM, not of the
    half-width), and a held parameter has zero rows and columns.
    Unidentifiable directions show up as very large variances rather than
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


def _solve(residuals, x0):
    """The one least-squares solve of every fit; ``least_squares`` is looked up per call."""
    return least_squares(residuals, x0, method="lm", ftol=_FTOL, xtol=_XTOL, max_nfev=_MAX_NFEV)


def _fit_result(res, data_norm, names, source, scale, held, nfev):
    """``FitResult`` of ``res`` mapped onto the reported parameters.

    Parameter ``names[i]`` is ``scale[i] * res.x[source[i]]``, or
    ``held[names[i]]`` where ``source[i]`` is None; the covariance goes
    through the same map, with zero rows and columns for held parameters.
    """
    fitted = [i for i, k in enumerate(source) if k is not None]
    picked = [source[i] for i in fitted]
    factor = np.array([scale[i] for i in fitted])
    cov = _covariance(res.jac, res.cost, res.fun.size, res.x.size)
    covariance = np.zeros((len(names), len(names)))
    covariance[np.ix_(fitted, fitted)] = factor[:, None] * cov[np.ix_(picked, picked)] * factor
    values = [held[name] if k is None else float(s * res.x[k])
              for name, k, s in zip(names, source, scale)]
    return FitResult(
        parameters=dict(zip(names, values)),
        residual_norm=float(np.linalg.norm(res.fun) / max(data_norm, np.finfo(float).tiny)),
        iterations=int(nfev),
        converged=bool(res.status > 0),
        parameter_order=tuple(names),
        covariance=covariance,
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
    starting point and that assignment is held fixed during the fit; at
    convergence the lines are re-matched, and a changed matching triggers a
    refit from the new angles, up to 8 fits in all.

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
    nfev = 0
    for _ in range(8):
        res = _solve(residuals, x0)
        nfev += int(res.nfev)
        final = _assign_lines(branches(res.x), rows, observed)
        if np.array_equal(final, assignment):
            break
        assignment = final
        x0 = res.x
    return _fit_result(res, data_norm, ("theta_x", "theta_y", "theta_z"), (0, 1, None),
                       (1.0, 1.0, None), {"theta_z": theta_z}, nfev)


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

    res = _solve(residuals, initial)
    # |gamma| sorted by size, then ordered by the flag; sorted() keeps ties in place.
    rates = sorted((1, 2), key=lambda k: abs(res.x[k]))
    if not overcoupled:
        rates.reverse()
    signs = [math.copysign(1.0, res.x[k]) for k in rates]
    return _fit_result(res, np.linalg.norm(r_c), ("omega_c", "gamma_c", "gamma_f"),
                       (0, *rates), (1.0, *signs), {}, res.nfev)


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

    # Separated runs below the half-depth level flag multi-dip traces; the
    # deepest point always lies in one of them.
    edges = np.diff(np.concatenate(([0], signal < offset0 - 0.5 * depth0, [0])))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    if starts.size > 1:
        warnings.warn(
            f"trace has {starts.size} separated dips; fitting the deepest one",
            stacklevel=2,
        )
    dip_idx = int(np.argmin(signal))
    run = np.searchsorted(starts, dip_idx, side="right") - 1
    grid_step = float(np.min(np.diff(omega)))
    hw0 = max(0.5 * (omega[ends[run]] - omega[starts[run]]), grid_step)

    def residuals(params):
        return lorentzian_dip_model(omega, *params) - signal

    res = _solve(residuals, np.array([omega[dip_idx], hw0, depth0, offset0]))
    scale = (1.0, 2.0 * math.copysign(1.0, res.x[1]), math.copysign(1.0, res.x[2]), 1.0)
    return _fit_result(res, np.linalg.norm(signal), ("center", "fwhm", "depth", "offset"),
                       (0, 1, 2, 3), scale, {}, res.nfev)


def _numeric_rows(path):
    """Yield (line number, floats of the non-empty cells) for each data row.

    '#' lines are skipped, and so is the first other row if it is non-numeric
    (a header); a later non-numeric row, or no data row at all, raises.
    """
    rows_read, found = 0, False
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
            found = True
            yield lineno, values
    if not found:
        raise ValueError(f"{path}: no data rows")


def load_odmr_csv(path):
    """Read line observations: rows of B_T, freq_Hz[, freq_Hz ...].

    Frequencies are plain Hz in the file and converted to rad/s.  Rows may
    carry different numbers of lines.  '#' lines are skipped, and so is the
    first other row if it is non-numeric (a header).
    """
    records = []
    for lineno, values in _numeric_rows(path):
        if len(values) < 2:
            raise ValueError(f"{path}:{lineno}: need B_T plus at least one frequency")
        records.append((values[0], tuple(TWO_PI * f for f in values[1:])))
    return OdmrDataset(records=tuple(records))


def load_trace_csv(path):
    """Read a two-column trace: freq_Hz, value.  Returns (omega rad/s, values).

    '#' lines are skipped, and so is the first other row if it is non-numeric
    (a header).
    """
    rows = []
    for lineno, values in _numeric_rows(path):
        if len(values) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(values)}")
        rows.append(values)
    freqs, values = np.array(rows).T
    return TWO_PI * freqs, values
