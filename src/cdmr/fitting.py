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
from dataclasses import dataclass, replace

import numpy as np

from .cavity import _reflectivity
from .constants import TWO_PI
from .spins import nv_transition_frequencies, rotate_to_unit_vector

_FTOL = 1e-10
_XTOL = 1e-10
_GTOL = 1e-8
_MAX_NFEV = 2000  # residual evaluations; the Jacobian's are not counted
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny
_TERMINATION = {
    0: "The maximum number of function evaluations is exceeded.",
    1: "`gtol` termination condition is satisfied.",
    2: "`ftol` termination condition is satisfied.",
    3: "`xtol` termination condition is satisfied.",
    4: "Both `ftol` and `xtol` termination conditions are satisfied.",
}


@dataclass
class LeastSquaresResult:
    """What ``least_squares`` found, in the fields ``_fit_result`` reads.

    ``status`` is 0 when ``max_nfev`` ran out, else the test that stopped the
    solve (1 ``gtol``, 2 ``ftol``, 3 ``xtol``, 4 both), and ``message`` says
    which.  ``jac`` is the forward-difference Jacobian at ``x``; ``nfev``
    counts residual evaluations without the Jacobian's.
    """

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    cost: float
    nfev: int
    status: int
    message: str


def _jacobian(fun, x, f):
    """Forward differences with step sqrt(eps) * max(1, |x_j|), signed like x_j."""
    h = math.sqrt(_EPS) * np.where(x >= 0.0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    columns = []
    for j in range(x.size):
        shifted = x.copy()
        shifted[j] = x[j] + h[j]
        columns.append((fun(shifted) - f) / (shifted[j] - x[j]))
    return np.column_stack(columns)


def _lm_parameter(s, g, delta, par):
    """MINPACK's ``lmpar`` on the SVD ``J / diag = U diag(s) V^T`` with ``g = U^T f``.

    Returns the damping ``par`` and the scaled step's coordinates ``w`` in V:
    the Gauss-Newton step with ``par = 0`` when its scaled length is within
    1.1 ``delta``, else a ``par`` whose step length is within 10 % of
    ``delta``, found by Hebden's safeguarded Newton iteration (at most 10).
    """
    sg = s * g
    w = np.divide(g, s, out=np.zeros_like(g), where=s > 0.0)
    dxnorm = np.linalg.norm(w)
    fp = dxnorm - delta
    if fp <= 0.1 * delta:
        return 0.0, w
    parl = 0.0
    if np.all(s > 0.0):  # a singular Jacobian gives no lower bound
        temp = np.linalg.norm(w / s) / dxnorm
        parl = fp / delta / temp / temp
    gnorm = np.linalg.norm(sg)
    paru = gnorm / delta
    if paru == 0.0:
        paru = _TINY / min(delta, 0.1)
    par = min(max(par, parl), paru)
    if par == 0.0:
        par = gnorm / dxnorm
    for count in range(1, 11):
        if par == 0.0:
            par = max(_TINY, 0.001 * paru)
        w = sg / (s * s + par)
        dxnorm = np.linalg.norm(w)
        previous, fp = fp, dxnorm - delta
        if abs(fp) <= 0.1 * delta or (parl == 0.0 and fp <= previous < 0.0) or count == 10:
            break
        temp = np.linalg.norm(w / np.sqrt(s * s + par)) / dxnorm
        correction = fp / delta / temp / temp
        if fp > 0.0:
            parl = max(parl, par)
        elif fp < 0.0:
            paru = min(paru, par)
        par = max(parl, par + correction)
    return par, w


def least_squares(fun, x0, *, ftol, xtol, gtol, max_nfev):
    """Minimize ||fun(x)||^2 from ``x0`` by Levenberg-Marquardt; a ``LeastSquaresResult``.

    The trust-region method of MINPACK's ``lmder`` (Moré, 1978), step for
    step, with a forward-difference Jacobian and the variables scaled by the
    running maximum of the Jacobian's column norms.  Each step's damping
    comes from an SVD of the scaled Jacobian instead of MINPACK's pivoted QR
    factorization; the two agree up to rounding.  The solve stops when the
    actual and predicted relative reductions of the sum of squares are both
    at most ``ftol`` (status 2), the trust region is at most ``xtol`` times
    the scaled norm of ``x`` (3; 4 when both hold), every residual-column
    cosine is at most ``gtol`` (1), or after ``max_nfev`` residual
    evaluations (0).  The fits look this name up at call time, so it can be
    wrapped or replaced on the module.
    """
    x = np.array(x0, dtype=float)
    f = np.asarray(fun(x), dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    nfev, fnorm, par, diag, status = 1, np.linalg.norm(f), 0.0, None, None
    moved = True  # x changed since the last Jacobian
    while status is None:
        jac, moved = _jacobian(fun, x, f), False
        col_norms = np.linalg.norm(jac, axis=0)
        if diag is None:
            diag = np.where(col_norms == 0.0, 1.0, col_norms)
            xnorm = np.linalg.norm(diag * x)
            delta = 100.0 * xnorm or 100.0
            first = True  # no step taken yet
        live = col_norms > 0.0
        if fnorm == 0.0 or np.max(np.abs(f @ jac[:, live]) / (fnorm * col_norms[live]),
                                  initial=0.0) <= gtol:
            status = 1
            break
        diag = np.maximum(diag, col_norms)
        u, s, vt = np.linalg.svd(jac / diag, full_matrices=False)
        g = u.T @ f
        ratio = 0.0
        while ratio < 1e-4 and status is None:
            par, w = _lm_parameter(s, g, delta, par)
            step = -(w @ vt) / diag
            pnorm = np.linalg.norm(w)
            if first:
                delta = min(delta, pnorm)
            trial = np.asarray(fun(x + step), dtype=float)
            nfev += 1
            fnorm1 = np.linalg.norm(trial)
            actred = 1.0 - (fnorm1 / fnorm) ** 2 if 0.1 * fnorm1 < fnorm else -1.0
            temp1 = np.linalg.norm(s * w) / fnorm
            temp2 = math.sqrt(par) * pnorm / fnorm
            prered = temp1**2 + temp2**2 / 0.5
            dirder = -(temp1**2 + temp2**2)
            ratio = actred / prered if prered != 0.0 else 0.0
            if ratio <= 0.25:
                temp = 0.5 if actred >= 0.0 else 0.5 * dirder / (dirder + 0.5 * actred)
                if 0.1 * fnorm1 >= fnorm or temp < 0.1:
                    temp = 0.1
                delta = temp * min(delta, pnorm / 0.1)
                par /= temp
            elif par == 0.0 or ratio >= 0.75:
                delta = pnorm / 0.5
                par *= 0.5
            if ratio >= 1e-4:
                x, f, fnorm, first, moved = x + step, trial, fnorm1, False, True
                xnorm = np.linalg.norm(diag * x)
            ftol_met = abs(actred) <= ftol and prered <= ftol and 0.5 * ratio <= 1.0
            xtol_met = delta <= xtol * xnorm
            if ftol_met or xtol_met:
                status = 4 if ftol_met and xtol_met else 2 if ftol_met else 3
            elif nfev >= max_nfev:
                status = 0
    if moved:
        jac = _jacobian(fun, x, f)
    return LeastSquaresResult(x=x, fun=f, jac=jac, cost=0.5 * float(f @ f), nfev=nfev,
                              status=status, message=_TERMINATION[status])


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit.

    ``residual_norm`` is relative: ||model - data|| / ||data||.
    ``iterations`` counts residual evaluations (``nfev``), summed over every
    refit of the fit; ``refits`` counts the fits after the first (only the
    orientation fit refits).
    ``jacobian_condition`` is the ratio of the largest to the smallest
    singular value of the solution Jacobian in the solver's variables, None
    when the smallest is 0.
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
    jacobian_condition: float | None = None
    refits: int = 0


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
    """Error covariance from the solution Jacobian, and the Jacobian's condition number.

    sigma^2 estimated from the residual variance; singular values are floored
    rather than truncated so flat (unidentifiable) parameter combinations get
    huge variances instead of misleadingly small ones.  The condition number
    is None for a singular Jacobian.
    """
    dof = max(n_residuals - n_params, 1)
    sigma_sq = 2.0 * cost / dof
    _, s, vt = np.linalg.svd(jac, full_matrices=False)
    floor = max(s[0], 1.0) * 1e-150
    s_inv_sq = 1.0 / np.maximum(s, floor) ** 2
    condition = float(s[0] / s[-1]) if s[-1] > 0.0 else None
    return (vt.T * s_inv_sq) @ vt * sigma_sq, condition


def _solve(residuals, x0):
    """The one least-squares solve of every fit; ``least_squares`` is looked up per call."""
    return least_squares(residuals, x0, ftol=_FTOL, xtol=_XTOL, gtol=_GTOL, max_nfev=_MAX_NFEV)


def _fit_result(res, data_norm, names, source, scale, held, nfev, refits=0):
    """``FitResult`` of ``res`` mapped onto the reported parameters.

    Parameter ``names[i]`` is ``scale[i] * res.x[source[i]]``, or
    ``held[names[i]]`` where ``source[i]`` is None; the covariance goes
    through the same map, with zero rows and columns for held parameters.
    """
    fitted = [i for i, k in enumerate(source) if k is not None]
    picked = [source[i] for i in fitted]
    factor = np.array([scale[i] for i in fitted])
    cov, condition = _covariance(res.jac, res.cost, res.fun.size, res.x.size)
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
        jacobian_condition=condition,
        refits=refits,
    )


def _nv_branch_frequencies(angles, b_mags):
    """All 8 NV branches (4 axes x two transitions), one row per field magnitude."""
    b_hat = rotate_to_unit_vector(*angles)
    table = nv_transition_frequencies(b_mags[:, None] * b_hat)
    return np.concatenate([table.omega_minus, table.omega_plus], axis=1)


def _assign_lines(model, rows, observed):
    """Nearest-branch index for every observed line; ``rows`` maps line -> record."""
    return np.argmin(np.abs(model[rows] - observed[:, None]), axis=1)


def fit_orientation(dataset: OdmrDataset, initial_angles):
    """Fit field orientation angles (theta_x, theta_y, theta_z) to observed lines.

    Needs at least three distinct field magnitudes with two or more lines
    each.  Observed lines are matched to the nearest model branch at the
    starting point and that assignment is held fixed during the fit; at
    convergence the lines are re-matched, and a changed matching triggers a
    refit from the new angles, up to 8 fits in all.  A matching that still
    changes after the 8th fit is reported as not converged.

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
        return _nv_branch_frequencies((xy[0], xy[1], theta_z), b_mags)

    def residuals(xy):  # under the pairing ``assignment`` holds at call time
        return branches(xy)[rows, assignment] - observed

    # The line-to-branch pairing is discrete, so alternate: fit with the
    # pairing frozen, re-pair at the new angles, repeat until stable.  The
    # pairing count is finite and each refit starts from the previous optimum,
    # so the loop terminates; the cap is belt and braces.
    assignment = _assign_lines(branches(initial[:2]), rows, observed)
    x0 = initial[:2]
    nfev = 0
    for fits in range(1, 9):
        res = _solve(residuals, x0)
        nfev += int(res.nfev)
        final = _assign_lines(branches(res.x), rows, observed)
        settled = np.array_equal(final, assignment)
        if settled:
            break
        assignment = final
        x0 = res.x
    result = _fit_result(res, data_norm, ("theta_x", "theta_y", "theta_z"), (0, 1, None),
                         (1.0, 1.0, None), {"theta_z": theta_z}, nfev, refits=fits - 1)
    if not settled:
        return replace(result, converged=False,
                       message=f"the line pairing did not settle after {fits} fits")
    return result


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
