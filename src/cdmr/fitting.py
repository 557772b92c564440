"""Least-squares extraction of model parameters from spectra and traces.

Three fitters share one result type: field orientation angles from sets of
resonance lines, cavity lineshape parameters from a reflectivity trace, and
Lorentzian dip parameters (center, FWHM, depth, offset) from a single-dip
trace.  All solve through ``least_squares`` (damped least squares with
numeric Jacobians, for a stack of problems at once) and report through
``_fit_result``, which maps the solver's variables and covariance onto the
reported parameters; ``fit_orientations`` solves a stack of replica line
sets at once and reports their angles only.  Fits are deterministic for a
given dataset and starting point; an ``OdmrDataset`` holds sorted arrays, so
record order on entry does not matter.
"""

import csv
import math
import warnings
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .cavity import cavity_reflectivity_model
from .constants import TWO_PI
from .spins import nv_transition_frequencies, rotate_to_unit_vector, sweep_fields

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


class LeastSquaresResult(NamedTuple):
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


def _norm(a):
    """Euclidean norm of each row of a ``(k, n)`` stack.

    One dot product per row, so every row rounds exactly as
    ``np.linalg.norm`` of that row alone does.
    """
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _residuals(fun, x):
    """``fun(x)`` as a C-contiguous float array, which ``_norm`` rounds alike in every row."""
    return np.ascontiguousarray(fun(x), dtype=float)


def _jacobian(fun, x, f):
    """Forward-difference Jacobians ``(k, m, n)`` at a ``(k, n)`` stack ``x`` with residuals ``f``.

    Row i's step in variable j is sqrt(eps) * max(1, |x_ij|), signed like
    x_ij; each of the n columns is one stacked ``fun`` call.
    """
    h = math.sqrt(_EPS) * np.where(x >= 0.0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    columns = []
    for j in range(x.shape[1]):
        shifted = x.copy()
        shifted[:, j] = x[:, j] + h[:, j]
        columns.append((_residuals(fun, shifted) - f) / (shifted[:, j] - x[:, j])[:, None])
    return np.stack(columns, axis=2)


def _lm_parameter(s, g, delta, par):
    """MINPACK's ``lmpar`` on the SVDs ``J / diag = U diag(s) V^T`` with ``g = U^T f``, per row.

    ``s`` and ``g`` are ``(k, r)`` stacks, ``delta`` and ``par`` ``(k,)``.
    Returns each row's damping ``par`` and the scaled step's coordinates
    ``w`` in V: the Gauss-Newton step with ``par = 0`` when its scaled length
    is within 1.1 ``delta``, else a ``par`` whose step length is within 10 %
    of ``delta``, found by Hebden's safeguarded Newton iteration (at most 10).
    The rows iterate together and each keeps the values of the iteration
    that ended it.
    """
    sg = s * g
    w = np.divide(g, s, out=np.zeros_like(g), where=s > 0.0)
    dxnorm = _norm(w)
    fp = dxnorm - delta
    iterating = fp > 0.1 * delta
    out_par, out_w = np.zeros_like(par), w
    if not iterating.any():
        return out_par, out_w
    temp = _norm(w / s) / dxnorm
    # A singular Jacobian gives no lower bound.
    parl = np.where(np.all(s > 0.0, axis=1), fp / delta / temp / temp, 0.0)
    gnorm = _norm(sg)
    paru = gnorm / delta
    paru = np.where(paru == 0.0, _TINY / np.minimum(delta, 0.1), paru)
    par = np.minimum(np.maximum(par, parl), paru)
    par = np.where(par == 0.0, gnorm / dxnorm, par)
    for count in range(1, 11):
        par = np.where(par == 0.0, np.maximum(_TINY, 0.001 * paru), par)
        w = sg / (s * s + par[:, None])
        dxnorm = _norm(w)
        previous, fp = fp, dxnorm - delta
        ends = iterating & ((np.abs(fp) <= 0.1 * delta) | ((parl == 0.0) & (fp <= previous)
                                                           & (previous < 0.0)) | (count == 10))
        out_par[ends], out_w[ends] = par[ends], w[ends]
        iterating &= ~ends
        if not iterating.any():
            break
        temp = _norm(w / np.sqrt(s * s + par[:, None])) / dxnorm
        correction = fp / delta / temp / temp
        parl = np.where(fp > 0.0, np.maximum(parl, par), parl)
        paru = np.where(fp < 0.0, np.minimum(paru, par), paru)
        par = np.maximum(parl, par + correction)
    return out_par, out_w


def least_squares(fun, x0):
    """Minimize ||fun(x_i)||^2 from each row x_i of ``x0`` by Levenberg-Marquardt.

    ``x0`` is a ``(k, n)`` stack of starting points, and ``fun`` maps a
    ``(k, n)`` stack to its ``(k, m)`` residuals, row i of the output
    depending only on row i of the input.  Returns k ``LeastSquaresResult``,
    one per row.

    Each row takes the steps of MINPACK's ``lmder`` (Moré, 1978): a
    trust-region method with a forward-difference Jacobian and the variables
    scaled by the running maximum of the Jacobian's column norms.  Each
    step's damping comes from an SVD of the scaled Jacobian instead of
    MINPACK's pivoted QR factorization; the two agree up to rounding.  A
    row stops when the actual and predicted relative reductions of its sum
    of squares are both at most ``_FTOL`` (status 2), its trust region is at
    most ``_XTOL`` times the scaled norm of x (3; 4 when both hold), every
    residual-column cosine is at most ``_GTOL`` (1), or after ``_MAX_NFEV``
    residual evaluations (0).

    The rows advance in lockstep.  Each tick differentiates the rows whose
    last step was accepted (n stacked ``fun`` calls), takes one stacked SVD,
    finds every live row's damping at once and evaluates every live row's
    trial step in one stacked ``fun`` call; the trust radius, damping,
    scaling and evaluation count are kept per row.  All reductions run along
    a row, so a row's result is the same bit for bit in any stack, alone
    included.  The fits look this name up at call time, so it can be
    wrapped or replaced on the module.
    """
    x = np.array(x0, dtype=float)
    f = _residuals(fun, x)
    if not np.all(np.isfinite(f)):
        raise ValueError("Residuals are not finite in the initial point.")
    k = len(x)
    rank = min(x.shape[1], f.shape[1])
    nfev, status = np.ones(k, dtype=int), np.full(k, -1)  # -1: still running
    fnorm, par, delta, xnorm = _norm(f), np.zeros(k), np.zeros(k), np.zeros(k)
    diag = np.zeros_like(x)
    first = np.ones(k, dtype=bool)  # no step taken yet
    moved = np.ones(k, dtype=bool)  # x changed since the last Jacobian
    jac = np.zeros((k, f.shape[1], x.shape[1]))
    s, g, vt = np.zeros((k, rank)), np.zeros((k, rank)), np.zeros((k, rank, x.shape[1]))
    while True:
        fresh = np.flatnonzero(moved & (status < 0))
        if fresh.size:
            jac[fresh] = jf = _jacobian(fun, x, f)[fresh]
            moved[fresh] = False
            cols = np.sqrt(np.add.reduce(jf * jf, axis=1))
            # Only an accepted step moves x, so a row with none yet is at its first Jacobian.
            start = first[fresh]
            new = fresh[start]
            diag[new] = np.where(cols[start] == 0.0, 1.0, cols[start])
            xnorm[new] = _norm(diag[new] * x[new])
            delta[new] = np.where(xnorm[new] == 0.0, 100.0, 100.0 * xnorm[new])
            grad = np.abs((f[fresh, None, :] @ jf)[:, 0, :])
            with np.errstate(divide="ignore", invalid="ignore"):
                cosines = np.where(cols > 0.0, grad / (fnorm[fresh, None] * cols), 0.0)
            done = (fnorm[fresh] == 0.0) | (np.max(cosines, axis=1) <= _GTOL)
            status[fresh[done]] = 1
            fresh, cols, jf = fresh[~done], cols[~done], jf[~done]
            diag[fresh] = np.maximum(diag[fresh], cols)
            u, s[fresh], vt[fresh] = np.linalg.svd(jf / diag[fresh, None, :], full_matrices=False)
            g[fresh] = (u.transpose(0, 2, 1) @ f[fresh, :, None])[:, :, 0]
            del jf, u  # (k, m, n) stacks each: not held through the trial step
        live = np.flatnonzero(status < 0)
        if not live.size:
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            par_l, w = _lm_parameter(s[live], g[live], delta[live], par[live])
            step = -(w[:, None, :] @ vt[live])[:, 0, :] / diag[live]
            pnorm = _norm(w)
            delta_l = np.where(first[live], np.minimum(delta[live], pnorm), delta[live])
            x_trial = x.copy()
            x_trial[live] += step
            trial = _residuals(fun, x_trial)[live]
            nfev[live] += 1
            fnorm_l, fnorm1 = fnorm[live], _norm(trial)
            actred = np.where(0.1 * fnorm1 < fnorm_l, 1.0 - (fnorm1 / fnorm_l) ** 2, -1.0)
            temp1 = _norm(s[live] * w) / fnorm_l
            temp2 = np.sqrt(par_l) * pnorm / fnorm_l
            prered = temp1**2 + temp2**2 / 0.5
            dirder = -(temp1**2 + temp2**2)
            ratio = np.where(prered != 0.0, actred / prered, 0.0)
            temp = np.where(actred >= 0.0, 0.5, 0.5 * dirder / (dirder + 0.5 * actred))
            temp = np.where((0.1 * fnorm1 >= fnorm_l) | (temp < 0.1), 0.1, temp)
        shrink = ratio <= 0.25
        grow = ~shrink & ((par_l == 0.0) | (ratio >= 0.75))
        delta[live] = np.where(shrink, temp * np.minimum(delta_l, pnorm / 0.1),
                               np.where(grow, pnorm / 0.5, delta_l))
        par[live] = np.where(shrink, par_l / temp, np.where(grow, par_l * 0.5, par_l))
        taken = ratio >= 1e-4
        step_rows = live[taken]
        x[step_rows], f[step_rows] = x_trial[step_rows], trial[taken]
        fnorm[step_rows] = fnorm1[taken]
        first[step_rows], moved[step_rows] = False, True
        xnorm[step_rows] = _norm(diag[step_rows] * x[step_rows])
        ftol_met = (np.abs(actred) <= _FTOL) & (prered <= _FTOL) & (0.5 * ratio <= 1.0)
        xtol_met = delta[live] <= _XTOL * xnorm[live]
        status[live] = np.select([ftol_met & xtol_met, ftol_met, xtol_met, nfev[live] >= _MAX_NFEV],
                                 [4, 2, 3, 0], -1)
    stale = np.flatnonzero(moved)
    if stale.size:
        jac[stale] = _jacobian(fun, x, f)[stale]
    return [LeastSquaresResult(x=x[i], fun=f[i], jac=jac[i], cost=0.5 * float(f[i] @ f[i]),
                               nfev=int(nfev[i]), status=int(status[i]),
                               message=_TERMINATION[int(status[i])]) for i in range(k)]


class FitResult(NamedTuple):
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
    parameter_order: tuple
    covariance: np.ndarray
    message: str
    jacobian_condition: float | None
    refits: int


@dataclass(frozen=True, eq=False)
class OdmrDataset:
    """Resonance lines from ``records`` of (|B| in tesla, lines in rad/s), as read-only arrays."""

    records: InitVar[tuple]
    b_mags: np.ndarray = field(init=False)  # (n_records,) T, ascending; ties in the order given
    counts: np.ndarray = field(init=False)  # (n_records,) lines per record
    lines: np.ndarray = field(init=False)   # (n_lines,) rad/s, by record, ascending in each

    def __post_init__(self, records):
        if len(records) == 0:
            raise ValueError("dataset must contain at least one record")
        b_mags, line_sets = zip(*records)
        b_mags = np.array(b_mags, dtype=float)
        bad = b_mags[~(np.isfinite(b_mags) & (b_mags >= 0.0))]
        if bad.size:
            raise ValueError(f"field magnitude must be finite and >= 0, got {float(bad[0])!r}")
        order = np.argsort(b_mags, kind="stable")
        counts = np.array([len(line_sets[i]) for i in order])
        if not counts.all():
            raise ValueError("each record needs at least one line frequency")
        lines = np.concatenate([line_sets[i] for i in order], dtype=float)
        for name, value in (("b_mags", b_mags[order]), ("counts", counts),
                            ("lines", _sorted_lines(lines[None], counts, prefix="")[0])):
            value.flags.writeable = False
            object.__setattr__(self, name, value)


def _sorted_lines(lines, counts, prefix="replica {}: "):
    """A copy of the ``(k, sum(counts))`` stack ``lines``, each record's lines sorted.

    The first value, row by row, that is not finite and positive raises, after
    ``prefix`` formatted with its row (the replica, from 0).
    """
    observed = np.array(lines, dtype=float)
    if observed.ndim != 2 or len(observed) == 0 or observed.shape[1] != counts.sum():
        raise ValueError(f"lines must be a (k, {counts.sum()}) stack with k >= 1, "
                         f"got shape {observed.shape}")
    for record in np.split(observed, np.cumsum(counts)[:-1], axis=1):
        record.sort(axis=1)  # a view: sorts those columns of ``observed``
    bad = np.argwhere(~(np.isfinite(observed) & (observed > 0.0)))
    if bad.size:
        raise ValueError(f"{prefix.format(bad[0, 0])}line frequencies must be finite and "
                         f"positive, got {float(observed[tuple(bad[0])])!r}")
    return observed


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


def _fit_result(res, data_norm, names, source, scale, held, nfev, refits=0, failure=None):
    """``FitResult`` of ``res`` mapped onto the reported parameters.

    Parameter ``names[i]`` is ``scale[i] * res.x[source[i]]``, or
    ``held[names[i]]`` where ``source[i]`` is None; the covariance goes
    through the same map, with zero rows and columns for held parameters.
    A ``failure`` message marks the fit not converged whatever ``res`` says.
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
        converged=failure is None and bool(res.status > 0),
        parameter_order=tuple(names),
        covariance=covariance,
        message=str(res.message) if failure is None else failure,
        jacobian_condition=condition,
        refits=refits,
    )


def _assign_lines(model, rows, observed):
    """Nearest-branch index of every observed line, per replica.

    ``model`` is ``(k, n_records, 8)``, ``observed`` ``(k, n_lines)`` and
    ``rows`` maps line -> record.
    """
    # Branch by branch, as argmin would pick them (the first of equals), so
    # no (k, n_lines, 8) array of distances is held.
    nearest, best = np.abs(model[:, rows, 0] - observed), np.zeros(observed.shape, dtype=int)
    for branch in range(1, model.shape[2]):
        distance = np.abs(model[:, rows, branch] - observed)
        closer = distance < nearest
        nearest[closer], best[closer] = distance[closer], branch
    return best


def _fit_angles(dataset, observed, initial_angles):
    """Stacked orientation fit of ``observed``, k sorted line sets in ``dataset``'s layout.

    Returns the ``(k, 3)`` angles and, per replica, its last
    ``LeastSquaresResult``, summed nfev, fit count and whether its pairing settled.
    """
    initial = np.asarray(initial_angles, dtype=float)
    if initial.shape != (3,) or not np.all(np.isfinite(initial)):
        raise ValueError("initial angles must be three finite values")
    b_mags, counts = dataset.b_mags, dataset.counts
    distinct = len(set(b_mags.tolist()))
    if distinct < 3:
        raise ValueError(f"orientation fit needs >= 3 distinct field magnitudes, got {distinct}")
    if np.any(counts < 2):
        short = np.argmax(counts < 2)
        raise ValueError(f"orientation fit needs >= 2 lines per record, "
                         f"record at |B|={float(b_mags[short])} has {counts[short]}")
    theta_z = float(initial[2])
    rows = np.repeat(np.arange(len(b_mags)), counts)

    def branches(xy):
        """All 8 NV branches (4 axes x two transitions) per replica and field magnitude."""
        _, fields = sweep_fields(b_mags, rotate_to_unit_vector(xy[:, 0], xy[:, 1], theta_z))
        return nv_transition_frequencies(fields.reshape(-1, 3)).reshape(len(xy), len(b_mags), 8)

    def residuals_of(replicas):
        """Residuals of ``replicas`` under the pairings they hold now."""
        pairs = (np.arange(len(replicas))[:, None], rows, assignment[replicas])
        target = observed[replicas]
        return lambda xy: branches(xy)[pairs] - target

    # The line-to-branch pairing is discrete, so alternate: fit with the
    # pairing frozen, re-pair at the new angles, refit the replicas whose
    # pairing changed.  The pairing count is finite and each refit starts
    # from the previous optimum, so the loop terminates; the cap is belt and
    # braces.
    k = len(observed)
    x = np.tile(initial[:2], (k, 1))
    assignment = _assign_lines(branches(x), rows, observed).copy()  # updated in place below
    solves, nfev, fits = [None] * k, np.zeros(k, dtype=int), np.zeros(k, dtype=int)
    todo = np.arange(k)
    for fit in range(1, 9):
        results = least_squares(residuals_of(todo), x[todo])
        for i, res in zip(todo, results):
            solves[i] = res
            nfev[i] += res.nfev
        fits[todo] = fit
        x[todo] = [res.x for res in results]
        final = _assign_lines(branches(x[todo]), rows, observed[todo])
        changed = np.any(final != assignment[todo], axis=1)
        assignment[todo[changed]] = final[changed]
        todo = todo[changed]
        if not todo.size:
            break
    settled = ~np.isin(np.arange(k), todo)  # those left still re-paired after the 8th fit
    return np.column_stack([x, np.full(k, theta_z)]), solves, nfev, fits, settled


def fit_orientation(dataset: OdmrDataset, initial_angles):
    """Fit field orientation angles (theta_x, theta_y, theta_z) to observed lines.

    Needs at least three distinct field magnitudes with two or more lines
    each.  Each line is paired with the nearest model branch at the start
    and the pairing is held during the fit; a pairing that changes at the
    optimum is refit from there, up to 8 fits in all, and one still changing
    after the 8th fit is reported as not converged.

    The spectra fix only the field direction, two degrees of freedom, so
    theta_z is held at its initial value as the gauge choice and (theta_x,
    theta_y) are fitted.  The minimum is one of the full three-angle
    objective; theta_z's covariance entries are zero.
    """
    angles, (res,), (nfev,), (fits,), (settled,) = _fit_angles(dataset, dataset.lines[None],
                                                               initial_angles)
    failure = None if settled else f"the line pairing did not settle after {fits} fits"
    return _fit_result(res, np.linalg.norm(dataset.lines), ("theta_x", "theta_y", "theta_z"),
                       (0, 1, None), (1.0, 1.0, None), {"theta_z": float(angles[0, 2])}, nfev,
                       refits=int(fits) - 1, failure=failure)


def fit_orientations(dataset: OdmrDataset, lines, initial_angles):
    """``fit_orientation`` of k replicas of ``dataset``, as one stacked solve.

    Row i of the ``(k, n_lines)`` stack ``lines`` holds replica i's lines in
    ``dataset``'s record order and counts, each record's in any order; the
    first value not finite and positive raises naming its replica (from 0).
    Returns the ``(k, 3)`` angles (theta_z held), ``converged`` and
    ``iterations``, each bit for bit that of ``fit_orientation`` on its replica.
    """
    observed = _sorted_lines(lines, dataset.counts)
    angles, solves, nfev, _, settled = _fit_angles(dataset, observed, initial_angles)
    return angles, settled & np.array([res.status > 0 for res in solves]), nfev


def _sorted_trace(x, y, min_points):
    """A checked trace: finite 1-D arrays of one length >= ``min_points``, stably sorted by x."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("trace arrays must be 1-D and the same length")
    if x.size < min_points:
        raise ValueError(f"trace must contain at least {min_points} points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("trace contains non-finite values")
    order = np.argsort(x, kind="stable")
    return x[order], y[order]


def fit_cavity_lineshape(omega_p, r_c, initial_guess, overcoupled: bool = True):
    """Fit (omega_c, gamma_c, gamma_f) to a reflectivity trace in linear units.

    The lineshape is invariant under exchanging the two damping rates, so the
    returned pair is ordered by the ``overcoupled`` flag: gamma_f >= gamma_c
    when True, gamma_f <= gamma_c when False.
    """
    omega_p, r_c = _sorted_trace(omega_p, r_c, 4)
    span = float(np.max(r_c) - np.min(r_c))
    if span <= 1e-12 * max(1.0, float(np.max(np.abs(r_c)))):
        raise ValueError("trace is flat: lineshape parameters are not identifiable")
    dip = int(np.argmin(r_c))
    if dip == 0 or dip == omega_p.size - 1:
        warnings.warn("reflectivity minimum sits at the trace edge; fit may be poorly constrained", stacklevel=2)

    initial = np.asarray(initial_guess, dtype=float)
    if initial.shape != (3,) or not np.all(np.isfinite(initial)):
        raise ValueError("initial guess must be (omega_c, gamma_c, gamma_f)")

    def residuals(params):  # a (1, 3) stack
        return cavity_reflectivity_model(omega_p, *params.T[:, :, None]) - r_c

    res, = least_squares(residuals, initial[None])
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
    omega, signal = _sorted_trace(omega, signal, 5)

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

    def residuals(params):  # a (1, 4) stack
        return lorentzian_dip_model(omega, *params.T[:, :, None]) - signal

    res, = least_squares(residuals, np.array([[omega[dip_idx], hw0, depth0, offset0]]))
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
    first other row if it is non-numeric (a header).  A field that is not
    finite and >= 0, or a line that is not positive and finite, raises naming
    the file, the line and the value (a line's in Hz).
    """
    records = []
    for lineno, values in _numeric_rows(path):
        if len(values) < 2:
            raise ValueError(f"{path}:{lineno}: need B_T plus at least one frequency")
        if not (math.isfinite(values[0]) and values[0] >= 0.0):
            raise ValueError(f"{path}:{lineno}: field magnitude must be finite and >= 0, "
                             f"got {values[0]!r}")
        for f in values[1:]:
            if not (f > 0.0 and math.isfinite(TWO_PI * f)):
                raise ValueError(f"{path}:{lineno}: line frequencies must be finite and "
                                 f"positive, got {f!r} Hz")
        records.append((values[0], tuple(TWO_PI * f for f in values[1:])))
    return OdmrDataset(records=tuple(records))


def load_trace_csv(path):
    """Read a two-column trace: freq_Hz, value.  Returns (omega rad/s, values).

    '#' lines are skipped, and so is the first other row if it is non-numeric
    (a header).  A non-finite value raises naming the file, line and row.
    """
    rows = []
    for lineno, values in _numeric_rows(path):
        if len(values) != 2:
            raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(values)}")
        if not (math.isfinite(TWO_PI * values[0]) and math.isfinite(values[1])):
            raise ValueError(f"{path}:{lineno}: trace values must be finite, "
                             f"got {values[0]!r} Hz, {values[1]!r}")
        rows.append(values)
    freqs, values = np.array(rows).T
    return TWO_PI * freqs, values
