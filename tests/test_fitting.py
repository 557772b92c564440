"""Round trips for the orientation, lineshape and linewidth fits plus CSV IO.

Synthetic data are generated with the forward models on known parameters, so
every fit has an exact answer to come back to.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.optimize

import cdmr.fitting
from cdmr.config import load_preset_raw
from cdmr.constants import NV_AXES, TWO_PI
from cdmr.fitting import (
    OdmrDataset,
    cavity_reflectivity_model,
    fit_cavity_lineshape,
    fit_lorentzian_fwhm,
    fit_orientation,
    fit_orientations,
    load_odmr_csv,
    load_trace_csv,
    lorentzian_dip_model,
)
from cdmr.spins import nv_transition_frequencies, rotate_to_unit_vector, sweep_fields

# A strong tilt: the four defect axes see clearly different projections, so
# the eight branches stay separated and the pairing is unambiguous.
TRUTH = (-0.2 * math.pi, 0.002 * math.pi, 0.05 * math.pi)


def synthetic_dataset(angles=TRUTH, b_mags=(2e-3, 3.5e-3, 5e-3, 6.5e-3, 8e-3),
                      lines_per_record=8, rng=None, noise=0.0):
    b_hat = rotate_to_unit_vector(*angles)
    records = []
    for b_mag in b_mags:
        lines = np.sort(nv_transition_frequencies(b_mag * b_hat))[:lines_per_record]
        if noise:
            lines = lines + rng.normal(0.0, noise, size=lines.size)
        records.append((b_mag, tuple(lines)))
    return OdmrDataset(records=tuple(records))


def records_of(dataset):
    """``dataset``'s records rebuilt from its arrays: (|B|, lines) pairs in canonical order."""
    return tuple(zip(dataset.b_mags.tolist(),
                     np.split(dataset.lines, np.cumsum(dataset.counts)[:-1])))


def test_orientation_round_trip_from_perturbed_start():
    dataset = synthetic_dataset()
    initial = (TRUTH[0] + 0.01, TRUTH[1] - 0.02, TRUTH[2])
    result = fit_orientation(dataset, initial)
    assert result.converged
    assert result.parameters["theta_x"] == pytest.approx(TRUTH[0], abs=1e-6)
    assert result.parameters["theta_y"] == pytest.approx(TRUTH[1], abs=1e-6)
    assert result.parameters["theta_z"] == TRUTH[2]
    assert result.residual_norm < 1e-9
    assert result.parameter_order == ("theta_x", "theta_y", "theta_z")


def test_orientation_iterations_sum_every_refit(monkeypatch):
    """A start far enough out re-pairs the lines at least once; the reported
    count covers every least_squares call, not only the last."""
    import cdmr.fitting

    calls = []
    original = cdmr.fitting.least_squares

    def counting(*args, **kwargs):
        solves = original(*args, **kwargs)
        calls.extend(int(res.nfev) for res in solves)
        return solves

    monkeypatch.setattr(cdmr.fitting, "least_squares", counting)
    result = fit_orientation(synthetic_dataset(), (TRUTH[0] + 0.1, TRUTH[1] - 0.1, TRUTH[2]))
    assert result.converged
    assert result.parameters["theta_x"] == pytest.approx(TRUTH[0], abs=1e-6)
    assert len(calls) >= 2
    assert result.iterations == sum(calls)


def test_orientation_refit_cap_sums_all_eight_passes(monkeypatch):
    """A pairing that never settles runs the capped 8 fits, ``iterations``
    adds up the nfev of each of them once, and the fit is not converged even
    though its last solve was."""
    import cdmr.fitting

    calls, assignments = [], []
    lsq, assign = cdmr.fitting.least_squares, cdmr.fitting._assign_lines

    def counting(*args, **kwargs):
        solves = lsq(*args, **kwargs)
        calls.extend(int(res.nfev) for res in solves)
        return solves

    def alternating(*args):
        # Every other pairing is shifted by one branch, so no two in a row agree.
        assignments.append((assign(*args) + len(assignments) % 2) % 8)
        return assignments[-1]

    monkeypatch.setattr(cdmr.fitting, "least_squares", counting)
    monkeypatch.setattr(cdmr.fitting, "_assign_lines", alternating)
    result = fit_orientation(synthetic_dataset(), (TRUTH[0] + 0.01, TRUTH[1] - 0.01, TRUTH[2]))
    assert len(calls) == 8 and len(assignments) == 9
    assert all(n > 0 for n in calls)
    assert result.iterations == sum(calls)
    assert result.refits == 7
    assert result.converged is False
    assert result.message == "the line pairing did not settle after 8 fits"


@pytest.mark.parametrize("offset, settles_at_once", [(0.001, True), (0.1, False)],
                         ids=["near", "far"])
def test_orientation_refits_count_the_pairing_changes(monkeypatch, offset, settles_at_once):
    """One pairing at the start, one after each fit: ``refits`` is the fits
    after the first, as a counted ``_assign_lines`` sees them."""
    import cdmr.fitting

    assignments = []
    assign = cdmr.fitting._assign_lines
    monkeypatch.setattr(cdmr.fitting, "_assign_lines",
                        lambda *args: assignments.append(1) or assign(*args))
    result = fit_orientation(synthetic_dataset(), (TRUTH[0] + offset, TRUTH[1] - offset, TRUTH[2]))
    assert result.converged
    assert result.refits == len(assignments) - 2
    assert (result.refits == 0) == settles_at_once


def test_orientation_theta_z_is_held_fixed():
    """theta_z is a gauge direction: a different initial value still recovers
    the same field direction through compensating theta_x, theta_y."""
    dataset = synthetic_dataset()
    other_z = TRUTH[2] + 0.3
    result = fit_orientation(dataset, (TRUTH[0], TRUTH[1], other_z))
    assert result.parameters["theta_z"] == other_z
    fitted_hat = rotate_to_unit_vector(
        result.parameters["theta_x"], result.parameters["theta_y"], other_z
    )
    truth_hat = rotate_to_unit_vector(*TRUTH)
    assert abs(float(np.dot(fitted_hat, truth_hat))) > 1.0 - 1e-9
    # Covariance stays 3x3 with an identically zero held-parameter block.
    assert result.covariance.shape == (3, 3)
    assert np.all(result.covariance[2, :] == 0.0)
    assert np.all(result.covariance[:, 2] == 0.0)


def test_orientation_fit_is_deterministic_and_order_invariant():
    clean = synthetic_dataset()
    records = records_of(clean)
    shuffled = OdmrDataset(records=(records[3], records[0], records[4], records[1], records[2]))
    for name in ("b_mags", "counts", "lines"):
        assert getattr(shuffled, name).tolist() == getattr(clean, name).tolist()
    initial = (TRUTH[0] + 0.005, TRUTH[1] - 0.005, TRUTH[2])
    first = fit_orientation(shuffled, initial)
    second = fit_orientation(synthetic_dataset(), initial)
    assert first.parameters == second.parameters
    assert first.residual_norm == second.residual_norm


def test_orientation_handles_ragged_records():
    full = synthetic_dataset()
    trimmed = []
    for i, (b_mag, lines) in enumerate(records_of(full)):
        keep = lines if i % 2 == 0 else (lines[0], lines[-1])
        trimmed.append((b_mag, keep))
    result = fit_orientation(OdmrDataset(records=tuple(trimmed)),
                             (TRUTH[0] + 0.004, TRUTH[1] - 0.004, TRUTH[2]))
    assert result.converged
    assert result.parameters["theta_x"] == pytest.approx(TRUTH[0], abs=1e-6)
    assert result.parameters["theta_y"] == pytest.approx(TRUTH[1], abs=1e-6)


def replica_datasets(dataset, lines):
    """One ``OdmrDataset`` per row of a ``(k, n_lines)`` stack in ``dataset``'s layout."""
    edges = np.cumsum(dataset.counts)[:-1]
    return [OdmrDataset(records=tuple(zip(dataset.b_mags, np.split(row, edges))))
            for row in lines]


def test_orientations_equal_one_fit_per_replica():
    """Oracle: every replica of a stacked fit has the angles, ``converged`` and
    ``iterations`` of its own ``fit_orientation``, bit for bit, also for
    replicas that re-pair and refit while others settle at once.  One record
    is given in reverse order, which both sides sort."""
    rng = np.random.default_rng(11)
    clean = synthetic_dataset()
    observed = clean.lines
    lines = np.vstack([observed + rng.normal(0.0, TWO_PI * 2e5, (4, observed.size)), observed])
    lines[0, :8] = lines[0, 7::-1]
    initial = (TRUTH[0] + 0.1, TRUTH[1] - 0.1, TRUTH[2])
    angles, converged, iterations = fit_orientations(clean, lines, initial)
    replicas = replica_datasets(clean, lines)
    assert any(replica.lines.tolist() != row.tolist() for replica, row in zip(replicas, lines))
    solo = [fit_orientation(replica, initial) for replica in replicas]
    assert len({result.iterations for result in solo}) > 1
    assert len({result.refits for result in solo}) > 1
    assert angles.shape == (5, 3) and converged.dtype == bool and iterations.shape == (5,)
    for i, reference in enumerate(solo):
        assert angles[i].tolist() == [reference.parameters[k]
                                      for k in ("theta_x", "theta_y", "theta_z")]
        assert (bool(converged[i]), int(iterations[i])) == (reference.converged,
                                                           reference.iterations)


def test_orientations_of_the_dataset_lines_are_the_reference_fit():
    dataset = synthetic_dataset(rng=np.random.default_rng(4), noise=TWO_PI * 1e5)
    initial = (TRUTH[0] + 0.1, TRUTH[1] - 0.1, TRUTH[2])
    reference = fit_orientation(dataset, initial)
    angles, converged, iterations = fit_orientations(dataset, dataset.lines[None], initial)
    assert reference.refits > 0
    assert angles.tolist() == [[reference.parameters[k]
                                for k in ("theta_x", "theta_y", "theta_z")]]
    assert (converged.tolist(), iterations.tolist()) == ([reference.converged],
                                                         [reference.iterations])


@pytest.mark.parametrize("shape", [(0, 40), (40,), (2, 39), (2, 41), (1, 2, 40)],
                         ids=["empty", "flat", "short", "long", "3-d"])
def test_orientations_reject_a_stack_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"lines must be a \(k, 40\) stack with k >= 1"):
        fit_orientations(synthetic_dataset(), np.full(shape, TWO_PI * 2.87e9), TRUTH)
    with pytest.raises(ValueError, match=r"lines must be a \(k, 40\) stack"):
        fit_orientations(synthetic_dataset(), [], TRUTH)


def test_orientations_sort_each_record_as_a_dataset_does():
    """A record's lines given out of order fit exactly as the sorted ones."""
    rng = np.random.default_rng(5)
    clean = synthetic_dataset()
    observed = clean.lines
    ordered = observed + rng.normal(0.0, TWO_PI * 1e5, (6, observed.size))
    for start in range(0, observed.size, 8):
        ordered[:, start:start + 8].sort(axis=1)
    shuffled = ordered.copy()
    for row in shuffled:
        for start in range(0, observed.size, 8):
            rng.shuffle(row[start:start + 8])
    assert not np.array_equal(shuffled, ordered)
    initial = (TRUTH[0] + 0.05, TRUTH[1] - 0.05, TRUTH[2])
    kept = shuffled.copy()
    for ours, reference in zip(fit_orientations(clean, shuffled, initial),
                               fit_orientations(clean, ordered, initial)):
        assert ours.tobytes() == reference.tobytes()
    assert np.array_equal(shuffled, kept)  # the caller's stack is not sorted in place


@pytest.mark.parametrize("bad, first", [
    ((-TWO_PI * 1e9, -TWO_PI * 2e9), -TWO_PI * 2e9), ((0.0, math.inf), 0.0),
    ((math.inf, -0.5), -0.5), ((math.nan,), math.nan),
], ids=["negatives", "zero-inf", "inf-negative", "nan"])
def test_orientations_name_the_replica_and_value_a_dataset_names(bad, first):
    """The first replica with a line that is not finite and positive raises,
    naming the value its own ``OdmrDataset`` names: the first in its sorted
    record.  (A NaN is checked alone: the sort puts it last.)"""
    clean = synthetic_dataset()
    observed = clean.lines
    lines = np.tile(observed, (4, 1))
    lines[2, 11:11 + len(bad)] = bad
    lines[3, 0] = -1.0
    with pytest.raises(ValueError) as reference:
        replica_datasets(clean, lines[2:3])
    with pytest.raises(ValueError) as ours:
        fit_orientations(clean, lines, TRUTH)
    assert str(ours.value) == f"replica 2: {reference.value}"
    assert str(ours.value).endswith(f"got {first!r}")


def test_orientation_evaluates_the_line_formula_once_per_model(monkeypatch):
    """Each residual evaluation and each line assignment is one batched call
    of the NV line formula, however many records the dataset holds."""
    import cdmr.fitting

    formula_calls, residual_calls, assignments = [0], [0], [0]
    formula, lsq, assign = (cdmr.fitting.nv_transition_frequencies,
                            cdmr.fitting.least_squares, cdmr.fitting._assign_lines)

    def counting_formula(*args, **kwargs):
        formula_calls[0] += 1
        return formula(*args, **kwargs)

    def counting_fun(fun):
        def wrapped(x):
            residual_calls[0] += 1
            return fun(x)
        return wrapped

    def counting_assign(*args):
        assignments[0] += 1
        return assign(*args)

    monkeypatch.setattr(cdmr.fitting, "nv_transition_frequencies", counting_formula)
    monkeypatch.setattr(cdmr.fitting, "least_squares",
                        lambda fun, x0, **kw: lsq(counting_fun(fun), x0, **kw))
    monkeypatch.setattr(cdmr.fitting, "_assign_lines", counting_assign)
    dataset = synthetic_dataset()
    result = fit_orientation(dataset, (TRUTH[0] + 0.1, TRUTH[1] - 0.1, TRUTH[2]))
    assert result.converged
    assert len(dataset.b_mags) == 5
    assert assignments[0] >= 3  # the start, and one after each of >= 2 refits
    # nfev leaves out the finite-difference Jacobian evaluations of "lm".
    assert residual_calls[0] > result.iterations
    assert formula_calls[0] == residual_calls[0] + assignments[0]


def test_orientation_assignment_matches_a_per_line_loop(monkeypatch):
    """Ragged records: the flat assignment is the nearest branch of each
    line's own record, as a plain loop over records and lines finds it."""
    import cdmr.fitting

    full = synthetic_dataset(rng=np.random.default_rng(3), noise=TWO_PI * 2e5)
    counts = (8, 3, 5, 2, 6)
    dataset = OdmrDataset(records=tuple(
        (b_mag, lines[len(lines) - k:]) for (b_mag, lines), k in zip(records_of(full), counts)))
    seen = []
    assign = cdmr.fitting._assign_lines

    def recording(model, *args):
        assignment = assign(model, *args)
        seen.append((model, assignment))
        return assignment

    monkeypatch.setattr(cdmr.fitting, "_assign_lines", recording)
    fit_orientation(dataset, (TRUTH[0] + 0.1, TRUTH[1] - 0.1, TRUTH[2]))
    assert len(seen) >= 2
    assert not np.array_equal(seen[0][1], seen[-1][1])
    for model, assignment in seen:  # batches of one replica
        expected = [int(np.argmin(np.abs(model[0, i] - f)))
                    for i, (_, lines) in enumerate(records_of(dataset)) for f in lines]
        assert assignment.tolist() == [expected]


def test_orientation_survives_small_noise():
    rng = np.random.default_rng(42)
    dataset = synthetic_dataset(rng=rng, noise=TWO_PI * 5e3)
    result = fit_orientation(dataset, (TRUTH[0] + 0.01, TRUTH[1] - 0.01, TRUTH[2]))
    assert result.converged
    assert result.parameters["theta_x"] == pytest.approx(TRUTH[0], abs=5e-3)
    assert result.parameters["theta_y"] == pytest.approx(TRUTH[1], abs=5e-3)


def test_orientation_of_its_own_sweep_lines_is_exact():
    # The fit models its fields with sweep_fields, as the line tables do: at
    # these angles |rotate_to_unit_vector| rounds to 0.9999999999999999, so an
    # unnormalized direction would leave a residual of ~1e-16 relative.
    angles = (1e-3, -2e-3, 0.5)
    b_mags, fields = sweep_fields(np.linspace(0.014, 0.02, 12), rotate_to_unit_vector(*angles))
    lines = nv_transition_frequencies(fields)
    result = fit_orientation(OdmrDataset(records=tuple(zip(b_mags, lines))), angles)
    assert result.residual_norm == 0.0
    assert (result.parameters["theta_x"], result.parameters["theta_y"]) == angles[:2]


def test_orientation_axis_aligned_field_recovers_direction():
    # On the symmetry axis every defect axis sees the same projection, so a
    # tilt only enters the spectrum at second order; the direction comes back
    # to a fraction of a degree rather than machine precision.
    dataset = synthetic_dataset(angles=(0.0, 0.0, 0.0))
    result = fit_orientation(dataset, (0.01, -0.01, 0.0))
    fitted_hat = rotate_to_unit_vector(
        result.parameters["theta_x"], result.parameters["theta_y"], 0.0
    )
    assert result.converged
    assert abs(float(fitted_hat[2])) > 1.0 - 5e-4


def test_orientation_fit_input_validation():
    dataset = synthetic_dataset()
    records = records_of(dataset)
    with pytest.raises(ValueError, match="3 distinct field"):
        fit_orientation(OdmrDataset(records=records[:2]), TRUTH)
    with pytest.raises(ValueError, match="got 2$"):
        fit_orientation(OdmrDataset(records=records[:2] + records[1:2] * 3), TRUTH)
    broken = records[:4] + ((9e-3, (TWO_PI * 2.9e9,)),)
    with pytest.raises(ValueError, match="2 lines per record"):
        fit_orientation(OdmrDataset(records=broken), TRUTH)
    with pytest.raises(ValueError, match="three finite"):
        fit_orientation(dataset, (0.0, 0.1))
    with pytest.raises(ValueError, match="three finite"):
        fit_orientation(dataset, (0.0, math.nan, 0.0))


def test_odmr_dataset_canonicalizes_and_validates():
    ds = OdmrDataset(records=((5e-3, (3.0, 1.0, 2.0)), (1e-3, (4.0,))))
    assert ds.b_mags.tolist() == [1e-3, 5e-3]
    assert ds.counts.tolist() == [1, 3]
    assert ds.lines.tolist() == [4.0, 1.0, 2.0, 3.0]
    for array in (ds.b_mags, ds.counts, ds.lines):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(ValueError, match="at least one record"):
        OdmrDataset(records=())
    with pytest.raises(ValueError, match="magnitude"):
        OdmrDataset(records=((-1e-3, (1.0,)),))
    with pytest.raises(ValueError, match="at least one line"):
        OdmrDataset(records=((1e-3, ()),))
    with pytest.raises(ValueError, match="finite and positive"):
        OdmrDataset(records=((1e-3, (0.0,)),))


def test_odmr_dataset_checks_every_field_before_any_line():
    """With several faults, a bad field magnitude is named first, wherever it
    sits; then an empty record; then the first bad line in canonical order."""
    bad_line, empty = (1e-3, (2.0, -1.0)), (2e-3, ())
    with pytest.raises(ValueError, match=r"magnitude must be finite and >= 0, got nan$"):
        OdmrDataset(records=(bad_line, empty, (math.nan, (1.0,)), (-1.0, (1.0,))))
    with pytest.raises(ValueError, match="at least one line"):
        OdmrDataset(records=(bad_line, empty))
    with pytest.raises(ValueError, match=r"positive, got -1\.0$"):
        OdmrDataset(records=((5e-3, (-3.0,)), bad_line))


def test_odmr_dataset_keeps_records_at_one_field_in_the_order_given():
    """Records at equal |B| keep the order they are given in, as a stable sort
    leaves them, in either order; each fit equals that of the same records
    given already in canonical order, which no sort moves."""
    full = synthetic_dataset(rng=np.random.default_rng(9), noise=TWO_PI * 1e5)
    (b1, l1), (b2, l2), (b3, l3), (b4, l4), (b5, l5) = records_of(full)
    low, high = (b3, l3[:4]), (b3, l3[4:])
    initial = (TRUTH[0] + 0.05, TRUTH[1] - 0.05, TRUTH[2])
    kept = []
    for first, second in ((low, high), (high, low)):
        given = OdmrDataset(records=((b5, l5), (b3, first[1][::-1]), (b1, l1), second,
                                     (b4, l4), (b2, l2)))
        canonical = OdmrDataset(records=((b1, l1), (b2, l2), first, second, (b4, l4), (b5, l5)))
        assert given.b_mags.tolist() == [b1, b2, b3, b3, b4, b5]
        assert given.counts.tolist() == [8, 8, 4, 4, 8, 8]
        assert given.lines.tolist() == np.concatenate(
            [np.sort(f) for f in (l1, l2, first[1], second[1], l4, l5)]).tolist()
        assert canonical.lines.tolist() == given.lines.tolist()
        ours, reference = fit_orientation(given, initial), fit_orientation(canonical, initial)
        assert ours.converged
        assert (ours.parameters, ours.residual_norm, ours.iterations, ours.refits) == (
            reference.parameters, reference.residual_norm, reference.iterations,
            reference.refits)
        assert np.array_equal(ours.covariance, reference.covariance)
        kept.append(given.lines.tolist())
    assert kept[0] != kept[1]


CAVITY_TRUTH = (TWO_PI * 2.53e9, TWO_PI * 253e3, TWO_PI * 367e3)


def cavity_trace(n=101, half_span=3e6):
    omega = CAVITY_TRUTH[0] + TWO_PI * np.linspace(-half_span, half_span, n)
    return omega, cavity_reflectivity_model(omega, *CAVITY_TRUTH)


def test_cavity_lineshape_round_trip():
    omega, r_c = cavity_trace()
    guess = (CAVITY_TRUTH[0] + TWO_PI * 0.2e6, TWO_PI * 200e3, TWO_PI * 400e3)
    result = fit_cavity_lineshape(omega, r_c, guess)
    assert result.converged
    assert result.parameters["omega_c"] == pytest.approx(CAVITY_TRUTH[0], rel=1e-9)
    assert result.parameters["gamma_c"] == pytest.approx(CAVITY_TRUTH[1], rel=1e-6)
    assert result.parameters["gamma_f"] == pytest.approx(CAVITY_TRUTH[2], rel=1e-6)
    assert result.residual_norm < 1e-9


def test_cavity_lineshape_coupling_order_flag():
    omega, r_c = cavity_trace()
    guess = (CAVITY_TRUTH[0], TWO_PI * 300e3, TWO_PI * 310e3)
    over = fit_cavity_lineshape(omega, r_c, guess, overcoupled=True)
    under = fit_cavity_lineshape(omega, r_c, guess, overcoupled=False)
    assert over.parameters["gamma_f"] >= over.parameters["gamma_c"]
    assert under.parameters["gamma_f"] <= under.parameters["gamma_c"]
    # Same unordered pair either way; the data cannot tell the rates apart.
    assert over.parameters["gamma_f"] == pytest.approx(under.parameters["gamma_c"], rel=1e-9)
    assert over.parameters["gamma_c"] == pytest.approx(under.parameters["gamma_f"], rel=1e-9)


def test_cavity_lineshape_covariance_follows_the_reported_rates():
    """The rates are reported sorted by the coupling flag whatever order or
    sign the solver lands on, and so is their covariance."""
    rng = np.random.default_rng(11)
    omega, r_c = cavity_trace(n=201)
    r_c = r_c + rng.normal(0.0, 0.01, omega.size)
    omega_c, gamma_c, gamma_f = CAVITY_TRUTH
    base = fit_cavity_lineshape(omega, r_c, (omega_c, gamma_c, gamma_f))
    scale = np.sqrt(np.outer(np.diag(base.covariance), np.diag(base.covariance)))
    for start in ((omega_c, gamma_f, gamma_c), (omega_c, -gamma_f, -gamma_c)):
        other = fit_cavity_lineshape(omega, r_c, start)
        for name in base.parameter_order:
            assert other.parameters[name] == pytest.approx(base.parameters[name], rel=1e-9)
        assert np.max(np.abs(other.covariance - base.covariance) / scale) < 1e-6
    # sigma(gamma_f) > sigma(gamma_c) on this trace, so a swap would show.
    assert base.covariance[2, 2] > 2.0 * base.covariance[1, 1]


def test_cavity_lineshape_edge_dip_warns():
    omega = CAVITY_TRUTH[0] + TWO_PI * np.linspace(0.5e6, 3e6, 50)
    r_c = cavity_reflectivity_model(omega, *CAVITY_TRUTH)
    with pytest.warns(UserWarning, match="edge"):
        fit_cavity_lineshape(omega, r_c, CAVITY_TRUTH)


def test_cavity_lineshape_rejects_bad_traces():
    omega, r_c = cavity_trace()
    with pytest.raises(ValueError, match="flat"):
        fit_cavity_lineshape(omega, np.full_like(omega, 0.5), CAVITY_TRUTH)
    with pytest.raises(ValueError, match="at least 4"):
        fit_cavity_lineshape(omega[:3], r_c[:3], CAVITY_TRUTH)
    with pytest.raises(ValueError, match="non-finite"):
        fit_cavity_lineshape(omega, np.where(omega > CAVITY_TRUTH[0], np.nan, r_c), CAVITY_TRUTH)
    with pytest.raises(ValueError, match="same length"):
        fit_cavity_lineshape(omega, r_c[:-1], CAVITY_TRUTH)
    with pytest.raises(ValueError, match="initial guess"):
        fit_cavity_lineshape(omega, r_c, (1.0, 2.0))


LORENTZ_TRUTH = {"center": TWO_PI * 2.53e9, "fwhm": TWO_PI * 13.5e6,
                 "depth": 0.7, "offset": 0.97}


def lorentz_trace(n=401, half_span=50e6):
    omega = LORENTZ_TRUTH["center"] + TWO_PI * np.linspace(-half_span, half_span, n)
    signal = lorentzian_dip_model(
        omega, LORENTZ_TRUTH["center"], LORENTZ_TRUTH["fwhm"] / 2.0,
        LORENTZ_TRUTH["depth"], LORENTZ_TRUTH["offset"],
    )
    return omega, signal


def test_lorentzian_fwhm_round_trip():
    omega, signal = lorentz_trace()
    result = fit_lorentzian_fwhm(omega, signal)
    assert result.converged
    assert result.parameter_order == ("center", "fwhm", "depth", "offset")
    assert result.parameters["center"] == pytest.approx(LORENTZ_TRUTH["center"], rel=1e-12)
    assert result.parameters["fwhm"] == pytest.approx(LORENTZ_TRUTH["fwhm"], rel=1e-6)
    assert result.parameters["depth"] == pytest.approx(LORENTZ_TRUTH["depth"], rel=1e-6)
    assert result.parameters["offset"] == pytest.approx(LORENTZ_TRUTH["offset"], rel=1e-6)


def test_lorentzian_fwhm_input_order_is_irrelevant():
    omega, signal = lorentz_trace(n=101)
    forward = fit_lorentzian_fwhm(omega, signal)
    backward = fit_lorentzian_fwhm(omega[::-1].copy(), signal[::-1].copy())
    assert forward.parameters == backward.parameters


def test_lorentzian_fwhm_multi_dip_warns_and_fits_deepest():
    # Second dip 30 MHz away: shallower than the main one but well past the
    # half-depth level, so the run detector sees two separated dips.
    center2 = LORENTZ_TRUTH["center"] + TWO_PI * 30e6
    omega, signal = lorentz_trace()
    hw2 = TWO_PI * 2e6
    signal = signal - 0.45 * hw2**2 / ((omega - center2) ** 2 + hw2**2)
    with pytest.warns(UserWarning, match="separated dips"):
        result = fit_lorentzian_fwhm(omega, signal)
    assert abs(result.parameters["center"] - LORENTZ_TRUTH["center"]) < TWO_PI * 2e6


def noisy_dip(seed=4, fwhm_hz=601e3):
    omega = LORENTZ_TRUTH["center"] + TWO_PI * np.linspace(-5e6, 5e6, 401)
    signal = lorentzian_dip_model(omega, LORENTZ_TRUTH["center"], TWO_PI * fwhm_hz / 2.0,
                                  0.6, 0.95)
    return omega, signal + np.random.default_rng(seed).normal(0.0, 0.01, omega.size)


def test_lorentzian_fwhm_covariance_is_in_the_reported_parameters():
    """Oracle: sigma^2 (J^T J)^-1 with J a central-difference Jacobian taken
    directly in (center, fwhm, depth, offset) at the fitted values."""
    omega, signal = noisy_dip()
    result = fit_lorentzian_fwhm(omega, signal)
    p = np.array([result.parameters[name] for name in result.parameter_order])

    def model(q):
        return lorentzian_dip_model(omega, q[0], q[1] / 2.0, q[2], q[3])

    steps = np.diag(1e-6 * np.abs(p))
    jac = np.column_stack([(model(p + h) - model(p - h)) / (2.0 * h[i])
                           for i, h in enumerate(steps)])
    residual = model(p) - signal
    expected = np.linalg.inv(jac.T @ jac) * (residual @ residual) / (omega.size - 4)
    scale = np.sqrt(np.outer(np.diag(expected), np.diag(expected)))
    # The solver's forward-difference Jacobian limits the agreement to ~1e-4.
    assert np.max(np.abs(result.covariance - expected) / scale) < 1e-3


def test_lorentzian_fwhm_covariance_ignores_the_half_width_sign(monkeypatch):
    """The model depends on hw^2; a solve that lands on -hw reports the same."""
    import cdmr.fitting

    omega, signal = noisy_dip()
    base = fit_lorentzian_fwhm(omega, signal)
    lsq = cdmr.fitting.least_squares

    def negated_half_width(*args, **kwargs):
        solves = lsq(*args, **kwargs)
        flip = np.array([1.0, -1.0, 1.0, 1.0])
        return [res._replace(x=res.x * flip, jac=res.jac * flip) for res in solves]

    monkeypatch.setattr(cdmr.fitting, "least_squares", negated_half_width)
    flipped = fit_lorentzian_fwhm(omega, signal)
    assert flipped.parameters == base.parameters
    np.testing.assert_allclose(flipped.covariance, base.covariance, rtol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_lorentzian_fwhm_start_matches_a_run_loop(monkeypatch, seed):
    """Reference: a plain loop over the below-half-depth samples finds the
    separated dips (warned about when more than one) and the run around the
    deepest point, whose half-width starts the fit."""
    import cdmr.fitting

    rng = np.random.default_rng(seed)
    omega = TWO_PI * np.sort(rng.uniform(2.5e9, 2.56e9, 61))
    signal = 1.0 - 0.5 * (rng.uniform(size=omega.size) < 0.3) - rng.uniform(0.0, 0.2, omega.size)
    offset0 = float(np.percentile(signal, 90))
    depth0 = offset0 - float(np.min(signal))
    runs, start = [], None
    for i, flag in enumerate(list(signal < offset0 - 0.5 * depth0) + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    dip = int(np.argmin(signal))
    first, last = next(run for run in runs if run[0] <= dip <= run[1])
    starts = []
    lsq = cdmr.fitting.least_squares
    monkeypatch.setattr(cdmr.fitting, "least_squares",
                        lambda fun, x0, **kw: starts.append(x0) or lsq(fun, x0, **kw))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit_lorentzian_fwhm(omega, signal)
    dips = [str(w.message) for w in caught if "separated dips" in str(w.message)]
    assert dips == ([f"trace has {len(runs)} separated dips; fitting the deepest one"]
                    if len(runs) > 1 else [])
    assert starts[0].shape == (1, 4)  # a batch of one start
    assert starts[0][0, 1] == max(0.5 * (omega[last] - omega[first]), np.min(np.diff(omega)))


def test_lorentzian_fwhm_rejects_bad_traces():
    omega, signal = lorentz_trace(n=11)
    with pytest.raises(ValueError, match="no dip"):
        fit_lorentzian_fwhm(omega, np.full_like(omega, 0.97))
    with pytest.raises(ValueError, match="at least 5"):
        fit_lorentzian_fwhm(omega[:4], signal[:4])
    with pytest.raises(ValueError, match="same length"):
        fit_lorentzian_fwhm(omega, signal[:-1])


def test_load_odmr_csv_units_and_raggedness(tmp_path):
    path = tmp_path / "lines.csv"
    path.write_text(
        "b_t,f1_hz,f2_hz\n"
        "# comment row\n"
        "0.005,2.8e9,2.95e9\n"
        "0.002,2.86e9\n"
    )
    dataset = load_odmr_csv(path)
    assert dataset.b_mags.tolist() == [0.002, 0.005]
    assert dataset.counts.tolist() == [1, 2]
    assert dataset.lines.tolist() == [TWO_PI * 2.86e9, TWO_PI * 2.8e9, TWO_PI * 2.95e9]


def test_load_odmr_csv_errors(tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("0.005,2.8e9\n0.006\n")
    with pytest.raises(ValueError, match=r"short\.csv:2: need B_T"):
        load_odmr_csv(short)
    unparsable = tmp_path / "mid_header.csv"
    unparsable.write_text("0.005,2.8e9\nb_t,f_hz\n")
    with pytest.raises(ValueError, match=r"mid_header\.csv:2: non-numeric"):
        load_odmr_csv(unparsable)
    empty = tmp_path / "empty.csv"
    empty.write_text("# only comments\n")
    with pytest.raises(ValueError, match="no data rows"):
        load_odmr_csv(empty)


@pytest.mark.parametrize("row, message", [
    ("0.006,2.8e9,-1e9", "line frequencies must be finite and positive, got -1000000000.0 Hz"),
    ("0.006,0,2.8e9", "line frequencies must be finite and positive, got 0.0 Hz"),
    ("0.006,2.8e9,nan", "line frequencies must be finite and positive, got nan Hz"),
    ("0.006,1e308", "line frequencies must be finite and positive, got 1e+308 Hz"),
], ids=["negative", "zero", "nan", "overflows-in-rad"])
def test_load_odmr_csv_names_the_file_and_line_of_a_bad_value(tmp_path, row, message):
    path = tmp_path / "lines.csv"
    path.write_text(f"b_t,f_hz\n0.005,2.8e9,2.95e9\n{row}\n")
    with pytest.raises(ValueError) as excinfo:
        load_odmr_csv(path)
    assert str(excinfo.value) == f"{path}:3: {message}"


@pytest.mark.parametrize("field, shown", [("-0.006", "-0.006"), ("nan", "nan"), ("inf", "inf")])
def test_load_odmr_csv_names_the_file_and_line_of_a_bad_field(tmp_path, field, shown):
    path = tmp_path / "lines.csv"
    path.write_text(f"b_t,f_hz\n0.005,2.8e9,2.95e9\n{field},2.8e9\n")
    with pytest.raises(ValueError) as excinfo:
        load_odmr_csv(path)
    assert str(excinfo.value) == f"{path}:3: field magnitude must be finite and >= 0, got {shown}"


def test_load_trace_csv_round_trip(tmp_path):
    path = tmp_path / "trace.csv"
    freqs = [2.528e9, 2.53e9, 2.532e9]
    vals = [0.91, 0.034, 0.89]
    path.write_text("freq_hz,r\n" + "".join(f"{f!r},{v!r}\n" for f, v in zip(freqs, vals)))
    omega, values = load_trace_csv(path)
    assert np.array_equal(omega, TWO_PI * np.asarray(freqs))
    assert np.array_equal(values, np.asarray(vals))
    bad = tmp_path / "threecol.csv"
    bad.write_text("1e9,0.5,0.1\n")
    with pytest.raises(ValueError, match="expected 2 columns, got 3"):
        load_trace_csv(bad)


@pytest.mark.parametrize("row", ["2.53e9,nan", "inf,0.5", "1e308,0.5", "2.53e9,-inf"])
def test_load_trace_csv_names_the_file_and_line_of_a_bad_value(tmp_path, row):
    path = tmp_path / "trace.csv"
    path.write_text(f"freq_hz,r\n2.528e9,0.91\n# comment\n{row}\n")
    freq, value = (float(cell) for cell in row.split(","))
    with pytest.raises(ValueError) as excinfo:
        load_trace_csv(path)
    assert str(excinfo.value) == (f"{path}:4: trace values must be finite, "
                                  f"got {freq!r} Hz, {value!r}")


@pytest.mark.parametrize(
    "loader, data_row",
    [(load_odmr_csv, "0.005,2.8e9,2.95e9\n"), (load_trace_csv, "2.53e9,0.5\n")],
    ids=["odmr", "trace"],
)
def test_loaders_accept_at_most_one_header_row(tmp_path, loader, data_row):
    one_header = tmp_path / "one_header.csv"
    one_header.write_text("# comment\ncol_a,col_b\n" + data_row)
    loader(one_header)
    two_rows = tmp_path / "two_rows.csv"
    two_rows.write_text("col_a,col_b\nnot,numbers\n" + data_row)
    with pytest.raises(ValueError, match=r"two_rows\.csv:2: non-numeric row"):
        loader(two_rows)
    comments = tmp_path / "comments.csv"
    comments.write_text("# only\n# comments\n")
    with pytest.raises(ValueError, match=r"comments\.csv: no data rows"):
        loader(comments)


@pytest.mark.parametrize("fit", ["orientation", "cavity", "fwhm"])
def test_fit_reports_the_jacobian_condition(monkeypatch, fit):
    import cdmr.fitting

    solves = []
    lsq = cdmr.fitting.least_squares
    monkeypatch.setattr(cdmr.fitting, "least_squares",
                        lambda *args, **kwargs: solves.extend(lsq(*args, **kwargs)) or solves[-1:])
    if fit == "orientation":
        result = fit_orientation(synthetic_dataset(rng=np.random.default_rng(5), noise=TWO_PI * 5e3),
                                 (TRUTH[0] + 0.01, TRUTH[1] - 0.01, TRUTH[2]))
    elif fit == "cavity":
        result = fit_cavity_lineshape(*cavity_trace(), CAVITY_TRUTH)
    else:
        result = fit_lorentzian_fwhm(*noisy_dip())
    assert result.jacobian_condition > 1.0
    assert result.jacobian_condition == pytest.approx(np.linalg.cond(solves[-1].jac), rel=1e-12)


# Oracle: every fit against MINPACK's Levenberg-Marquardt as scipy runs it,
# with the Jacobian-norm scaling and the tolerances this package's solver
# uses.  x_scale is given explicitly because scipy's default for "lm" changed
# in 1.16.
SOLVER_TOLERANCES = {"ftol": cdmr.fitting._FTOL, "xtol": cdmr.fitting._XTOL,
                     "gtol": cdmr.fitting._GTOL, "max_nfev": cdmr.fitting._MAX_NFEV}


def scipy_lm(fun, x0, **kwargs):
    return scipy.optimize.least_squares(fun, x0, method="lm", x_scale="jac", **SOLVER_TOLERANCES,
                                        **kwargs)


def scipy_lm_rows(fun, x0):
    """``scipy_lm`` once per row of the ``(k, n)`` stack ``x0``, other rows held at their starts."""
    x0 = np.asarray(x0, dtype=float)

    def row_fun(i):
        def fun_i(x):
            stack = x0.copy()
            stack[i] = x
            return fun(stack)[i]
        return fun_i

    return [scipy_lm(row_fun(i), row) for i, row in enumerate(x0)]


def fit_with_both(monkeypatch, fit):
    """``fit()`` with this package's solver and with ``scipy_lm``; same ``converged``."""
    import cdmr.fitting

    ours = fit()
    with monkeypatch.context() as patch:
        patch.setattr(cdmr.fitting, "least_squares", scipy_lm_rows)
        reference = fit()
    assert ours.converged == reference.converged
    return ours, reference


def within_fit_tolerance(ours, reference, n_residuals):
    """Whether every parameter agrees within the fit tolerance, and that tolerance.

    ``ftol`` stops a solve once the sum of squares S falls by a relative
    ftol or less, so a stopping point may sit dx^T (J^T J) dx <= ftol * S
    from the minimum, i.e. sqrt(ftol * n_residuals) standard errors; ``xtol``
    adds 10 * xtol relative for noise-free data, whose standard errors are
    round-off.
    """
    import cdmr.fitting

    names = reference.parameter_order
    values = np.array([reference.parameters[name] for name in names])
    gap = np.abs(np.array([ours.parameters[name] for name in names]) - values)
    tolerance = (math.sqrt(cdmr.fitting._FTOL * n_residuals) * np.sqrt(np.diag(reference.covariance))
                 + 10 * cdmr.fitting._XTOL * np.abs(values))
    return bool(np.all(gap <= tolerance)), tolerance


def axis_projections(result):
    b_hat = rotate_to_unit_vector(*(result.parameters[k] for k in ("theta_x", "theta_y", "theta_z")))
    return np.sort(np.abs(NV_AXES @ b_hat))


def preset_values(name):
    raw = load_preset_raw(name)
    angles = np.array([raw["field_sweep"][k] for k in ("theta_x_rad", "theta_y_rad", "theta_z_rad")])
    rates = np.array([raw["cavity"][k] for k in ("omega_c_hz", "gamma_c_hz", "gamma_f_hz")])
    return angles, TWO_PI * rates


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("preset", ["nv_default", "p1_default"])
def test_orientation_fits_match_scipy(monkeypatch, preset, seed):
    """Analysis-style line sets: 12 records of 8 lines, the truth 0.01 rad
    from the preset's angles and the start 0.01 rad from the truth; noise-free
    and with 1e-4 relative noise."""
    rng = np.random.default_rng(seed)
    angles, _ = preset_values(preset)
    truth = angles + np.array([*rng.uniform(-0.01, 0.01, 2), 0.0])
    turn = rng.uniform(0.0, 2.0 * math.pi)
    initial = truth + 0.01 * np.array([math.cos(turn), math.sin(turn), 0.0])
    clean = synthetic_dataset(angles=truth, b_mags=np.linspace(0.014, 0.02, 12))
    datasets = [clean] + [
        OdmrDataset(records=tuple(
            (b_mag, tuple(np.asarray(lines) * (1.0 + rng.normal(0.0, 1e-4, len(lines)))))
            for b_mag, lines in records_of(clean)))
        for _ in range(5)]
    for dataset in datasets:
        ours, reference = fit_with_both(monkeypatch, lambda: fit_orientation(dataset, initial))
        agree, tolerance = within_fit_tolerance(ours, reference, 96)
        if not agree:
            # Near [001] (the P1 preset) the four defect axes are nearly
            # equivalent, so mirror-image field directions give the same
            # lines and a refit may land on either: compare what the lines
            # see, the field's projections on the axes.
            assert np.max(np.abs(axis_projections(ours) - axis_projections(reference))) \
                <= np.max(tolerance)
            assert ours.residual_norm == pytest.approx(reference.residual_norm, rel=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("preset", ["nv_default", "p1_default"])
def test_cavity_fits_match_scipy(monkeypatch, preset, seed):
    """Analysis-style traces: 201 points over +-3 MHz, rates within 10 % of
    the preset's, which start the fit; noise-free and with 1 % noise."""
    rng = np.random.default_rng(seed)
    _, start = preset_values(preset)
    truth = start * np.array([1.0, *rng.uniform(0.9, 1.1, 2)])
    truth[0] += TWO_PI * rng.uniform(-50e3, 50e3)
    omega = truth[0] + TWO_PI * np.linspace(-3e6, 3e6, 201)
    r_c = cavity_reflectivity_model(omega, *truth)
    for trace in (r_c, r_c + rng.normal(0.0, 0.01, omega.size)):
        for overcoupled in (True, False):
            ours, reference = fit_with_both(
                monkeypatch, lambda: fit_cavity_lineshape(omega, trace, start, overcoupled))
            assert within_fit_tolerance(ours, reference, 201)[0], (ours, reference)


@pytest.mark.parametrize("seed", range(3))
def test_fwhm_fits_match_scipy(monkeypatch, seed):
    """Analysis-style dips: 201 points over +-5 MHz around a center within
    1 MHz of 2.53 GHz, FWHM 0.5-2 MHz; noise-free and with 1 % noise."""
    rng = np.random.default_rng(seed)
    center = TWO_PI * (2.53e9 + rng.uniform(-1e6, 1e6))
    half_width = TWO_PI * rng.uniform(0.25e6, 1e6)
    depth, offset = rng.uniform(0.2, 0.8), rng.uniform(0.9, 1.0)
    omega = center + TWO_PI * np.linspace(-5e6, 5e6, 201)
    signal = lorentzian_dip_model(omega, center, half_width, depth, offset)
    for trace in (signal, signal + rng.normal(0.0, 0.01, omega.size)):
        ours, reference = fit_with_both(monkeypatch, lambda: fit_lorentzian_fwhm(omega, trace))
        assert within_fit_tolerance(ours, reference, 201)[0], (ours, reference)


def _meyer(x):
    y = (34780, 28610, 23650, 19630, 16370, 13720, 11540, 9744, 8261, 7030, 6005, 5147,
         4427, 3820, 3307, 2872)
    t = 45.0 + 5.0 * np.arange(1, 17)
    return x[0] * np.exp(x[1] / (t + x[2])) - y


def _bard(x):
    u = np.arange(1, 16)
    y = (0.14, 0.18, 0.22, 0.25, 0.29, 0.32, 0.35, 0.39, 0.37, 0.58, 0.73, 0.96, 1.34, 2.10, 4.39)
    return y - (x[0] + u / ((16 - u) * x[1] + np.minimum(u, 16 - u) * x[2]))


# Test problems of Moré, Garbow and Hillstrom (1981) with their standard starts.
MGH_PROBLEMS = {
    "rosenbrock": (lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]]), (-1.2, 1.0)),
    "freudenstein-roth": (lambda x: np.array([-13.0 + x[0] + ((5.0 - x[1]) * x[1] - 2.0) * x[1],
                                              -29.0 + x[0] + ((x[1] + 1.0) * x[1] - 14.0) * x[1]]),
                          (0.5, -2.0)),
    "powell-badly-scaled": (lambda x: np.array([1e4 * x[0] * x[1] - 1.0,
                                                np.exp(-x[0]) + np.exp(-x[1]) - 1.0001]),
                            (0.0, 1.0)),
    "box-3d": (lambda x: np.array([np.exp(-t * x[0]) - np.exp(-t * x[1])
                                   - x[2] * (np.exp(-t) - np.exp(-10.0 * t))
                                   for t in 0.1 * np.arange(1, 11)]), (0.0, 10.0, 20.0)),
    "bard": (_bard, (1.0, 1.0, 1.0)),
    "meyer": (_meyer, (0.02, 4000.0, 250.0)),
}


def row_by_row(fun):
    """``fun`` of one point as a function of a ``(k, n)`` stack of points."""
    return lambda x: np.array([fun(row) for row in x])


@pytest.mark.parametrize("name", MGH_PROBLEMS)
def test_least_squares_takes_minpacks_steps(name):
    """Given the same forward-difference Jacobian, the solver evaluates the
    residuals exactly as often as MINPACK's lmder and stops on the same test."""
    from cdmr.fitting import _jacobian, least_squares

    fun, x0 = MGH_PROBLEMS[name]
    ours, = least_squares(row_by_row(fun), [x0])
    reference = scipy_lm(fun, x0,
                         jac=lambda x: _jacobian(row_by_row(fun), x[None], fun(x)[None])[0])
    assert (ours.nfev, ours.status, ours.message) == (reference.nfev, reference.status,
                                                      reference.message)
    np.testing.assert_allclose(ours.x, reference.x, rtol=1e-6, atol=1e-12)
    assert ours.cost == pytest.approx(reference.cost, rel=1e-9, abs=1e-30)


@pytest.mark.parametrize("name, starts", [
    ("rosenbrock", [(-1.2, 1.0), (0.5, -2.0), (3.0, 3.0), (1.0, 1.0), (-0.3, 40.0)]),
    ("box-3d", [(0.0, 10.0, 20.0), (1.0, 5.0, 1.0), (0.5, 2.0, 0.0), (2.0, 20.0, 5.0),
                (0.2, 8.0, -3.0)]),
])
def test_least_squares_rows_match_their_solo_solves(name, starts):
    """Oracle: a stack of starts solved at once gives each row, bit for bit,
    what the same start solved as a batch of one gives, though the rows stop
    after different numbers of steps."""
    from cdmr.fitting import least_squares

    fun = row_by_row(MGH_PROBLEMS[name][0])
    stacked = least_squares(fun, starts)
    assert len(stacked) == len(starts)
    assert len({res.nfev for res in stacked}) > 1
    for start, row in zip(starts, stacked):
        solo, = least_squares(fun, [start])
        assert (row.nfev, row.status, row.message) == (solo.nfev, solo.status, solo.message)
        assert row.x.tobytes() == solo.x.tobytes()
        assert row.cost == solo.cost
        assert row.jac.tobytes() == solo.jac.tobytes()


def test_fit_rejects_a_start_with_non_finite_residuals():
    """Both rates at 0 make the lineshape 0/0 on resonance."""
    omega, r_c = cavity_trace()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(ValueError, match="not finite in the initial point"):
            fit_cavity_lineshape(omega, r_c, (CAVITY_TRUTH[0], 0.0, 0.0))
