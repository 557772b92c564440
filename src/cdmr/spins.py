"""The spin model: NV and P1 lines in a field, and relaxation and polarization under pumping.

The fast line paths are closed-form expressions: second-order perturbation
theory for the NV ground-state triplet and first-order hyperfine splittings
for the P1 center; they are what the sweep and fit code call in the inner
loop.  The exact NV transitions, from diagonalizing the triplet Hamiltonian,
serve ``cdmr nv-freqs --exact``.  The P1 6x6 Hamiltonian (electron spin 1/2
with the nitrogen-14 hyperfine tensor) is no command's path: it lives in
``tests/`` as the oracle the first-order P1 lines are checked against.

Under optical pumping the ensemble relaxes toward the thermal polarization at
the lattice rate 1/T1_thermal and toward an optically induced polarization at
the pumping rate 1/T1_optical.  The two channels combine into one effective
relaxation time and a rate-weighted steady-state polarization; those two
functions take and return plain numbers, and :func:`cdmr.config.laser_level`
calls them.
"""

import math

import numpy as np

from .constants import A_PAR, A_PERP, D_ZFS, E_STRAIN, GAMMA_E, LIGHT_SPEED, NV_AXES, PLANCK

# Spin-1 operators, basis ordered m = +1, 0, -1.
SPIN1_Z = np.diag([1.0, 0.0, -1.0])
SPIN1_X = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2.0)
SPIN1_Y = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]]) / math.sqrt(2.0)

def _as_field_vector(b_field):
    b = np.asarray(b_field, dtype=float)
    if b.shape[-1:] != (3,) or b.ndim > 2:
        raise ValueError(f"magnetic field must be a 3-vector or an (n, 3) stack, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise ValueError("magnetic field components must be finite")
    return b


def rotate_to_unit_vector(theta_x, theta_y, theta_z):
    """Unit vector obtained by rotating z_hat actively about x, then y, then z.

    Rotations are right handed; the composite matrix is Rz(theta_z) @
    Ry(theta_y) @ Rx(theta_x).  This is the convention used for the field
    orientation everywhere in the package.  Array angles broadcast to (*S, 3)
    vectors, each bit for bit the call on its scalar angles.
    """
    given = (theta_x, theta_y, theta_z)
    angles = np.empty((3,) + np.broadcast_shapes(*map(np.shape, given)))
    angles[0], angles[1], angles[2] = given
    bad = np.argwhere(~np.isfinite(angles))
    if bad.size:
        name = ("theta_x", "theta_y", "theta_z")[bad[0, 0]]
        raise ValueError(f"{name} must be finite, got {float(angles[tuple(bad[0])])!r}")
    cos, sin = np.cos(angles), np.sin(angles)
    # Rx, Ry, Rz: the rotation about axis i turns axis j towards axis k.
    r = np.zeros(angles.shape + (3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        r[i, ..., i, i] = 1.0
        r[i, ..., j, j] = r[i, ..., k, k] = cos[i]
        r[i, ..., j, k], r[i, ..., k, j] = -sin[i], sin[i]
    return r[2] @ r[1] @ r[0] @ np.array([0.0, 0.0, 1.0])


def sweep_fields(b_mags, b_hat):
    """The checked 1-D ``b_mags`` and the fields ``b_mags[:, None] * (b_hat / |b_hat|)``.

    A (k, 3) stack of directions gives (k, n, 3), each row bit for bit the call
    on its direction.  The one field construction of a sweep: the spin groups,
    the line tables and the orientation fit use it.
    """
    b_mags = np.asarray(b_mags, dtype=float)
    b_hat = np.asarray(b_hat, dtype=float)
    if b_mags.ndim == 1 and b_mags.size and b_hat.ndim in (1, 2) and b_hat.shape[-1] == 3:
        # A 1x3 @ 3x1 product is the dot product np.linalg.norm takes, bit for bit.
        norm = np.sqrt(b_hat[..., None, :] @ b_hat[..., :, None])[..., 0]
        if np.all(norm != 0.0):
            return b_mags, b_mags[:, None] * (b_hat / norm)[..., None, :]
    raise ValueError("b_mags must be a non-empty 1-D array and b_hat a non-zero 3-vector "
                     "or a (k, 3) stack of them")


def nv_transition_frequencies(b_field):
    """Second-order NV transition frequencies for all four orientation classes.

    Parameters
    ----------
    b_field : array_like, shape (3,) or (n, 3)
        Applied field in tesla, crystal frame (cubic axes), or a stack of n
        such fields.

    Returns
    -------
    ndarray, shape (8,) or (n, 8)
        Lines A-, A+, B-, B+, ... (rad/s) in ``NV_AXES`` order; row i of a stack
        is bit for bit the call on field i.  A negative line raises ValueError.

    Notes
    -----
    For each class the field is split into the component along the defect
    axis and the transverse remainder, and

        omega_pm = d_zfs +- sqrt((gamma_e*B_par)**2 + e_strain**2)
                   + 1.5 * (gamma_e*B_perp)**2 / d_zfs.

    The transverse term is the leading repulsion from the m=0 level; the
    expression is exact for a purely axial field.  The nitrogen-14 hyperfine
    structure is intentionally not modeled.
    """
    b = _as_field_vector(b_field)
    # Matrix-vector products per field, so every row rounds exactly as a
    # single (3,) field does; ``b @ NV_AXES.T`` or einsum would not.
    b_par = (NV_AXES @ b[..., None])[..., 0]
    b_sq = (b[..., None, :] @ b[..., :, None])[..., 0]
    b_perp_sq = np.maximum(b_sq - b_par**2, 0.0)
    splitting = np.sqrt((GAMMA_E * b_par) ** 2 + E_STRAIN**2)
    transverse = 1.5 * GAMMA_E**2 * b_perp_sq / D_ZFS
    lines = np.stack([D_ZFS - splitting + transverse, D_ZFS + splitting + transverse], axis=-1)
    if np.any(lines < 0.0):
        raise ValueError("transition frequencies must be non-negative")
    return lines.reshape(lines.shape[:-2] + (8,))


def defect_frame_components(b_field, axis):
    """Resolve a crystal-frame field into (transverse, 0, axial) defect-frame parts.

    The defect z axis is ``axis``; the transverse direction is chosen along
    the transverse part of the field itself, which is the natural choice for
    Hamiltonians that are isotropic in the transverse plane.  An (n, 3) stack
    of fields gives (n, 3) parts, row i bit for bit the call on row i.
    """
    b = _as_field_vector(b_field)
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ValueError("defect axis must be non-zero")
    axis = axis / norm
    # Row-times-column products per field round as the 3-vector dot products do.
    b_par = (b[..., None, :] @ axis[:, None])[..., 0]
    transverse = b - b_par * axis
    b_perp = np.sqrt((transverse[..., None, :] @ transverse[..., :, None])[..., 0])
    return np.concatenate([b_perp, np.zeros_like(b_par), b_par], axis=-1)


def _nv_hamiltonian(b_defect_frame):
    bx, by, bz = np.moveaxis(_as_field_vector(b_defect_frame), -1, 0)[..., None, None]
    return (
        D_ZFS * SPIN1_Z @ SPIN1_Z
        + E_STRAIN * (SPIN1_X @ SPIN1_X - SPIN1_Y @ SPIN1_Y)
        + GAMMA_E * (bx * SPIN1_X + by * SPIN1_Y + bz * SPIN1_Z)
    )


def nv_exact_transitions(b_defect_frame):
    """Two NV transition frequencies (rad/s) from exact diagonalization.

    Levels are labeled by maximal overlap with the unperturbed basis states
    (ties broken toward the lower eigenvalue index); the transitions are the
    eigenvalue differences from the m=0-character state, returned ascending.
    An (n, 3) stack of fields is one stacked ``eigh`` and gives (n, 2)
    transitions, row i bit for bit the call on row i.
    """
    levels, vectors = np.linalg.eigh(_nv_hamiltonian(b_defect_frame))
    # Basis row 1 is |m=0>; np.argmax returns the first maximizer on ties.
    idx0 = np.argmax(np.abs(vectors[..., 1, :]) ** 2, axis=-1)[..., None]
    others = np.arange(3) != idx0
    spread = levels - np.take_along_axis(levels, idx0, axis=-1)
    return np.sort(spread[others].reshape(levels.shape[:-1] + (2,)), axis=-1)


def p1_transition_frequencies(b_field, axis):
    """First-order P1 resonance frequencies (rad/s) for one or more Jahn-Teller axes.

    Returns the three lines ``gamma_e*|B| - omega_en``, ``gamma_e*|B|`` and
    ``gamma_e*|B| + omega_en`` (ascending), where the effective hyperfine
    splitting is

        omega_en = sqrt(a_par^2 cos^2(theta) + a_perp^2 sin^2(theta))

    and theta is the angle between the field and the defect axis.  Valid in
    the high-field regime gamma_e*|B| >> a_par; at low fields the lowest line
    of the raw expression goes negative and the expansion has lost meaning.
    An (n, 3) stack of fields and an (m, 3) stack of axes give (n, 3m) lines,
    axis by axis, each bit for bit the call on its field and axis.
    """
    b = _as_field_vector(b_field)
    axes = np.asarray(axis, dtype=float).reshape(-1, 3)
    # Row-times-column products per field and axis, so every entry rounds
    # exactly as a single (3,) field and (3,) axis do; ``b @ axes.T`` would not.
    magnitude = np.sqrt((b[..., None, :] @ b[..., :, None])[..., 0])
    if np.any(magnitude == 0.0):
        raise ValueError("field magnitude must be non-zero for the P1 line positions")
    axis_norm = np.sqrt((axes[:, None, :] @ axes[:, :, None])[:, 0, 0])
    if np.any(axis_norm == 0.0):
        raise ValueError("defect axis must be non-zero")
    cos_theta = (b[..., None, None, :] @ axes[:, :, None])[..., 0, 0] / (magnitude * axis_norm)
    cos_sq = np.minimum(cos_theta * cos_theta, 1.0)
    omega_en = np.sqrt(A_PAR**2 * cos_sq + A_PERP**2 * (1.0 - cos_sq))
    # center - omega_en, center, center + omega_en: the -1, 0, 1 products are exact.
    lines = GAMMA_E * magnitude[..., None] + omega_en[..., None] * np.array([-1.0, 0.0, 1.0])
    return lines.reshape(b.shape[:-1] + (3 * len(axes),))


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
