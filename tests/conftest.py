import json
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import cdmr
from cdmr.config import load_preset_raw
from cdmr.constants import A_PAR, A_PERP, GAMMA_E, TWO_PI
from cdmr.coupling import FIELDMAP_MAGIC
from cdmr.spins import SPIN1_X, SPIN1_Y, SPIN1_Z, defect_frame_components

# Numerical tests (elliptic integrals, LM fits) blow the default deadline on
# slow CI boxes; correctness here never depends on wall time.
settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def nv_raw():
    return load_preset_raw("nv_default")


@pytest.fixture
def p1_raw():
    return load_preset_raw("p1_default")


@pytest.fixture
def shrink():
    """Return a helper that makes a preset config cheap to run.

    Small sweeps and a coarse field-map grid keep CLI round trips fast while
    exercising the same code paths as the full-size presets.
    """

    def _shrink(raw, field_steps=5, freq_steps=7, grid=6, powers=None, levels=None):
        out = json.loads(json.dumps(raw))
        out["field_sweep"]["steps"] = field_steps
        out["frequency_sweep"]["steps"] = freq_steps
        out["field_map"]["grid_points"] = [grid, grid, grid]
        if powers is not None:
            out["powers_dbm"] = list(powers)
        if levels is not None:
            out["laser"]["levels_w_per_m2"] = {
                k: v for k, v in out["laser"]["levels_w_per_m2"].items() if k in levels
            }
        return out

    return _shrink


# The complex frequency written out in Python floats, one entry at a time,
# kept as the reference that cavity.effective_frequency must match bit for bit.

_SHIFT_PARAMS = ("n_eff", "g_s", "delta", "t1", "t2")


def _reference_shift(n_eff, g_s, delta, t1, t2, e_c):
    """(Omega_s, -Gamma_s) of one group at one photon number."""
    g_sq = g_s * g_s
    t2_sq = t2 * t2
    weight = n_eff * g_sq
    # numpy divides a complex by a real as a product with the reciprocal.
    scale = 1.0 / (delta * delta * t2_sq + 1.0 + 4.0 * g_sq * t1 * t2 * e_c)
    return weight * (delta * t2_sq) * scale, -(weight * t2) * scale


def _reference_frequency(cavity, bank, e_c):
    """Upsilon_eff of every bank row at every photon number, shape (n_b, *e_c.shape)."""
    e_c = np.asarray(e_c, dtype=float)
    out = np.empty((bank.b_mags.size, *e_c.shape), dtype=complex)
    for i, *index in np.ndindex(out.shape):
        e = float(e_c[tuple(index)])
        omega = cavity.omega_c + cavity.kerr * e
        minus_gamma = -cavity.gamma_c - cavity.cubic_damping * e
        for k in range(len(bank.labels)):
            params = (float(getattr(bank, name)[i, k]) for name in _SHIFT_PARAMS)
            shift_real, shift_imag = _reference_shift(*params, e)
            omega += shift_real
            minus_gamma += shift_imag
        out[(i, *index)] = complex(omega, minus_gamma)
    return out


@pytest.fixture(scope="session")
def reference_frequency():
    """Return the Python-float reference of ``effective_frequency(cavity, bank, e_c)``."""
    return _reference_frequency


# The P1 center's 6x6 spin Hamiltonian, kept as the oracle that the
# first-order lines of spins.p1_transition_frequencies are checked against:
# electron spin 1/2 coupled to the nitrogen-14 nuclear spin 1 through an
# axially symmetric hyperfine tensor, plus the electron Zeeman term; the
# nuclear Zeeman term is negligible at the fields of interest and omitted
# (Loubser & van Wyk, Rep. Prog. Phys. 41, 1201 (1978)).

# Spin-1/2 operators, basis ordered m = +1/2, -1/2.
SPIN_HALF_Z = np.diag([0.5, -0.5])
SPIN_HALF_X = np.array([[0.0, 0.5], [0.5, 0.0]])
SPIN_HALF_Y = np.array([[0.0, -0.5j], [0.5j, 0.0]])


def _p1_hamiltonian(b_field, axis):
    components = defect_frame_components(b_field, axis)
    id_nuclear = np.eye(3)
    sx = np.kron(SPIN_HALF_X, id_nuclear)
    sy = np.kron(SPIN_HALF_Y, id_nuclear)
    sz = np.kron(SPIN_HALF_Z, id_nuclear)
    sxix = np.kron(SPIN_HALF_X, SPIN1_X)
    syiy = np.kron(SPIN_HALF_Y, SPIN1_Y)
    sziz = np.kron(SPIN_HALF_Z, SPIN1_Z)
    return (
        GAMMA_E * (components[0] * sx + components[1] * sy + components[2] * sz)
        + A_PERP * (sxix + syiy)
        + A_PAR * sziz
    )


def _p1_exact_transitions(b_field, axis):
    """Nuclear-spin-conserving P1 transition frequencies from the 6x6 Hamiltonian.

    Eigenstates are labeled by their dominant product-basis component
    |m_S, m_I>; for each nuclear projection the returned line is the spacing
    between the m_S = +-1/2 partners.  Sorted ascending, so directly
    comparable with ``p1_transition_frequencies``.  Requires a field high
    enough that the labeling is unambiguous (a bijection); raises otherwise.
    """
    levels, vectors = np.linalg.eigh(_p1_hamiltonian(b_field, axis))
    weights = np.abs(vectors) ** 2
    dominant = np.argmax(weights, axis=0)
    if len(set(int(d) for d in dominant)) != 6:
        raise ValueError(
            "eigenstate character labeling is not a bijection; "
            "field too low for nuclear-spin-conserving line extraction"
        )
    level_of_basis = {int(basis): levels[state] for state, basis in enumerate(dominant)}
    # Basis index = s_idx*3 + i_idx with s_idx 0 for m_S=+1/2 and i_idx 0,1,2
    # for m_I = +1, 0, -1.
    lines = [abs(level_of_basis[i_idx] - level_of_basis[3 + i_idx]) for i_idx in range(3)]
    return np.array(sorted(lines))


@pytest.fixture(scope="session")
def p1_exact():
    """Return the 6x6 P1 oracle: ``hamiltonian(b, axis)`` and ``transitions(b, axis)``."""
    return SimpleNamespace(hamiltonian=_p1_hamiltonian, transitions=_p1_exact_transitions)


def _read_matrix_csv(path):
    """Re-parse a matrix written by ``cli.write_matrix_csv``.

    Returns (b_mags, f_hz, matrix); values are exactly the written floats.
    """
    f_hz = None
    b_vals = []
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if f_hz is None:
                cells = text.split(",")
                if not cells[0].startswith("b_t"):
                    raise ValueError(f"{path}: missing matrix header row")
                f_hz = np.array([float(c) for c in cells[1:]])
                continue
            cells = text.split(",")
            b_vals.append(float(cells[0]))
            rows.append([float(c) for c in cells[1:]])
    if f_hz is None or not rows:
        raise ValueError(f"{path}: no matrix data found")
    return np.array(b_vals), f_hz, np.array(rows)


@pytest.fixture
def read_matrix_csv():
    """Return the parser of a matrix CSV: path -> (b_mags, f_hz, matrix)."""
    return _read_matrix_csv


# The per-value writers that the array formatter replaced, kept as the
# reference its output must match byte for byte.

def _reference_table_csv(path, comments, column_names, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        handle.write(",".join(column_names) + "\n")
        for row in rows:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _reference_matrix_csv(path, comments, b_mags, omega_p, row_blocks):
    rows = (row for block in row_blocks for row in block)
    with open(path, "w", encoding="utf-8") as handle:
        for comment in comments:
            handle.write(f"# {comment}\n")
        handle.write("b_t\\f_hz," + ",".join(repr(float(w / TWO_PI)) for w in omega_p) + "\n")
        for b_mag, row in zip(b_mags, rows, strict=True):
            handle.write(repr(float(b_mag)) + "," + ",".join(repr(float(v)) for v in row) + "\n")


def _reference_field_map(field_map, path, extra_comments=()):
    nx, ny, nz = field_map.shape
    header = [f"# {FIELDMAP_MAGIC} nx={nx} ny={ny} nz={nz}"]
    header += [f"# {comment}" for comment in extra_comments]
    header.append("# x,y,z,Bx,By,Bz")
    xs, ys, zs = (
        [repr(v) for v in np.asarray(axis, dtype=float).tolist()]
        for axis in (field_map.x, field_map.y, field_map.z)
    )
    xy_cells = [f"{x},{y}" for y in ys for x in xs]
    b = np.asarray(field_map.b, dtype=float)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(header) + "\n")
        for iz, z in enumerate(zs):
            plane = b[:, :, iz].transpose(1, 0, 2).reshape(-1, 3).tolist()
            handle.write("".join(
                f"{xy},{z},{bx!r},{by!r},{bz!r}\n" for xy, (bx, by, bz) in zip(xy_cells, plane)
            ))


@pytest.fixture
def reference_writers():
    """Return the per-value ``repr`` writers: ``table``, ``matrix`` and ``field_map``."""
    return SimpleNamespace(table=_reference_table_csv, matrix=_reference_matrix_csv,
                           field_map=_reference_field_map)


# Runs each command line of argv[1] (JSON) as a cdmr child and prints their
# peak RSS in MiB.  A child's ru_maxrss counts the process it was forked from,
# so the children start from this small launcher, not from the test process.
_PEAKS_LAUNCHER = """
import json, os, subprocess, sys
peaks = []
for argv in json.loads(sys.argv[1]):
    child = subprocess.Popen([sys.executable, "-c", "import sys; from cdmr.cli import main; sys.exit(main())",
                              *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{argv} failed")
    peaks.append(usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10))
print(json.dumps(peaks))
"""


def _child_peaks_mib(*argvs):
    src = os.path.dirname(os.path.dirname(cdmr.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PEAKS_LAUNCHER, json.dumps(argvs)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture
def child_peaks_mib():
    """Return ``peaks(*argvs)``: the peak RSS (MiB) of a cdmr child run with each argv."""
    if not hasattr(os, "wait4"):
        pytest.skip("needs os.wait4")
    return _child_peaks_mib
