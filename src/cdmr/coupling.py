"""Collective spin-ensemble coupling from a cavity mode magnetic field map.

The mode field is supplied on a rectilinear grid, either loaded from CSV or
generated from a built-in current-loop surrogate.  The ensemble coupling rate
follows from mode-volume style integrals evaluated with the midpoint rule on
the grid cells:

    g_s^2 = gamma_e^2 mu_0 hbar omega_c
            * sum_in(|B|^2 sin^2(phi) dV) / [sum(|B|^2 dV) * V_region]

with the normalization sum over the whole map and the weighted sum and
V_region over the cells of the sample region.  g_s is geometry only: the
uniform defect density and polarization cancel, so they do not enter.  The
result is invariant under rescaling of the field amplitude (the mode
normalization cancels) and reduces to gamma_e^2 mu_0 hbar omega_c / V for a
uniform transverse field.
"""

import itertools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .constants import GAMMA_E, HBAR, MU_0
from .floattext import csv_text

FIELDMAP_MAGIC = "fieldmap v1"
_SPACING_RTOL = 1e-9

# Grid cells per block of the loop field and of the coupling integral, and
# lines per block of a map file read: bounds their working arrays (a few dozen
# float64 vectors of this length) whatever the map's shape, so memory is the
# map plus one block.
_BLOCK_CELLS = 8192


@dataclass(frozen=True)
class FieldMap:
    """Cavity-mode magnetic field sampled on a uniform rectilinear grid.

    ``b`` has shape (nx, ny, nz, 3) in tesla (amplitude normalization is
    arbitrary).  Grid points are cell centers; :attr:`cell_volume` is the
    volume each point represents in the midpoint rule.
    """

    x: np.ndarray  # (nx,) m
    y: np.ndarray  # (ny,) m
    z: np.ndarray  # (nz,) m
    b: np.ndarray  # (nx, ny, nz, 3) tesla

    def __post_init__(self):
        for name, coords in (("x", self.x), ("y", self.y), ("z", self.z)):
            if coords.ndim != 1 or coords.size < 2:
                raise ValueError(f"axis {name} needs at least 2 grid points")
            if not np.all(np.isfinite(coords)):
                raise ValueError(f"axis {name} coordinates must be finite")
            spacing = np.diff(coords)
            if np.any(spacing <= 0.0):
                raise ValueError(f"axis {name} coordinates must be strictly increasing")
            if np.max(spacing) - np.min(spacing) > _SPACING_RTOL * np.max(np.abs(spacing)):
                raise ValueError(f"axis {name} grid spacing is not uniform")
        expected = (self.x.size, self.y.size, self.z.size, 3)
        if self.b.shape != expected:
            raise ValueError(f"field array shape {self.b.shape} does not match grid {expected}")
        if not np.all(np.isfinite(self.b)):
            raise ValueError("field values must be finite")
        volume = self.cell_volume
        if not (math.isfinite(volume) and volume > 0.0):
            raise ValueError(f"cell volume must be finite and positive, got {volume!r}")

    @property
    def shape(self):
        return (self.x.size, self.y.size, self.z.size)

    @property
    def cell_volume(self):
        """Volume of one grid cell, m^3: the product of the three axis spacings."""
        return math.prod(float(axis[1] - axis[0]) for axis in (self.x, self.y, self.z))


def save_field_map(field_map: FieldMap, path, extra_comments=()):
    """Write a field map as CSV with an x-fastest row ordering.

    Header line carries the magic tag and grid shape; any ``extra_comments``
    are emitted as additional '#' lines before the data.  Each coordinate is
    formatted once: the "x,y" text of a plane's rows and each z value are
    made up front, and each z plane formats only its field before it is
    written, so one plane of text is held at a time.
    """
    nx, ny, nz = field_map.shape
    header = [f"# {FIELDMAP_MAGIC} nx={nx} ny={ny} nz={nz}"]
    header += [f"# {comment}" for comment in extra_comments]
    header.append("# x,y,z,Bx,By,Bz")
    nxy = nx * ny
    # A plane's rows as three pieces each, "x,y," then "z," then "Bx,By,Bz\n";
    # x fastest, then y, then z.
    pieces = [None] * (3 * nxy)
    xy = np.column_stack([np.tile(field_map.x, ny), np.repeat(field_map.y, nx)])
    pieces[0::3] = [row + "," for row in csv_text(xy).splitlines()]
    z_cells = csv_text(field_map.z[:, None]).splitlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(header) + "\n")
        for iz, z in enumerate(z_cells):
            pieces[1::3] = [z + ","] * nxy
            pieces[2::3] = csv_text(field_map.b[:, :, iz].transpose(1, 0, 2).reshape(nxy, 3)
                                    ).splitlines(keepends=True)
            handle.write("".join(pieces))


def _header_shape(text, lineno, shape):
    """Grid shape after the '#' line ``text``: read from the magic header, else ``shape``."""
    body = text.lstrip("#").strip()
    if not body.startswith(FIELDMAP_MAGIC):
        return shape
    if shape is not None:
        raise ValueError(f"line {lineno}: duplicate field map header")
    try:
        entries = dict(item.split("=") for item in body.split()[2:])
        return (int(entries["nx"]), int(entries["ny"]), int(entries["nz"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"line {lineno}: malformed field map header: {text!r}") from exc


def _read_header(handle):
    """Grid shape and the number of the first data line; ``handle`` is left at that line."""
    shape = None
    lineno = 0
    while True:
        start = handle.tell()
        line = handle.readline()
        if not line:
            break
        lineno += 1
        text = line.strip()
        if text.startswith("#"):
            shape = _header_shape(text, lineno, shape)
        elif text:
            if shape is None:
                raise ValueError(f"line {lineno}: data before the '# {FIELDMAP_MAGIC} ...' header")
            handle.seek(start)
            return shape, lineno
    if shape is None:
        raise ValueError("missing field map header line")
    return shape, lineno + 1


def _parse_rows(lines, lineno, shape):
    """(k, 6) data rows of ``lines``, one line at a time; ``lineno`` numbers the first.

    Errors name the line.
    """
    rows = []
    for lineno, line in enumerate(lines, start=lineno):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            _header_shape(text, lineno, shape)
            continue
        parts = text.split(",")
        if len(parts) != 6:
            raise ValueError(f"line {lineno}: expected 6 comma-separated values, got {len(parts)}")
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-numeric value in row: {text!r}") from exc
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"line {lineno}: non-finite value in row: {text!r}")
        rows.append(values)
    return np.array(rows).reshape(-1, 6)


def _block_rows(handle, start, first, lineno, shape):
    """(k, 6) data rows of a block: ``first``, read from ``start``, and the lines after it.

    The block is ``_BLOCK_CELLS`` lines, or fewer at the end of the file, and
    ``lineno`` numbers its first.  One ``np.loadtxt`` call parses the lines
    as ``handle`` yields them, so no block of text is held; on any surprise
    the block is read again by :func:`_parse_rows`, which names a bad line.
    """
    lines = itertools.chain([first], itertools.islice(iter(handle.readline, ""), _BLOCK_CELLS - 1))
    try:
        rows = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if rows.shape[1] == 6 and np.all(np.isfinite(rows)):
            return rows
    except ValueError:
        pass
    handle.seek(start)
    return _parse_rows(itertools.islice(iter(handle.readline, ""), _BLOCK_CELLS), lineno, shape)


def load_field_map(path):
    """Parse a field-map CSV written by :func:`save_field_map`.

    The '#' header lines are read up to the first data row.  Then each block
    of ``_BLOCK_CELLS`` lines is parsed by one ``np.loadtxt`` call and its
    field goes straight into a preallocated (nx, ny, nz, 3) array, so the
    working set is the map and one block of rows, whatever the grid.  On any
    surprise in a block (a value numpy cannot parse, a '#' line or a
    blank-but-not-empty line among the rows, a row that is not 6 values, a
    NaN or Inf), that block alone is parsed again one line at a time, which
    names the offending line; both give the same rows, bit for bit.

    The axes come from the first rows that hold them.  Every row's
    coordinates must match them to within ``_SPACING_RTOL`` times the largest
    |axis value|, checked on the largest deviation per column once every row
    is read.

    Raises ValueError, prefixed with ``path`` and, for a bad line, its number,
    on malformed rows, non-finite values, inconsistent grids or wrong row
    counts.  Line errors come first, then the row count (a header that
    promises more rows than the file holds fails there, its grid never
    allocated), then the grid check.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return _read_field_map(handle)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _read_field_map(handle):
    shape, lineno = _read_header(handle)
    nx, ny, nz = shape
    n_cells = nx * ny * nz
    # A data row is at least 11 characters and a line end, so a header that
    # promises more rows than the file holds is refused by the row count
    # below, and its grid is never allocated; rows past the grid are counted.
    fits = min(shape) >= 2 and n_cells <= (os.fstat(handle.fileno()).st_size + 1) // 12
    if fits:
        x, y, z = (np.empty(n) for n in shape)
        b = np.empty(shape + (3,))
        cells = b.reshape(-1, 3)
        deviation = np.zeros(3)  # running max |coordinate - axis| per column
    n_rows = 0
    while True:
        start = handle.tell()
        line = handle.readline()
        if not line:
            break
        if not line.strip():
            # No row to either parser; a block never starts with one, since
            # loadtxt warns of no data on a block of blank lines.
            lineno += 1
            continue
        rows = _block_rows(handle, start, line, lineno, shape)
        lineno += _BLOCK_CELLS  # the size of every block but the last
        first_cell, n_rows = n_rows, n_rows + len(rows)
        if not fits or first_cell >= n_cells or len(rows) == 0:
            continue
        rows = rows[:n_cells - first_cell]
        # x varies fastest, then y, then z.
        cell = np.arange(first_cell, first_cell + len(rows))
        iz, iyx = np.divmod(cell, nx * ny)
        iy, ix = np.divmod(iyx, nx)
        # An axis value comes from the first row that holds it, which comes no
        # later than any row checked against it.
        for column, (axis, index, defining) in enumerate((
                (x, ix, cell < nx), (y, iy, (ix == 0) & (cell < nx * ny)), (z, iz, iyx == 0))):
            axis[index[defining]] = rows[defining, column]
            deviation[column] = max(deviation[column], np.max(np.abs(rows[:, column] - axis[index])))
        cells[(ix * ny + iy) * nz + iz] = rows[:, 3:]
    if min(shape) < 2:
        raise ValueError(f"grid must have at least 2 points per axis, got {shape}")
    if n_rows != n_cells:
        raise ValueError(f"expected {n_cells} data rows for grid {shape}, found {n_rows}")
    atol = _SPACING_RTOL * max(np.max(np.abs(x)), np.max(np.abs(y)), np.max(np.abs(z)), 1e-300)
    if np.any(deviation > atol):
        raise ValueError("row coordinates are not a uniform x-fastest rectilinear grid")
    return FieldMap(x=x, y=y, z=z, b=b)


_AGM_STEPS = 8


def _elliptic_k_e(m, m1):
    """Complete elliptic integrals K(m) and E(m) by the arithmetic-geometric mean.

    Abramowitz & Stegun 17.6.1-4 (DLMF 19.8.1, 19.8.6): start from a_0 = 1,
    b_0 = sqrt(m1), c_0 = sqrt(m); then K = pi / (2 a_N) and
    E = K (1 - sum_n 2^(n-1) c_n^2).  ``m1`` is the complementary parameter
    1 - m, passed on its own so that it keeps its precision as m -> 1.  Eight
    steps converge for m1 down to 1e-20, below the ~2.5e-19 that the wire
    check of :func:`loop_field_at` admits; K agrees with ``scipy.special`` to
    ~6e-16 relative and E to ~5e-15.
    """
    a = np.ones_like(m1)
    b = np.sqrt(m1)
    weighted_sum = 0.5 * m
    weight = 0.5
    for _ in range(_AGM_STEPS):
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        weight *= 2.0
        weighted_sum += weight * c * c
    k_int = (0.5 * math.pi) / a
    return k_int, k_int * (1.0 - weighted_sum)


def loop_field_at(points, radius, current):
    """Magnetic field of a circular current loop, closed form.

    The loop lies in the z = 0 plane, centered on the origin, carrying
    ``current`` (A) counterclockwise when viewed from +z.  ``points`` is an
    (..., 3) array in meters.  Uses the complete elliptic integrals K(m) and
    E(m) with m = 4 a rho / q, evaluated by the arithmetic-geometric mean
    (Abramowitz & Stegun 17.6) from the complementary parameter
    1 - m = near / q, which stays accurate next to the wire where m rounds to
    1; exact up to floating point.  Raises if any point lies on (or
    numerically at) the wire itself.

    The accuracy is relative to |B|, not to each component: |B| is good to
    ~1e-14, but a component far below |B| comes from a difference of nearly
    equal terms (B_rho near the axis, B_z where it changes sign) and carries
    up to ~1e-11 of its own size.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError("points must have a trailing dimension of 3")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValueError(f"loop radius must be finite and positive, got {radius!r}")
    x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
    rho = np.hypot(x, y)
    wire_distance = np.hypot(rho - radius, z)
    if np.any(wire_distance < 1e-9 * radius):
        raise ValueError("grid point coincides with the loop wire; field diverges there")
    q = (radius + rho) ** 2 + z**2
    near = (radius - rho) ** 2 + z**2
    k_int, e_int = _elliptic_k_e(4.0 * radius * rho / q, near / q)
    prefactor = MU_0 * current / (2.0 * math.pi * np.sqrt(q))
    bz = prefactor * (k_int + e_int * (radius**2 - rho**2 - z**2) / near)
    with np.errstate(invalid="ignore", divide="ignore"):
        b_rho = prefactor * (z / rho) * (-k_int + e_int * (radius**2 + rho**2 + z**2) / near)
        ux = np.where(rho > 0.0, x / np.where(rho > 0.0, rho, 1.0), 0.0)
        uy = np.where(rho > 0.0, y / np.where(rho > 0.0, rho, 1.0), 0.0)
    b_rho = np.where(rho > 0.0, b_rho, 0.0)
    return np.stack([b_rho * ux, b_rho * uy, bz], axis=-1)


def generate_loop_field(radius, current, x_span, y_span, z_span):
    """Sample the loop surrogate mode field on a uniform grid.

    Each span is (min, max, n) in meters with n >= 2.  The n points are the
    centers of n equal cells tiling [min, max] exactly, so the summed cell
    volume equals the box volume at every resolution and doubling n nests the
    sub-cells inside the parent cells (clean second-order midpoint
    convergence).  Returns a FieldMap.
    """
    axes = []
    for name, span in (("x", x_span), ("y", y_span), ("z", z_span)):
        lo, hi, n = span
        n = int(n)
        if n < 2:
            raise ValueError(f"axis {name} needs at least 2 points, got {n}")
        if not hi > lo:
            raise ValueError(f"axis {name} span must have max > min")
        step = (hi - lo) / n
        axes.append(lo + (np.arange(n) + 0.5) * step)
    x, y, z = axes
    shape = (x.size, y.size, z.size)
    b = np.empty(shape + (3,))
    cells = b.reshape(-1, 3)
    # One block of C-ordered cells at a time: each cell's field is the same
    # elementwise arithmetic as a single call on the whole meshgrid.
    for start in range(0, len(cells), _BLOCK_CELLS):
        ix, iy, iz = np.unravel_index(np.arange(start, min(start + _BLOCK_CELLS, len(cells))), shape)
        cells[start:start + _BLOCK_CELLS] = loop_field_at(
            np.stack([x[ix], y[iy], z[iz]], axis=-1), radius, current)
    return FieldMap(x=x, y=y, z=z, b=b)


class CouplingResult(NamedTuple):
    """Ensemble coupling rate and the sample-region volume it is averaged over."""

    g_s: float       # ensemble-averaged single-spin coupling, rad/s
    region_volume: float  # m^3 of the sample region covered by grid cells


def effective_coupling(field_map: FieldMap, bounds, defect_axes, omega_c):
    """Ensemble coupling g_s and sample-region volume of a mode field map.

    Geometry only: no relaxation time, density or polarization enters.
    Beside the map, the working set is one per-cell buffer and one block of
    ``_BLOCK_CELLS`` cells, whatever the grid; the sums have the bits of the
    whole-array formula.

    Parameters
    ----------
    field_map : FieldMap
        Cavity-mode field; its full extent defines the normalization integral.
    bounds : sequence of 6 floats
        The sample region, the box (xmin, xmax, ymin, ymax, zmin, zmax) in m.
        A grid cell belongs to it iff its center lies inside or on the
        boundary (midpoint rule).
    defect_axes : array_like, shape (n_axes, 3)
        Defect symmetry axes of the contributing classes; sin^2 of the angle
        between the local mode field and each axis is averaged over them.
    omega_c : float
        Cavity angular frequency, rad/s.
    """
    if len(bounds) != 6:
        raise ValueError("bounds must be (xmin, xmax, ymin, ymax, zmin, zmax)")
    xmin, xmax, ymin, ymax, zmin, zmax = bounds
    if not (xmax > xmin and ymax > ymin and zmax > zmin):
        raise ValueError(f"region must have positive extent, got bounds {tuple(bounds)}")
    if not omega_c > 0.0:
        raise ValueError(f"omega_c must be positive, got {omega_c!r}")
    axes = np.atleast_2d(np.asarray(defect_axes, dtype=float))
    if axes.shape[1] != 3 or axes.shape[0] < 1:
        raise ValueError("defect_axes must be a non-empty (n, 3) array")
    norms = np.linalg.norm(axes, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("defect axes must be non-zero")
    axes = axes / norms[:, None]

    # The axes increase strictly, so the cells whose centers lie in the box
    # are a sub-box of index ranges; in C order they are the cells a boolean
    # mask over the map would select, in the same order.
    box = []
    for coords, lo, hi in ((field_map.x, xmin, xmax), (field_map.y, ymin, ymax),
                           (field_map.z, zmin, zmax)):
        inside = np.flatnonzero((coords >= lo) & (coords <= hi))
        if inside.size == 0:
            raise ValueError("sample region does not overlap the field map grid")
        box.append((int(inside[0]), inside.size))
    (i0, mx), (j0, my), (k0, mz) = box
    n_in = mx * my * mz
    _, ny, nz = field_map.shape

    # One per-cell buffer: first |B|^2 over the whole map, then |B|^2
    # sin^2(phi) over the region's cells, filled one block at a time.  Each sum
    # runs over the same values in the same order and length as it would over
    # whole-map arrays, so it has the same bits.
    cells = field_map.b.reshape(-1, 3)
    buf = np.einsum("...i,...i->...", cells, cells)
    dv = field_map.cell_volume
    norm_integral = float(np.sum(buf)) * dv
    if norm_integral == 0.0:
        raise ValueError("field map is identically zero; mode normalization undefined")
    for start in range(0, n_in, _BLOCK_CELLS):
        # Region cell (i, j, k) is map cell ((i0 + i) ny + j0 + j) nz + k0 + k.
        row, k = np.divmod(np.arange(start, min(start + _BLOCK_CELLS, n_in)), mz)
        i, j = np.divmod(row, my)
        block = cells.take(((i0 + i) * ny + j0 + j) * nz + k0 + k, axis=0)
        block_sq = np.einsum("...i,...i->...", block, block)
        # sin^2 averaged over the contributing defect axes; points with zero
        # field carry zero weight in the numerator, so their angle is moot.
        safe_b_sq = np.where(block_sq > 0.0, block_sq, 1.0)
        cos_sq_sum = np.zeros_like(block_sq)
        for axis in axes:
            cos_sq_sum += np.einsum("...i,i->...", block, axis) ** 2 / safe_b_sq
        sin_sq = np.where(block_sq > 0.0, 1.0 - cos_sq_sum / axes.shape[0], 0.0)
        buf[start:start + len(block)] = block_sq * sin_sq
    weighted = float(np.sum(buf[:n_in])) * dv
    region_volume = float(n_in) * dv

    g_s_sq = (
        GAMMA_E**2 * MU_0 * HBAR * omega_c
        * weighted / (norm_integral * region_volume)
    )
    if g_s_sq <= 0.0:
        raise ValueError("coupling came out non-positive; mode field is parallel to every defect axis")
    return CouplingResult(g_s=math.sqrt(g_s_sq), region_volume=region_volume)
