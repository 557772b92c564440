"""Loop-field generation, field-map IO and the ensemble coupling integrals.

The loop field is checked against the on-axis closed form and against a
direct Biot-Savart line integral evaluated with a standalone script (200001
trapezoid nodes; the integrand is periodic so the quadrature is converged to
machine precision).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ellipe, ellipk

from cdmr import coupling
from cdmr.constants import GAMMA_E, HBAR, MU_0, TWO_PI
from cdmr.coupling import (
    CouplingResult,
    FieldMap,
    effective_coupling,
    generate_loop_field,
    load_field_map,
    loop_field_at,
    save_field_map,
)

# mu0*I*a^2 / (2 (a^2+z^2)^(3/2)) for a = 1 mm, I = 1 A.
ON_AXIS_BZ = {
    0.0: 0.00062831853106,
    0.5e-3: 0.00044958814303135136,
    1.0e-3: 0.00022214414702884818,
}
BS_POINT = (0.35e-3, 0.2e-3, 0.4e-3)
BS_FIELD = (0.0001086536103283317, 6.208777733047526e-05, 0.0005144794205622947)


def tiny_map(n=4, value=(0.0, 1e-4, 0.0), span=2e-3):
    """Uniform-field map on an n^3 grid over a centered cube."""
    axis = (np.arange(n) + 0.5) * (span / n) - span / 2.0
    b = np.broadcast_to(np.asarray(value, dtype=float), (n, n, n, 3)).copy()
    return FieldMap(x=axis, y=axis, z=axis, b=b)


def test_on_axis_field_matches_closed_form():
    for z, expected in ON_AXIS_BZ.items():
        b = loop_field_at(np.array([0.0, 0.0, z]), radius=1e-3, current=1.0)
        assert b[2] == pytest.approx(expected, rel=1e-12)
        assert b[0] == 0.0 and b[1] == 0.0


def test_off_axis_field_matches_line_integral():
    b = loop_field_at(np.array(BS_POINT), radius=1e-3, current=1.0)
    for got, expected in zip(b, BS_FIELD):
        assert got == pytest.approx(expected, rel=1e-10)


def test_loop_field_scales_with_current():
    point = np.array([0.2e-3, -0.1e-3, 0.6e-3])
    one = loop_field_at(point, 1e-3, 1.0)
    assert np.allclose(loop_field_at(point, 1e-3, -2.5), -2.5 * one, rtol=1e-14)


def test_loop_field_mirror_symmetries():
    p = np.array([0.3e-3, 0.15e-3, 0.4e-3])
    b = loop_field_at(p, 1e-3, 1.0)
    flipped = loop_field_at(p * np.array([-1.0, 1.0, 1.0]), 1e-3, 1.0)
    assert flipped[0] == pytest.approx(-b[0], rel=1e-12)
    assert flipped[1] == pytest.approx(b[1], rel=1e-12)
    assert flipped[2] == pytest.approx(b[2], rel=1e-12)
    below = loop_field_at(p * np.array([1.0, 1.0, -1.0]), 1e-3, 1.0)
    assert below[2] == pytest.approx(b[2], rel=1e-12)
    assert below[0] == pytest.approx(-b[0], rel=1e-12)


def test_loop_field_rejects_wire_points_and_bad_inputs():
    with pytest.raises(ValueError, match="wire"):
        loop_field_at(np.array([1e-3, 0.0, 0.0]), radius=1e-3, current=1.0)
    with pytest.raises(ValueError, match="trailing dimension"):
        loop_field_at(np.zeros((4, 2)), radius=1e-3, current=1.0)
    with pytest.raises(ValueError, match="radius"):
        loop_field_at(np.zeros(3), radius=0.0, current=1.0)


def test_generate_loop_field_cell_centers_tile_span():
    fm = generate_loop_field(1e-3, 1.0, (-4e-4, 4e-4, 8), (-4e-4, 4e-4, 8), (1e-4, 9e-4, 5))
    assert fm.shape == (8, 8, 5)
    step = (9e-4 - 1e-4) / 5
    assert fm.z[0] == pytest.approx(1e-4 + step / 2, rel=1e-14)
    assert fm.z[-1] == pytest.approx(9e-4 - step / 2, rel=1e-14)
    assert fm.cell_volume == pytest.approx((8e-4 / 8) ** 2 * step, rel=1e-14)
    # Doubling the point count nests the sub-cells in the parent cells.
    fine = generate_loop_field(1e-3, 1.0, (-4e-4, 4e-4, 16), (-4e-4, 4e-4, 8), (1e-4, 9e-4, 5))
    paired = 0.5 * (fine.x[0::2] + fine.x[1::2])
    assert np.allclose(paired, fm.x, rtol=1e-14, atol=0.0)


def test_generate_loop_field_validates_spans():
    with pytest.raises(ValueError, match="at least 2"):
        generate_loop_field(1e-3, 1.0, (-1e-4, 1e-4, 1), (-1e-4, 1e-4, 2), (1e-4, 2e-4, 2))
    with pytest.raises(ValueError, match="max > min"):
        generate_loop_field(1e-3, 1.0, (1e-4, -1e-4, 4), (-1e-4, 1e-4, 4), (1e-4, 2e-4, 4))


def _random_spans(rng):
    """Odd random spans around the loop axis, above the z = 0 plane of the wire."""
    half = rng.uniform(2e-4, 1.6e-3, size=2)
    lo = rng.uniform(1e-5, 5e-4)
    counts = rng.choice([3, 5, 7, 9], size=3)
    return ((-half[0], half[0], counts[0]), (-half[1], half[1], counts[1]),
            (lo, lo + rng.uniform(2e-4, 1.5e-3), counts[2]))


@pytest.mark.parametrize("block", [1, 5, 7, 64])
def test_blocked_generate_loop_field_equals_one_meshgrid_call(monkeypatch, block):
    # Blocks of a few cells end mid-row and mid-plane; every field value must
    # still be the bits of one loop_field_at call on the whole meshgrid.
    monkeypatch.setattr(coupling, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(block)
    for _ in range(6):
        spans = _random_spans(rng)
        radius, current = rng.uniform(5e-4, 2e-3), rng.uniform(-2.0, 2.0)
        fm = generate_loop_field(radius, current, *spans)
        grid = np.stack(np.meshgrid(fm.x, fm.y, fm.z, indexing="ij"), axis=-1)
        assert fm.b.tobytes() == loop_field_at(grid, radius, current).tobytes()


def test_blocked_generate_loop_field_reports_a_wire_point_in_a_later_block(monkeypatch):
    # The grid's one wire point, (1e-3, 0, 0), is flat cell 62 of 125; with
    # 7-cell blocks only the ninth block reaches it.
    spans = ((0.5e-3, 1.5e-3, 5), (-2e-4, 2e-4, 5), (-2e-4, 2e-4, 5))
    axes = [lo + (np.arange(n) + 0.5) * ((hi - lo) / n) for lo, hi, n in spans]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    with pytest.raises(ValueError) as whole:
        loop_field_at(grid, 1e-3, 1.0)
    with pytest.raises(ValueError, match="wire"):
        loop_field_at(grid.reshape(-1, 3)[62], 1e-3, 1.0)
    loop_field_at(grid.reshape(-1, 3)[:56], 1e-3, 1.0)
    monkeypatch.setattr(coupling, "_BLOCK_CELLS", 7)
    with pytest.raises(ValueError) as blocked:
        generate_loop_field(1e-3, 1.0, *spans)
    assert str(blocked.value) == str(whole.value)


def test_field_map_validation():
    axis = np.array([0.0, 1.0, 2.0]) * 1e-4
    good = np.zeros((3, 3, 3, 3))
    assert FieldMap(x=axis, y=axis, z=axis, b=good).cell_volume == 1e-4 * 1e-4 * 1e-4
    with pytest.raises(ValueError, match="at least 2"):
        FieldMap(x=axis[:1], y=axis, z=axis, b=good[:1])
    with pytest.raises(ValueError, match="uniform"):
        FieldMap(x=np.array([0.0, 1.0, 3.0]) * 1e-4, y=axis, z=axis, b=good)
    with pytest.raises(ValueError, match="increasing"):
        FieldMap(x=axis[::-1].copy(), y=axis, z=axis, b=good)
    with pytest.raises(ValueError, match="shape"):
        FieldMap(x=axis, y=axis, z=axis, b=np.zeros((3, 3, 2, 3)))
    bad = good.copy()
    bad[1, 1, 1, 0] = math.nan
    with pytest.raises(ValueError, match="field values must be finite"):
        FieldMap(x=axis, y=axis, z=axis, b=bad)
    # A non-finite coordinate is refused, not left out of the integral.
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="axis y coordinates must be finite"):
            FieldMap(x=axis, y=np.array([0.0, value, 2e-4]), z=axis, b=good)
    # Spacings whose product underflows give no cell volume.
    tiny = np.array([0.0, 1.0, 2.0]) * 1e-120
    with pytest.raises(ValueError, match="volume"):
        FieldMap(x=tiny, y=tiny, z=tiny, b=good)


def test_field_map_roundtrip_is_bitwise(tmp_path):
    fm = generate_loop_field(1e-3, 0.7, (-3e-4, 3e-4, 3), (-2e-4, 2e-4, 4), (1e-4, 6e-4, 5))
    path = tmp_path / "map.csv"
    save_field_map(fm, path, extra_comments=["written by the round-trip test"])
    loaded = load_field_map(path)
    assert np.array_equal(loaded.x, fm.x)
    assert np.array_equal(loaded.y, fm.y)
    assert np.array_equal(loaded.z, fm.z)
    assert np.array_equal(loaded.b, fm.b)
    assert loaded.cell_volume == pytest.approx(fm.cell_volume, rel=1e-12)
    assert "round-trip test" in path.read_text()


def _map_lines(tmp_path):
    fm = generate_loop_field(1e-3, 1.0, (-3e-4, 3e-4, 2), (-3e-4, 3e-4, 2), (1e-4, 3e-4, 2))
    path = tmp_path / "base.csv"
    save_field_map(fm, path)
    return path.read_text().splitlines()


def test_load_field_map_reports_line_numbers(tmp_path):
    lines = _map_lines(tmp_path)

    def write(name, content):
        p = tmp_path / name
        p.write_text("\n".join(content) + "\n")
        return p

    with pytest.raises(ValueError, match="line 3: expected 6"):
        load_field_map(write("short_row.csv", lines[:2] + ["1,2,3"] + lines[3:]))
    corrupt = lines[3].split(",")
    corrupt[3] = "oops"
    with pytest.raises(ValueError, match="line 4: non-numeric"):
        load_field_map(write("bad_float.csv", lines[:3] + [",".join(corrupt)]))
    with pytest.raises(ValueError, match="line 5: non-finite"):
        load_field_map(write("inf.csv", lines[:4] + [lines[4].rsplit(",", 1)[0] + ",inf"] + lines[5:]))
    with pytest.raises(ValueError, match="data before"):
        load_field_map(write("no_header.csv", lines[2:]))
    with pytest.raises(ValueError, match="duplicate"):
        load_field_map(write("two_headers.csv", [lines[0], lines[0]] + lines[1:]))
    with pytest.raises(ValueError, match="expected 8 data rows"):
        load_field_map(write("truncated.csv", lines[:-1]))
    with pytest.raises(ValueError, match="malformed field map header"):
        load_field_map(write("bad_header.csv", ["# fieldmap v1 nx=2 ny=2"] + lines[1:]))


def _load_per_line(path, monkeypatch):
    """load_field_map with every block parsed by the per-line parser."""
    def refuse(*args, **kwargs):
        raise ValueError("loadtxt refused")

    with monkeypatch.context() as patch:
        patch.setattr(coupling.np, "loadtxt", refuse)
        return load_field_map(path)


def _load_counting_fallbacks(path, monkeypatch):
    """load_field_map and the number of blocks the per-line parser read."""
    calls = []
    parse_rows = coupling._parse_rows

    def counted(*args):
        calls.append(args)
        return parse_rows(*args)

    with monkeypatch.context() as patch:
        patch.setattr(coupling, "_parse_rows", counted)
        return load_field_map(path), len(calls)


def _same_map(a, b):
    return (all(getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in "xyzb")
            and a.cell_volume == b.cell_volume)


def test_load_field_map_errors_name_the_file(tmp_path):
    lines = _map_lines(tmp_path)
    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("\n".join(lines[:4] + ["1,2,3"] + lines[5:]) + "\n")
    with pytest.raises(ValueError) as excinfo:
        load_field_map(bad_row)
    assert str(excinfo.value) == f"{bad_row}: line 5: expected 6 comma-separated values, got 3"
    # Errors without a line number name the file too.
    for name, content, message in (
        ("no_header.csv", [lines[1]], "missing field map header line"),
        ("short.csv", lines[:-2], "expected 8 data rows"),
        ("header_only.csv", lines[:2], r"expected 8 data rows for grid \(2, 2, 2\), found 0$"),
        ("thin.csv", ["# fieldmap v1 nx=1 ny=2 nz=4"] + lines[1:], "at least 2 points"),
        ("skewed.csv", lines[:-1] + [",".join(["1e-3"] + lines[-1].split(",")[1:])], "not a uniform"),
    ):
        path = tmp_path / name
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(ValueError, match=message) as excinfo:
            load_field_map(path)
        assert str(excinfo.value).startswith(f"{path}: ")


def test_load_field_map_takes_the_numpy_path_on_a_well_formed_map(tmp_path, monkeypatch):
    fm = generate_loop_field(1e-3, 0.7, (-3e-4, 3e-4, 3), (-2e-4, 2e-4, 4), (1e-4, 6e-4, 5))
    path = tmp_path / "map.csv"
    save_field_map(fm, path)

    def refuse(*args):
        raise AssertionError("per-line parser called on a well-formed map")

    monkeypatch.setattr(coupling, "_parse_rows", refuse)
    for block in (5, 8192):
        monkeypatch.setattr(coupling, "_BLOCK_CELLS", block)
        loaded = load_field_map(path)
        assert np.array_equal(loaded.b, fm.b) and np.array_equal(loaded.z, fm.z)


def test_load_field_map_paths_agree_bitwise(tmp_path, monkeypatch):
    fm = generate_loop_field(1e-3, 0.7, (-3e-4, 3e-4, 6), (-2e-4, 2e-4, 5), (1e-4, 6e-4, 7))
    path = tmp_path / "map.csv"
    save_field_map(fm, path, extra_comments=["config_sha256=abc", "a second, comma-laden comment"])
    for block in (1, 7, 64, 8192):
        monkeypatch.setattr(coupling, "_BLOCK_CELLS", block)
        fast, fallbacks = _load_counting_fallbacks(path, monkeypatch)
        per_line = _load_per_line(path, monkeypatch)
        assert fallbacks == 0 and fast.shape == per_line.shape == (6, 5, 7)
        assert _same_map(fast, per_line) and _same_map(fast, fm)


@pytest.mark.parametrize("column", [0, 1, 2], ids=["x", "y", "z"])
def test_grid_check_tolerance_on_both_parse_paths(tmp_path, monkeypatch, column):
    fm = generate_loop_field(1e-3, 0.7, (-3e-4, 3e-4, 3), (-2e-4, 2e-4, 4), (1e-4, 6e-4, 5))
    path = tmp_path / "map.csv"
    save_field_map(fm, path)
    lines = path.read_text().splitlines()
    atol = coupling._SPACING_RTOL * float(np.max(np.abs(np.concatenate([fm.x, fm.y, fm.z]))))
    # The last row defines none of the axes, which come from the first rows.
    cells = lines[-1].split(",")
    for factor, accepted in ((0.5, True), (2.0, False)):
        cells[column] = repr(float(lines[-1].split(",")[column]) + factor * atol)
        path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
        for load in (load_field_map, lambda p: _load_per_line(p, monkeypatch)):
            if accepted:
                loaded = load(path)
                assert np.array_equal(loaded.x, fm.x) and np.array_equal(loaded.z, fm.z)
            else:
                with pytest.raises(ValueError, match="not a uniform x-fastest rectilinear grid"):
                    load(path)


def test_load_field_map_fallback_inputs_keep_their_results(tmp_path, monkeypatch):
    fm = generate_loop_field(1e-3, 1.0, (-3e-4, 3e-4, 2), (-3e-4, 3e-4, 2), (1e-4, 3e-4, 2))
    base = tmp_path / "base.csv"
    save_field_map(fm, base)
    lines = base.read_text().splitlines()

    def load(name, text, numpy_path):
        path = tmp_path / name
        path.write_bytes(text.encode())
        loaded, fallbacks = _load_counting_fallbacks(path, monkeypatch)
        assert (fallbacks == 0) is numpy_path
        return loaded

    body = lines[:4] + [""] + lines[4:6]
    maps = [
        load("comment.csv", "\n".join(lines[:5] + ["# a note", "  #"] + lines[5:]) + "\n", False),
        load("crlf.csv", "\r\n".join(body + [""] + lines[6:]) + "\r\n", True),
        load("crlf_spaces.csv", "\r\n".join(body + ["  "] + lines[6:]) + "\r\n", False),
    ]
    for loaded in maps:
        assert np.array_equal(loaded.b, fm.b) and np.array_equal(loaded.x, fm.x)
    with pytest.raises(ValueError, match="line 6: duplicate field map header"):
        load("late_header.csv", "\n".join(lines[:5] + [lines[0]] + lines[5:]) + "\n", False)
    nan_row = ",".join(lines[4].split(",")[:5] + ["nan"])
    with pytest.raises(ValueError, match="line 5: non-finite value"):
        load("nan.csv", "\n".join(lines[:4] + [nan_row] + lines[5:]) + "\n", False)


def _block_map(tmp_path):
    """A 3x4x5 map, 60 rows from line 3, whose largest |coordinate| is its last z."""
    fm = generate_loop_field(1e-3, 0.7, (-1e-4, 1e-4, 3), (-1e-4, 1e-4, 4), (1e-4, 2e-3, 5))
    path = tmp_path / "map.csv"
    save_field_map(fm, path)
    return fm, path, path.read_text().splitlines()


def test_load_field_map_names_a_bad_line_in_a_middle_block(tmp_path, monkeypatch):
    monkeypatch.setattr(coupling, "_BLOCK_CELLS", 7)
    _, path, lines = _block_map(tmp_path)
    # Line 33 is in the fifth block of 7 lines; the rows after line 40 are
    # missing too, and the line error still comes first.
    lines[32] = lines[32].rsplit(",", 1)[0] + ",oops"
    path.write_text("\n".join(lines[:40]) + "\n")
    with pytest.raises(ValueError) as excinfo:
        load_field_map(path)
    assert str(excinfo.value) == f"{path}: line 33: non-numeric value in row: {lines[32]!r}"
    lines[32] = lines[32].rsplit(",", 1)[0] + ",1,2"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="^.*: line 33: expected 6 comma-separated values, got 7$"):
        load_field_map(path)


def test_grid_check_holds_when_the_largest_coordinate_comes_after_the_deviation(tmp_path, monkeypatch):
    monkeypatch.setattr(coupling, "_BLOCK_CELLS", 4)
    fm, path, lines = _block_map(tmp_path)
    atol = coupling._SPACING_RTOL * float(np.max(fm.z))
    early_atol = coupling._SPACING_RTOL * max(float(np.max(np.abs(fm.x))), float(fm.z[0]))
    # Line 8 (cell 5) is in the second block; the largest |coordinate| is in
    # the last plane.  Half the final tolerance exceeds the tolerance of the
    # rows read by then, and still passes.
    assert 0.5 * atol > early_atol
    for factor, accepted in ((0.5, True), (2.0, False)):
        cells = lines[7].split(",")
        cells[0] = repr(float(cells[0]) + factor * atol)
        path.write_text("\n".join(lines[:7] + [",".join(cells)] + lines[8:]) + "\n")
        if accepted:
            assert _same_map(load_field_map(path), fm)
        else:
            with pytest.raises(ValueError, match="not a uniform x-fastest rectilinear grid"):
                load_field_map(path)


@pytest.mark.parametrize("block", [1, 7, 8192])
def test_load_field_map_counts_extra_and_missing_rows(tmp_path, monkeypatch, block):
    monkeypatch.setattr(coupling, "_BLOCK_CELLS", block)
    _, path, lines = _block_map(tmp_path)
    header, rows = lines[:2], lines[2:]
    for content, found in ((rows + rows[:7], 67), (rows[:-9], 51)):
        path.write_text("\n".join(header + content) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load_field_map(path)
        assert str(excinfo.value) == f"{path}: expected 60 data rows for grid (3, 4, 5), found {found}"
    # Blank lines after the last row are no rows.
    path.write_text("\n".join(header + rows + [""] * 9) + "\n")
    load_field_map(path)


def test_an_oversized_header_fails_on_its_row_count(tmp_path):
    lines = _map_lines(tmp_path)
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(["# fieldmap v1 nx=100000 ny=100000 nz=100000"] + lines[1:]) + "\n")
    with pytest.raises(ValueError) as excinfo:
        load_field_map(path)
    assert str(excinfo.value) == (f"{path}: expected 1000000000000000 data rows for grid "
                                  "(100000, 100000, 100000), found 8")


def test_agm_elliptic_integrals_match_scipy():
    rng = np.random.default_rng(20171)
    m = np.concatenate([rng.random(100_000), 1.0 - np.logspace(-15, -1, 301)])
    k_int, e_int = coupling._elliptic_k_e(m, 1.0 - m)
    assert np.max(np.abs(k_int / ellipk(m) - 1.0)) <= 1e-15
    assert np.max(np.abs(e_int / ellipe(m) - 1.0)) <= 1e-14


def test_loop_field_next_to_the_wire_approaches_the_straight_wire():
    radius, current = 1e-3, 1.0
    for angle in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
        point = np.array([radius + 3e-9 * radius * math.cos(angle), 0.0,
                          3e-9 * radius * math.sin(angle)])
        distance = math.hypot(point[0] - radius, point[2])
        b = loop_field_at(point, radius, current)
        assert np.all(np.isfinite(b))
        wire = MU_0 * current / (2.0 * math.pi * distance)
        assert np.linalg.norm(b) == pytest.approx(wire, rel=1e-7)


CUBE = (-1e-3, 1e-3, -1e-3, 1e-3, -1e-3, 1e-3)


def test_effective_coupling_counts_cells_on_the_boundary():
    # Bounds through the two middle cell centres of each axis: 2x2x2 cells.
    fm = tiny_map(n=4, span=2e-3)
    x, y, z = fm.x, fm.y, fm.z
    bounds = (x[1], x[2], y[1], y[2], z[1], z[2])
    result = effective_coupling(fm, bounds, [[0.0, 0.0, 1.0]], TWO_PI * 2.53e9)
    assert result.region_volume == 8 * fm.cell_volume
    # One ulp inside the upper x centre drops that plane of cells.
    bounds = (x[1], np.nextafter(x[2], -np.inf), y[1], y[2], z[1], z[2])
    result = effective_coupling(fm, bounds, [[0.0, 0.0, 1.0]], TWO_PI * 2.53e9)
    assert result.region_volume == 4 * fm.cell_volume


def test_effective_coupling_rejects_bad_bounds():
    fm = tiny_map()
    omega_c = TWO_PI * 2.53e9
    with pytest.raises(ValueError, match="extent"):
        effective_coupling(fm, (0.0, 0.0, -1e-3, 1e-3, 0.0, 1e-3), [[0, 0, 1]], omega_c)
    with pytest.raises(ValueError, match="bounds"):
        effective_coupling(fm, (-1e-3, 1e-3, -1e-3, 1e-3), [[0, 0, 1]], omega_c)


def test_uniform_transverse_field_reduces_to_mode_volume_form():
    n, span = 4, 2e-3
    fm = tiny_map(n=n, value=(1e-4, 0.0, 0.0), span=span)
    omega_c = TWO_PI * 2.53e9
    result = effective_coupling(fm, CUBE, [[0.0, 0.0, 1.0]], omega_c)
    expected = GAMMA_E * math.sqrt(MU_0 * HBAR * omega_c / span**3)
    assert result.g_s == pytest.approx(expected, rel=1e-12)
    assert result.region_volume == pytest.approx(span**3, rel=1e-12)


def test_effective_coupling_field_scale_invariance():
    fm = generate_loop_field(1e-3, 1.0, (-4e-4, 4e-4, 6), (-4e-4, 4e-4, 6), (1e-4, 9e-4, 6))
    scaled = FieldMap(x=fm.x, y=fm.y, z=fm.z, b=7.3 * fm.b)
    bounds = (-4e-4, 4e-4, -4e-4, 4e-4, 1e-4, 9e-4)
    axes = [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]]
    base = effective_coupling(fm, bounds, axes, TWO_PI * 2.53e9)
    big = effective_coupling(scaled, bounds, axes, TWO_PI * 2.53e9)
    assert big.g_s == pytest.approx(base.g_s, rel=1e-12)
    assert big.region_volume == base.region_volume


def test_effective_coupling_axis_averaging():
    fm = tiny_map(value=(1e-4, 0.0, 0.0))
    omega_c = TWO_PI * 2.53e9
    perp = effective_coupling(fm, CUBE, [[0.0, 0.0, 1.0]], omega_c)
    # Averaging a parallel axis (sin = 0) with a perpendicular one halves g^2.
    mixed = effective_coupling(fm, CUBE, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], omega_c)
    assert mixed.g_s == pytest.approx(perp.g_s / math.sqrt(2.0), rel=1e-12)
    with pytest.raises(ValueError, match="parallel"):
        effective_coupling(fm, CUBE, [[1.0, 0.0, 0.0]], omega_c)


def test_effective_coupling_region_cell_counting():
    # Region covering the lower half of the cube in z: 4x4x2 of the 4x4x4 cells.
    fm = tiny_map(n=4, span=2e-3)
    bounds = (-1e-3, 1e-3, -1e-3, 1e-3, -1e-3, 0.0)
    result = effective_coupling(fm, bounds, [[0.0, 0.0, 1.0]], TWO_PI * 2.53e9)
    assert result.region_volume == pytest.approx(32 * fm.cell_volume, rel=1e-12)


def test_effective_coupling_rejects_degenerate_setups():
    fm = tiny_map()
    omega_c = TWO_PI * 2.53e9
    with pytest.raises(ValueError, match="positive"):
        effective_coupling(fm, CUBE, [[0, 0, 1]], -omega_c)
    with pytest.raises(ValueError, match="non-zero"):
        effective_coupling(fm, CUBE, [[0.0, 0.0, 0.0]], omega_c)
    for axes in ([], [[1.0, 0.0]]):
        with pytest.raises(ValueError) as excinfo:
            effective_coupling(fm, CUBE, axes, omega_c)
        assert str(excinfo.value) == "defect_axes must be a non-empty (n, 3) array"
    with pytest.raises(ValueError, match="overlap"):
        effective_coupling(fm, (5.0, 6.0, 5.0, 6.0, 5.0, 6.0), [[0, 0, 1]], omega_c)
    with pytest.raises(ValueError, match="identically zero"):
        dead = tiny_map(value=(0.0, 0.0, 0.0))
        effective_coupling(dead, CUBE, [[0, 0, 1]], omega_c)


def test_coupling_result_is_plain_record():
    result = CouplingResult(g_s=1.0, region_volume=4.0)
    assert (result.g_s, result.region_volume) == (1.0, 4.0)


def _unblocked_coupling(field_map, bounds, defect_axes, omega_c):
    """Reference: the same integral over whole map-sized arrays, with no blocks."""
    xmin, xmax, ymin, ymax, zmin, zmax = bounds
    axes = np.atleast_2d(np.asarray(defect_axes, dtype=float))
    axes = axes / np.linalg.norm(axes, axis=1)[:, None]
    b = field_map.b
    b_sq = np.einsum("...i,...i->...", b, b)
    safe_b_sq = np.where(b_sq > 0.0, b_sq, 1.0)
    cos_sq_sum = np.zeros_like(b_sq)
    for axis in axes:
        cos_sq_sum += np.einsum("...i,i->...", b, axis) ** 2 / safe_b_sq
    sin_sq = np.where(b_sq > 0.0, 1.0 - cos_sq_sum / axes.shape[0], 0.0)
    x, y, z = field_map.x, field_map.y, field_map.z
    inside = (((x >= xmin) & (x <= xmax))[:, None, None]
              & ((y >= ymin) & (y <= ymax))[None, :, None]
              & ((z >= zmin) & (z <= zmax))[None, None, :])
    dv = field_map.cell_volume
    norm_integral = float(np.sum(b_sq)) * dv
    weighted = float(np.sum(b_sq[inside] * sin_sq[inside])) * dv
    region_volume = float(np.count_nonzero(inside)) * dv
    g_s_sq = GAMMA_E**2 * MU_0 * HBAR * omega_c * weighted / (norm_integral * region_volume)
    return CouplingResult(g_s=math.sqrt(g_s_sq), region_volume=region_volume)


def _random_map(rng, zero_cells=False):
    shape = tuple(rng.integers(2, 12, size=3))
    axes = [rng.uniform(-1e-3, 0.0) + np.arange(n) * rng.uniform(1e-5, 3e-4) for n in shape]
    b = rng.normal(size=shape + (3,)) * 10.0 ** rng.uniform(-8, -3)
    if zero_cells:
        b[rng.random(shape) < 0.3] = 0.0
    return FieldMap(x=axes[0], y=axes[1], z=axes[2], b=b)


def _random_bounds(rng, fm):
    """A box through random cell centres (or between them): at least one cell inside."""
    bounds = []
    for coords in (fm.x, fm.y, fm.z):
        i, j = np.sort(rng.integers(0, coords.size, size=2))
        bounds += [coords[i] - rng.uniform(0.0, 1e-6), coords[j] + rng.uniform(1e-9, 1e-6)]
    return tuple(bounds)


@pytest.mark.parametrize("block", [1, 5, 7, 64])
def test_blocked_effective_coupling_equals_the_whole_array_formula(monkeypatch, block):
    monkeypatch.setattr(coupling, "_BLOCK_CELLS", block)
    rng = np.random.default_rng(100 + block)
    for trial in range(30):
        fm = _random_map(rng, zero_cells=trial % 3 == 0)
        bounds = _random_bounds(rng, fm)
        axes = rng.normal(size=(int(rng.choice([1, 2, 4])), 3))
        args = (bounds, axes, TWO_PI * rng.uniform(1e9, 5e9))
        assert effective_coupling(fm, *args) == _unblocked_coupling(fm, *args)


def test_blocked_field_map_and_integral_stay_near_the_map_size():
    # Working memory is the map, one per-cell buffer and one block: 1.47x
    # b.nbytes (Linux x86-64, Python 3.11, numpy 2.4).  Two per-cell arrays
    # and a masked copy peaked at 1.77x, and the whole-array formulas at ~6x.
    span = (-1.5e-3, 1.5e-3, 64)
    tracemalloc.start()
    try:
        fm = generate_loop_field(1e-3, 1.0, span, span, (1e-4, 2e-3, 64))
        effective_coupling(fm, (-5e-4, 5e-4, -5e-4, 5e-4, 2e-4, 1e-3),
                           [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0]], TWO_PI * 2.53e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * fm.b.nbytes


def test_load_field_map_holds_the_map_and_one_block(tmp_path, monkeypatch):
    # The field array and one block of rows: 1.26x b.nbytes (Linux x86-64,
    # Python 3.11, numpy 2.4).  Parsing the whole file before copying its field
    # out peaked at 3.1x.
    monkeypatch.setattr(coupling, "_BLOCK_CELLS", 1024)
    span = (-1.5e-3, 1.5e-3, 32)
    fm = generate_loop_field(1e-3, 1.0, span, span, (1e-4, 2e-3, 32))
    path = tmp_path / "map.csv"
    save_field_map(fm, path)
    nbytes = fm.b.nbytes
    del fm
    tracemalloc.start()
    try:
        load_field_map(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * nbytes


def test_coupling_children_peak_near_the_map_size(tmp_path, nv_raw, child_peaks_mib):
    """Peak RSS of ``coupling`` children above that of ``cdmr --version``.

    Measured on Linux x86-64 with Python 3.11 and numpy 2.4.  Loop source at
    100^3 (b is 22.9 MiB): +32 MiB, against +47 MiB for two per-cell arrays
    and a masked copy, and 187 MiB in all for whole-array temporaries.  File
    source at 64^3 (b is 6.0 MiB): +10 MiB, against +19 MiB when the whole
    file was parsed before its field was copied out.
    """
    out = str(tmp_path)
    grid = ["--set", "field_map.grid_points=[64,64,64]"]
    spec = {"source": "file", "path": str(tmp_path / "loop_fieldmap.csv"),
            "region_bounds_m": nv_raw["field_map"]["region_bounds_m"]}
    base, loop, _, read = child_peaks_mib(
        ["--version"],
        ["coupling", "--preset", "nv_default", "--output-dir", out,
         "--set", "field_map.grid_points=[100,100,100]"],
        ["fieldmap", "gen-loop", "--preset", "nv_default", "--output-dir", out, *grid],
        ["coupling", "--preset", "nv_default", "--output-dir", out,
         "--set", "field_map=" + json.dumps(spec)])
    assert loop < 140
    assert loop - base < 1.7 * (100**3 * 3 * 8) / 2**20
    assert read - base < 2.4 * (64**3 * 3 * 8) / 2**20
