"""``floattext.csv_text`` against ``repr``: every cell must be the same text, byte for byte.

The reference is the per-value formatting the CSV writers used before,
``",".join(map(repr, row))`` per row, and the old writers themselves (kept in
conftest.py) for whole files.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cdmr import floattext
from cdmr.cli import write_matrix_csv, write_table_csv
from cdmr.coupling import FieldMap, generate_loop_field, save_field_map
from cdmr.floattext import csv_blocks, csv_text


def reference_text(values):
    rows = np.asarray(values, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    return "".join(",".join(map(repr, row.tolist())) + "\n" for row in rows)


def assert_matches_repr(values):
    got = csv_text(values)
    want = reference_text(values)
    if got != want:
        bad = [(g, w) for g, w in zip(got.replace("\n", ",").split(","),
                                      want.replace("\n", ",").split(",")) if g != w]
        pytest.fail(f"{len(bad)} cells differ from repr, first {bad[:5]}")


def neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])


@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_any_float_row(row):
    # st.floats() draws nan, +-inf, -0.0 and subnormals as well as normals.
    assert csv_text(row) == ",".join(map(repr, row)) + "\n"


@given(st.lists(st.floats(min_value=1e-10, max_value=1e16), min_size=1, max_size=40))
def test_fast_path_range_row(row):
    assert csv_text(row) == ",".join(map(repr, row)) + "\n"


def test_million_log_uniform_doubles_both_signs():
    rng = np.random.default_rng(20171)
    n = 1_000_000
    magnitude = np.exp(rng.uniform(math.log(1e-12), math.log(1e18), n))
    assert_matches_repr((magnitude * rng.choice([-1.0, 1.0], n)).reshape(-1, 250))


def test_uniform_bit_pattern_doubles():
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False)
    assert_matches_repr(bits.view(np.float64).reshape(-1, 100))


def test_powers_of_two_and_ten_with_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = neighbours(np.concatenate([twos, tens]))
    assert_matches_repr(np.concatenate([values, -values]).reshape(1, -1))


def test_notation_switches_and_exponent_widths():
    switches = neighbours([1e-4, 1e-5, 1e15, 1e16, 9.999999999999999e-5, 9999999999999998.0,
                           1e-10, 1e-11, 2**53, 2**53 + 2, 1.5e-5, 0.00015])
    # One-, two- and three-digit exponents, on both sides of the fast path.
    exponents = [1e-5, 2.5e-9, 1e-10, 1.25e-99, 1e-100, 3e-300, 1e17, 1.5e22, 4e99,
                 1e100, 2.5e250, 1.7976931348623157e308, 5e-324, 2.2250738585072014e-308]
    assert_matches_repr(np.concatenate([switches, exponents]).reshape(1, -1))


def test_short_decimals_integers_and_halves():
    shorts = [k / 10.0**j for j in range(0, 13) for k in range(1, 1000)]
    integers = np.arange(1, 100_001, dtype=float)
    halves = integers[:20_000] + 0.5
    quarters = np.arange(1, 4_000) * 0.25 + 2.0**50
    # Above 2^53 the doubles are even integers, up to the fast path's end at 1e16.
    evens = np.concatenate([2.0**53 + 2 * np.arange(1, 4_000), 1e16 - 2 * np.arange(1, 4_000)])
    dyadics = np.arange(1, 4_000) / 2.0 ** (np.arange(1, 4_000) % 40)
    values = np.concatenate([shorts, integers, halves, quarters, evens, dyadics])
    assert_matches_repr(np.concatenate([values, -values]).reshape(-1, 2))


def test_special_values_and_shapes():
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, -2.0, 0.1, 1e-5]
    assert_matches_repr(np.array(specials * 3).reshape(3, 10))
    assert_matches_repr(np.linspace(0.1, 0.9, 9000).reshape(1, -1))  # one row wider than a block
    assert_matches_repr(np.linspace(0.1, 0.9, 9000).reshape(-1, 1))  # many one-cell rows
    assert csv_text(np.zeros((0, 3))) == ""
    assert csv_text(np.zeros((2, 0))) == "\n\n"
    with pytest.raises(ValueError, match="2-D"):
        csv_text(np.zeros((2, 2, 2)))


def test_fallback_blocks_match_repr(monkeypatch):
    rng = np.random.default_rng(7)
    specials = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 2.0, -0.5,
                         1e-11, 1e16, 3e200])
    mixed = rng.choice(specials, 20_000)  # powers of two and out-of-range values only
    fast_cells = rng.random(5_000) * 10.0
    mixed[rng.choice(mixed.size, fast_cells.size, replace=False)] = fast_cells
    assert_matches_repr(mixed.reshape(-1, 40))
    # A block without a fast-path cell never enters the fast path.
    monkeypatch.setattr(floattext, "_shortest", None)
    assert_matches_repr(rng.choice(specials, 20_000).reshape(-1, 40))


def test_writers_match_reference_writers(tmp_path, reference_writers, read_matrix_csv):
    rng = np.random.default_rng(11)
    comments = ["config_sha256=abc", "version=0"]
    b_mags = np.linspace(0.0, 0.02, 37)
    omega_p = 2 * math.pi * np.linspace(2.525e9, 2.535e9, 53)
    matrix = rng.random((37, 53))
    matrix[0, :3] = [0.0, 1.0, 1e-17]
    matrix[5] = rng.random(53) ** 40  # many below 1e-10, written by repr itself
    for name, write, reference, args in [
        ("matrix", write_matrix_csv, reference_writers.matrix, (b_mags, omega_p, [matrix])),
        ("table", write_table_csv, reference_writers.table,
         (["b_t", "omega_eff_hz", "ratio"], np.column_stack([b_mags, b_mags * 1e9, -b_mags]))),
    ]:
        write(str(tmp_path / f"{name}.csv"), comments, *args)
        reference(str(tmp_path / f"{name}_ref.csv"), comments, *args)
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()
    # The matrix reads back to the very same doubles.
    b_back, f_back, matrix_back = read_matrix_csv(str(tmp_path / "matrix.csv"))
    assert np.array_equal(b_back, b_mags) and np.array_equal(matrix_back, matrix)
    assert np.array_equal(f_back, omega_p / (2 * math.pi))


def test_csv_blocks_are_csv_text_in_whole_rows():
    values = np.random.default_rng(5).normal(size=(1000, 9))
    blocks = list(csv_blocks(values))
    assert floattext._BLOCK_CELLS // 9 == 455
    assert [block.count("\n") for block in blocks] == [455, 455, 90]
    assert "".join(blocks) == csv_text(values)
    # A row wider than a block is a block of its own.
    wide = np.ones((3, 10_000))
    assert [block.count("\n") for block in csv_blocks(wide)] == [1, 1, 1]


def test_matrix_writer_streams_row_blocks_of_any_height(tmp_path):
    rng = np.random.default_rng(13)
    b_mags = np.linspace(0.0, 0.02, 23)
    omega_p = 2 * math.pi * np.linspace(2.525e9, 2.535e9, 11)
    matrix = rng.random((23, 11))
    write_matrix_csv(str(tmp_path / "whole.csv"), ["a"], b_mags, omega_p, [matrix])
    write_matrix_csv(str(tmp_path / "blocks.csv"), ["a"], b_mags, omega_p,
                     (matrix[start:start + 5] for start in range(0, 23, 5)))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    with pytest.raises(ValueError, match="22 matrix rows for 23 fields"):
        write_matrix_csv(str(tmp_path / "short.csv"), ["a"], b_mags, omega_p, [matrix[:22]])


def test_field_map_writer_matches_reference_writer(tmp_path, reference_writers):
    loop = generate_loop_field(1e-3, 1.0, (-2e-3, 2e-3, 9), (-2e-3, 2e-3, 8), (-1e-3, 3e-3, 7))
    x, y, z = (np.linspace(-1.0, 1.0, n) for n in (5, 4, 3))  # includes the exact zero
    b = np.random.default_rng(3).normal(size=(5, 4, 3, 3))
    b[2, :, :, 0] = 0.0
    synthetic = FieldMap(x=x, y=y, z=z, b=b)
    for name, field_map in [("loop", loop), ("synthetic", synthetic)]:
        save_field_map(field_map, str(tmp_path / f"{name}.csv"), extra_comments=["note"])
        reference_writers.field_map(field_map, str(tmp_path / f"{name}_ref.csv"), ["note"])
        assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / f"{name}_ref.csv").read_bytes()
