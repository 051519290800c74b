import struct

import numpy as np
import pytest

from formbound import fbf
from formbound.hodge import hodge_decompose
from formbound.torus import Grid, MatrixField, ScalarField, VectorField


def test_scalar_round_trip(tmp_path, grid2, noise):
    f = noise(grid2, seed=0, kind="scalar")
    path = tmp_path / "f.fbf"
    fbf.write_field(path, f)
    back = fbf.read_field(path)
    assert isinstance(back, ScalarField)
    assert np.array_equal(back.values, f.values)


def test_vector_round_trip(tmp_path, grid3, noise):
    b = noise(grid3, seed=1)
    path = tmp_path / "b.fbf"
    fbf.write_field(path, b)
    back = fbf.read_field(path)
    assert isinstance(back, VectorField)
    for i in range(grid3.dim):
        assert np.array_equal(back[i].values, b[i].values)


def test_matrix_round_trip(tmp_path, grid2, noise):
    F = hodge_decompose(noise(grid2, seed=2)).F
    path = tmp_path / "F.fbf"
    fbf.write_field(path, F)
    back = fbf.read_field(path)
    assert isinstance(back, MatrixField)
    for i in range(2):
        for j in range(2):
            assert np.array_equal(back.entries[i][j].values, F.entries[i][j].values)


def test_complex_round_trip(tmp_path, grid2):
    vals = np.full(grid2.shape, 1.0 + 2.0j)
    f = ScalarField(grid2, vals)
    path = tmp_path / "c.fbf"
    fbf.write_field(path, f)
    back = fbf.read_field(path)
    assert back.values.dtype == np.complex128
    assert np.array_equal(back.values, vals)


def test_period_passthrough(tmp_path, noise):
    g = Grid(2, 16, 4.0)
    f = noise(g, seed=3, kind="scalar")
    path = tmp_path / "p.fbf"
    fbf.write_field(path, f)
    back = fbf.read_field(path, period=4.0)
    assert back.grid.period == 4.0
    assert back.grid == g


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.fbf"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(fbf.FormatError):
        fbf.read_field(path)


def test_bad_version(tmp_path, grid2, noise):
    path = tmp_path / "v.fbf"
    fbf.write_field(path, noise(grid2, seed=4, kind="scalar"))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(fbf.FormatError):
        fbf.read_field(path)


def test_truncated_payload(tmp_path, grid2, noise):
    path = tmp_path / "t.fbf"
    fbf.write_field(path, noise(grid2, seed=5, kind="scalar"))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(fbf.FormatError):
        fbf.read_field(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_sample_rejected(tmp_path, grid2, noise, bad):
    f = noise(grid2, seed=6, kind="scalar")
    f.values[3, 7] = bad
    path = tmp_path / "n.fbf"
    fbf.write_field(path, f)
    with pytest.raises(fbf.FormatError, match="non-finite"):
        fbf.read_field(path)
