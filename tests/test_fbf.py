import struct

import numpy as np
import pytest

from formbound import fbf
from formbound.hodge import decompose
from formbound.torus import Grid, MatrixField, ScalarField, SkewField, VectorField


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
    F = decompose(noise(grid2, seed=2)).F
    path = tmp_path / "F.fbf"
    fbf.write_field(path, F)
    back = fbf.read_field(path)
    assert isinstance(back, MatrixField)
    assert np.array_equal(back.values, F.dense().values)


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


def test_payload_longer_than_header_declares(tmp_path, noise):
    # a 32^2 file whose header says 16^2 must not read as its first 256
    # samples, nor may one trailing byte pass
    path = tmp_path / "long.fbf"
    fbf.write_field(path, noise(Grid(2, 32, 1.0), seed=7, kind="scalar"))
    raw = path.read_bytes()
    relabelled = bytearray(raw)
    relabelled[12:20] = struct.pack("<II", 16, 16)
    for bad in (bytes(relabelled), raw + b"\x00"):
        path.write_bytes(bad)
        with pytest.raises(fbf.FormatError, match="header declares"):
            fbf.read_field(path)


@pytest.mark.parametrize("cut", [4, 6, 12, 18, 27])
def test_file_cut_inside_its_header(tmp_path, grid2, noise, cut):
    # every cut after the magic, in the version, dim, size, component
    # count or dtype words
    path = tmp_path / "h.fbf"
    fbf.write_field(path, noise(grid2, seed=8, kind="scalar"))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(fbf.FormatError, match="inside its header"):
        fbf.read_field(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_sample_rejected(tmp_path, grid2, noise, bad):
    f = noise(grid2, seed=6, kind="scalar")
    f.values[3, 7] = bad
    path = tmp_path / "n.fbf"
    fbf.write_field(path, f)
    with pytest.raises(fbf.FormatError, match="non-finite"):
        fbf.read_field(path)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_skew_field_writes_the_full_layout(tmp_path, complex_):
    # a skew field is written entry by entry as a d x d matrix, the lower
    # entries negated, and reads back as that matrix
    for grid in (Grid(2, 16, 1.0), Grid(3, 8, 2.5)):
        d = grid.dim
        pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
        rng = np.random.default_rng(4)
        upper = rng.standard_normal((len(pairs),) + grid.shape)
        if complex_:
            upper = upper + 1j * rng.standard_normal(upper.shape)
        full = np.zeros((d, d) + grid.shape, upper.dtype)
        for ent, (i, j) in zip(upper, pairs):
            full[i, j] = ent
            full[j, i] = -ent
        header = np.array([1, d, *grid.shape, d * d, int(complex_)], dtype="<u4")
        want = b"FBF1" + header.tobytes() + full.tobytes()
        fbf.write_field(tmp_path / "F.fbf", SkewField.from_array(grid, upper))
        assert (tmp_path / "F.fbf").read_bytes() == want
        back = fbf.read_field(tmp_path / "F.fbf", period=grid.period)
        assert isinstance(back, MatrixField) and np.array_equal(back.values, full)
        fbf.write_field(tmp_path / "G.fbf", back)
        assert (tmp_path / "G.fbf").read_bytes() == want
