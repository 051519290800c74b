from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft

from formbound import presets, torus
from formbound.hodge import (
    decompose,
    harmonic_part,
    project,
    reduce_principal,
)
from formbound.torus import (
    Grid,
    MatrixField,
    RankError,
    ScalarField,
    VectorField,
    div,
    lp_norm,
    mat_div,
    max_abs,
)


def _sup(b):
    return max(max_abs(b[i]) for i in range(b.grid.dim))


def _defect(b, dec):
    """Componentwise max of |b_i - (b_h + c + Div F)_i|, b_h repeated over
    the grid from its table of parity classes."""
    recon = (dec.c + mat_div(dec.F)).values
    reps = (b.grid.points_per_axis // 2,) * b.grid.dim
    return max(float(np.abs(b.values[i] - np.tile(dec.harmonic[i], reps) - recon[i]).max())
               for i in range(b.grid.dim))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_split_rebuilds_white_noise(dim, complex_, noise):
    # full-spectrum noise plus a mean: the mean and the Nyquist-only modes,
    # which no derivative sees, are b_h
    g = Grid(dim, 16, 1.0)
    vals = noise(g, seed=18).values + 0.5
    if complex_:
        vals = vals + 1j * noise(g, seed=19).values
    b = VectorField.from_array(g, vals)
    assert _defect(b, decompose(b)) <= 1e-13 * _sup(b)


@pytest.mark.parametrize("dim", [2, 3])
def test_harmonic_part_is_the_nyquist_only_modes(dim, noise):
    g = Grid(dim, 16, 1.0)
    b = noise(g, seed=20)
    axes = tuple(range(1, dim + 1))
    keep = np.zeros(g.shape)
    keep[np.ix_(*[[0, 8]] * dim)] = 1.0
    want = np.fft.ifftn(np.fft.fftn(b.values, axes=axes) * keep, axes=axes).real
    got = np.stack([np.tile(h, (8,) * dim) for h in harmonic_part(b)])
    assert np.abs(got - want).max() <= 1e-14 * _sup(b)


@pytest.mark.parametrize("dim,n", [(2, 64), (3, 32)])
def test_projection_identity_and_idempotence(dim, n, noise):
    # full-spectrum noise, Nyquist rows included
    g = Grid(dim, n, 1.0)
    b = noise(g, seed=11)
    Pb, Qb = project("P", b), project("Q", b)
    scale = _sup(b)
    assert max(max_abs(b[i] - Pb[i] - Qb[i]) for i in range(dim)) <= 1e-10 * scale
    assert max(max_abs(project("P", Pb)[i] - Pb[i]) for i in range(dim)) <= 1e-10 * scale
    assert max(max_abs(project("Q", Qb)[i] - Qb[i]) for i in range(dim)) <= 1e-10 * scale
    assert max(max_abs(project("Q", Pb)[i]) for i in range(dim)) <= 1e-10 * scale
    assert max(max_abs(project("P", Qb)[i]) for i in range(dim)) <= 1e-10 * scale


def test_project_validates():
    g = Grid(2, 16, 1.0)
    b = presets.make_field("stream", g)
    with pytest.raises(ValueError):
        project("R", b)
    with pytest.raises(RankError):
        decompose(b[0])


def test_gradient_field_has_no_stream_part(grid2):
    b = presets.make_field("gradient", grid2)
    dec = decompose(b)
    assert dec.F.values.shape == (1,) + grid2.shape
    assert max_abs(dec.F[0, 1]) <= 1e-10 * _sup(b)
    assert _defect(b, dec) <= 1e-10 * _sup(b)


def test_stream_field_has_no_gradient_part(grid2):
    b = presets.make_field("stream", grid2)
    dec = decompose(b)
    assert _sup(dec.c) <= 1e-10 * _sup(b)
    assert _defect(b, dec) <= 1e-10 * _sup(b)


def test_reconstruction_band_limited(grid3):
    b = presets.random_field(grid3, seed=3)
    dec = decompose(b)
    recon = dec.c + mat_div(dec.F)
    defect = max(
        max_abs(b[i] - dec.mean_part[i] - recon[i]) for i in range(3)
    )
    assert defect <= 1e-10 * _sup(b)


def test_mean_part_recovered(grid2):
    b = presets.make_field("stream", grid2)
    shifted = VectorField((b[0] + 2.5, b[1] - 1.0))
    dec = decompose(shifted)
    assert np.allclose(dec.mean_part, [2.5, -1.0], atol=1e-12)


def test_vortex_gradient_part_small_and_shrinking():
    ratios = []
    for n in (32, 64):
        g = Grid(3, n, 1.0)
        b = presets.make_field("vortex", g)
        dec = decompose(b)
        ratios.append(lp_norm(dec.c) / lp_norm(b))
    assert ratios[0] <= 0.05
    assert ratios[1] < ratios[0]


def test_reduce_principal_folds_skew(grid2, noise):
    b = presets.random_field(grid2, seed=4)
    s = presets.make_scalar("trig", grid2)
    zero = ScalarField(grid2, np.zeros(grid2.shape))
    one = ScalarField(grid2, np.ones(grid2.shape))
    A = MatrixField(((one, s), (s * (-1.0), one)))
    As, b1, s_inf = reduce_principal(A, b)
    # symmetric part is the identity here
    assert max_abs(As.entries[0][1]) <= 1e-14
    assert max_abs(As.entries[0][0] - one) <= 1e-14
    assert abs(s_inf - 1.0) <= 1e-12
    skew = MatrixField(((zero, s), (s * (-1.0), zero)))
    want = b - mat_div(skew)
    assert max(max_abs(b1[i] - want[i]) for i in range(2)) <= 1e-12


def test_reduce_principal_symmetric_noop(grid2):
    b = presets.make_field("stream", grid2)
    one = ScalarField(grid2, np.ones(grid2.shape))
    zero = ScalarField(grid2, np.zeros(grid2.shape))
    A = MatrixField(((one * 2.0, zero), (zero, one)))
    As, b1, s_inf = reduce_principal(A, b)
    assert max(max_abs(b1[i] - b[i]) for i in range(2)) == 0.0
    assert abs(s_inf - 2.0) <= 1e-12


def test_inhomogeneous_reconstruction_full_spectrum(grid2, noise):
    b = noise(grid2, seed=12)
    q = noise(grid2, seed=13, kind="scalar")
    dec = decompose(b, q, "inhomogeneous")
    scale = max(_sup(b), 1.0)
    assert dec.h is not None and dec.gamma is not None
    # reconstruction identities, recomputed with the public operators
    recon_b = dec.c + mat_div(dec.F)
    assert max(max_abs(b[i] - recon_b[i]) for i in range(2)) <= 1e-12 * scale
    recon_q = div(dec.h) + dec.gamma
    assert max_abs(q - recon_q) <= 1e-12 * max(max_abs(q), 1.0)


def test_inhomogeneous_zero_q(grid3, monkeypatch):
    # a zero q and an absent one split alike, bit for bit, and neither
    # costs a transform
    b = presets.random_field(grid3, seed=5)
    q = ScalarField(grid3, np.zeros(grid3.shape))
    calls = []

    def forward(values, *args, **kwargs):
        calls.append(values.shape)
        return scipy.fft.rfftn(values, *args, **kwargs)

    monkeypatch.setattr(torus, "_sfft", SimpleNamespace(rfftn=forward,
                                                        irfftn=scipy.fft.irfftn))
    dec = decompose(b, q, "inhomogeneous")
    assert calls == [b.values.shape]
    assert np.array_equal(dec.h.values, np.zeros((3,) + grid3.shape))
    assert np.array_equal(dec.gamma.values, np.zeros(grid3.shape))
    assert np.all(dec.mean_part == 0.0)
    calls.clear()
    absent = decompose(b, flavor="inhomogeneous")
    assert calls == [b.values.shape]
    for part in ("c", "F", "h", "gamma"):
        got, want = getattr(absent, part).values, getattr(dec, part).values
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), part
    assert absent.harmonic.tobytes() == dec.harmonic.tobytes()


def test_homogeneous_split_rejects_q(grid2):
    # the homogeneous split has no q part: a given q would go unread
    b = presets.make_field("stream", grid2)
    q = ScalarField(grid2, np.zeros(grid2.shape))
    with pytest.raises(ValueError, match="homogeneous split takes no q"):
        decompose(b, q)
    with pytest.raises(ValueError, match="homogeneous split takes no q"):
        decompose(b, q, "homogeneous")


def test_inhomogeneous_grid_mismatch():
    b = presets.make_field("stream", Grid(2, 16, 1.0))
    q = ScalarField(Grid(2, 32, 1.0), np.zeros((32, 32)))
    with pytest.raises(ValueError):
        decompose(b, q, "inhomogeneous")


def test_decompose_complex_input(grid2, noise):
    u = noise(grid2, seed=14)
    v = noise(grid2, seed=15)
    b = VectorField(tuple(
        ScalarField(grid2, u[i].values + 1j * v[i].values) for i in range(2)
    ))
    dec = decompose(b)
    assert np.iscomplexobj(dec.c[0].values)
    Pb, Qb = project("P", b), project("Q", b)
    scale = _sup(b)
    assert max(max_abs(b[i] - Pb[i] - Qb[i]) for i in range(2)) <= 1e-10 * scale


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_projections_read_the_split(dim, n, complex_, noise):
    g = Grid(dim, n, 1.0)
    vals = noise(g, seed=16).values + 0.75
    if complex_:
        vals = vals + 1j * noise(g, seed=17).values
    b = VectorField.from_array(g, vals)
    dec = decompose(b)
    assert np.array_equal(project("P", b).values, dec.c.values)
    mean = dec.mean_part.reshape((-1,) + (1,) * dim)
    want = b.values - mean - dec.c.values
    assert np.abs(project("Q", b).values - want).max() <= 1e-15 * np.abs(b.values).max()


def test_verdicts_build_no_reconstruction(monkeypatch):
    # the splits hand over their parts; rebuilding b from them is the
    # decompose command's diagnostic, not the pipelines' work
    from formbound import hodge, verdict
    from formbound.report import render_record

    g = Grid(3, 16, 1.0)
    b = presets.make_field("vortex", g)
    want = [verdict.assess_homogeneous(None, b, None),
            verdict.assess_inhomogeneous(None, b, None)]

    def _refuse(*args):
        raise AssertionError("mat_div called by a split")

    monkeypatch.setattr(hodge, "mat_div", _refuse)
    got = [verdict.assess_homogeneous(None, b, None),
           verdict.assess_inhomogeneous(None, b, None)]
    assert [v.overall for v in got] == ["certified_bounded"] * 2
    for patched, plain in zip(got, want):
        assert [render_record(r) for r in patched.records] == \
            [render_record(r) for r in plain.records]
