import numpy as np
import pytest

from formbound import presets
from formbound.hodge import (
    hodge_decompose,
    inhomogeneous_decompose,
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
    """Componentwise max of |b_i - mean_i - (c + Div F)_i|."""
    recon = dec.c + mat_div(dec.F)
    return max(max_abs(b[i] - dec.mean_part[i] - recon[i]) for i in range(b.grid.dim))


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
        hodge_decompose(b[0])


def test_gradient_field_has_no_stream_part(grid2):
    b = presets.make_field("gradient", grid2)
    dec = hodge_decompose(b)
    worst = max(
        max_abs(dec.F.entries[i][j]) for i in range(2) for j in range(2)
    )
    assert worst <= 1e-10 * _sup(b)
    assert _defect(b, dec) <= 1e-10 * _sup(b)


def test_stream_field_has_no_gradient_part(grid2):
    b = presets.make_field("stream", grid2)
    dec = hodge_decompose(b)
    assert _sup(dec.c) <= 1e-10 * _sup(b)
    assert _defect(b, dec) <= 1e-10 * _sup(b)


def test_reconstruction_band_limited(grid3):
    b = presets.random_field(grid3, seed=3)
    dec = hodge_decompose(b)
    recon = dec.c + mat_div(dec.F)
    defect = max(
        max_abs(b[i] - dec.mean_part[i] - recon[i]) for i in range(3)
    )
    assert defect <= 1e-10 * _sup(b)


def test_mean_part_recovered(grid2):
    b = presets.make_field("stream", grid2)
    shifted = VectorField((b[0] + 2.5, b[1] - 1.0))
    dec = hodge_decompose(shifted)
    assert np.allclose(dec.mean_part, [2.5, -1.0], atol=1e-12)


def test_vortex_gradient_part_small_and_shrinking():
    ratios = []
    for n in (32, 64):
        g = Grid(3, n, 1.0)
        b = presets.make_field("vortex", g)
        dec = hodge_decompose(b)
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
    dec = inhomogeneous_decompose(b, q)
    scale = max(_sup(b), 1.0)
    assert dec.h is not None and dec.gamma is not None
    # reconstruction identities, recomputed with the public operators
    recon_b = dec.c + mat_div(dec.F)
    assert max(max_abs(b[i] - recon_b[i]) for i in range(2)) <= 1e-12 * scale
    recon_q = div(dec.h) + dec.gamma
    assert max_abs(q - recon_q) <= 1e-12 * max(max_abs(q), 1.0)


def test_inhomogeneous_zero_q(grid3):
    b = presets.random_field(grid3, seed=5)
    q = ScalarField(grid3, np.zeros(grid3.shape))
    dec = inhomogeneous_decompose(b, q)
    assert _sup(dec.h) == 0.0
    assert max_abs(dec.gamma) == 0.0
    assert np.all(dec.mean_part == 0.0)


def test_inhomogeneous_grid_mismatch():
    b = presets.make_field("stream", Grid(2, 16, 1.0))
    q = ScalarField(Grid(2, 32, 1.0), np.zeros((32, 32)))
    with pytest.raises(ValueError):
        inhomogeneous_decompose(b, q)


def test_decompose_complex_input(grid2, noise):
    u = noise(grid2, seed=14)
    v = noise(grid2, seed=15)
    b = VectorField(tuple(
        ScalarField(grid2, u[i].values + 1j * v[i].values) for i in range(2)
    ))
    dec = hodge_decompose(b)
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
    dec = hodge_decompose(b)
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
