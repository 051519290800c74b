import itertools

import numpy as np
import pytest

from formbound.torus import (
    Grid,
    GridMismatchError,
    MatrixField,
    MeanModeError,
    RankError,
    ScalarField,
    VectorField,
    bessel_inv,
    curl,
    dirichlet_norm,
    div,
    fft_workers,
    grad,
    integral,
    inv_laplacian,
    l2_inner,
    lp_norm,
    mat_div,
    max_abs,
    mean,
    riesz_half,
    zero_mean,
)


def _mode(grid, axis, m, fn=np.sin):
    coords = grid.coordinates()
    w = 2.0 * np.pi * m / grid.period
    return ScalarField(grid, fn(w * coords[axis]) + np.zeros(grid.shape))


def _strip_nyquist(f):
    # derivatives of real fields are exact only below the Nyquist row
    hats = np.fft.fftn(f.values.real)
    n = f.grid.points_per_axis
    for ax in range(f.grid.dim):
        idx = [slice(None)] * f.grid.dim
        idx[ax] = n // 2
        hats[tuple(idx)] = 0.0
    return ScalarField(f.grid, np.fft.ifftn(hats).real)


@pytest.mark.parametrize("dim,n,period", [(2, 8, 1.0), (2, 32, 2.5), (3, 16, 1.0)])
def test_grid_geometry(dim, n, period):
    g = Grid(dim, n, period)
    assert g.shape == (n,) * dim
    assert g.npoints == n**dim
    assert abs(g.spacing * n - period) < 1e-15
    assert abs(g.cell_volume - (period / n) ** dim) < 1e-15


@pytest.mark.parametrize("bad", [
    dict(dim=1, points_per_axis=16, period=1.0),
    dict(dim=4, points_per_axis=16, period=1.0),
    dict(dim=2, points_per_axis=24, period=1.0),
    dict(dim=2, points_per_axis=4, period=1.0),
    dict(dim=2, points_per_axis=16, period=0.0),
    dict(dim=2, points_per_axis=16, period=-1.0),
])
def test_grid_validation(bad):
    with pytest.raises(ValueError):
        Grid(**bad)


@pytest.mark.parametrize("dim,n,kmax", [(2, 8, 2), (2, 64, 8), (3, 16, 2), (3, 32, 7)])
def test_band_is_the_fftfreq_box_in_signed_order(dim, n, kmax):
    g = Grid(dim, n, 1.0)
    k = np.fft.fftfreq(n, 1.0 / n)
    inside = np.ones(g.shape, dtype=bool)
    for axis in range(dim):
        inside &= (np.abs(k) <= kmax).reshape([n if a == axis else 1 for a in range(dim)])
    band = g.band(kmax)
    got = np.zeros(g.shape, dtype=bool)
    got[band] = True
    assert np.array_equal(got, inside)
    for index in band:
        assert np.array_equal(k[index.ravel()], np.arange(-kmax, kmax + 1))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("period", [1.0, 2.5])
def test_dist_sq_is_the_minimum_image_distance(dim, period):
    g = Grid(dim, 8, period)
    h = g.spacing
    for cell in (None, (3, 5, 7)[:dim], (7,) * dim, (4, 0, 1)[:dim]):
        c = (0,) * dim if cell is None else cell
        want = np.empty(g.shape)
        for x in np.ndindex(g.shape):
            want[x] = min(sum(((xi - ci + 8 * m) * h) ** 2 for xi, ci, m in zip(x, c, image))
                          for image in itertools.product((-1, 0, 1), repeat=dim))
        # per axis the nearest image is a whole number of cells away, and a
        # sum of per-axis minima is the minimum sum: equal bit for bit
        assert np.array_equal(g.dist_sq(cell), want)


@pytest.mark.parametrize("cell", [(1, 2), (1, 2, 3, 4)])
def test_geometry_needs_one_index_per_axis(cell):
    # a short index would select whole lines: a slab for a cube, and a
    # distance table that masks whole lines of a 3-D array
    g = Grid(3, 8, 1.0)
    with pytest.raises(ValueError, match="indices"):
        g.dist_sq(cell)
    with pytest.raises(ValueError, match="indices"):
        g.cube(cell, 2)


def test_parseval(grid2, noise):
    f = noise(grid2, seed=3, kind="scalar")
    direct = integral(ScalarField(grid2, np.abs(f.values) ** 2))
    hats = np.fft.fftn(f.values)
    spectral = np.sum(np.abs(hats) ** 2) * grid2.period**grid2.dim / grid2.npoints**2
    assert abs(direct - spectral) <= 1e-12 * abs(spectral)


def test_derivative_exact_single_mode():
    g = Grid(2, 32, 2.0)
    w = 2.0 * np.pi * 3 / g.period
    f = _mode(g, 0, 3)
    gf = grad(f)
    coords = g.coordinates()
    want = w * np.cos(w * coords[0]) + np.zeros(g.shape)
    assert np.max(np.abs(gf[0].values.real - want)) <= 1e-10
    assert max_abs(gf[1]) <= 1e-12


def test_div_grad_is_laplacian(grid2):
    f = _mode(grid2, 1, 2)
    w = 2.0 * np.pi * 2 / grid2.period
    lap = div(grad(f))
    assert np.max(np.abs(lap.values.real + w * w * f.values.real)) <= 1e-8


def test_curl_of_gradient_vanishes(grid3, noise):
    f = noise(grid3, seed=1, kind="scalar")
    F = curl(grad(f))
    worst = max(max_abs(F.entries[i][j]) for i in range(3) for j in range(3))
    assert worst <= 1e-10 * max(max_abs(f), 1.0)


def test_div_of_skew_divergence_vanishes(grid3, noise):
    b = noise(grid3, seed=2)
    F = curl(b)  # skew by construction
    r = div(mat_div(F))
    assert max_abs(r) <= 1e-9 * max(max_abs(b), 1.0)


def test_inv_laplacian_inverts(grid2, noise):
    f = _strip_nyquist(noise(grid2, seed=4, kind="scalar"))
    u = inv_laplacian(f)
    back = div(grad(u))  # the operator is Delta^(-1), so Delta u = f
    assert max_abs(back - f) <= 1e-9 * max_abs(f)


def test_inv_laplacian_mean_mode(grid2):
    f = ScalarField(grid2, np.ones(grid2.shape))
    with pytest.raises(MeanModeError):
        inv_laplacian(f)
    u = inv_laplacian(f, annihilate_mean=True)
    assert max_abs(u) <= 1e-14


def test_riesz_half_single_mode(grid2):
    f = _mode(grid2, 0, 2)
    w = 2.0 * np.pi * 2 / grid2.period
    half = riesz_half(f)
    assert np.max(np.abs(half.values.real - f.values.real / w)) <= 1e-12


def test_bessel_inv_inverts(grid2, noise):
    f = _strip_nyquist(noise(grid2, seed=5, kind="scalar"))
    u = bessel_inv(f)
    back = u - div(grad(u))
    assert max_abs(back - f) <= 1e-9 * max_abs(f)


def test_bessel_handles_mean(grid2):
    f = ScalarField(grid2, np.full(grid2.shape, 3.0))
    u = bessel_inv(f)
    assert max_abs(u - f) <= 1e-12  # symbol is 1 at frequency zero


def test_norms_constant_field():
    g = Grid(2, 16, 2.0)
    f = ScalarField(g, np.full(g.shape, -1.5))
    assert abs(lp_norm(f, 2) - 1.5 * g.period) <= 1e-12
    assert abs(lp_norm(f, 1) - 1.5 * g.period**2) <= 1e-12
    assert dirichlet_norm(f) <= 1e-14
    assert abs(mean(f) + 1.5) <= 1e-14


def test_dirichlet_norm_single_mode(grid2):
    f = _mode(grid2, 0, 1)
    want = 2.0 * np.pi / grid2.period * np.sqrt(grid2.period**grid2.dim / 2.0)
    assert abs(dirichlet_norm(f) - want) <= 1e-10


def test_zero_mean(grid2, noise):
    f = noise(grid2, seed=6, kind="scalar")
    shifted = ScalarField(grid2, f.values + 2.0)
    assert abs(mean(zero_mean(shifted))) <= 1e-13


def test_l2_inner_conjugates(grid2):
    f = ScalarField(grid2, np.full(grid2.shape, 1.0 + 1.0j))
    g = ScalarField(grid2, np.full(grid2.shape, 2.0))
    val = l2_inner(f, g)
    assert abs(val - (2.0 - 2.0j) * grid2.period**2) <= 1e-12 \
        or abs(val - (2.0 + 2.0j) * grid2.period**2) <= 1e-12


def test_grid_mismatch():
    a = ScalarField(Grid(2, 16, 1.0), np.zeros((16, 16)))
    b = ScalarField(Grid(2, 32, 1.0), np.zeros((32, 32)))
    with pytest.raises(GridMismatchError):
        a + b
    with pytest.raises(GridMismatchError):
        l2_inner(a, b)


def test_shape_mismatch():
    g = Grid(2, 16, 1.0)
    with pytest.raises(GridMismatchError):
        ScalarField(g, np.zeros((16, 8)))


def test_rank_errors(grid2, noise):
    b = noise(grid2, seed=7)
    with pytest.raises(RankError):
        grad(b)
    with pytest.raises(RankError):
        div(b[0])
    with pytest.raises(RankError):
        VectorField((b[0],))


def test_vector_arithmetic(grid2, noise):
    u = noise(grid2, seed=8)
    v = noise(grid2, seed=9)
    w = u + v
    for i in range(grid2.dim):
        assert max_abs(w[i] - (u[i] + v[i])) == 0.0
    s = u * 2.0
    assert max_abs(s[0] - u[0] - u[0]) <= 1e-14


def test_matrix_field_structure(grid2, noise):
    b = noise(grid2, seed=10)
    F = curl(b)
    assert max_abs(F.entries[0][1] + F.entries[1][0]) <= 1e-12
    Ft = F.transpose()
    assert max_abs(Ft.entries[0][1] - F.entries[1][0]) == 0.0
    with pytest.raises(RankError):
        MatrixField(((b[0],),) * 2)


def test_dtype_coercion(grid2):
    f = ScalarField(grid2, np.ones(grid2.shape, dtype=np.int64))
    assert f.values.dtype == np.float64
    c = ScalarField(grid2, np.ones(grid2.shape, dtype=np.complex64))
    assert c.values.dtype == np.complex128


def test_fft_workers_env(monkeypatch):
    monkeypatch.setenv("FORMBOUND_THREADS", "2")
    assert fft_workers() == 2
    monkeypatch.delenv("FORMBOUND_THREADS")
    assert fft_workers() >= 1


def test_fft_workers_rejects_bad_budget(monkeypatch):
    for bad in ("0", "-2", "abc", "1.5"):
        monkeypatch.setenv("FORMBOUND_THREADS", bad)
        with pytest.raises(ValueError, match="positive integer"):
            fft_workers()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_samples_rejected(grid3, bad):
    vals = np.zeros(grid3.shape)
    vals[1, 2, 3] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(grid3, vals)
    stacked = np.zeros((3,) + grid3.shape, dtype=np.complex128)
    stacked[2, 0, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        VectorField.from_array(grid3, stacked)


def test_components_are_views_of_one_array(grid3, noise):
    b = noise(grid3, seed=31)
    assert b.values.shape == (3,) + grid3.shape
    for i, c in enumerate(b.components):
        assert np.shares_memory(c.values, b.values)
        assert np.array_equal(c.values, b.values[i])
    b[1].values[0, 0, 0] = 7.0
    assert b.values[1, 0, 0, 0] == 7.0
    F = curl(b)
    assert F.values.shape == (3, 3) + grid3.shape
    F[0, 2].values[1, 1, 1] = -3.0
    assert F.entries[0][2].values[1, 1, 1] == -3.0
    rebuilt = VectorField(b.components)
    assert np.array_equal(rebuilt.values, b.values)
    assert not np.shares_memory(rebuilt.values, b.values)


def test_skewness_read_from_samples(grid3, noise):
    F = curl(noise(grid3, seed=32))
    assert F.is_skew()
    assert (F * 2.0).is_skew() and F.transpose().is_skew()
    vals = F.values.copy()
    vals[0, 1, 0, 0, 0] = np.nextafter(vals[0, 1, 0, 0, 0], np.inf)
    assert not MatrixField.from_array(grid3, vals).is_skew()
    vals = F.values.copy()
    vals[2, 2, 3, 3, 3] = 1e-300
    assert not MatrixField.from_array(grid3, vals).is_skew()
