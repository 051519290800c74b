"""Property tests of the spectral core (Parseval, the Dirichlet norm from
half and full spectra, the Hodge projections, batched complex and real
transforms against one transform per component),
of the measure tests (dyadic mass conservation, invariance under torus
shifts), of the compressed norms (linear scaling in the drift, local
traces monotone in the cube) and of
the Lanczos solver behind them (the top eigenvalue of small dense
symmetric matrices)."""

import os

import numpy as np
import pytest
import scipy.fft

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formbound import presets  # noqa: E402
from formbound.formnorm import _TOL, _top_eigenpair, form_norm, trace_constant  # noqa: E402
from formbound.hodge import project  # noqa: E402
from formbound.measures import (  # noqa: E402
    DiscreteMeasure,
    DyadicTree,
    ball_growth_test,
    fefferman_phong_test,
)
from formbound.torus import (  # noqa: E402
    Grid,
    ScalarField,
    VectorField,
    _Spectral,
    lp_norm,
    mean,
)

grids = st.builds(
    Grid,
    dim=st.sampled_from([2, 3]),
    points_per_axis=st.sampled_from([8, 16]),
    period=st.sampled_from([1.0, 0.5, 2.0 * np.pi]),
)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _band_limited(grid: Grid, rng, band: int, complex_: bool) -> np.ndarray:
    """Samples whose modes satisfy |k_i| <= band on every axis."""
    n = grid.points_per_axis
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    keep = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.dim):
        form = [1] * grid.dim
        form[axis] = n
        keep &= k.reshape(form) <= band
    hats = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    vals = np.fft.ifftn(np.where(keep, hats, 0.0))
    return vals if complex_ else vals.real


@settings(max_examples=30, deadline=None)
@given(grid=grids, seed=seeds, rank=st.sampled_from([0, 1]),
       complex_=st.booleans())
def test_parseval(grid, seed, rank, complex_):
    rng = np.random.default_rng(seed)
    shape = (grid.dim,) * rank + grid.shape
    vals = rng.standard_normal(shape)
    if complex_:
        vals = vals + 1j * rng.standard_normal(shape)
    field = ScalarField(grid, vals) if rank == 0 else VectorField.from_array(grid, vals)
    spectral = (grid.period / grid.points_per_axis**2) ** grid.dim \
        * float(np.sum(np.abs(scipy.fft.fftn(field.values, axes=range(-grid.dim, 0))) ** 2))
    direct = lp_norm(field) ** 2
    assert abs(spectral - direct) <= 1e-12 * direct


@settings(max_examples=30, deadline=None)
@given(grid=grids, seed=seeds, rank=st.sampled_from([0, 1]))
def test_dirichlet_norm_from_half_spectrum(grid, seed, rank):
    # white noise: the columns 0 and n/2 of the half spectrum carry energy
    vals = np.random.default_rng(seed).standard_normal((grid.dim,) * rank + grid.shape)
    axes = range(-grid.dim, 0)
    full = _Spectral(grid, False).dirichlet_sq(scipy.fft.fftn(vals, axes=axes))
    half = _Spectral(grid).dirichlet_sq(scipy.fft.rfftn(vals, axes=axes))
    assert abs(half - full) <= 1e-12 * full


@settings(max_examples=30, deadline=None)
@given(grid=grids, seed=seeds, complex_=st.booleans(),
       offset=st.floats(min_value=-3.0, max_value=3.0))
def test_projections_split_band_limited_fields(grid, seed, complex_, offset):
    rng = np.random.default_rng(seed)
    band = grid.points_per_axis // 2 - 1
    b = VectorField.from_array(grid, np.stack([
        _band_limited(grid, rng, band, complex_) + offset for _ in range(grid.dim)
    ]))
    scale = float(np.abs(b.values).max())
    P, Q = project("P", b), project("Q", b)
    centred = b.values - mean(b).reshape((grid.dim,) + (1,) * grid.dim)
    assert np.abs(P.values + Q.values - centred).max() <= 1e-12 * scale
    assert np.abs(project("P", Q).values).max() <= 1e-12 * scale
    assert np.abs(project("Q", P).values).max() <= 1e-12 * scale


@settings(max_examples=30, deadline=None)
@given(grid=grids, seed=seeds, batch=st.integers(min_value=1, max_value=4),
       complex_=st.booleans(), workers=st.sampled_from(["1", "2"]))
def test_batched_transform_equals_per_component(grid, seed, batch, complex_, workers):
    rng = np.random.default_rng(seed)
    shape = (batch,) + grid.shape
    vals = rng.standard_normal(shape)
    if complex_:
        vals = vals + 1j * rng.standard_normal(shape)
    saved = os.environ.get("FORMBOUND_THREADS")
    os.environ["FORMBOUND_THREADS"] = workers
    try:
        for sp in [_Spectral(grid, False)] + ([] if complex_ else [_Spectral(grid)]):
            hat = sp.forward(vals)
            assert np.array_equal(hat, np.stack([sp.forward(v) for v in vals]))
            assert np.array_equal(sp.forward(vals.copy(), overwrite=True), hat)
            # the complex inverse overwrites its input, so each call gets a copy
            back = sp.inverse(hat.copy())
            assert np.array_equal(back, np.stack([sp.inverse(h.copy()) for h in hat]))
    finally:
        if saved is None:
            del os.environ["FORMBOUND_THREADS"]
        else:
            os.environ["FORMBOUND_THREADS"] = saved


def _random_measure(grid: Grid, seed: int) -> DiscreteMeasure:
    # exponential masses, a third of the cells emptied: uneven enough that
    # the sups sit at a few cells
    rng = np.random.default_rng(seed)
    mass = rng.exponential(size=grid.shape) * (rng.random(grid.shape) > 1 / 3)
    return DiscreteMeasure(grid, mass)


@settings(max_examples=30, deadline=None)
@given(grid=grids, seed=seeds)
def test_dyadic_tree_conserves_mass(grid, seed):
    mu = _random_measure(grid, seed)
    tree = DyadicTree(mu)
    tol = 1e-12 * mu.total
    for level, mass in enumerate(tree.masses):
        assert mass.shape == (1 << level,) * grid.dim
        assert abs(float(mass.sum()) - mu.total) <= tol
    for parent, child in zip(tree.masses, tree.masses[1:]):
        corners = np.ndindex(*(2,) * grid.dim)
        pooled = sum(child[tuple(slice(o, None, 2) for o in c)] for c in corners)
        assert np.abs(parent - pooled).max() <= tol


@settings(max_examples=20, deadline=None)
@given(grid=grids, seed=seeds, eps=st.sampled_from([0.25, 0.5, 1.0]),
       data=st.data())
def test_ball_tests_invariant_under_cell_shifts(grid, seed, eps, data):
    n = grid.points_per_axis
    shift = tuple(data.draw(st.integers(0, n - 1)) for _ in range(grid.dim))
    mu = _random_measure(grid, seed)
    moved = DiscreteMeasure(grid, np.roll(mu.cell_mass, shift, axis=range(grid.dim)))
    for test in (ball_growth_test,
                 lambda m: fefferman_phong_test(m, eps)):
        base, shifted = test(mu).constant, test(moved).constant
        assert abs(shifted - base) <= 1e-9 * base


@settings(max_examples=20, deadline=None)
@given(grid=grids, preset=st.sampled_from(["random", "vortex", "stream"]),
       flavor=st.sampled_from(["homogeneous", "inhomogeneous"]),
       alpha=st.floats(0.1, 10.0) | st.floats(-10.0, -0.1))
def test_compressed_norms_scale_linearly_in_drift(grid, preset, flavor, alpha):
    b = presets.make_field(preset, grid)
    base = form_norm(None, b, None, flavor=flavor).value
    scaled = form_norm(None, alpha * b, None, flavor=flavor).value
    assert abs(scaled - abs(alpha) * base) <= 1e-12 * abs(alpha) * base


@settings(max_examples=20, deadline=None)
@given(grid=grids, seed=seeds, flavor=st.sampled_from(["homogeneous", "inhomogeneous"]),
       data=st.data())
def test_local_trace_monotone_in_the_cube(grid, seed, flavor, data):
    # Q inside Q' gives C(mu|_Q) <= C(mu|_Q'), since mu|_Q <= mu|_Q'.  The
    # estimate for Q is a Rayleigh quotient, at most its top eigenvalue;
    # the one for Q' stops with a residual of at most _TOL times its
    # value, which places an eigenvalue (the top one, once the run has
    # found it) within that distance.  So the estimates keep the order up
    # to a relative _TOL
    n = grid.points_per_axis
    rng = np.random.default_rng(seed)
    mass = rng.uniform(0.0, 1.0, grid.shape) * (rng.uniform(size=grid.shape) < 0.7)
    mu = DiscreteMeasure(grid, mass * grid.cell_volume)
    side = data.draw(st.integers(1, n - 1))
    outer = data.draw(st.integers(side, n))
    corner = tuple(data.draw(st.lists(st.integers(0, n - 1), min_size=grid.dim,
                                      max_size=grid.dim)))
    shift = data.draw(st.lists(st.integers(0, outer - side), min_size=grid.dim,
                               max_size=grid.dim))
    around = tuple((c - s) % n for c, s in zip(corner, shift))
    small, large = (trace_constant(DiscreteMeasure(grid, mu.cell_mass * grid.cube(c, k)),
                                   flavor, seed=seed).value
                    for c, k in ((corner, side), (around, outer)))
    assert small <= large * (1.0 + _TOL)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=5, max_value=60), seed=seeds,
       rank=st.sampled_from([None, 1, 2, 3]),
       cluster=st.sampled_from([None, 0.0, 1e-13, 1e-11]),
       gap=st.floats(1e-3, 0.9), scale=st.floats(1e-3, 1e3))
def test_lanczos_finds_the_top_eigenvalue(n, seed, rank, cluster, gap, scale):
    # a symmetric PSD matrix whose top eigenvalue is 1, or a pair 1 and
    # 1 - cluster, with the rest of the spectrum at most 1 - gap (zero
    # beyond the rank), in a random orthonormal basis
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 1.0 - gap, n)
    if rank is not None:
        lam[rank:] = 0.0
    lam[0] = 1.0
    if cluster is not None and (rank is None or rank > 1):
        lam[1] = 1.0 - cluster
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = scale * (basis * lam) @ basis.T
    M = (M + M.T) / 2.0
    top = np.linalg.eigvalsh(M)[-1]
    value, x, _, residual = _top_eigenpair(lambda v: M @ v, [rng.standard_normal(n)])
    assert abs(value - top) <= 1e-10 * top
    assert value <= top * (1.0 + 1e-13)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-13
    assert residual <= _TOL * (1.0 + 1e-6) + 1e-13
    assert residual * value == pytest.approx(np.linalg.norm(M @ x - value * x),
                                             rel=1e-6, abs=1e-13 * top)
