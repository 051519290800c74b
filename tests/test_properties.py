"""Property tests of the spectral core (Parseval, the Dirichlet norm from
half and full spectra, the Hodge projections, batched complex and real
transforms against one transform per component),
of the measure tests (dyadic mass conservation, invariance under torus
shifts) and of the compressed norms (linear scaling in the drift)."""

import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formbound import presets  # noqa: E402
from formbound.formnorm import form_norm  # noqa: E402
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
    _dirichlet_sq_from_hat,
    _fftn,
    _ifftn,
    _irfftn,
    _rfftn,
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
        * float(np.sum(np.abs(_fftn(field.values, grid.dim)) ** 2))
    direct = lp_norm(field) ** 2
    assert abs(spectral - direct) <= 1e-12 * direct


@settings(max_examples=30, deadline=None)
@given(grid=grids, seed=seeds, rank=st.sampled_from([0, 1]))
def test_dirichlet_norm_from_half_spectrum(grid, seed, rank):
    # white noise: the columns 0 and n/2 of the half spectrum carry energy
    vals = np.random.default_rng(seed).standard_normal((grid.dim,) * rank + grid.shape)
    full = _dirichlet_sq_from_hat(grid, _fftn(vals, grid.dim))
    half = _dirichlet_sq_from_hat(grid, _rfftn(vals, grid.dim))
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
        hat = _fftn(vals, grid.dim)
        assert np.array_equal(hat, np.stack([_fftn(v) for v in vals]))
        back = _ifftn(hat, grid.dim)
        assert np.array_equal(back, np.stack([_ifftn(h) for h in hat]))
        assert np.array_equal(_ifftn(hat.copy(), grid.dim, overwrite=True), back)
        if not complex_:
            half = _rfftn(vals, grid.dim)
            assert np.array_equal(half, np.stack([_rfftn(v) for v in vals]))
            assert np.array_equal(_irfftn(half, grid.shape),
                                  np.stack([_irfftn(h, grid.shape) for h in half]))
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
                 lambda m: fefferman_phong_test(m.density(), eps)):
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
