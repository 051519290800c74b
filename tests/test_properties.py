"""Property tests of the spectral core: Parseval, the Hodge projections,
and batched transforms against one transform per component."""

import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from formbound.hodge import project  # noqa: E402
from formbound.torus import (  # noqa: E402
    Grid,
    ScalarField,
    VectorField,
    _fftn,
    _ifftn,
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
    finally:
        if saved is None:
            del os.environ["FORMBOUND_THREADS"]
        else:
            os.environ["FORMBOUND_THREADS"] = saved
