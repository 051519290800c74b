import numpy as np
import pytest
from scipy import fft as sfft

from formbound import presets
from formbound.hodge import decompose
from formbound.torus import Grid, div


def test_vortex_sample_values():
    g = Grid(2, 64, 1.0)
    v = presets.make_field("vortex", g)
    # nearest cell to (L/2 + h, L/2): tangential speed 1/(2h) pointing down
    assert abs(v.components[0].values[33, 32]) <= 0.05
    assert abs(v.components[1].values[33, 32] + 32.0) <= 0.05
    for c in v.components:
        assert abs(c.values.mean()) <= 1e-12
    peak = max(float(np.abs(c.values).max()) for c in v.components)
    assert peak <= 32.0 + 0.05


def test_vortex_3d_is_planar():
    g = Grid(3, 16, 1.0)
    v = presets.make_field("vortex", g)
    assert float(np.abs(v.components[2].values).max()) == 0.0


def test_gradient_closed_form():
    g = Grid(2, 64, 1.0)
    b = presets.make_field("gradient", g)
    x0 = (np.arange(64) / 64.0)[:, None] * np.ones(g.shape)
    want = 2.0 * np.pi * np.cos(2.0 * np.pi * x0)
    assert float(np.abs(b.components[0].values - want).max()) <= 1e-12
    assert float(np.abs(b.components[1].values).max()) == 0.0


@pytest.mark.parametrize(
    "name,dim", [("stream", 2), ("log_stream", 2), ("coulomb_gauge", 3)]
)
def test_divergence_free_presets(name, dim):
    g = Grid(dim, 32 if dim == 2 else 16, 1.0)
    f = presets.make_field(name, g)
    assert float(np.abs(div(f).values).max()) <= 1e-10


def test_random_field_deterministic_and_band_limited():
    g = Grid(2, 64, 1.0)
    a = presets.make_field("random", g, seed=7)
    b = presets.make_field("random", g, seed=7)
    c = presets.make_field("random", g, seed=8)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a.components, b.components))
    assert any(not np.array_equal(x.values, y.values) for x, y in zip(a.components, c.components))
    freqs = np.fft.fftfreq(64, 1.0 / 64)
    hat = np.fft.fftn(a.components[0].values)
    outside = np.abs(freqs)[:, None] > 8.0
    outside = outside | (np.abs(freqs)[None, :] > 8.0)
    assert float(np.abs(hat[outside]).max()) <= 1e-9 * float(np.abs(hat).max())
    for comp in a.components:
        assert abs(comp.values.mean()) <= 1e-12


@pytest.mark.parametrize("dim,n,seed", [(2, 8, 0), (2, 64, 7), (3, 16, 3), (3, 32, 0)])
def test_random_draw_matches_the_fftfreq_mask(dim, n, seed):
    # the band-limited draw written out with an fftfreq mask over the grid
    g = Grid(dim, n, 1.0)
    k = np.abs(np.fft.fftfreq(n, 1.0 / n))
    keep = np.ones(g.shape, dtype=bool)
    for axis in range(dim):
        keep &= (k <= max(2, n // 8)).reshape([n if a == axis else 1 for a in range(dim)])
    rng = np.random.default_rng(seed)
    want = []
    for _ in range(dim):
        hats = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
        hats[~keep] = 0.0
        hats.flat[0] = 0.0
        vals = sfft.ifftn(hats).real
        want.append(vals / np.abs(vals).max())
    assert np.array_equal(presets.make_field("random", g, seed=seed).values, np.stack(want))
    mu = presets.make_measure("random_density", g, seed=seed)
    assert np.array_equal(mu.cell_mass, (want[0] ** 2 + 0.05) * g.cell_volume)


def test_singular_gradient_is_curl_free():
    g = Grid(2, 64, 1.0)
    b = presets.make_field("singular_gradient", g)
    for c in b.components:
        assert abs(c.values.mean()) <= 1e-10
        assert np.isfinite(c.values).all()
    dec = decompose(b)
    sol = float(np.abs(dec.F.values).max())
    assert sol <= 1e-10 * max(float(np.abs(c.values).max()) for c in b.components)


def test_scalar_presets():
    g = Grid(2, 64, 1.0)
    trig = presets.make_scalar("trig", g)
    assert abs(trig.values.mean()) <= 1e-12
    logs = presets.make_scalar("log_singular", g)
    assert np.isfinite(logs.values).all()
    assert abs(logs.values.max() - np.log(2.0)) <= 1e-12
    # the downward spike deepens by about log 2 per halving of h
    finer = presets.make_scalar("log_singular", Grid(2, 128, 1.0))
    assert abs((logs.values.min() - finer.values.min()) - np.log(2.0)) <= 1e-3


def test_measure_presets():
    g = Grid(3, 16, 1.0)
    leb = presets.make_measure("lebesgue", g)
    assert abs(leb.total - 1.0) <= 1e-12
    pm = presets.make_measure("point_mass", g)
    cells = np.argwhere(pm.cell_mass > 0)
    assert len(cells) == 1 and tuple(cells[0]) == (8, 8, 8)
    assert abs(pm.total - 1.0) <= 1e-12
    bump = presets.make_measure("bump", g)
    assert np.unravel_index(np.argmax(bump.cell_mass), g.shape) == (8, 8, 8)
    tb = presets.make_measure("two_bumps", g)
    assert np.unravel_index(np.argmax(tb.cell_mass), g.shape) == (4, 4, 4)
    rd = presets.make_measure("random_density", g, seed=1)
    assert rd.cell_mass.min() > 0.0
    assert not np.array_equal(
        rd.cell_mass, presets.make_measure("random_density", g, seed=2).cell_mass
    )


def test_registry_coverage():
    assert {"vortex", "gradient", "stream", "coulomb_gauge", "random"} <= set(
        presets.FIELD_PRESETS
    )
    assert {"lebesgue", "bump", "point_mass"} <= set(presets.MEASURE_PRESETS)
    assert set(presets.MEASURE_FAMILY) <= set(presets.MEASURE_PRESETS)


def test_unknown_names_rejected():
    g = Grid(2, 16, 1.0)
    with pytest.raises(ValueError, match="unknown field preset"):
        presets.make_field("lebesgue", g)
    with pytest.raises(ValueError, match="unknown scalar preset"):
        presets.make_scalar("vortex", g)
    with pytest.raises(ValueError, match="unknown measure preset"):
        presets.make_measure("trig", g)
