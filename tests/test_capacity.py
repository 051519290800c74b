import numpy as np
import pytest

from formbound.capacity import (
    CompactSet,
    _band_limited_probe,
    _green_apply,
    _inverse_apply,
    ball_set,
    capacity,
    cube_set,
    gauge_check,
)
from formbound.torus import (
    Grid,
    ScalarField,
    _dirichlet_sq_from_hat,
    dirichlet_norm,
    kappa_sq,
)


CENTER3 = (0.5, 0.5, 0.5)


@pytest.fixture(scope="module")
def cube_result():
    g = Grid(3, 32, 1.0)
    e = cube_set(g, CENTER3, 0.125)
    return e, capacity(e)


def test_cube_capacity_values():
    g = Grid(3, 32, 1.0)
    want = {0.0625: 0.331272, 0.125: 0.672031, 0.25: 1.137184}
    ratios = []
    for side, val in want.items():
        res = capacity(cube_set(g, CENTER3, side))
        assert abs(res.value - val) <= 1e-4 * val
        ratios.append(res.value / side)
    assert max(ratios) / min(ratios) <= 2.0


def test_capacity_internal_consistency(cube_result):
    e, res = cube_result
    assert res.value == res.measure.total
    assert abs(res.value - dirichlet_norm(res.potential) ** 2) <= 1e-10 * res.value
    assert res.kkt_residual <= 1e-10
    assert res.flavor == "homogeneous"
    assert res.rounds >= 1
    assert res.iterations >= res.rounds
    # positive charges sit only on active cells, which lie in the set
    assert int((res.measure.cell_mass > 0.0).sum()) <= res.active_cells <= e.count


def test_equilibrium_potential_on_support(cube_result):
    e, res = cube_result
    on = res.potential.values[e.mask]
    assert on.min() >= 0.98
    assert on.max() <= 1.03


def test_capacity_period_scaling(cube_result):
    # same lattice problem at period 8: homogeneous capacity scales by L
    _, res = cube_result
    big = capacity(cube_set(Grid(3, 32, 8.0), (4.0,) * 3, 1.0))
    assert abs(big.value - 8.0 * res.value) <= 1e-10 * big.value


def test_homogeneous_n2_vanishes():
    g = Grid(2, 32, 1.0)
    for side in (0.0625, 0.125, 0.25):
        assert capacity(cube_set(g, (0.5, 0.5), side), "homogeneous").value == 0.0


def test_inhomogeneous_n2_log_product():
    g = Grid(2, 32, 1.0)
    want = {0.0625: 0.727134, 0.125: 0.810463, 0.25: 0.895031}
    products = []
    for side, val in want.items():
        res = capacity(cube_set(g, (0.5, 0.5), side), "inhomogeneous")
        assert res.value > 0.0
        assert abs(res.value - val) <= 1e-4 * val
        products.append(res.value * np.log(2.0 / side**2))
    assert max(products) / min(products) <= 2.0


def test_inhomogeneous_dominates_homogeneous():
    # needs the period well above the unit screening length of the
    # mass term, otherwise the grounded plate dominates instead
    g = Grid(3, 32, 8.0)
    e = ball_set(g, (4.0, 4.0, 4.0), 1.0)
    hom = capacity(e, "homogeneous").value
    inh = capacity(e, "inhomogeneous").value
    assert inh > hom > 0.0


def test_ball_monotone_in_radius():
    g = Grid(3, 32, 1.0)
    small = capacity(ball_set(g, CENTER3, 0.125)).value
    large = capacity(ball_set(g, CENTER3, 0.25)).value
    assert small < large


def test_set_counts():
    g = Grid(3, 32, 1.0)
    assert cube_set(g, CENTER3, 0.125).count == 4**3
    assert cube_set(g, CENTER3, 0.25).count == 8**3
    assert ball_set(g, CENTER3, 0.125).count == 257


def test_gauge_energy_identity(cube_result):
    e, res = cube_result
    rep = gauge_check(e, tau=1.0, nprobe=4, seed=0, result=res)
    # at tau = 1 the gauge power is u itself, so the identity is exact
    assert abs(rep.energy_lhs / rep.energy_rhs - 1.0) <= 1e-9
    assert rep.cap_value == res.value


def test_gauge_bounds_across_tau(cube_result):
    e, res = cube_result
    for tau in (0.75, 1.0, 1.25):
        rep = gauge_check(e, tau=tau, nprobe=6, seed=0, result=res)
        assert 0.85 <= rep.energy_lhs / rep.energy_rhs <= 1.15
        assert rep.within_bounds
        assert rep.gauge_ratio <= (1.0 + 2.0 * tau) * 1.1
        assert rep.gauge_ratio_min >= 0.9 / (1.0 + 2.0 * tau)


def test_gauge_result_reuse_deterministic(cube_result):
    e, res = cube_result
    fresh = gauge_check(e, tau=0.75, nprobe=3, seed=5)
    reused = gauge_check(e, tau=0.75, nprobe=3, seed=5, result=res)
    assert fresh.gauge_ratio == reused.gauge_ratio
    assert fresh.energy_lhs == reused.energy_lhs


def test_gauge_validation(cube_result):
    e, res = cube_result
    with pytest.raises(ValueError):
        gauge_check(e, tau=0.5)
    with pytest.raises(ValueError):
        gauge_check(e, tau=1.5)
    g2 = Grid(2, 32, 1.0)
    e2 = cube_set(g2, (0.5, 0.5), 0.125)
    with pytest.raises(ValueError):
        gauge_check(e2, tau=1.0, result=capacity(e2, "inhomogeneous"))


def test_empty_set_rejected():
    g = Grid(3, 16, 1.0)
    with pytest.raises(ValueError):
        capacity(CompactSet(g, np.zeros(g.shape, dtype=bool)))


def test_flavor_validation():
    g = Grid(3, 16, 1.0)
    with pytest.raises(ValueError):
        capacity(cube_set(g, CENTER3, 0.25), "riesz")


def _complex_symbol_apply(grid, values, inhomogeneous, green):
    """The full-spectrum complex-transform formula, as an oracle."""
    ks = kappa_sq(grid)
    if green and inhomogeneous:
        symbol = 1.0 / (1.0 + ks)
    elif green:
        safe = np.where(ks > 0.0, ks, 1.0)
        symbol = np.where(ks > 0.0, 1.0 / safe, 0.0)
    else:
        symbol = 1.0 + ks if inhomogeneous else ks
    return np.fft.ifftn(np.fft.fftn(values) * symbol).real


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("inhomogeneous", [False, True])
def test_real_transform_symbols_match_complex_oracle(dim, inhomogeneous):
    g = Grid(dim, 16, 2.0)
    values = np.random.default_rng(dim).standard_normal(g.shape)
    for apply, green in ((_green_apply, True), (_inverse_apply, False)):
        got = apply(g, values, inhomogeneous)
        want = _complex_symbol_apply(g, values, inhomogeneous, green)
        assert got.shape == g.shape and got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_results_identical_across_thread_counts(monkeypatch):
    g = Grid(3, 32, 1.0)
    e = ball_set(g, CENTER3, 0.125)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FORMBOUND_THREADS", threads)
        res = capacity(e)
        rep = gauge_check(e, tau=0.75, nprobe=3, seed=2, result=res)
        runs.append((res, rep))
    (r1, g1), (r2, g2) = runs
    assert r1.value == r2.value
    assert np.array_equal(r1.potential.values, r2.potential.values)
    assert r1.iterations == r2.iterations
    assert g1.gauge_ratio == g2.gauge_ratio
    assert g1.gauge_ratio_min == g2.gauge_ratio_min


def test_gauge_base_norm_from_probe_spectrum():
    g = Grid(3, 32, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(3):
        probe, hats = _band_limited_probe(g, rng)
        spectral = np.sqrt(_dirichlet_sq_from_hat(g, hats))
        direct = dirichlet_norm(ScalarField(g, probe))
        assert abs(spectral - direct) <= 1e-13 * direct


def test_nonfinite_indicator_rejected():
    g = Grid(3, 8, 1.0)
    vals = np.zeros(g.shape)
    vals[2:6, 2:6, 2:6] = 1.0
    vals[3, 3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        CompactSet.from_field(ScalarField(g, vals))
