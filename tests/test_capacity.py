import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from formbound import capacity as capacity_module
from formbound.capacity import (
    CompactSet,
    _ChargeSystem,
    _ground_for,
    _start_cells,
    ball_set,
    capacity,
    cube_set,
    gauge_check,
)
from formbound.torus import (
    Grid,
    ScalarField,
    _BandDraw,
    _PrunedFFT,
    _Spectral,
    dirichlet_norm,
)


CENTER3 = (0.5, 0.5, 0.5)


def _band_limited_probe(grid, rng):
    """A gauge probe in a buffer of its own, its block on the probe band,
    and the draw that made it."""
    draw = _BandDraw(grid, max(grid.points_per_axis // 16, 2))
    block = rng.standard_normal(draw.size) + 1j * rng.standard_normal(draw.size)
    return draw(block), block, draw


def _band_spectrum(grid, kmax, block):
    """The full spectrum that holds ``block`` on ``grid.band(kmax)``, mean 0."""
    hats = np.zeros(grid.shape, dtype=np.complex128)
    hats[grid.band(kmax)] = block
    hats.flat[0] = 0.0
    return hats


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


def test_cube_settles_from_its_boundary_shell():
    # the equilibrium charge of a cube sits on its faces: one round
    g = Grid(3, 32, 1.0)
    for side in (0.0625, 0.125, 0.25):
        e = cube_set(g, CENTER3, side)
        for flavor in ("homogeneous", "inhomogeneous"):
            res = capacity(e, flavor)
            assert res.rounds == 1, (side, flavor)
            assert res.active_cells == _start_cells(e.mask).sum()


def _start_sets():
    g3 = Grid(3, 32, 1.0)
    g2 = Grid(2, 64, 1.0)
    outer = ball_set(g3, CENTER3, 0.25).mask
    inner = ball_set(g3, CENTER3, 0.125).mask
    return {
        "ball": ball_set(g3, CENTER3, 0.125),
        "cube": cube_set(g3, CENTER3, 0.125),
        "hollow": CompactSet(g3, outer & ~inner),
        "ball 2-D": ball_set(g2, (0.5, 0.5), 0.125),
    }


@pytest.mark.parametrize("name,flavor", [
    (name, flavor)
    for name in ("ball", "cube", "hollow")
    for flavor in ("homogeneous", "inhomogeneous")
] + [("ball 2-D", "inhomogeneous")])  # the 2-D homogeneous value is 0 unsolved
def test_shell_start_matches_full_start(monkeypatch, name, flavor):
    e = _start_sets()[name]
    shell = int(_start_cells(e.mask).sum())
    assert 0 < shell < e.count
    res = capacity(e, flavor)
    monkeypatch.setattr(capacity_module, "_start_cells", lambda mask: mask)
    full = capacity(e, flavor)
    assert res.active_cells == full.active_cells
    assert abs(res.value - full.value) <= 1e-10 * full.value
    assert res.kkt_residual <= 1e-8 and full.kkt_residual <= 1e-8
    if name == "ball 2-D":
        # the mass term needs charge inside: the grow rule adds it
        assert res.active_cells > shell
    if name == "hollow" and flavor == "homogeneous":
        # the inner face of the hollow carries none: the drop rule removes it
        assert res.active_cells < shell


def test_start_cells_of_a_full_torus_are_every_cell():
    g = Grid(2, 8, 1.0)
    mask = np.ones(g.shape, dtype=bool)
    assert _start_cells(mask).all()
    res = capacity(CompactSet(g, mask), "inhomogeneous")
    assert res.rounds == 1
    assert res.active_cells == g.npoints
    assert abs(res.value - 1.0) <= 1e-12


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


def test_gauge_twisted_norm_in_place_matches_field_path(cube_result):
    # the probe loop of gauge_check with the twisted norm taken through a
    # ScalarField, as an oracle for the in-place transform
    e, res = cube_result
    g = e.grid
    tau, nprobe, seed = 0.75, 5, 3
    lam = tau * np.log(np.maximum(res.potential.values.real, 1e-8))
    phase = np.exp(1j * lam)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(nprobe):
        probe, block, draw = _band_limited_probe(g, rng)
        base = np.sqrt(draw.dirichlet_sq(block))
        twisted = dirichlet_norm(ScalarField(g, phase * probe))
        in_place = np.sqrt(_Spectral(g, False).dirichlet_sq(
            scipy.fft.fftn(phase * probe, overwrite_x=True)))
        assert in_place == twisted
        ratios.append(twisted / base)
    rep = gauge_check(e, tau=tau, nprobe=nprobe, seed=seed, result=res)
    assert rep.gauge_ratio == max(ratios)
    assert rep.gauge_ratio_min == min(ratios)


@pytest.mark.parametrize("nprobe", [0, -1])
def test_gauge_check_needs_a_probe(nprobe):
    # with no probe the ratios kept their start values (0 and inf), and
    # the check passed without measuring anything
    e = ball_set(Grid(3, 16), CENTER3, 0.125)
    with pytest.raises(ValueError, match="nprobe"):
        gauge_check(e, 1.0, nprobe=nprobe)


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


@pytest.mark.parametrize("radius", [-0.1, -np.inf, np.inf, np.nan])
def test_ball_radius_validated(radius):
    with pytest.raises(ValueError, match="radius"):
        ball_set(Grid(3, 16, 1.0), CENTER3, radius)


@pytest.mark.parametrize("side", [-0.5, 0.0, np.inf, np.nan])
def test_cube_side_validated(side):
    with pytest.raises(ValueError, match="side"):
        cube_set(Grid(3, 16, 1.0), CENTER3, side)


def test_empty_set_rejected():
    g = Grid(3, 16, 1.0)
    with pytest.raises(ValueError):
        capacity(CompactSet(g, np.zeros(g.shape, dtype=bool)))


def test_flavor_validation():
    g = Grid(3, 16, 1.0)
    with pytest.raises(ValueError):
        capacity(cube_set(g, CENTER3, 0.25), "riesz")


def _complex_green_apply(grid, values, inhomogeneous):
    """The full-spectrum complex-transform formula, as an oracle."""
    ks = _Spectral(grid, False).ksq
    if inhomogeneous:
        symbol = 1.0 / (1.0 + ks)
    else:
        safe = np.where(ks > 0.0, ks, 1.0)
        symbol = np.where(ks > 0.0, 1.0 / safe, 0.0)
    return np.fft.ifftn(np.fft.fftn(values) * symbol).real


def _straddling_cells(g):
    """Active cells: a cube straddling the periodic boundary on every axis
    plus a ball inside, listed in shuffled order."""
    corner = (g.period - 2 * g.spacing,) * g.dim
    mask = cube_set(g, corner, 4 * g.spacing).mask
    mask |= ball_set(g, (0.5 * g.period,) * g.dim, 1.5 * g.spacing).mask
    rng = np.random.default_rng(g.dim)
    return rng.permutation(np.flatnonzero(mask.reshape(-1))), rng


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("inhomogeneous", [False, True])
def test_real_transform_symbols_match_complex_oracle(dim, inhomogeneous):
    g = Grid(dim, 16, 2.0)
    idx, rng = _straddling_cells(g)
    sigma = rng.standard_normal(idx.size)
    if not inhomogeneous:
        # the grounded system works on zero-sum charges
        sigma -= sigma.mean()
    values = np.zeros(g.npoints)
    values[idx] = sigma
    want = _complex_green_apply(g, values.reshape(g.shape), inhomogeneous).reshape(-1)
    want_cells = want[idx]
    if not inhomogeneous:
        # its on-cell potentials are mean-free, and the full potential is
        # shifted by the constant that puts the cells' mean at the target's
        want_cells = want_cells - want_cells.mean()
        want = want - want[idx].mean()
    system = _ChargeSystem(g, idx, inhomogeneous)
    on_cells = system.matvec(sigma)
    full = system.potential(sigma, np.zeros(idx.size))
    assert full.dtype == np.float64
    scale = np.max(np.abs(want))
    assert np.max(np.abs(full - want)) <= 1e-13 * scale
    assert np.max(np.abs(on_cells - want_cells)) <= 1e-13 * scale


def _dense_fd_laplacian(grid):
    """-Lap_h on the whole grid as a dense matrix, built column by column
    from periodic shifts of the unit vectors."""
    h2 = grid.spacing**2
    cols = []
    for k in range(grid.npoints):
        e = np.zeros(grid.npoints)
        e[k] = 1.0
        e = e.reshape(grid.shape)
        col = 2 * grid.dim * e
        for axis in range(grid.dim):
            col = col - np.roll(e, 1, axis) - np.roll(e, -1, axis)
        cols.append(col.reshape(-1) / h2)
    return np.column_stack(cols)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("inhomogeneous", [False, True])
def test_stencil_preconditioner_matches_dense_oracle(dim, n, inhomogeneous):
    g = Grid(dim, n, 2.0)
    idx, rng = _straddling_cells(g)
    vec = rng.standard_normal(idx.size)

    system = _ChargeSystem(g, idx, inhomogeneous)
    dense = _dense_fd_laplacian(g)[np.ix_(idx, idx)]
    if inhomogeneous:
        dense += np.eye(idx.size)
    else:
        proj = np.eye(idx.size) - 1.0 / idx.size
        dense = proj @ dense @ proj
    want = dense @ vec
    got = system.precond(vec)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _pruning_sets(g):
    """Cell sets that exercise every kind of skipped pass."""
    n, h = g.points_per_axis, g.spacing
    ball = ball_set(g, (0.5 * g.period,) * g.dim, g.period / 8.0)
    single = np.zeros(g.shape, dtype=bool)
    single[(3,) * g.dim] = True
    lines = np.zeros(g.shape, dtype=bool)
    lines[(1,) * (g.dim - 1)] = True      # a whole line of the last axis
    lines[(slice(None),) + (n // 2,) * (g.dim - 1)] = True    # and of axis 0
    return {
        "ball and ground": ball.mask | _ground_for(ball).mask,
        "straddling cube": cube_set(g, (g.period - 2 * h,) * g.dim, 5 * h).mask,
        "single cell": single,
        "whole lines": lines,
    }


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_pruned_transforms_match_full_transforms_bitwise(monkeypatch, threads,
                                                         dim, n):
    monkeypatch.setenv("FORMBOUND_THREADS", threads)
    g = Grid(dim, n, 2.0)
    rng = np.random.default_rng(n)
    for name, cells in _pruning_sets(g).items():
        values = np.where(cells, rng.standard_normal(g.shape), 0.0)
        forward = _PrunedFFT("rfftn", g.shape, nonzero=cells)
        got = forward(values.reshape(-1, n)[forward.rows])
        assert np.array_equal(got, scipy.fft.rfftn(values)), name

        spectrum = scipy.fft.rfftn(rng.standard_normal(g.shape))
        inverse = _PrunedFFT("irfftn", g.shape, read=cells)
        want = scipy.fft.irfftn(spectrum, s=g.shape).reshape(-1, n)[inverse.rows]
        assert np.array_equal(inverse(spectrum.copy()), want), name

        idx = rng.permutation(np.flatnonzero(cells.reshape(-1)))
        for inhomogeneous in (False, True):
            # the Green symbol cut from the complex path's full-grid table
            full = _Spectral(g, False)
            symbol = (full.bessel_inv if inhomogeneous
                      else -full.inv_lap)[..., :n // 2 + 1]

            def green(charges):
                grid_values = np.zeros(g.npoints)
                grid_values[idx] = charges
                hat = scipy.fft.rfftn(grid_values.reshape(g.shape))
                hat *= symbol
                return scipy.fft.irfftn(hat, s=g.shape).reshape(-1)

            system = _ChargeSystem(g, idx, inhomogeneous)
            sigma = rng.standard_normal(idx.size)
            want = system._project(green(system._project(sigma))[idx])
            assert np.array_equal(system.matvec(sigma), want), name
            want = green(sigma)
            if not inhomogeneous:
                want += float((1.0 - want[idx]).mean())
            got = system.potential(sigma, np.ones(idx.size))
            assert np.array_equal(got, want), name

    kmax = max(n // 16, 2)
    for _ in range(3):
        size = (2 * kmax + 1,) * dim
        hats = _band_spectrum(g, kmax, rng.standard_normal(size)
                              + 1j * rng.standard_normal(size))
        band = hats != 0.0
        cells = _pruning_sets(g)["ball and ground"]
        inverse = _PrunedFFT("ifftn", g.shape, nonzero=band, read=cells)
        want = scipy.fft.ifftn(hats).reshape(-1, n)[inverse.rows]
        assert np.array_equal(inverse(hats.copy()), want)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kmax", [2, "n//8"])
@pytest.mark.parametrize("dim,n", [(2, 32), (3, 16)])
def test_band_draw_matches_full_ifftn(monkeypatch, threads, kmax, dim, n):
    # every call gives the full inverse of its own block's spectrum: the
    # second block catches a buffer left dirty by the in-place passes
    monkeypatch.setenv("FORMBOUND_THREADS", threads)
    g = Grid(dim, n, 2.0)
    kmax = n // 8 if kmax == "n//8" else kmax
    draw = _BandDraw(g, kmax)
    rng = np.random.default_rng(n + kmax)
    for _ in range(2):
        block = rng.standard_normal(draw.size) + 1j * rng.standard_normal(draw.size)
        want = scipy.fft.ifftn(_band_spectrum(g, kmax, block))
        assert np.array_equal(draw(block), want)


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


_BLAS_CASE = """
import hashlib
from formbound.capacity import ball_set, capacity
from formbound.torus import Grid
r = capacity(ball_set(Grid(3, 64, 1.0), (0.5, 0.5, 0.5), 0.25))
print(repr(r.value), r.iterations,
      hashlib.sha1(r.potential.values.tobytes()).hexdigest())
"""


def test_results_identical_across_blas_thread_counts():
    # a 64^3 ball of 17077 cells, large enough that OpenBLAS threads a dot
    # product; the pool size is fixed when numpy loads, hence subprocesses
    root = pathlib.Path(__file__).resolve().parents[1]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   FORMBOUND_THREADS="1", PYTHONPATH=str(root / "src"))
        run = subprocess.run([sys.executable, "-c", _BLAS_CASE], env=env,
                             check=True, capture_output=True, text=True)
        outs.append(run.stdout)
    assert outs[0] == outs[1]


def test_gauge_base_norm_from_probe_spectrum():
    g = Grid(3, 32, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(3):
        probe, block, draw = _band_limited_probe(g, rng)
        spectral = np.sqrt(draw.dirichlet_sq(block))
        direct = dirichlet_norm(ScalarField(g, probe))
        assert abs(spectral - direct) <= 1e-13 * direct


def test_nonfinite_indicator_rejected():
    g = Grid(3, 8, 1.0)
    vals = np.zeros(g.shape)
    vals[2:6, 2:6, 2:6] = 1.0
    vals[3, 3, 3] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        CompactSet.from_field(ScalarField(g, vals))
