import itertools

import numpy as np
import pytest

from formbound import presets
from formbound.hodge import hodge_decompose
from formbound.oscillation import Cube, _block_reduce, bmo_norm, vmo_profile
from formbound.torus import Grid, ScalarField


def _layers(n, dim, max_side=None):
    """Every dyadic side up to ``max_side`` with its half-side shifts (none
    for sides 1 and n), in walking order: sides ascending, shifts in
    lexicographic order."""
    side = 1
    while side <= (n if max_side is None else max_side):
        offsets = (0, side // 2) if 1 < side < n else (0,)
        for shift in itertools.product(offsets, repeat=dim):
            yield side, shift
        side *= 2


def _all_cubes(n, dim):
    """Every cube of every layer, corners wrapped onto the torus."""
    for side, shift in _layers(n, dim):
        for idx in itertools.product(range(0, n, side), repeat=dim):
            yield Cube(tuple((i + o) % n for i, o in zip(idx, shift)), side)


def _step(grid):
    # 1 on the half torus x0 < L/2, 0 elsewhere
    n = grid.points_per_axis
    vals = np.zeros(grid.shape)
    vals[: n // 2] = 1.0
    return ScalarField(grid, vals)


@pytest.mark.parametrize("flavor", ["BMO", "BMO_sharp"])
def test_constant_field_vanishes(grid2, flavor):
    f = ScalarField(grid2, np.full(grid2.shape, 4.2))
    rep = bmo_norm(f, flavor=flavor)
    assert rep.norm <= 1e-14
    assert rep.flavor == flavor


def test_bmo_flavor_sees_constants(grid2):
    # the inhomogeneous flavor adds the large-cube mass of |f|
    f = ScalarField(grid2, np.full(grid2.shape, 4.2))
    rep = bmo_norm(f, flavor="bmo")
    assert abs(rep.norm - 4.2) <= 1e-12


def test_ties_keep_the_first_cube(grid2):
    # a dyadic constant has every oscillation exactly 0 and every r-mean of
    # |f| exactly 0.5: the first cube walked is the witness, and the bmo
    # flavor's mass cube beats the zero oscillation
    f = ScalarField(grid2, np.full(grid2.shape, 0.5))
    for flavor in ("BMO", "BMO_sharp"):
        assert bmo_norm(f, flavor=flavor).worst_cube == Cube((0, 0), 1)
    rep = bmo_norm(f, flavor="bmo", r=2)
    assert rep.norm == 0.5
    assert rep.worst_cube == Cube((0, 0), grid2.points_per_axis // 2)
    # +-1 on the two halves: the oscillation sup and the mass sup are both
    # exactly 1, and a tie keeps the oscillation cube, the first straddling
    # cube of side 2 (shifted by one row)
    n = grid2.points_per_axis
    vals = np.ones(grid2.shape)
    vals[n // 2:] = -1.0
    rep = bmo_norm(ScalarField(grid2, vals), flavor="bmo")
    assert rep.norm == 2.0
    assert rep.worst_cube == Cube((n // 2 - 1, 0), 2)


def test_step_oscillation_exact(grid2):
    # the full torus halves into 0s and 1s: mean 1/2, mean deviation 1/2
    rep = bmo_norm(_step(grid2), flavor="BMO")
    assert abs(rep.norm - 0.5) <= 1e-12


def test_step_r2_matches(grid2):
    r1 = bmo_norm(_step(grid2), flavor="BMO", r=1)
    r2 = bmo_norm(_step(grid2), flavor="BMO", r=2)
    # |f - 1/2| is identically 1/2 here, so both exponents agree
    assert abs(r2.norm - r1.norm) <= 1e-12


def test_linear_scaling(grid2, noise):
    f = noise(grid2, seed=20, kind="scalar")
    a = bmo_norm(f).norm
    b = bmo_norm(ScalarField(grid2, 3.0 * f.values)).norm
    assert abs(b - 3.0 * a) <= 1e-10 * max(b, 1.0)


def test_flavor_and_r_validation(grid2):
    f = _step(grid2)
    with pytest.raises(ValueError):
        bmo_norm(f, flavor="VMO")
    with pytest.raises(ValueError):
        bmo_norm(f, r=3)


def test_witness_reproduces_norm(grid2, noise):
    f = noise(grid2, seed=21, kind="scalar")
    rep = bmo_norm(f, flavor="BMO")
    cube = rep.worst_cube
    assert isinstance(cube, Cube)
    sl = tuple(
        np.arange(c, c + cube.side) % grid2.points_per_axis
        for c in cube.corner
    )
    block = f.values[np.ix_(*sl)].real
    osc = np.mean(np.abs(block - block.mean()))
    assert abs(osc - rep.norm) <= 1e-12 * max(rep.norm, 1.0)


def _cube_values(vals, cube):
    n = vals.shape[0]
    return vals[np.ix_(*(np.arange(c, c + cube.side) % n for c in cube.corner))]


def _r_mean(absvals, r):
    return float(np.mean(absvals**r) ** (1.0 / r))


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("r", [1, 2])
def test_block_reduce_matches_cube_slices(dim, n, dtype, r):
    # every (side, shift) layer, every cube: the oscillation and the r-mean
    # of |f| against the cube's own slice of the field
    grid = Grid(dim, n, 1.0)
    rng = np.random.default_rng(27)
    vals = rng.standard_normal(grid.shape)
    if dtype is np.complex128:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    for side, shift in _layers(n, dim):
        osc, massr = _block_reduce(vals, side, shift, r, mass=True)
        assert osc.shape == massr.shape == (n // side,) * dim
        for idx in np.ndindex(osc.shape):
            corner = tuple((i * side + o) % n for i, o in zip(idx, shift))
            block = _cube_values(vals, Cube(corner, side))
            want_osc = _r_mean(np.abs(block - block.mean()), r)
            want_mass = _r_mean(np.abs(block), r)
            assert abs(osc[idx] - want_osc) <= 1e-13 * max(want_osc, 1.0)
            assert abs(massr[idx] - want_mass) <= 1e-13 * max(want_mass, 1.0)


def _oracle(vals, r):
    """Brute force over every cube: the largest r-oscillation, and the
    largest r-mean of |f| over cubes of side >= n/2."""
    n, dim = vals.shape[0], vals.ndim
    osc, mass = {}, {}
    for cube in _all_cubes(n, dim):
        block = _cube_values(vals, cube)
        osc[cube] = _r_mean(np.abs(block - block.mean()), r)
        if cube.side >= n // 2:
            mass[cube] = _r_mean(np.abs(block), r)
    return osc, mass


def _close(got, want):
    return abs(got - want) <= 1e-13 * max(want, 1.0)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("r", [1, 2])
def test_flavors_match_brute_force_over_every_cube(dim, n, dtype, r):
    # each flavor's value is the sup over its cubes, and its witness
    # attains it; the profile is the sup over sides <= delta/h
    grid = Grid(dim, n, 1.0)
    rng = np.random.default_rng(29)
    # a period-long cosine under weaker noise: the largest oscillation is
    # on cubes of side n/2, where BMO_sharp's cut lies
    vals = 0.3 * rng.standard_normal(grid.shape)
    vals += np.cos(2.0 * np.pi * np.arange(n) / n).reshape((n,) + (1,) * (dim - 1))
    if dtype is np.complex128:
        vals = vals + 0.3j * rng.standard_normal(grid.shape)
    f = ScalarField(grid, vals)
    osc, mass = _oracle(vals, r)
    small = {c: v for c, v in osc.items() if c.side <= n // 2}

    rep = bmo_norm(f, flavor="BMO", r=r)
    assert _close(rep.norm, max(osc.values()))
    assert _close(osc[rep.worst_cube], rep.norm)
    rep = bmo_norm(f, flavor="BMO_sharp", r=r)
    assert _close(rep.norm, max(small.values()))
    assert _close(small[rep.worst_cube], rep.norm)
    rep = bmo_norm(f, flavor="bmo", r=r)
    top_small, top_mass = max(small.values()), max(mass.values())
    assert _close(rep.norm, top_small + top_mass)
    witness = small if top_small >= top_mass else mass
    assert _close(witness[rep.worst_cube], max(witness.values()))

    h = grid.spacing
    deltas = [h, 2 * h, 3 * h, 4 * h, 0.5, 1.0]
    profile = vmo_profile(f, deltas)
    osc1, _ = _oracle(vals, 1)
    for (delta, value), want in zip(profile, deltas):
        assert delta == want
        assert _close(value, max(v for c, v in osc1.items() if c.side <= delta / h + 1e-9))


def test_walk_visits_each_layer_once_in_order(monkeypatch):
    import formbound.oscillation as osc

    n, dim = 16, 2
    f = ScalarField(Grid(dim, n, 1.0), np.random.default_rng(30).standard_normal((n, n)))
    seen = []

    def recording(vals, side, shift, r, mass=False):
        seen.append((side, shift, mass))
        return _block_reduce(vals, side, shift, r, mass=mass)

    monkeypatch.setattr(osc, "_block_reduce", recording)
    every = list(_layers(n, dim))
    bmo_norm(f, flavor="BMO")
    assert seen == [(s, o, False) for s, o in every]
    seen.clear()
    bmo_norm(f, flavor="bmo")
    assert seen == [(s, o, s >= n // 2) for s, o in every]
    seen.clear()
    bmo_norm(f, flavor="BMO_sharp")
    assert seen == [(s, o, False) for s, o in every if s <= n // 2]
    seen.clear()
    vmo_profile(f, [0.25, 0.125])
    assert seen == [(s, o, False) for s, o in _layers(n, dim, 4)]


@pytest.mark.parametrize("r", [1, 2])
def test_bmo_witness_reproduces_large_cube_mean(grid2, noise, r):
    # a raised cosine makes a half-period cube's r-mean of |f| larger than
    # the whole torus's, and larger than every small-cube oscillation
    n = grid2.points_per_axis
    vals = noise(grid2, seed=28, kind="scalar").values
    vals += 6.0 + 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)[:, None]
    f = ScalarField(grid2, vals)
    rep = bmo_norm(f, flavor="bmo", r=r)
    small = bmo_norm(f, flavor="BMO_sharp", r=r).norm
    mass = rep.norm - small
    assert mass > small
    cube = rep.worst_cube
    assert cube.side == n // 2
    assert abs(_r_mean(np.abs(_cube_values(vals, cube)), r) - mass) <= 1e-12 * mass
    large = [c for c in _all_cubes(n, 2) if c.side >= n // 2]
    best = max(_r_mean(np.abs(_cube_values(vals, c)), r) for c in large)
    assert abs(best - mass) <= 1e-12 * mass


def test_matrix_field_entrywise(grid2, noise):
    f = noise(grid2, seed=22, kind="scalar")
    F = hodge_decompose(noise(grid2, seed=23)).F
    single = bmo_norm(F.entries[0][1]).norm
    rep = bmo_norm(F)
    assert abs(rep.norm - single) <= 1e-12
    assert rep.entry in ((0, 1), (1, 0))


def test_skew_matrix_reduces_upper_entries(grid3, noise, monkeypatch):
    import formbound.oscillation as osc

    F = hodge_decompose(noise(grid3, seed=25)).F
    seen = []
    walk = osc._layer_sups

    def counting(vals, *args, **kwargs):
        seen.append(vals)
        return walk(vals, *args, **kwargs)

    monkeypatch.setattr(osc, "_layer_sups", counting)
    rep = bmo_norm(F)
    assert len(seen) == 3
    full = max(bmo_norm(e).norm for row in F.entries for e in row)
    assert rep.norm == full
    assert rep.entry in ((0, 1), (0, 2), (1, 2))
    seen.clear()
    G = F.copy()
    G.values[1, 0] *= 2.0
    bmo_norm(G)
    assert len(seen) == 9


def test_vmo_profile_matches_per_delta_sup(grid2, noise):
    f = noise(grid2, seed=26, kind="scalar")
    deltas = [0.5, 0.125, 0.25, 1.0 / 32.0]
    prof = vmo_profile(f, deltas)
    osc, _ = _oracle(f.values, 1)
    for (delta, value), want in zip(prof, deltas):
        assert delta == want
        side = int(delta / grid2.spacing)
        assert _close(value, max(v for c, v in osc.items() if c.side <= side))


def test_vmo_profile_monotone(grid2):
    f = presets.make_scalar("trig", grid2)
    deltas = [0.5, 0.25, 0.125]
    prof = vmo_profile(f, deltas)
    vals = [v for _, v in prof]
    assert vals[0] >= vals[1] >= vals[2] >= 0.0
    assert vals[2] < vals[0]  # strictly shrinking for a smooth field


def test_vmo_profile_rejects_subcell(grid2):
    f = presets.make_scalar("trig", grid2)
    with pytest.raises(ValueError):
        vmo_profile(f, [grid2.spacing / 4.0])


def test_sharp_flavor_bounded_by_plain(grid2, noise):
    f = noise(grid2, seed=24, kind="scalar")
    plain = bmo_norm(f, flavor="BMO").norm
    sharp = bmo_norm(f, flavor="BMO_sharp").norm
    assert sharp <= plain * (1.0 + 1e-12) * 2.0
    assert sharp > 0.0
