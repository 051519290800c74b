import itertools

import numpy as np
import pytest

from formbound import presets
from formbound.hodge import decompose
from formbound.oscillation import (
    FLAVORS,
    Cube,
    _block_reduce,
    _layer_sups,
    bmo_norm,
    vmo_profile,
)
from formbound.oscillation import _r_mean as _row_r_mean
from formbound.report import Record
from formbound.torus import Grid, ScalarField

# writing a complex |.| into a complex buffer hands complex sups to float()
no_complex_warning = pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")


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
    assert bmo_norm(f, flavor=flavor).constant <= 1e-14


def test_bmo_flavor_sees_constants(grid2):
    # the inhomogeneous flavor adds the large-cube mass of |f|
    f = ScalarField(grid2, np.full(grid2.shape, 4.2))
    rep = bmo_norm(f, flavor="bmo")
    assert abs(rep.constant - 4.2) <= 1e-12


def test_ties_keep_the_first_cube(grid2):
    # a dyadic constant has every oscillation exactly 0 and every r-mean of
    # |f| exactly 0.5: the first cube walked is the witness, and the bmo
    # flavor's mass cube beats the zero oscillation
    f = ScalarField(grid2, np.full(grid2.shape, 0.5))
    for flavor in ("BMO", "BMO_sharp"):
        assert bmo_norm(f, flavor=flavor).witness == Cube((0, 0), 1)
    rep = bmo_norm(f, flavor="bmo", r=2)
    assert rep.constant == 0.5
    assert rep.witness == Cube((0, 0), grid2.points_per_axis // 2)
    # +-1 on the two halves: the oscillation sup and the mass sup are both
    # exactly 1, and a tie keeps the oscillation cube, the first straddling
    # cube of side 2 (shifted by one row)
    n = grid2.points_per_axis
    vals = np.ones(grid2.shape)
    vals[n // 2:] = -1.0
    rep = bmo_norm(ScalarField(grid2, vals), flavor="bmo")
    assert rep.constant == 2.0
    assert rep.witness == Cube((n // 2 - 1, 0), 2)


def test_step_oscillation_exact(grid2):
    # the full torus halves into 0s and 1s: mean 1/2, mean deviation 1/2
    rep = bmo_norm(_step(grid2), flavor="BMO")
    assert abs(rep.constant - 0.5) <= 1e-12


def test_step_r2_matches(grid2):
    r1 = bmo_norm(_step(grid2), flavor="BMO", r=1)
    r2 = bmo_norm(_step(grid2), flavor="BMO", r=2)
    # |f - 1/2| is identically 1/2 here, so both exponents agree
    assert abs(r2.constant - r1.constant) <= 1e-12


def test_linear_scaling(grid2, noise):
    f = noise(grid2, seed=20, kind="scalar")
    a = bmo_norm(f).constant
    b = bmo_norm(ScalarField(grid2, 3.0 * f.values)).constant
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
    cube = rep.witness
    assert isinstance(cube, Cube)
    sl = tuple(
        np.arange(c, c + cube.side) % grid2.points_per_axis
        for c in cube.corner
    )
    block = f.values[np.ix_(*sl)].real
    osc = np.mean(np.abs(block - block.mean()))
    assert abs(osc - rep.constant) <= 1e-12 * max(rep.constant, 1.0)


def _cube_values(vals, cube):
    n = vals.shape[0]
    return vals[np.ix_(*(np.arange(c, c + cube.side) % n for c in cube.corner))]


def _r_mean(absvals, r):
    return float(np.mean(absvals**r) ** (1.0 / r))


@no_complex_warning
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("r", [1, 2])
def test_block_reduce_matches_cube_slices(dim, n, dtype, r):
    # every (side, shift) layer, every cube: the oscillation and the r-mean
    # of |f| against the cube's own slice of the field, and bit for bit
    # against the same reductions of rows laid out by np.roll and a
    # transpose; neither the caller's samples nor their padded copy (the
    # walk's, by the side's half side) are written
    grid = Grid(dim, n, 1.0)
    rng = np.random.default_rng(27)
    vals = rng.standard_normal(grid.shape)
    if dtype is np.complex128:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    kept = vals.copy()
    order = tuple(range(0, 2 * dim, 2)) + tuple(range(1, 2 * dim, 2))
    for side, shift in _layers(n, dim):
        ext = vals if side in (1, n) else np.pad(vals, (0, side // 2), mode="wrap")
        padded = ext.copy()
        osc, massr = _block_reduce(ext, n, side, shift, r, mass=True)
        assert np.array_equal(ext, padded)
        assert osc.shape == massr.shape == (n // side,) * dim
        nb = n // side
        rows = np.roll(vals, tuple(-o for o in shift), axis=tuple(range(dim))) \
            .reshape((nb, side) * dim).transpose(order).reshape(nb**dim, side**dim)
        assert np.array_equal(massr.reshape(-1), _row_r_mean(np.abs(rows), r))
        centred = np.abs(rows - rows.mean(axis=-1, keepdims=True))
        assert np.array_equal(osc.reshape(-1), _row_r_mean(centred, r))
        for idx in np.ndindex(osc.shape):
            corner = tuple((i * side + o) % n for i, o in zip(idx, shift))
            block = _cube_values(vals, Cube(corner, side))
            want_osc = _r_mean(np.abs(block - block.mean()), r)
            want_mass = _r_mean(np.abs(block), r)
            assert abs(osc[idx] - want_osc) <= 1e-13 * max(want_osc, 1.0)
            assert abs(massr[idx] - want_mass) <= 1e-13 * max(want_mass, 1.0)
    assert np.array_equal(vals, kept)


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


@no_complex_warning
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
    assert _close(rep.constant, max(osc.values()))
    assert _close(osc[rep.witness], rep.constant)
    rep = bmo_norm(f, flavor="BMO_sharp", r=r)
    assert _close(rep.constant, max(small.values()))
    assert _close(small[rep.witness], rep.constant)
    rep = bmo_norm(f, flavor="bmo", r=r)
    top_small, top_mass = max(small.values()), max(mass.values())
    assert _close(rep.constant, top_small + top_mass)
    witness = small if top_small >= top_mass else mass
    assert _close(witness[rep.witness], max(witness.values()))

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
    seen, exts = [], {}

    def recording(ext, n_, side, shift, r, mass=False):
        # each side's layers slice one copy, padded by its half side, and
        # sides 1 and n read the samples themselves
        assert n_ == n
        assert exts.setdefault(side, ext) is ext
        assert (ext is f.values) == (side in (1, n))
        assert ext.shape == (n + (side // 2 if 1 < side < n else 0),) * dim
        seen.append((side, shift, mass))
        return _block_reduce(ext, n_, side, shift, r, mass=mass)

    monkeypatch.setattr(osc, "_block_reduce", recording)
    every = list(_layers(n, dim))
    bmo_norm(f, flavor="BMO")
    assert seen == [(s, o, False) for s, o in every]
    seen.clear()
    exts.clear()
    bmo_norm(f, flavor="bmo")
    assert seen == [(s, o, s >= n // 2) for s, o in every]
    seen.clear()
    exts.clear()
    bmo_norm(f, flavor="BMO_sharp")
    assert seen == [(s, o, False) for s, o in every if s <= n // 2]
    seen.clear()
    exts.clear()
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
    small = bmo_norm(f, flavor="BMO_sharp", r=r).constant
    mass = rep.constant - small
    assert mass > small
    cube = rep.witness
    assert cube.side == n // 2
    assert abs(_r_mean(np.abs(_cube_values(vals, cube)), r) - mass) <= 1e-12 * mass
    large = [c for c in _all_cubes(n, 2) if c.side >= n // 2]
    best = max(_r_mean(np.abs(_cube_values(vals, c)), r) for c in large)
    assert abs(best - mass) <= 1e-12 * mass


def test_matrix_field_entrywise(grid2, noise):
    f = noise(grid2, seed=22, kind="scalar")
    F = decompose(noise(grid2, seed=23)).F
    single = bmo_norm(F.entries[0][1]).constant
    rep = bmo_norm(F)
    assert abs(rep.constant - single) <= 1e-12
    assert rep.note == "worst entry (0, 1)"


@pytest.mark.parametrize("kind", ["scalar", "skew"])
def test_records_follow_the_pass_rule(grid2, noise, kind):
    # one bmo_norm record per field, informational without a threshold,
    # passing at or below one and failing above; only a matrix field's
    # record notes its worst entry
    field = noise(grid2, seed=32, kind="scalar")
    if kind == "skew":
        field = decompose(noise(grid2, seed=33)).F
    rec = bmo_norm(field)
    assert isinstance(rec, Record)
    assert (rec.name, rec.threshold, rec.passed) == ("bmo_norm", None, True)
    assert rec.note == ("" if kind == "scalar" else "worst entry (0, 1)")
    for threshold, passed in ((rec.constant, True), (2.0 * rec.constant, True),
                              (0.5 * rec.constant, False)):
        held = bmo_norm(field, threshold=threshold)
        assert held == Record("bmo_norm", rec.constant, threshold, passed,
                              rec.witness, rec.note)


def test_skew_matrix_reduces_upper_entries(grid3, noise, monkeypatch):
    import formbound.oscillation as osc

    F = decompose(noise(grid3, seed=25)).F
    seen = []
    walk = osc._layer_sups

    def counting(vals, *args, **kwargs):
        seen.append(vals)
        return walk(vals, *args, **kwargs)

    monkeypatch.setattr(osc, "_layer_sups", counting)
    rep = bmo_norm(F)
    assert len(seen) == 3
    full = max(bmo_norm(e).constant for row in F.entries for e in row)
    assert rep.constant == full
    assert rep.note in [f"worst entry {e}" for e in ((0, 1), (0, 2), (1, 2))]
    seen.clear()
    dense = bmo_norm(F.dense())  # found skew by the sample scan
    assert len(seen) == 3
    assert dense.constant == rep.constant and dense.note == rep.note
    seen.clear()
    G = F.dense()
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
    plain = bmo_norm(f, flavor="BMO").constant
    sharp = bmo_norm(f, flavor="BMO_sharp").constant
    assert sharp <= plain * (1.0 + 1e-12) * 2.0
    assert sharp > 0.0


@no_complex_warning
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_samples_are_never_written(dim, n, dtype):
    # sides 1 and n slice the samples themselves, where a reshape could
    # make the rows a view of them: reducing the rows in place, the r-mean
    # of |f| included, must not reach the caller's field
    grid = Grid(dim, n, 1.0)
    rng = np.random.default_rng(31)
    vals = rng.standard_normal(grid.shape)
    if dtype is np.complex128:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    f = ScalarField(grid, vals)
    before = f.values.tobytes()
    for flavor in FLAVORS:
        for r in (1, 2):
            bmo_norm(f, flavor=flavor, r=r)
            assert f.values.tobytes() == before, (flavor, r)
    vmo_profile(f, [grid.spacing, 0.25, 0.5, 1.0])
    assert f.values.tobytes() == before
    # the walk reduces the mass from side n/2 up only: side 1 with it
    # is reached here
    for side in (1, n):
        for r in (1, 2):
            _block_reduce(f.values, n, side, (0,) * dim, r, mass=True)
            assert f.values.tobytes() == before, (side, r)


def _walk_table(vals, r, max_side, mass):
    """The table of _layer_sups from the brute-force oracle: per side, the
    largest value and the first cube in walking order attaining it."""
    n = vals.shape[0]
    osc, big = _oracle(vals, r)
    table = {}
    for side, _ in _layers(n, vals.ndim, max_side):
        top = max(((v, c) for c, v in osc.items() if c.side == side), key=lambda p: p[0])
        top_mass = (-1.0, None)
        if mass and side >= n // 2:
            top_mass = max(((v, c) for c, v in big.items() if c.side == side),
                           key=lambda p: p[0])
        table[side] = (top, top_mass)
    return table


@no_complex_warning
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("zero", [0.0, -0.0, 0j, complex(-0.0, -0.0)],
                         ids=["+0", "-0", "+0j", "-0j"])
@pytest.mark.parametrize("mass", [False, True])
@pytest.mark.parametrize("r", [1, 2])
def test_zero_field_table_is_the_walks(dim, n, zero, mass, r, monkeypatch):
    import formbound.oscillation as osc

    vals = np.full((n,) * dim, zero)
    monkeypatch.setattr(osc, "_block_reduce", None)  # the walk must not run
    for max_side in (n // 2, n):
        got = _layer_sups(vals, r, max_side, mass=mass)
        # repr tells 0.0 from -0.0
        assert repr(got) == repr(_walk_table(vals, r, max_side, mass))


class _NoShortcut(np.ndarray):
    """Samples whose ``any()`` is always true, so every field is walked."""

    def any(self, *args, **kwargs):
        return True


@no_complex_warning
def test_zero_stream_entries_skip_the_walk(monkeypatch):
    # the planar vortex's stream matrix has F02 = F12 = 0 exactly, in both
    # splits: the reports equal the ones from walking every entry, and no
    # layer of a zero entry is reduced
    import formbound.oscillation as osc

    g = Grid(3, 16, 1.0)
    b = presets.make_field("vortex", g)
    splits = (decompose(b).F, decompose(b, flavor="inhomogeneous").F)
    deltas = [g.spacing, 0.125, 0.25, 0.5]
    walk = osc._layer_sups

    def report(F):
        reps = [bmo_norm(F, flavor=flavor, r=r) for flavor in FLAVORS for r in (1, 2)]
        return reps, vmo_profile(F, deltas)

    def walked(vals, *args, **kwargs):
        return walk(vals.view(_NoShortcut), *args, **kwargs)

    reduced = []

    def counting(vals, *args, **kwargs):
        reduced.append(bool(vals.any()))
        return _block_reduce(vals, *args, **kwargs)

    for F in splits:
        assert [(i, j) for i in range(3) for j in range(i + 1, 3)
                if not F[i, j].values.any()] == [(0, 2), (1, 2)]
        with monkeypatch.context() as m:
            m.setattr(osc, "_layer_sups", walked)
            want = report(F)
        with monkeypatch.context() as m:
            m.setattr(osc, "_block_reduce", counting)
            got = report(F)
        assert got == want
        # one nonzero entry walked per report: 6 bmo_norm calls and 1 profile
        assert reduced and all(reduced)
        layers = [len(list(_layers(16, 3, top))) for top in (16, 8)]
        assert len(reduced) == 2 * (2 * layers[0] + layers[1]) + len(list(_layers(16, 3, 8)))
        reduced.clear()
