"""The two spectral paths of the calculus: real fields through half spectra
(rfftn / irfftn), complex fields through full ones (fftn / ifftn).

Real white noise carries energy at the Nyquist frequencies, where the two
derivative conventions part: the real path must give what the real part of
the full complex computation gives.  Complex input must keep the bits of
the full computation with the cached tables, and differentiate with the
real path's wavenumbers, so that a field's dtype changes no certificate."""

import gc
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import fft as sfft

from formbound import hodge, measures, presets, torus, verdict
from formbound.oscillation import FLAVORS, bmo_norm, vmo_profile
from formbound.torus import Grid, MatrixField, ScalarField, VectorField

GRIDS = [Grid(2, 16, 1.0), Grid(3, 8, 2.5)]


def _noise(grid, lead, seed, complex_=False):
    rng = np.random.default_rng(seed)
    shape = lead + grid.shape
    vals = rng.standard_normal(shape)
    if complex_:
        vals = vals + 1j * rng.standard_normal(shape)
    return vals


def _kaps(grid, nyquist):
    """Angular wavenumbers per axis; ``nyquist=False`` zeroes the n/2 entry."""
    n = grid.points_per_axis
    kap = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.period / n)
    if not nyquist:
        kap[n // 2] = 0.0
    out = []
    for axis in range(grid.dim):
        form = [1] * grid.dim
        form[axis] = n
        out.append(kap.reshape(form))
    return out


def _ksq(kaps):
    return sum(k**2 for k in kaps)


def _oracle(spectra):
    """Real part of numpy's full inverse transform of each spectrum."""
    return np.stack([np.fft.ifftn(s).real for s in spectra])


def _close(got, want, tol=1e-13):
    assert got.dtype == np.float64
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


# ---------------------------------------------------------------------------
# real input: numpy.fft oracles with every mode kept, cast to real
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_real_calculus_matches_complex_oracle(grid):
    d = grid.dim
    kaps = _kaps(grid, nyquist=True)
    f = ScalarField(grid, _noise(grid, (), 1))
    v = VectorField.from_array(grid, _noise(grid, (d,), 2))
    m = MatrixField.from_array(grid, _noise(grid, (d, d), 3))
    fh = np.fft.fftn(f.values)
    vh = [np.fft.fftn(c) for c in v.values]
    mh = [[np.fft.fftn(e) for e in row] for row in m.values]

    _close(torus.grad(f).values, _oracle([1j * k * fh for k in kaps]))
    _close(torus.div(v).values, _oracle([sum(1j * k * h for k, h in zip(kaps, vh))])[0])
    upper = _oracle([1j * (kaps[j] * vh[i] - kaps[i] * vh[j])
                     for i in range(d) for j in range(i + 1, d)])
    _close(torus.curl(v).values, upper)
    _close(torus.mat_div(m).values,
           _oracle([sum(1j * k * h for k, h in zip(kaps, row)) for row in mh]))

    ks = _ksq(kaps)
    grounded = np.where(ks > 0.0, ks, 1.0)
    _close(torus.inv_laplacian(v, annihilate_mean=True).values,
           _oracle([np.where(ks > 0.0, -1.0 / grounded, 0.0) * h for h in vh]))
    _close(torus.riesz_half(v, annihilate_mean=True).values,
           _oracle([np.where(ks > 0.0, grounded**-0.5, 0.0) * h for h in vh]))
    _close(torus.bessel_inv(m).values.reshape((-1,) + grid.shape),
           _oracle([h / (1.0 + ks) for row in mh for h in row]))


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_real_hodge_splits_match_complex_oracle(grid):
    # the splits use the Nyquist-zeroed wavenumbers on both paths
    d = grid.dim
    kaps = _kaps(grid, nyquist=False)
    ks = _ksq(kaps)
    grounded = np.where(ks > 0.0, ks, 1.0)
    bessel = 1.0 / (1.0 + ks)
    b = VectorField.from_array(grid, _noise(grid, (d,), 4))
    q = ScalarField(grid, _noise(grid, (), 5))
    bh = [np.fft.fftn(c) for c in b.values]
    s = sum(k * h for k, h in zip(kaps, bh))
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    mean = b.values.mean(axis=tuple(range(1, d + 1)), keepdims=True)
    p = _oracle([k * s / grounded for k in kaps])

    dec = hodge.decompose(b)
    _close(dec.c.values, p)
    _close(dec.F.values, _oracle([-1j * (kaps[j] * bh[i] - kaps[i] * bh[j]) / grounded
                                  for i, j in pairs]))
    _close(dec.mean_part, mean.reshape(d))
    _close(hodge.project("P", b).values, p)
    _close(hodge.project("Q", b).values, b.values - mean - p)

    dec = hodge.decompose(b, q, "inhomogeneous")
    _close(dec.c.values, _oracle([bessel * (k * s + h) for k, h in zip(kaps, bh)]))
    _close(dec.F.values, _oracle([-1j * bessel * (kaps[j] * bh[i] - kaps[i] * bh[j])
                                  for i, j in pairs]))
    qh = np.fft.fftn(q.values)
    _close(dec.h.values, _oracle([-1j * k * bessel * qh for k in kaps]))
    _close(dec.gamma.values, _oracle([bessel * qh])[0])


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_real_measure_potentials_match_complex_oracle(grid):
    rng = np.random.default_rng(6)
    mu = measures.DiscreteMeasure(grid, rng.exponential(size=grid.shape))
    dist_sq = grid.dist_sq()
    mass_hat = np.fft.fftn(mu.cell_mass)

    def counts(hat, r):
        return np.fft.ifftn(hat * np.fft.fftn((dist_sq <= r * r) * 1.0)).real

    radii = measures.geometric_radii(grid)
    want = max(counts(mass_hat, r).max() / r ** (grid.dim - 2) for r in radii)
    got = measures.ball_growth_test(mu).constant
    assert abs(got - want) <= 1e-13 * want

    rho = mu.density()
    eps = 0.5
    hat = np.fft.fftn(rho.values ** (1.0 + eps) * grid.cell_volume)
    want = max(counts(hat, r).max() * r ** (2.0 * (1.0 + eps) - grid.dim) for r in radii)
    got = measures.fefferman_phong_test(mu, eps).constant
    assert abs(got - want) <= 1e-13 * want

    ks = _ksq(_kaps(grid, nyquist=True))
    hat = np.fft.fftn(rho.values)
    _close(measures._potential(rho, "inhomogeneous"),
           np.fft.ifftn(hat / np.sqrt(1.0 + ks)).real)
    if grid.dim == 3:
        # I1 drops the mean mode and adds it back as mean * L / pi
        hat.flat[0] = 0.0
        riesz = np.fft.ifftn(hat / np.sqrt(np.where(ks > 0.0, ks, 1.0))).real
        _close(measures._potential(rho, "homogeneous"),
               riesz + rho.values.mean() * grid.period / np.pi)


# ---------------------------------------------------------------------------
# the symbol tables: each path builds its own, at its own shape
# ---------------------------------------------------------------------------


def _symbol_oracles(grid):
    """Every table of a core, on the full grid, from numpy's fftfreq."""
    full = np.zeros(grid.shape)
    ks = _ksq(_kaps(grid, nyquist=True)) + full
    kaps = [k + full for k in _kaps(grid, nyquist=False)]
    ks0 = _ksq(kaps)
    grounded = np.where(ks > 0.0, ks, 1.0)
    return {
        "kappas": kaps,
        "ksq": [ks],
        "inv_lap": [np.where(ks > 0.0, -1.0 / grounded, 0.0)],
        "riesz_half": [np.where(ks > 0.0, 1.0 / np.sqrt(grounded), 0.0)],
        "bessel_half": [1.0 / np.sqrt(1.0 + ks)],
        "bessel_inv": [1.0 / (1.0 + ks)],
        "split": [np.where(ks0 > 0.0, ks0, 1.0), 1.0 / (1.0 + ks0)],
    }


def _tables(sp):
    """Every table a core has built, by name, each as a list of arrays."""
    return {name: list(value) if isinstance(value, tuple) else [value]
            for name, value in vars(sp).items()
            if isinstance(value, np.ndarray)
            or isinstance(value, tuple) and isinstance(value[0], np.ndarray)}


@pytest.mark.parametrize("grid", [Grid(2, 16, 0.75), Grid(3, 8, 2.5)], ids=str)
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_core_tables_equal_fftfreq_oracle(grid, real):
    # the real path's tables are the first n//2 + 1 columns of the full
    # ones, bit for bit, and nothing but those
    sp = torus._Spectral(grid, real)
    want = _symbol_oracles(grid)
    for name in want:
        getattr(sp, name)
    got = _tables(sp)
    assert set(got) == set(want)
    cols = grid.points_per_axis // 2 + 1 if real else grid.points_per_axis
    for name, tables in want.items():
        assert len(got[name]) == len(tables), name
        for table, oracle in zip(got[name], tables):
            assert np.array_equal(np.broadcast_to(table, sp.shape), oracle[..., :cols]), name


def test_real_verdict_holds_no_full_table():
    grid = Grid(3, 16, 1.0)
    verdict.assess_homogeneous(None, presets.make_field("vortex", grid), None)
    cores = [o for o in gc.get_objects() if isinstance(o, torus._Spectral) and o.real]
    assert torus._Spectral(grid) in cores
    assert _tables(torus._Spectral(grid))
    for sp in cores:
        for name, tables in _tables(sp).items():
            assert all(t.shape[-1] != sp.grid.points_per_axis for t in tables), (sp.grid, name)


# ---------------------------------------------------------------------------
# complex input: the full transforms with the cached tables, bit for bit
# ---------------------------------------------------------------------------


def _full(values, d):
    return sfft.fftn(values, axes=tuple(range(-d, 0)), workers=torus.fft_workers())


def _back(values, d):
    return sfft.ifftn(values, axes=tuple(range(-d, 0)), workers=torus.fft_workers())


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_complex_input_keeps_full_transform_bits(grid):
    d = grid.dim
    sp = torus._Spectral(grid, False)
    kaps = sp.kappas
    f = ScalarField(grid, _noise(grid, (), 7, complex_=True))
    v = VectorField.from_array(grid, _noise(grid, (d,), 8, complex_=True))
    m = MatrixField.from_array(grid, _noise(grid, (d, d), 9, complex_=True))
    fh, vh, mh = _full(f.values, d), _full(v.values, d), _full(m.values, d)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]

    assert np.array_equal(torus.grad(f).values,
                          _back(np.stack([1j * k * fh for k in kaps]), d))
    acc = np.zeros(grid.shape, complex)
    for k, h in zip(kaps, vh):
        acc += 1j * k * h
    assert np.array_equal(torus.div(v).values, _back(acc, d))
    assert np.array_equal(torus.curl(v).values,
                          _back(np.stack([1j * (kaps[j] * vh[i] - kaps[i] * vh[j])
                                          for i, j in pairs]), d))
    rows = np.zeros((d,) + grid.shape, complex)
    for out, row in zip(rows, mh):
        for k, h in zip(kaps, row):
            out += 1j * k * h
    assert np.array_equal(torus.mat_div(m).values, _back(rows, d))
    assert np.array_equal(torus.bessel_inv(m).values,
                          _back(mh * sp.bessel_inv, d))

    dk, (ks, _) = sp.kappas, sp.split
    hats = vh.copy()
    for h in hats:
        h.flat[0] = 0.0
    s = sum(dk[j] * hats[j] for j in range(d))
    want = np.stack([dk[i] * s / ks for i in range(d)])
    assert np.array_equal(hodge.project("P", v).values, _back(want, d))


def _as(grid, vals):
    if vals.ndim == grid.dim:
        return ScalarField(grid, vals)
    cls = VectorField if vals.ndim == grid.dim + 1 else MatrixField
    return cls.from_array(grid, vals)


def _near(got, want, tol=1e-13):
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


def _defect(b, dec):
    """Componentwise max of |b_i - mean_i - (c + Div F)_i|."""
    mean = dec.mean_part.reshape((-1,) + (1,) * b.grid.dim)
    return np.abs(b.values - mean - (dec.c + torus.mat_div(dec.F)).values).max()


@pytest.mark.parametrize("grid", GRIDS, ids=str)
def test_complex_cast_matches_real_path(grid):
    # real white noise cast to complex128 keeps its Nyquist energy; the
    # derivatives and the Hodge split must not see the cast
    d = grid.dim
    f, v, m = _noise(grid, (), 10), _noise(grid, (d,), 11), _noise(grid, (d, d), 12)
    for op, vals in [(torus.grad, f), (torus.div, v), (torus.curl, v), (torus.mat_div, m)]:
        _near(op(_as(grid, vals.astype(complex))).values, op(_as(grid, vals)).values)
    real = hodge.decompose(_as(grid, v))
    cast = hodge.decompose(_as(grid, v.astype(complex)))
    _near(cast.c.values, real.c.values)
    _near(cast.F.values, real.F.values)
    defects = [_defect(_as(grid, v), real), _defect(_as(grid, v.astype(complex)), cast)]
    assert abs(defects[1] - defects[0]) <= 1e-13 * defects[0]


def test_complex_cast_drift_certifies_the_same():
    # the divergence of a skew field is divergence-free, whatever its dtype:
    # the 2-D obstruction (an L1 mass of div b) must not appear on the cast
    grid = Grid(2, 32, 1.0)
    upper = np.random.default_rng(3).standard_normal(grid.shape)
    b = torus.mat_div(_as(grid, np.stack([np.stack([0 * upper, upper]),
                                          np.stack([-upper, 0 * upper])]))).values
    outcomes = [verdict.assess_homogeneous(None, _as(grid, vals), None)
                for vals in (b, b.astype(complex))]
    assert [o.overall for o in outcomes] == ["certified_bounded"] * 2
    mass = [o.record("n2_divergence_mass").constant for o in outcomes]
    assert max(mass) <= 1e-11


# ---------------------------------------------------------------------------
# streamed outputs: each component comes back on its own
# ---------------------------------------------------------------------------


def _batched(sp, spectra):
    """One batched inverse transform of every spectrum, the way the outputs
    came back before they streamed."""
    return sp.inverse(np.stack(spectra))


def _skew(grid, upper):
    d = grid.dim
    out = np.zeros((d, d) + upper.shape[1:], upper.dtype)
    for (i, j), ent in zip([(i, j) for i in range(d) for j in range(i + 1, d)], upper):
        out[i, j] = ent
        out[j, i] = -ent
    return out


@pytest.mark.parametrize("grid", GRIDS, ids=str)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_streamed_outputs_equal_batched_inverse(grid, complex_):
    d = grid.dim
    sp = torus._Spectral(grid, not complex_)
    kaps, (ks, bessel) = sp.kappas, sp.split
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    f = _noise(grid, (), 13, complex_)
    v = _noise(grid, (d,), 14, complex_)
    m = _noise(grid, (d, d), 15, complex_)
    fh, vh, mh = sp.forward(f), sp.forward(v), sp.forward(m)

    got = torus.grad(_as(grid, f)).values
    assert np.array_equal(got, _batched(sp, [1j * k * fh for k in kaps]))
    upper = _batched(sp, [1j * (kaps[j] * vh[i] - kaps[i] * vh[j]) for i, j in pairs])
    curl = torus.curl(_as(grid, v))
    assert np.array_equal(curl.values, upper)
    assert np.array_equal(curl.dense().values, _skew(grid, upper))
    rows = np.zeros((d,) + vh.shape[1:], complex)
    for out, row in zip(rows, mh):
        for k, h in zip(kaps, row):
            out += 1j * k * h
    assert np.array_equal(torus.mat_div(_as(grid, m)).values, _batched(sp, rows))

    hats = vh.copy()
    for h in hats:
        h.flat[0] = 0.0
    s = sum(kaps[j] * hats[j] for j in range(d))
    back = _batched(sp, [kaps[i] * s / ks for i in range(d)]
                    + [-1j * (kaps[j] * hats[i] - kaps[i] * hats[j]) / ks for i, j in pairs])
    dec = hodge.decompose(_as(grid, v))
    assert np.array_equal(dec.c.values, back[:d])
    assert np.array_equal(dec.F.values, back[d:])

    s = sum(kaps[j] * vh[j] for j in range(d))
    back = _batched(sp, [bessel * (kaps[i] * s + vh[i]) for i in range(d)]
                    + [-1j * bessel * (kaps[j] * vh[i] - kaps[i] * vh[j]) for i, j in pairs])
    qh = sp.forward(f)
    q_back = _batched(sp, [-1j * kaps[i] * bessel * qh for i in range(d)] + [bessel * qh])
    dec = hodge.decompose(_as(grid, v), _as(grid, f), "inhomogeneous")
    assert np.array_equal(dec.c.values, back[:d])
    assert np.array_equal(dec.F.values, back[d:])
    assert np.array_equal(dec.h.values, q_back[:d])
    assert np.array_equal(dec.gamma.values, q_back[d])


def _owner(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _traced_peak(fn, *args):
    """The traced peak of one call above what it leaves allocated, in
    bytes."""
    fn(*args)  # warm the symbol tables and the transform plans
    tracemalloc.start()
    try:
        out = fn(*args)  # bound, so that what it returns counts as held
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    return peak - held


def test_streamed_outputs_hold_one_spectrum_at_a_time():
    # in one-component half spectra at 3-D 32: the batched inverse held
    # every output's spectrum at once, 10.1 over the split's parts and 12.4
    # over mat_div's result; streamed, each holds about 6.5
    grid = Grid(3, 32, 1.0)
    unit = 32 * 32 * 17 * 16
    b = VectorField.from_array(grid, _noise(grid, (3,), 16))
    dec = hodge.decompose(b)
    assert _traced_peak(hodge.decompose, b) < 8 * unit
    assert _traced_peak(torus.mat_div, dec.F) < 8 * unit
    # c owns its d components alone; it is no view of a batch that held F
    assert _owner(dec.c.values).nbytes == dec.c.values.nbytes
    assert _owner(dec.F.values).nbytes == dec.F.values.nbytes


def test_verdict_holds_no_dead_array_in_its_estimates():
    # at 3-D 32 vortex the traced peak was 5.23 MiB with F held by all nine
    # entries and the zero q, rho, mu, the strengthened measure and the
    # Lanczos start alive through the estimates; it is 3.82 MiB now, and the
    # bound of 18 grid arrays (4.5 MiB) sits about halfway between
    grid = Grid(3, 32, 1.0)
    b = presets.make_field("vortex", grid)
    assert _traced_peak(verdict.assess_inhomogeneous, None, b, None) < 18 * grid.npoints * 8


def test_skew_parts_hold_their_upper_entries_only():
    grid = Grid(3, 32, 1.0)
    b = VectorField.from_array(grid, _noise(grid, (3,), 16))
    q = ScalarField(grid, _noise(grid, (), 17))
    for dec in (hodge.decompose(b), hodge.decompose(b, q, "inhomogeneous")):
        assert _owner(dec.F.values).nbytes == 3 * grid.npoints * 8


# ---------------------------------------------------------------------------
# skew fields: the upper entries stand for the whole matrix
# ---------------------------------------------------------------------------


def _skew_noise(grid, seed, complex_, zero=()):
    """A SkewField of noise upper entries, those listed in ``zero`` all
    zeros."""
    d = grid.dim
    upper = _noise(grid, (d * (d - 1) // 2,), seed, complex_)
    upper[list(zero)] = 0.0
    return torus.SkewField.from_array(grid, upper)


def _forward_components(monkeypatch, fn, *args):
    """fn(*args) and the number of components it transformed forward."""
    count = 0

    def counted(transform):
        def run(values, *a, **k):
            nonlocal count
            count += values.size // np.prod(values.shape[-len(k["axes"]):])
            return transform(values, *a, **k)
        return run

    with monkeypatch.context() as m:
        m.setattr(torus, "_sfft", SimpleNamespace(
            **{name: getattr(sfft, name) for name in ("ifftn", "irfftn")},
            **{name: counted(getattr(sfft, name)) for name in ("fftn", "rfftn")}))
        out = fn(*args)
    return out, count


@pytest.mark.parametrize("grid", GRIDS, ids=str)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_skew_field_entries_and_dense_form(grid, complex_):
    d = grid.dim
    F = _skew_noise(grid, 17, complex_)
    dense = F.dense()
    assert isinstance(dense, MatrixField) and dense.is_skew() and F.is_skew()
    assert np.array_equal(dense.values, _skew(grid, F.values))
    for i in range(d):
        for j in range(d):
            assert np.array_equal(F[i, j].values, dense[i, j].values)
            assert np.array_equal(F.entries[i][j].values, dense.entries[i][j].values)
    # above the diagonal a view, below it a copy
    assert np.shares_memory(F[0, 1].values, F.values)
    assert not np.shares_memory(F[1, 0].values, F.values)
    with pytest.raises(IndexError):
        F[0, d]


@pytest.mark.parametrize("grid", GRIDS, ids=str)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_skew_mat_div_equals_dense_bit_for_bit(grid, complex_, monkeypatch):
    # the upper entries go forward in one call: 3 transforms in 3-D, where
    # the dense rows take 9
    d = grid.dim
    F = _skew_noise(grid, 18, complex_)
    got, skew_count = _forward_components(monkeypatch, torus.mat_div, F)
    want, dense_count = _forward_components(monkeypatch, torus.mat_div, F.dense())
    assert got.values.tobytes() == want.values.tobytes()
    assert (skew_count, dense_count) == (d * (d - 1) // 2, d * d)


@pytest.mark.parametrize("grid", GRIDS, ids=str)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_skew_oscillation_equals_dense(grid, complex_):
    # the same values, witness entries and witness cubes on both forms, a
    # zero entry and an all-zero field included
    d = grid.dim
    deltas = [grid.spacing, 2.0 * grid.spacing, grid.period / 4.0]
    for zero in ((), (0,), range(d * (d - 1) // 2)):
        F = _skew_noise(grid, 19, complex_, zero)
        reports = []
        for form in (F, F.dense()):
            reps = [bmo_norm(form, flavor=flavor, r=r) for flavor in FLAVORS for r in (1, 2)]
            reports.append((reps, vmo_profile(form, deltas)))
        assert reports[0] == reports[1]
