"""The two spectral paths of the calculus: real fields through half spectra
(rfftn / irfftn), complex fields through full ones (fftn / ifftn).

Real white noise carries energy at the Nyquist frequencies, where the two
derivative conventions part: the real path must give what the real part of
the full complex computation gives.  Complex input must keep the bits of
the full computation with the cached tables, and differentiate with the
real path's wavenumbers, so that a field's dtype changes no certificate."""

import numpy as np
import pytest
from scipy import fft as sfft

from formbound import hodge, measures, torus, verdict
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
    curl = torus.curl(v).values
    _close(np.stack([curl[i, j] for i in range(d) for j in range(i + 1, d)]), upper)
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

    def upper(F):
        return np.stack([F.values[i, j] for i, j in pairs])

    mean = b.values.mean(axis=tuple(range(1, d + 1)), keepdims=True)
    p = _oracle([k * s / grounded for k in kaps])

    dec = hodge.hodge_decompose(b)
    _close(dec.c.values, p)
    _close(upper(dec.F), _oracle([-1j * (kaps[j] * bh[i] - kaps[i] * bh[j]) / grounded
                                  for i, j in pairs]))
    _close(dec.mean_part, mean.reshape(d))
    _close(hodge.project("P", b).values, p)
    _close(hodge.project("Q", b).values, b.values - mean - p)

    dec = hodge.inhomogeneous_decompose(b, q)
    _close(dec.c.values, _oracle([bessel * (k * s + h) for k, h in zip(kaps, bh)]))
    _close(upper(dec.F), _oracle([-1j * bessel * (kaps[j] * bh[i] - kaps[i] * bh[j])
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
    for r in radii:
        _close(measures._ball_counts(torus._rfftn(mu.cell_mass), dist_sq, r),
               counts(mass_hat, r))
    want = max(counts(mass_hat, r).max() / r ** (grid.dim - 2) for r in radii)
    got = measures.ball_growth_test(mu).constant
    assert abs(got - want) <= 1e-13 * want

    rho = mu.density()
    eps = 0.5
    hat = np.fft.fftn(rho.values ** (1.0 + eps) * grid.cell_volume)
    want = max(counts(hat, r).max() * r ** (2.0 * (1.0 + eps) - grid.dim) for r in radii)
    got = measures.fefferman_phong_test(rho, eps).constant
    assert abs(got - want) <= 1e-13 * want

    ks = _ksq(_kaps(grid, nyquist=True))
    _close(measures._bessel_potential(rho),
           np.fft.ifftn(np.fft.fftn(rho.values) / np.sqrt(1.0 + ks)).real)


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
    kaps = torus._deriv_kappas(*torus._key(grid))[0]
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
    curl = torus.curl(v).values
    assert np.array_equal(np.stack([curl[i, j] for i, j in pairs]),
                          _back(np.stack([1j * (kaps[j] * vh[i] - kaps[i] * vh[j])
                                          for i, j in pairs]), d))
    rows = np.zeros((d,) + grid.shape, complex)
    for out, row in zip(rows, mh):
        for k, h in zip(kaps, row):
            out += 1j * k * h
    assert np.array_equal(torus.mat_div(m).values, _back(rows, d))
    assert np.array_equal(torus.bessel_inv(m).values,
                          _back(mh * torus._bessel_inv_symbol(*torus._key(grid)), d))

    dk, ks, _ = torus._deriv_kappas(*torus._key(grid))
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
    real = hodge.hodge_decompose(_as(grid, v))
    cast = hodge.hodge_decompose(_as(grid, v.astype(complex)))
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
