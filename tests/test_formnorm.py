from collections import Counter

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import svdvals

from formbound import formnorm, presets
from formbound.formnorm import (
    ConvergenceError,
    form_norm,
    nonlinear_form_constant,
    trace_constant,
)
from formbound.measures import DiscreteMeasure
from formbound.torus import (
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    dirichlet_norm,
    kappa_axes,
    kappa_sq,
    l2_inner,
)
from formbound.verdict import _form_record


def _dense_operator(grid, apply_fn):
    n = grid.npoints
    M = np.zeros((n, n), dtype=complex)
    for k in range(n):
        e = np.zeros(n, dtype=complex)
        e[k] = 1.0
        M[:, k] = apply_fn(e.reshape(grid.shape)).reshape(-1)
    return M


def _dense_top_singular(grid, A, b, q, flavor):
    """Assemble S L S as an explicit matrix and take its top singular value."""
    kaps = kappa_axes(grid)
    ks = kappa_sq(grid)
    d = grid.dim
    D = [
        _dense_operator(grid, lambda f, j=j: np.fft.ifftn(1j * kaps[j] * np.fft.fftn(f)))
        for j in range(d)
    ]
    L = np.zeros((grid.npoints, grid.npoints), dtype=complex)
    if A is not None:
        for i in range(d):
            for j in range(d):
                L += D[i] @ np.diag(A.entries[i][j].values.reshape(-1)) @ D[j]
    if b is not None:
        for j in range(d):
            L += np.diag(b.components[j].values.reshape(-1)) @ D[j]
    if q is not None:
        L += np.diag(q.values.reshape(-1))
    if flavor == "inhomogeneous":
        symv = 1.0 / np.sqrt(1.0 + ks)
    else:
        symv = np.where(ks > 0, 1.0 / np.sqrt(np.where(ks > 0, ks, 1.0)), 0.0)
    S = _dense_operator(grid, lambda f: np.fft.ifftn(symv * np.fft.fftn(f)))
    return float(svdvals(S @ L @ S)[0])


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_form_norm_matches_dense_svd(flavor):
    g = Grid(2, 8, 1.0)
    b = presets.make_field("random", g, seed=3)
    q = ScalarField(g, np.random.default_rng(11).standard_normal(g.shape))
    # complex coefficients: the real view of the Fourier coefficients
    # must still give the top singular value
    bc = b + 1j * presets.make_field("random", g, seed=5)
    qc = ScalarField(g, q.values + 1j * np.random.default_rng(13).standard_normal(g.shape))
    for bb, qq in ((b, q), (bc, qc)):
        want = _dense_top_singular(g, None, bb, qq, flavor)
        est = form_norm(None, bb, qq, flavor=flavor)
        assert abs(est.value - want) <= 1e-8 * want


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_form_norm_sparse_drift_matches_dense_svd(flavor):
    # identically zero components are skipped; one nonzero cell, or a
    # component of zero mean, must keep its component
    g = Grid(3, 8, 1.0)
    full = presets.make_field("random", g, seed=3)
    planar = VectorField((full[0], full[1], ScalarField(g, np.zeros(g.shape))))
    one_cell = planar.copy()
    one_cell[2].values[3, 5, 6] = 1.5
    zero_mean = planar.copy()
    zero_mean[2].values[3, 5, 6] = 1.5
    zero_mean[2].values[6, 1, 2] = -1.5
    for b in (planar, one_cell, zero_mean):
        want = _dense_top_singular(g, None, b, None, flavor)
        est = form_norm(None, b, None, flavor=flavor)
        assert abs(est.value - want) <= 1e-8 * want


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_zero_potential_is_no_potential(flavor):
    g = Grid(3, 8, 1.0)
    b = presets.make_field("vortex", g)
    zero = ScalarField(g, np.zeros(g.shape))
    with_zero = form_norm(None, b, zero, flavor=flavor)
    without = form_norm(None, b, None, flavor=flavor)
    assert (with_zero.value, with_zero.iterations, with_zero.residual) == \
        (without.value, without.iterations, without.residual)
    for got, want in zip(with_zero.witness, without.witness):
        assert np.array_equal(got.values, want.values)


class _OneMatvec(Exception):
    pass


def _transform_volume(monkeypatch, b, q):
    """Component transforms (leading batch sizes) of one R*R application."""
    count = 0

    def counted(transform):
        def run(values, dim=None, overwrite=False):
            nonlocal count
            count += values.shape[0] if values.ndim > b.grid.dim else 1
            return transform(values, dim, overwrite)
        return run

    def one_matvec(apply_op, start, seed):
        monkeypatch.setattr(formnorm, "_fftn", counted(formnorm._fftn))
        monkeypatch.setattr(formnorm, "_ifftn", counted(formnorm._ifftn))
        apply_op(start)
        raise _OneMatvec

    monkeypatch.setattr(formnorm, "_top_eigenpair", one_matvec)
    with pytest.raises(_OneMatvec):
        form_norm(None, b, q)
    monkeypatch.undo()
    return count


@pytest.mark.parametrize("name, volume", [
    ("vortex", 6), ("stream", 6), ("coulomb_gauge", 6),
    ("gradient", 4), ("log_stream", 4), ("random", 8),
])
def test_form_matvec_skips_zero_components(name, volume, monkeypatch):
    g = Grid(3, 8, 1.0)
    b = presets.make_field(name, g)
    zero = ScalarField(g, np.zeros(g.shape))
    assert _transform_volume(monkeypatch, b, None) == volume
    assert _transform_volume(monkeypatch, b, zero) == volume


def test_zero_operator_makes_no_transform(monkeypatch):
    g = Grid(3, 8, 1.0)
    zero = ScalarField(g, np.zeros(g.shape))
    b = VectorField((zero, zero, zero))
    assert _transform_volume(monkeypatch, b, zero) == 0


def test_form_norm_with_principal_matches_dense_svd():
    g = Grid(2, 8, 1.0)
    one = ScalarField(g, np.ones(g.shape))
    zero = ScalarField(g, np.zeros(g.shape))
    wave = 2 * np.pi * np.arange(8) / 8
    off = ScalarField(g, 0.3 * np.sin(wave)[:, None] * np.ones(g.shape))
    off_c = ScalarField(g, off.values + 0.2j * np.cos(wave)[None, :])
    b = presets.make_field("random", g, seed=3)
    q = ScalarField(g, np.random.default_rng(11).standard_normal(g.shape))
    for upper in (off, off_c):
        A = MatrixField(((one, upper), (zero, one)))
        want = _dense_top_singular(g, A, b, q, "homogeneous")
        est = form_norm(A, b, q)
        assert abs(est.value - want) <= 1e-8 * want


def test_constant_potential_closed_form():
    # q = alpha against the Dirichlet norm compresses to alpha/kappa^2,
    # maximized at the lowest nonzero mode
    g = Grid(3, 16, 1.0)
    alpha = 2.25
    q = ScalarField(g, np.full(g.shape, alpha))
    est = form_norm(None, None, q)
    want = alpha / (4.0 * np.pi**2)
    assert abs(est.value - want) <= 1e-6 * want
    mu = presets.make_measure("lebesgue", g).scaled(alpha)
    tr = trace_constant(mu)
    assert abs(tr.value - want) <= 1e-6 * want


def test_constant_potential_inhomogeneous_unit():
    # the Bessel compression of q = 1 is the identity on the zero mode
    g = Grid(3, 16, 1.0)
    q = ScalarField(g, np.ones(g.shape))
    est = form_norm(None, None, q, flavor="inhomogeneous")
    assert abs(est.value - 1.0) <= 1e-8


def test_constant_drift_lattice_maximum():
    g = Grid(3, 16, 1.0)
    bc = (1.0, 2.0, 0.5)
    b = VectorField(tuple(ScalarField(g, np.full(g.shape, v)) for v in bc))
    est = form_norm(None, b, None)
    ints = np.fft.fftfreq(16, 1.0 / 16)
    best = 0.0
    for kx in ints:
        for ky in ints:
            for kz in ints:
                k2 = kx * kx + ky * ky + kz * kz
                if k2 == 0.0:
                    continue
                best = max(best, abs(bc[0] * kx + bc[1] * ky + bc[2] * kz) / (2 * np.pi * k2))
    assert abs(est.value - best) <= 1e-8 * best
    assert abs(best - 1.0 / np.pi) <= 1e-12


def test_drift_sign_invariance():
    g = Grid(2, 8, 1.0)
    b = presets.make_field("random", g, seed=3)
    plus = form_norm(None, b, None).value
    minus = form_norm(None, -1.0 * b, None).value
    assert plus == minus


def test_vortex_value_and_witness():
    # a near-degenerate top pair (0.449859, 0.449845): the value may not
    # fall below 0.449852275005, a Rayleigh quotient power iteration
    # reached, and the witness pair attains it in the form against
    # Dirichlet norms, with the operator's own derivative (Nyquist kept)
    g = Grid(3, 16, 1.0)
    b = presets.make_field("vortex", g)
    est = form_norm(None, b, None)
    assert est.value >= 0.449852275005
    assert abs(est.value - 0.449852275005) <= 1e-4 * est.value
    u, v = est.witness
    assert u.grid == g and v.grid == g
    uhat = np.fft.fftn(u.values)
    lu = ScalarField(g, sum(b[i].values * np.fft.ifftn(1j * k * uhat)
                            for i, k in enumerate(kappa_axes(g))))
    attained = abs(l2_inner(lu, v)) / (dirichlet_norm(u) * dirichlet_norm(v))
    assert abs(attained - est.value) <= 1e-10 * est.value


def test_convergence_error_reports_progress(monkeypatch):
    g = Grid(3, 16, 1.0)
    b = presets.make_field("vortex", g)
    monkeypatch.setattr(formnorm, "_MAX_RESTARTS", 2)
    with pytest.raises(ConvergenceError, match=r"after 2 restarts \(\d+ matvecs\)"):
        form_norm(None, b, None)
    rec = _form_record("form_norm", lambda: form_norm(None, b, None))
    assert not rec.passed and np.isnan(rec.constant)
    assert rec.note.startswith("did not converge: Lanczos")


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_zero_operator_norm_is_zero(flavor):
    # ARPACK rejects an operator that maps its start vector to zero
    g = Grid(3, 8, 1.0)
    zero = ScalarField(g, np.zeros(g.shape))
    est = form_norm(None, None, zero, flavor=flavor)
    assert est.value == 0.0 and est.residual == 0.0


def test_nonlinear_scaling_exact():
    g = Grid(3, 8, 1.0)
    b = presets.make_field("vortex", g)
    big1, small1, ok1 = nonlinear_form_constant(b, restarts=3, steps=60, seed=0)
    big2, small2, ok2 = nonlinear_form_constant(2.0 * b, restarts=3, steps=60, seed=0)
    assert ok1 and ok2
    assert big1.value > 0.0
    assert abs(big2.value - 2.0 * big1.value) <= 1e-8 * big2.value
    assert abs(small2.value - 2.0 * small1.value) <= 1e-8 * small2.value


_FFT_NAMES = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft")


def _ascent_runs(monkeypatch, step_counts):
    """(value, transform calls) of a one-restart 8^3 vortex ascent per step count."""
    calls = Counter()
    for name in _FFT_NAMES:
        def counted(*args, _fn=getattr(scipy.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(scipy.fft, name, counted)
    b = presets.make_field("vortex", Grid(3, 8, 1.0))
    runs = []
    for steps in step_counts:
        calls.clear()
        big, _, _ = nonlinear_form_constant(b, restarts=1, steps=steps)
        assert big.iterations == steps
        runs.append((big.value, dict(calls)))
    return runs


def _step_calls(before, after):
    return {name: after.get(name, 0) - before.get(name, 0) for name in _FFT_NAMES}


def test_ascent_step_makes_four_real_transforms(monkeypatch):
    # a step after an accepted trial is the difference between two steps
    # and one: the flux spectra, one inverse pair, the preconditioned
    # gradient and the trial
    (v0, _), (v1, calls1), (v2, calls2) = _ascent_runs(monkeypatch, (0, 1, 2))
    assert v1 > v0  # the first trial is accepted
    assert _step_calls(calls1, calls2) == (
        dict.fromkeys(_FFT_NAMES, 0) | {"rfftn": 2, "irfftn": 2})


def test_ascent_step_after_rejected_trial_makes_one_transform(monkeypatch):
    # a rejected trial keeps the state, so the next step reuses its
    # direction and transforms only its own trial
    (v3, _), (v4, calls4), (_, calls5) = _ascent_runs(monkeypatch, (3, 4, 5))
    assert v4 == v3  # the fourth trial is rejected
    assert _step_calls(calls4, calls5) == dict.fromkeys(_FFT_NAMES, 0) | {"irfftn": 1}


@pytest.mark.parametrize("name, value", [
    ("vortex", 0.42472637599258334),
    ("gradient", 0.6451357914555242),
    ("random", 0.04874572703194601),
])
def test_nonlinear_constant_pinned(name, value, monkeypatch):
    # values of the complex full-spectrum ascent, which the real
    # half-spectrum one reproduces up to rounding; one worker, since a
    # second slows 16^3 transforms and the thread check covers the bits
    monkeypatch.setenv("FORMBOUND_THREADS", "1")
    b = presets.make_field(name, Grid(3, 16, 1.0), seed=0)
    big, _, ok = nonlinear_form_constant(b, seed=0)
    assert ok
    assert abs(big.value - value) <= 1e-9 * value


def test_nonlinear_zero_drift():
    g = Grid(3, 8, 1.0)
    zero = VectorField(tuple(ScalarField(g, np.zeros(g.shape)) for _ in range(3)))
    big, small, ok = nonlinear_form_constant(zero)
    assert big.value == 0.0 and small.value == 0.0 and ok


def test_nonlinear_rejects_complex_drift():
    # the ascent runs on real u; dropping the imaginary part of b would
    # certify a drift that form_norm measures at 0.45
    g = Grid(3, 8, 1.0)
    b = presets.make_field("vortex", g)
    with pytest.raises(ValueError, match="needs a real drift"):
        nonlinear_form_constant(1j * b, restarts=1, steps=1)


def test_trace_mask_is_contractive():
    g = Grid(3, 16, 1.0)
    mu = presets.make_measure("bump", g)
    full = trace_constant(mu)
    mask = np.zeros(g.shape, bool)
    mask[:8] = True
    masked = trace_constant(mu, mask=mask)
    assert 0.0 < masked.value <= full.value + 1e-12
    empty = trace_constant(mu, mask=np.zeros(g.shape, bool))
    assert empty.value == 0.0


def test_low_rank_trace_is_reproducible():
    # a point mass leaves a rank-one operator, whose Krylov space goes
    # invariant and makes ARPACK draw a fresh vector from its generator
    g = Grid(2, 32, 1.0)
    mu = presets.make_measure("point_mass", g)
    first = trace_constant(mu)
    assert first.value > 0.0
    for _ in range(40):
        est = trace_constant(mu)
        assert (est.value, est.iterations, est.residual) == \
            (first.value, first.iterations, first.residual)
        assert np.array_equal(est.witness.values, first.witness.values)


@pytest.mark.parametrize("cells", [1, 3, 4])
def test_small_mask_trace(cells, monkeypatch):
    # masks of at most ncv cells are solved densely
    g = Grid(2, 32, 1.0)
    mu = presets.make_measure("bump", g)
    mask = np.zeros(g.shape, bool)
    mask.flat[[0, 33, 66, 99][:cells]] = True
    dense = trace_constant(mu, mask=mask)
    assert dense.iterations == cells + 1 and dense.residual <= 1e-10
    # the top eigenvalue is at least the diagonal entry of S rho S at
    # cell 0, and equals it on one cell
    e0 = np.zeros(g.shape)
    e0.flat[0] = 1.0
    s = np.fft.ifftn(np.fft.fftn(e0) * formnorm._sqrt_inv_symbol(g, "homogeneous")).real
    diag = float(np.sum(mu.cell_mass / g.cell_volume * s**2))
    assert dense.value >= diag * (1.0 - 1e-12)
    if cells == 1:
        assert abs(dense.value - diag) <= 1e-12 * diag
    else:
        # a smaller basis sends the same problem through ARPACK
        monkeypatch.setattr(formnorm, "_NCV", cells - 1)
        lanczos = trace_constant(mu, mask=mask)
        assert abs(lanczos.value - dense.value) <= 1e-8 * dense.value


def test_trace_rejects_mask_of_wrong_shape():
    g = Grid(3, 16, 1.0)
    mu = presets.make_measure("bump", g)
    for shape in ((16, 16), (17, 16, 16), (16, 16, 16, 1)):
        with pytest.raises(ValueError, match="mask shape"):
            trace_constant(mu, mask=np.ones(shape, bool))


def test_zero_measure_trace():
    g = Grid(2, 16, 1.0)
    mu = DiscreteMeasure(g, np.zeros(g.shape))
    assert trace_constant(mu).value == 0.0


def test_flavor_and_empty_validation():
    g = Grid(2, 8, 1.0)
    b = presets.make_field("random", g, seed=0)
    with pytest.raises(ValueError):
        form_norm(None, b, None, flavor="riesz")
    with pytest.raises(ValueError):
        form_norm(None, None, None)


def _white(g, seed, complex_=False):
    """White-noise (A, b, q): every coefficient mode is present."""
    rng = np.random.default_rng(seed)

    def draw(lead):
        vals = rng.standard_normal(lead + g.shape)
        return vals + 1j * rng.standard_normal(lead + g.shape) if complex_ else vals

    d = g.dim
    A = MatrixField.from_array(g, np.eye(d)[(...,) + (None,) * d] + 0.2 * draw((d, d)))
    return A, VectorField.from_array(g, draw((d,))), ScalarField(g, draw(()))


def _band(g):
    """The fine modes |k_i| < N/8 on every axis."""
    n = g.points_per_axis
    inside = np.abs(np.fft.fftfreq(n, 1.0 / n)) < n // 8
    band = np.ones(g.shape, bool)
    for axis in range(g.dim):
        band &= inside.reshape([n if a == axis else 1 for a in range(g.dim)])
    return band


def _forced_coarse_runs(monkeypatch, A, b, q, flavor):
    """form_norm with the coarse start forced at the coefficients' grid,
    and the (value, start) of each Lanczos run it made, the coarse one
    first."""
    runs = []
    top = formnorm._top_eigenpair

    def spy(apply_op, start, seed):
        out = top(apply_op, start, seed)
        runs.append((out[0], start.copy()))
        return out

    monkeypatch.setattr(formnorm, "_COARSE_FROM", b.grid.points_per_axis)
    monkeypatch.setattr(formnorm, "_top_eigenpair", spy)
    est = form_norm(A, b, q, flavor=flavor)
    monkeypatch.undo()
    return est, runs


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("dim, n", [(3, 16), (2, 32)])
def test_coarse_start_is_galerkin_projection(dim, n, flavor, monkeypatch):
    # the coarse problem is P R P for P the projection onto |k_i| < N/8:
    # its value does not see a one-cell shift of the coefficients (which
    # flips the coarse grid's parity), and the lifted start attains it as
    # the quotient <x, R* P R x> of the fine operator
    g = Grid(dim, n, 1.0)
    A, b, q = _white(g, 7)
    est, runs = _forced_coarse_runs(monkeypatch, A, b, q, flavor)
    (coarse, _), (_, start) = runs
    assert est.coarse_iterations > 0 and coarse > 0.0
    for axis in range(dim):
        rolled = [type(f).from_array(g, np.roll(f.values, 1, axis=f.values.ndim - dim + axis))
                  for f in (A, b, q)]
        _, (shifted, _) = _forced_coarse_runs(monkeypatch, *rolled, flavor)
        assert abs(shifted[0] - coarse) <= 1e-12 * coarse
    hats = start.view(np.complex128).reshape(g.shape)
    assert not hats[~_band(g)].any()
    op = formnorm._Operator(g, A, b, q)
    rx = op.compressed(hats, formnorm._sqrt_inv_symbol(g, flavor), False, np.empty_like(hats))
    quotient = np.sum(np.abs(rx[_band(g)]) ** 2) / np.sum(np.abs(hats) ** 2)
    assert abs(quotient - coarse) <= 1e-10 * coarse
    assert est.value**2 >= coarse * (1.0 - 1e-12)


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_coarse_start_matches_dense_svd(flavor, monkeypatch):
    g = Grid(2, 32, 1.0)
    for complex_ in (False, True):
        A, b, q = _white(g, 5, complex_)
        want = _dense_top_singular(g, A, b, q, flavor)
        est, _ = _forced_coarse_runs(monkeypatch, A, b, q, flavor)
        assert est.coarse_iterations > 0
        assert abs(est.value - want) <= 1e-8 * want
    # drifts without modes |k_i| < N/4 leave the coarse operator zero: up
    # to round-off for a high-pass field, exactly for one that alternates
    # in sign along x, whose R*R keeps every field mode's k_x, so a start
    # inside the band could not reach a top pair outside it
    hat = np.fft.fftn(_white(g, 9)[1].values, axes=(1, 2))
    k = np.abs(np.fft.fftfreq(32, 1.0 / 32))
    hat[(slice(None),) + np.ix_(k < 8, k < 8)] = 0.0
    high = VectorField.from_array(g, np.fft.ifftn(hat, axes=(1, 2)).real)
    sign = (-1.0) ** np.arange(32)[:, None] * np.random.default_rng(3).standard_normal(32)
    alternating = VectorField((ScalarField(g, sign), ScalarField(g, np.zeros(g.shape))))
    for b, coarse in ((high, 1e-20), (alternating, 0.0)):
        want = _dense_top_singular(g, None, b, None, flavor)
        est, runs = _forced_coarse_runs(monkeypatch, None, b, None, flavor)
        assert runs[0][0] <= coarse * want**2
        assert abs(est.value - want) <= 1e-8 * want
    # a zero coarse value leaves the seeded random start
    assert np.array_equal(runs[1][1], formnorm._start_vector(2 * g.npoints, 0))


@pytest.mark.parametrize("flavor, value", [("homogeneous", 0.6543775925992683),
                                           ("inhomogeneous", 0.6488869532702985)])
def test_vortex_64_coarse_start(flavor, value):
    # the top value the random start reaches; the lower member of the
    # near-degenerate pair, 0.6543770, is 9e-7 below it
    g = Grid(3, 64, 1.0)
    est = form_norm(None, presets.make_field("vortex", g), None, flavor=flavor)
    assert est.coarse_iterations > 0
    assert abs(est.value - value) <= 1e-7 * value
    small = form_norm(None, presets.make_field("vortex", Grid(3, 32, 1.0)), None)
    assert small.coarse_iterations == 0
