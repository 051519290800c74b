from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from scipy.linalg import svdvals

from formbound import formnorm, presets, torus
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


def _dense_compression(grid, A, b, q, flavor):
    """S L S as an explicit matrix on the samples, with the Nyquist-free
    derivative."""
    sp = torus._Spectral(grid, False)
    kaps, ks = sp.kappas, sp.ksq
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
    return S @ L @ S


def _dense_top_singular(grid, A, b, q, flavor):
    """The top singular value of the explicit S L S."""
    return float(svdvals(_dense_compression(grid, A, b, q, flavor))[0])


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
        def run(values, *args, **kwargs):
            nonlocal count
            count += values.shape[0] if values.ndim > b.grid.dim else 1
            return transform(values, *args, **kwargs)
        return run

    def one_matvec(apply_op, start):
        monkeypatch.setattr(torus, "_sfft", SimpleNamespace(**{
            name: counted(getattr(scipy.fft, name))
            for name in ("fftn", "ifftn", "rfftn", "irfftn")}))
        apply_op(start[0])
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
    # a near-degenerate top pair (0.4497928, 0.4497830): the value is the
    # top singular value of the dense S L S, 0.4497928498989 (the dense
    # oracle below, computed once), to the Lanczos tolerance and from
    # below, and the witness pair attains it in the form against Dirichlet
    # norms, with the operator's own derivative (Nyquist-free)
    g = Grid(3, 16, 1.0)
    b = presets.make_field("vortex", g)
    est = form_norm(None, b, None)
    top = 0.4497928498989
    assert top * (1.0 - 1e-8) <= est.value <= top * (1.0 + 1e-12)
    u, v = est.witness
    assert u.grid == g and v.grid == g
    uhat = np.fft.fftn(u.values)
    lu = ScalarField(g, sum(b[i].values * np.fft.ifftn(1j * k * uhat)
                            for i, k in enumerate(torus._Spectral(g, False).kappas)))
    attained = abs(l2_inner(lu, v)) / (dirichlet_norm(u) * dirichlet_norm(v))
    assert abs(attained - est.value) <= 1e-10 * est.value


def test_every_seed_converges_to_one_value():
    # the seeded start decides neither the value nor, beyond a few
    # restarts, the work
    g = Grid(2, 16, 1.0)
    b = presets.make_field("gradient", g)
    runs = [form_norm(None, b, None, seed=seed) for seed in range(4)]
    for est in runs:
        assert est.iterations <= 60
        assert abs(est.value - runs[0].value) <= 1e-10 * runs[0].value


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_real_field_stored_as_complex_gives_same_norm(flavor):
    # real coefficients run on half spectra, complex ones on the full
    # spectrum: the two paths compress the same operator
    g = Grid(3, 16, 1.0)
    b = presets.make_field("vortex", g)
    q = ScalarField(g, 3.0 * np.cos(2 * np.pi * g.coordinates()[0]) + np.zeros(g.shape))
    real = form_norm(None, b, q, flavor=flavor)
    stored = form_norm(None, VectorField.from_array(g, b.values.astype(complex)),
                       ScalarField(g, q.values.astype(complex)), flavor=flavor)
    assert abs(stored.value - real.value) <= 1e-10 * real.value
    assert real.witness[0].is_real and not stored.witness[0].is_real


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
    # the Krylov space of an operator that maps its start vector to zero
    # is invariant at once
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


def _restricted_trace_oracle(mu, cells, flavor):
    """C(mu|_Q) by eigvalsh of D G D between the flat ``cells`` of Q, with
    D = diag sqrt(rho) and G = S^2 applied by numpy.fft to unit cells."""
    g = mu.grid
    sp = torus._Spectral(g, False)
    sym = sp.bessel_half if flavor == "inhomogeneous" else sp.riesz_half
    cols = []
    for i in cells:
        e = np.zeros(g.shape)
        e.flat[i] = 1.0
        cols.append(np.fft.ifftn(np.fft.fftn(e) * sym**2).real.reshape(-1)[cells])
    root = np.sqrt(mu.cell_mass.reshape(-1)[cells] / g.cell_volume)
    return float(np.linalg.eigvalsh(root[:, None] * np.array(cols).T * root)[-1])


def _restricted(mu, mask):
    return DiscreteMeasure(mu.grid, mu.cell_mass * mask)


def test_trace_mask_is_contractive():
    # the measure restricted to a cube weighs less, and a cube where the
    # measure vanishes gives 0 without an application
    g = Grid(3, 16, 1.0)
    mu = presets.make_measure("bump", g)
    full = trace_constant(mu)
    mask = np.zeros(g.shape, bool)
    mask[:8] = True
    local = trace_constant(_restricted(mu, mask))
    assert 0.0 < local.value <= full.value + 1e-12
    # the point mass sits in the centre cell (8, 8, 8)
    point = presets.make_measure("point_mass", g)
    empty = trace_constant(_restricted(point, g.cube((0, 0, 0), 8)))
    assert (empty.value, empty.iterations) == (0.0, 0)


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("dim, n, corner, side", [(2, 16, (13, 2), 5),
                                                   (3, 8, (6, 0, 7), 3)])
def test_restricted_trace_matches_dense_oracle(dim, n, corner, side, flavor):
    # C(mu|_Q) is the top eigenvalue of D G D on the cells of Q, a cube
    # here that wraps around the torus
    g = Grid(dim, n, 1.0)
    mu = presets.make_measure("random_density", g, seed=5)
    mask = g.cube(corner, side)
    est = trace_constant(_restricted(mu, mask), flavor)
    want = _restricted_trace_oracle(mu, np.flatnonzero(mask), flavor)
    assert abs(est.value - want) <= 1e-12 * want


def test_low_rank_trace_is_reproducible():
    # a point mass leaves a rank-one operator, whose Krylov space goes
    # invariant after two vectors
    g = Grid(2, 32, 1.0)
    mu = presets.make_measure("point_mass", g)
    first = trace_constant(mu)
    assert first.value > 0.0
    for _ in range(40):
        est = trace_constant(mu)
        assert (est.value, est.iterations, est.residual) == \
            (first.value, first.iterations, first.residual)
        assert np.array_equal(est.witness.values, first.witness.values)


@pytest.mark.parametrize("cells", [1, 3, 4, 5, 6])
def test_small_mask_trace(cells):
    # a measure on at most _NCV cells leaves an operator of that rank; the
    # full-grid start has a component in its null space too, so the Krylov
    # space goes invariant one vector later, and the residual's matvec
    # makes cells + 2; one more cell needs a restart
    g = Grid(2, 32, 1.0)
    mu = presets.make_measure("bump", g)
    flat = [0, 33, 66, 99, 132, 165][:cells]
    mask = np.zeros(g.shape, bool)
    mask.flat[flat] = True
    est = trace_constant(_restricted(mu, mask))
    assert est.residual <= formnorm._TOL
    if cells <= formnorm._NCV:
        assert est.iterations <= cells + 2
    want = _restricted_trace_oracle(mu, flat, "homogeneous")
    assert abs(est.value - want) <= 1e-12 * want


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


_KINDS = ("none", "real", "complex")
_HALF_CASES = [(2, A, drift, q) for A in _KINDS for drift in ("none", "one", "all")
               for q in _KINDS]
_HALF_CASES += [(3, "real", "all", "complex"), (3, "none", "one", "real"),
                (3, "complex", "none", "none"), (3, "none", "all", "none")]


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
@pytest.mark.parametrize("dim, a_kind, drift, q_kind", _HALF_CASES)
def test_planned_halves_match_dense_operator(dim, a_kind, drift, q_kind, flavor):
    # the forward half is S L S term by term, and the conjugate half is
    # its adjoint: <R x, y> = <x, R* y> on the samples.
    # A and q are absent, real or complex; the drift is absent, on axis 0
    # alone (the others identically zero) or on every axis
    g = Grid(dim, 8, 1.0)
    white = {"real": _white(g, 3), "complex": _white(g, 4, True)}
    A = None if a_kind == "none" else white[a_kind][0]
    q = None if q_kind == "none" else white[q_kind][2]
    b_kind = "complex" if "complex" in (a_kind, q_kind) else "real"
    b = None if drift == "none" else white[b_kind][1]
    if drift == "one":
        b = VectorField.from_array(g, np.concatenate([b.values[:1], 0.0 * b.values[1:]]))
    op = formnorm._Operator(g, *(None if f is None else f.values for f in (A, b, q)), flavor)
    # real coefficients run on the half spectra of real samples
    assert op.sp.real == (b_kind == "real" and q_kind != "complex" and a_kind != "complex")
    rng = np.random.default_rng(5)
    x, y = (rng.standard_normal(g.shape) + (0.0 if op.sp.real else 1j) * rng.standard_normal(g.shape)
            for _ in range(2))
    spectrum = np.fft.rfftn if op.sp.real else np.fft.fftn
    rx = op.sp.inverse(op.compressed(spectrum(x), False, np.empty(op.shape, complex)))
    want = _dense_compression(g, A, b, q, flavor) @ x.reshape(-1)
    assert np.linalg.norm(rx.reshape(-1) - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)
    y_hat = spectrum(y)
    ry_hat = op.compressed(y_hat.copy(), True, np.empty_like(y_hat))
    # the complex inverse transforms its input in place
    ry = op.sp.inverse(ry_hat.copy())
    assert abs(np.vdot(y, rx) - np.vdot(ry, x)) <= \
        1e-12 * np.linalg.norm(rx) * np.linalg.norm(y) + 1e-300
    # the conjugate half may write over its input
    assert np.array_equal(op.compressed(y_hat, True, y_hat), ry_hat)


def _forced_coarse_runs(monkeypatch, A, b, q, flavor):
    """form_norm with the coarse start forced at the coefficients' grid,
    and the (value, start) of each Lanczos run it made, the coarse one
    first."""
    runs = []
    top = formnorm._top_eigenpair

    def spy(apply_op, start):
        vec = start[0].copy()  # the run takes the start out of its list
        out = top(apply_op, start)
        runs.append((out[0], vec))
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
    op = formnorm._Operator(g, A.values, b.values, q.values, flavor)
    # the unknowns of a real operator: half spectra with Parseval's weights
    hats = op.spectrum(start)
    band = _band(g)[..., :op.shape[-1]]
    assert op.sp.real and not hats[~band].any()
    rx = op.compressed(hats, False, np.empty_like(hats))
    quotient = np.sum(np.abs((rx * op.weight)[band]) ** 2) / np.sum(np.abs(hats * op.weight) ** 2)
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
    # a zero coarse value leaves the seeded random start, on the unknowns
    # of the real half spectrum
    assert np.array_equal(runs[1][1], formnorm._start_vector(2 * 32 * (32 // 2 + 1), 0))


@pytest.mark.parametrize("flavor, value", [("homogeneous", 0.6543730991677575),
                                           ("inhomogeneous", 0.6488823389481775)])
def test_vortex_64_coarse_start(flavor, value):
    # the top value the random start reaches too, to round-off
    g = Grid(3, 64, 1.0)
    est = form_norm(None, presets.make_field("vortex", g), None, flavor=flavor)
    assert est.coarse_iterations > 0
    assert abs(est.value - value) <= 1e-7 * value
    small = form_norm(None, presets.make_field("vortex", Grid(3, 32, 1.0)), None)
    assert small.coarse_iterations == 0
