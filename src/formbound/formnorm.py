"""Best constants in the quadratic and bilinear inequalities, measured
directly on the grid.

Everything here reduces to the operator norm of a compressed operator
S M S, where S is the square-root inverse of -Lap (homogeneous flavor,
acting on zero-mean fields) or of 1 - Lap (inhomogeneous), and M is a
matrix-free realization of the object under test:

* trace_constant:   M = multiplication by the measure's density
* form_norm:        M = L = div(A grad .) + b.grad + q

Each norm is the top eigenvalue of a Hermitian positive semidefinite
operator (the compression itself, or R*R for a non-Hermitian R), found
by one thick-restart Lanczos run (``_lanczos``) with fixed settings and
a seeded start, on real vectors: a basis of five, the top two Ritz
vectors kept at each restart, ARPACK's stopping rule, and every
reduction a numpy one, so no BLAS pool moves a digit.  Both
run on one operator: a trace is the form operator with q = rho, applied
once (S rho S is symmetric), a form norm is R*R.  It differentiates with
the Nyquist-free wavenumbers of its core, as the rest of the package
does.  Every transform and every symbol here comes from a
``torus._Spectral`` core: the operator holds the core of its grid and
path and takes S from it, and its witnesses, the coarse restriction and
the nonlinear ascent transform through it or through a core of their
own.  Real or absent coefficients run the operator on the real path,
the half spectra of real fields, about N real unknowns (see
``_Operator``).  Complex coefficients take the
complex path and act on N complex Fourier coefficients, read as 2N real
unknowns: for Hermitian H that real-linear map is symmetric, has the
spectrum of H with every eigenvalue doubled, and its real Rayleigh
quotient equals <z, Hz>.  A real field stored as complex gives the same
value through either path.
The form operator plans each half, R = S L S and R* = S L* S, once when
it is built; a drift component or a potential that is identically zero
gets no term, so a planar drift in 3-D costs 6 component transforms per
R*R application instead of 8.
From 64 points per axis up, a form estimate starts from the top
eigenvector of the Galerkin projection P R P onto the modes |k_i| < N/8,
solved by the same solver on the N/2 grid and zero-padded; its
applications are counted in ``coarse_iterations``, not ``iterations``.
The reported value is the Rayleigh quotient of the returned unit
vector, so it bounds the norm from below.

The nonlinear constant of the pointwise inequality |b.grad u| |u|
against ||grad u||^2 is a nonconvex supremum; it is estimated from
below by preconditioned gradient ascent over several seeded restarts,
each from a band-limited draw (``torus._BandDraw``), on real half
spectra at four real transform calls per step, and
sandwiched against the trace route with the factor 2 sqrt(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, _check_flavor
from .torus import (
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    _BandDraw,
    _Spectral,
    _dot,
    _norm,
    shared_grid,
)

__all__ = [
    "ConvergenceError",
    "FormEstimate",
    "form_norm",
    "nonlinear_form_constant",
    "trace_constant",
]

# Lanczos settings: a basis of five vectors, of which each restart keeps
# the top two Ritz vectors (keeping one in a basis of four did not
# converge on the 16^3 vortex in 3000 matvecs), ARPACK's relative Ritz
# tolerance, and a cap on restarts, each of which costs
# _NCV - _KEEP = 3 matvecs.  The basis and the residual are one kept
# (_NCV + 1, n) array, so a run holds 6n doubles beside its operator.
_NCV = 5
_KEEP = 2
_TOL = 1e-8
_MAX_RESTARTS = 1000

# from this many points per axis up, a form-norm Lanczos starts from the
# top eigenvector of the coarse Galerkin problem; below it, from the
# seeded random vector
_COARSE_FROM = 64


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


@dataclass(frozen=True)
class FormEstimate:
    value: float
    iterations: int
    residual: float
    witness: object = None
    coarse_iterations: int = 0


def _start_vector(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


def _top_eigenpair(apply_op, start: list[np.ndarray]):
    """Top eigenpair of a real symmetric positive semidefinite operator,
    by thick-restart Lanczos from the start vector that the one-item list
    ``start`` holds; the run takes it out (see ``_lanczos``).

    Returns (value, unit vector, matvecs, relative eigen-residual).  The
    zero operator gives 0.0.
    """
    x, matvecs = _lanczos(apply_op, start)
    # the residual's matvec runs after the basis is freed
    x /= _norm(x)
    y = apply_op(x)
    value = _dot(x, y)
    return value, x, matvecs + 1, _norm(y - value * x) / max(value, 1e-300)


def _lanczos(apply_op, start: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """The top Ritz vector of thick-restart Lanczos (Wu and Simon, 2000)
    and the matvecs it took.

    The run takes the start vector out of the one-item list ``start``, so
    that once it is copied into the basis nothing holds it (callers keep
    no other reference).

    The rows of ``basis`` are the orthonormal Lanczos vectors, then the
    normalized residual; ``T`` is the operator projected onto the vectors.
    A restart keeps the top ``_KEEP`` Ritz vectors, whose block of ``T`` is
    diagonal with an arrow row coupling it to the residual, which becomes
    the next Lanczos vector.  After every matvec the top pair is tested
    by ARPACK's rule, |beta s_m| <= _TOL max(|theta|, eps^(2/3)), so an
    invariant Krylov space (beta = 0) is converged outright, and a problem
    on at most ``_NCV`` unknowns ends within that many matvecs.
    """
    vec = start.pop()
    basis = np.empty((_NCV + 1, vec.size))
    np.divide(vec, _norm(vec), out=basis[0])
    del vec
    T = np.zeros((_NCV, _NCV))
    floor = np.finfo(float).eps ** (2.0 / 3.0)
    kept = matvecs = 0
    for _ in range(_MAX_RESTARTS + 1):
        for j in range(kept, _NCV):
            w = apply_op(basis[j])
            matvecs += 1
            T[j, j], beta = _orthogonalize(w, basis[:j + 1])
            theta, s = np.linalg.eigh(T[:j + 1, :j + 1])
            if abs(beta * s[-1, -1]) <= _TOL * max(abs(theta[-1]), floor):
                return np.einsum("i,in->n", s[:, -1], basis[:j + 1]), matvecs
            if j + 1 < _NCV:
                T[j, j + 1] = T[j + 1, j] = beta
            np.divide(w, beta, out=basis[j + 1])
        basis[:_KEEP] = np.einsum("ik,in->kn", s[:, -_KEEP:], basis[:_NCV])
        basis[_KEEP] = basis[_NCV]
        T[...] = 0.0
        T[range(_KEEP), range(_KEEP)] = theta[-_KEEP:]
        T[_KEEP, :_KEEP] = T[:_KEEP, _KEEP] = beta * s[-1, -_KEEP:]
        kept = _KEEP
    raise ConvergenceError(
        f"Lanczos not within {_TOL:g} after {_MAX_RESTARTS} restarts ({matvecs} matvecs)"
    )


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> tuple[float, float]:
    """Classical Gram-Schmidt of ``w`` against the orthonormal rows of
    ``basis``, in place, with one DGKS correction pass when ||w|| drops
    below 0.717 of its value before the pass.  Returns w's coefficient on
    the last row and the norm left, 0.0 when w lies numerically in the
    span (the correction loses as much again)."""
    before = _norm(w)
    last = 0.0
    for _ in range(2):
        h = np.einsum("in,n->i", basis, w)
        w -= np.einsum("i,in->n", h, basis)
        last += h[-1]
        after = _norm(w)
        if after >= 0.717 * before:
            return last, after
        before = after
    return last, 0.0


def trace_constant(
    measure: DiscreteMeasure,
    flavor: str = "homogeneous",
    seed: int = 0,
) -> FormEstimate:
    """C(mu), the best C in  int |u|^2 dmu <= C ||u||^2  for the flavor's
    norm.

    Computed as the top eigenvalue of S rho S with rho the cell density of
    mu: the form operator with q = rho, applied once, on the unknowns of a
    real field's half spectrum.  A local trace is C(mu|_Q), the constant of
    the measure restricted to a cube Q (its cell masses times the cube's
    mask): the trial u ranges over the whole torus and only the mass in Q
    is weighed.  That is the paper's localization of the infinitesimal
    criterion (Maz'ya and Verbitsky, Invent. Math. 2005), and it is
    monotone in Q.
    """
    _check_flavor(flavor)
    grid = measure.grid
    if measure.total <= 0.0:
        return FormEstimate(0.0, 0, 0.0)
    op = _Operator(grid, None, None, measure.cell_mass / grid.cell_volume, flavor)
    value, vec, iters, residual = _top_eigenpair(op.apply, [_start_vector(op.size, seed)])
    witness = ScalarField(grid, op.sp.inverse(op.spectrum(vec) * op.sym))
    return FormEstimate(value, iters, residual, witness)


class _Operator:
    """Matrix-free R = S L S and R* = S L* S, each half planned once from
    the paper's terms:

        L u  = sum_i d_i(sum_j A_ij d_j u) + sum_i b_i d_i u + q u,
        L* v = sum_i d_i(sum_j conj(A_ji) d_j v) - sum_i d_i(conj(b_i) v) + conj(q) v,

    with d_i the Nyquist-free derivative of the core.  A plan's
    spatial rows each sum coefficient x source (an axis derivative of S u,
    or S u) and name the multiplier of their spectrum: i kappa_i for a
    flux, -i kappa_i for an adjoint drift term, None for the point row,
    which comes last.  Adding an exact 0 changes no value, so a zero drift
    component or potential gets no term.  S is the core's (-Lap)^(-1/2),
    zero mode dropped, or (1 - Lap)^(-1/2) for the inhomogeneous
    ``flavor``; with ``kmax`` it is kept on the modes |k_i| <= kmax only.

    With A, b and q real or absent, R maps real fields to real fields and
    the operator runs on the real path of its core ``sp``, on half
    spectra: a field's unknowns are its half spectrum times ``weight``,
    sqrt 2 on the interior columns of the last axis and 1 on its two
    self-conjugate columns (0 and n/2), so that their Euclidean inner
    product is Parseval's.  The anti-Hermitian parts of those two columns,
    which no real field has, lie in the null space: the inverse transform
    drops them.  Otherwise the unknowns are the real and imaginary parts of
    the full spectrum.
    """

    def __init__(self, grid: Grid, A: np.ndarray | None, b: np.ndarray | None,
                 q: np.ndarray | None, flavor: str, kmax: int | None = None):
        self.grid = grid
        self.A = A
        self.b = b
        self.q = None if q is None or not q.any() else q
        real = not any(np.iscomplexobj(c) for c in (A, b, q) if c is not None)
        self.sp = sp = _Spectral(grid, real)
        self.shape = sp.shape
        self.sym = sym = sp.bessel_half if flavor == "inhomogeneous" else sp.riesz_half
        if kmax is not None:
            self.sym = np.zeros(self.shape)
            self.sym[sp.band(kmax)] = sym[sp.band(kmax)]
        self.size = 2 * self.sym.size
        self.ikappa = ik = tuple(1j * k for k in sp.kappas)
        # the first and last multipliers of an application on the unknowns
        self.weight, self._into, self._back = 1.0, self.sym, self.sym
        if real:
            self.weight = np.full(self.shape[-1], np.sqrt(2.0))
            self.weight[[0, -1]] = 1.0
            self._into, self._back = self.sym / self.weight, self.sym * self.weight
        drift = [] if b is None else [i for i in range(grid.dim) if b[i].any()]
        # a term is (coefficient, source): the axis of a derivative of S u,
        # or None for S u itself
        potential = [] if self.q is None else [(self.q, None)]
        transposed = None if A is None else np.swapaxes(A, 0, 1)
        self._plans = (
            _plan(_fluxes(A, ik) + [([(b[i], i) for i in drift] + potential, None)]),
            _plan(_fluxes(transposed, ik) + [([(b[i], None)], -ik[i]) for i in drift]
                  + [(potential, None)]),
        )

    def spectrum(self, x: np.ndarray) -> np.ndarray:
        """The spectrum whose unknowns are ``x``."""
        return x.view(np.complex128).reshape(self.shape) / self.weight

    def compressed(self, hats, conjugate: bool, out: np.ndarray, into=None,
                   back=None) -> np.ndarray:
        """Write the spectrum of S L S u, or of S L* S u, into ``out``
        (which may be ``hats``) and return it; ``hats`` is that of u.
        ``into`` and ``back``, when given, stand in for the first and the
        last multiplication by S.

        One inverse transform of the sources the half reads, one forward
        transform of its rows.  Every product is written into a buffer,
        and every sum adds its terms left to right.
        """
        derivs, slots, rows = self._plans[conjugate]
        if not rows:
            out[...] = 0.0
            return out
        waves = np.empty((slots,) + self.shape, dtype=np.complex128)
        # S u goes into the last slot, which is read before it is overwritten
        np.multiply(hats, self.sym if into is None else into, out=waves[-1])
        for k, axis in enumerate(derivs):
            np.multiply(self.ikappa[axis], waves[-1], out=waves[k])
        waves = self.sp.inverse(waves)
        spatial = np.empty((len(rows),) + self.grid.shape, dtype=waves.dtype)
        term = np.empty(self.grid.shape, dtype=waves.dtype)
        for row, (terms, _) in zip(spatial, rows):
            _accumulate(row, [(_conj(c) if conjugate else c, waves[k]) for c, k in terms],
                        term)
        del waves, term
        hat = self.sp.forward(spatial, overwrite=True)
        pairs = [(m, h) for (_, m), h in zip(rows, hat) if m is not None]
        if not pairs:
            out[...] = hat[-1]
        else:
            _accumulate(out, pairs, np.empty_like(out))
            if rows[-1][1] is None:
                out += hat[-1]
        out *= self.sym if back is None else back
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """R x on the unknowns; symmetric when R is Hermitian."""
        hats = x.view(np.complex128).reshape(self.shape)
        rx = self.compressed(hats, False, np.empty_like(hats), self._into, self._back)
        return rx.reshape(-1).view(np.float64)

    def normal(self, x: np.ndarray) -> np.ndarray:
        """R*R x on the unknowns; the unnormalized transform scales the
        inner product uniformly, so adjoints and Rayleigh quotients are
        unaffected."""
        hats = x.view(np.complex128).reshape(self.shape)
        rx = self.compressed(hats, False, np.empty_like(hats), self._into)
        return self.compressed(rx, True, rx, back=self._back).reshape(-1).view(np.float64)


def _fluxes(M: np.ndarray | None, ikappa) -> list:
    """The rows d_i(sum_j M_ij d_j .) of a coefficient matrix; none without one."""
    if M is None:
        return []
    return [([(M[i][j], j) for j in range(len(M))], ikappa[i]) for i in range(len(M))]


def _plan(rows: list) -> tuple:
    """A half's plan from its rows, empty rows dropped: the axes whose
    derivative of S u it reads in ascending order, the number of sources it
    transforms (those derivatives, then S u if read), and each row with its
    sources replaced by their slots."""
    rows = [(terms, m) for terms, m in rows if terms]
    sources = {s for terms, _ in rows for _, s in terms}
    derivs = tuple(sorted(sources - {None}))
    slots = len(derivs) + (None in sources)
    slot = {None: slots - 1} | {axis: k for k, axis in enumerate(derivs)}
    return derivs, slots, [([(c, slot[s]) for c, s in terms], m) for terms, m in rows]


def _accumulate(out: np.ndarray, pairs, term: np.ndarray) -> None:
    """out = sum of c * v over (c, v) in pairs, added left to right, with
    each product after the first written into ``term``."""
    np.multiply(*pairs[0], out=out)
    for c, v in pairs[1:]:
        np.multiply(c, v, out=term)
        out += term


def _conj(values: np.ndarray) -> np.ndarray:
    """The complex conjugate; real samples are returned as they are."""
    return np.conj(values) if np.iscomplexobj(values) else values


def _restrict(values: np.ndarray, grid: Grid, coarse: Grid) -> np.ndarray:
    """Each field of ``values`` (leading axes index components) cut to its
    modes |k_i| < n/4 and sampled on the coarse n/2 grid of the same period;
    real input takes the real transforms and gives real samples."""
    d, kmax = grid.dim, grid.points_per_axis // 4 - 1
    real = not np.iscomplexobj(values)
    fine_sp, coarse_sp = _Spectral(grid, real), _Spectral(coarse, real)
    out = np.zeros(values.shape[:-d] + coarse.shape, dtype=values.dtype)
    for idx in np.ndindex(values.shape[:-d]):
        if values[idx].any():
            hat = np.zeros(coarse_sp.shape, dtype=np.complex128)
            fine = fine_sp.forward(values[idx])
            hat[coarse_sp.band(kmax)] = fine[fine_sp.band(kmax)] * (coarse.npoints / grid.npoints)
            out[idx] = coarse_sp.inverse(hat)
    return out


def _lanczos_start(op: _Operator, flavor: str, seed: int) -> tuple[list[np.ndarray], int]:
    """The start vector of the form-norm Lanczos, as the one-item list the
    run takes it out of, and the coarse matvecs it took.

    From ``_COARSE_FROM`` points per axis up it is the top eigenvector of
    (P R P)*(P R P), P the projection onto the modes |k_i| < N/8, solved
    on the N/2 grid and zero-padded.  The coarse coefficients keep the modes
    |k_i| < N/4: a coefficient mode there times a field mode in the band
    cannot alias back into the band, so the coarse operator restricted to
    the band is P R P exactly, independent of where the cells sit.  The
    band holds neither grid's Nyquist column, so its unknowns carry the
    same weights on both grids and the lift copies them.  A zero coarse
    value (no coefficient mode reaches the band) leaves the seeded random
    vector; a coarse run that does not converge raises ConvergenceError
    as the fine one would.
    """
    grid = op.grid
    n, d = grid.points_per_axis, grid.dim
    if n < _COARSE_FROM:
        return [_start_vector(op.size, seed)], 0
    coarse = Grid(d, n // 2, grid.period)
    coefs = [None if v is None else _restrict(v, grid, coarse) for v in (op.A, op.b, op.q)]
    small = _Operator(coarse, *coefs, flavor, kmax=n // 8 - 1)
    band = small.sp.band(n // 8 - 1)
    start = np.zeros(small.shape, dtype=np.complex128)
    start[band] = _start_vector(small.size, seed).view(np.complex128).reshape(small.shape)[band]
    start = [start.reshape(-1).view(np.float64)]
    value, vec, iters, _ = _top_eigenpair(small.normal, start)
    if value == 0.0:
        return [_start_vector(op.size, seed)], iters
    lifted = np.zeros(op.shape, dtype=np.complex128)
    lifted[op.sp.band(n // 8 - 1)] = vec.view(np.complex128).reshape(small.shape)[band]
    return [lifted.reshape(-1).view(np.float64)], iters


def form_norm(
    A: MatrixField | None,
    b: VectorField | None,
    q: ScalarField | None,
    flavor: str = "homogeneous",
    seed: int = 0,
) -> FormEstimate:
    """Operator norm of S L S, the best constant of the full form.

    The form B(u,v) = -<A grad u, grad v> + <b.grad u, v> + <q u, v>
    equals <L u, v> with L = div(A grad .) + b.grad + q; its best
    constant against the flavor's norms is the top singular value of
    the compression, the root of the top eigenvalue of R*R.
    """
    _check_flavor(flavor)
    grid = shared_grid(A, b, q)
    op = _Operator(grid, *(None if f is None else f.values for f in (A, b, q)), flavor)
    start, coarse_iters = _lanczos_start(op, flavor, seed)
    value, vec, iters, residual = _top_eigenpair(op.normal, start)
    hats = op.spectrum(vec)
    u = ScalarField(grid, op.sp.inverse(hats * op.sym))
    rx = op.compressed(hats, False, np.empty_like(hats))
    rx *= op.sym / max(_norm((rx * op.weight).view(np.float64)), 1e-300)
    return FormEstimate(float(np.sqrt(max(value, 0.0))), iters, residual,
                        (u, ScalarField(grid, op.sp.inverse(rx))), coarse_iters)


def nonlinear_form_constant(
    b: VectorField,
    restarts: int = 20,
    steps: int = 150,
    seed: int = 0,
) -> tuple[FormEstimate, FormEstimate, bool]:
    """Estimate sup_u int |b.grad u| |u| dx / ||grad u||^2 and sandwich it.

    The supremum (over real, zero-mean u) is nonconvex; preconditioned
    gradient ascent from seeded random starts yields a lower bound
    C_est with the best witness.  The companion route takes
    c_est = sqrt(trace_constant of the measure |b|^2 dx); the two are
    asserted to satisfy C <= c <= 2 sqrt(n) C up to slack covering the
    restart-limited lower bound.  A complex drift raises ValueError.
    """
    if not b.is_real:
        raise ValueError("nonlinear constant needs a real drift")
    grid = b.grid
    bv = b.values
    bmax = max(float(np.abs(c).max()) for c in bv)
    dim = grid.dim
    if bmax == 0.0:
        zero = FormEstimate(0.0, 0, 0.0)
        return zero, zero, True

    smooth = 1e-8
    vol = grid.cell_volume
    sp = _Spectral(grid)
    # Nyquist-zeroed wavenumbers: the real part of the full derivative
    kaps, ks, inv_ks = sp.kappas, sp.ksq, -sp.inv_lap

    def evaluate(hat):
        """The objective at ``hat`` scaled to unit Dirichlet norm, and what the
        gradient reads: (hat, u, b.grad u, |b.grad u|, |u|), smoothed."""
        hat = hat / np.sqrt(sp.dirichlet_sq(hat))
        u, *grads = sp.inverse(np.stack([hat] + [1j * k * hat for k in kaps]))
        bg = sum(bv[i] * grads[i] for i in range(dim))
        mag_bg = np.sqrt(bg**2 + smooth**2)
        mag_u = np.sqrt(u**2 + smooth**2)
        return float(np.sum(mag_bg * mag_u) * vol), (hat, u, bg, mag_bg, mag_u)

    rng = np.random.default_rng(seed)
    best = 0.0
    best_witness = None
    total_steps = 0
    last_rel = 0.0
    draw = _BandDraw(grid, max(grid.points_per_axis // 8, 2))
    for _ in range(restarts):
        block = rng.standard_normal(draw.size) + 1j * rng.standard_normal(draw.size)
        value, state = evaluate(sp.forward(draw(block).real))

        step = 0.5
        direction = None
        for _ in range(steps):
            hat, u, bg, mag_bg, mag_u = state
            # a rejected trial leaves the state, hence its direction, as it was
            if direction is None:
                # d(num / den) at den = 1 as a density: d num = -div(b phi |u|)
                # + |b.grad u| u / |u| with phi = b.grad u / |b.grad u|, d den = -2 Lap u
                phi = bg / mag_bg
                fluxes = sp.forward(np.stack([bv[i] * phi * mag_u for i in range(dim)]))
                flux_hat = sum(1j * kaps[i] * fluxes[i] for i in range(dim))
                div_flux, lap_u = sp.inverse(np.stack([flux_hat, ks * hat]))
                grad_vals = -div_flux + mag_bg * (u / mag_u) - 2.0 * lap_u * value
                g_hat = sp.forward(grad_vals) * inv_ks   # H^1 preconditioning
                gnorm = np.sqrt(sp.dirichlet_sq(g_hat))
                if gnorm == 0.0:
                    break
                # unit ascent direction keeps the trajectory invariant under
                # b -> alpha b, so the estimate scales exactly linearly
                direction = g_hat / gnorm
            new_value, new_state = evaluate(hat + step * direction)
            if new_value > value:
                last_rel = (new_value - value) / max(new_value, 1e-300)
                value, state = new_value, new_state
                direction = None
                step = min(step * 1.5, 10.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
            total_steps += 1
        if value > best:
            best = value
            best_witness = ScalarField(grid, state[1].copy())

    upper = trace_constant(
        DiscreteMeasure(grid, sum(c**2 for c in bv) * vol), "homogeneous"
    )
    c_val = float(np.sqrt(upper.value))
    c_est = FormEstimate(c_val, upper.iterations, upper.residual, upper.witness)
    C_est = FormEstimate(best, total_steps, last_rel, best_witness)
    sandwich_ok = (best <= c_val * 1.05) and \
        (c_val <= 2.0 * np.sqrt(dim) * best * 1.25)
    return C_est, c_est, bool(sandwich_ok)
