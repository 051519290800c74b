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
by one ARPACK call with fixed settings and a seeded start: implicitly
restarted Lanczos (scipy.sparse.linalg.eigsh) on real vectors.  The
trace operators are real symmetric already.  A form operator acts on N
complex Fourier coefficients, read as 2N real unknowns: for Hermitian
H that real-linear map is symmetric, has the spectrum of H with every
eigenvalue doubled, and its real Rayleigh quotient equals <z, Hz>.
The form operator plans each half, R = S L S and R* = S L* S, once when
it is built; a drift component or a potential that is identically zero
gets no term, so a planar drift in 3-D costs 6 component transforms per
R*R application instead of 8.  A problem on at most four unknowns (a
small mask) is solved densely.
From 64 points per axis up, a form estimate starts from the top
eigenvector of the Galerkin projection P R P onto the modes |k_i| < N/8,
solved by the same call on the N/2 grid and zero-padded; its
applications are counted in ``coarse_iterations``, not ``iterations``.
The reported value is the Rayleigh quotient of the returned unit
vector, so it bounds the norm from below.

The nonlinear constant of the pointwise inequality |b.grad u| |u|
against ||grad u||^2 is a nonconvex supremum; it is estimated from
below by preconditioned gradient ascent over several seeded restarts,
on real half spectra at four real transform calls per step, and
sandwiched against the trace route with the factor 2 sqrt(n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure
from .torus import (
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    _bessel_half_symbol,
    _deriv_kappas,
    _dirichlet_sq_from_hat,
    _dot,
    _fftn,
    _half,
    _ifftn,
    _inv_lap_symbol,
    _irfftn,
    _norm,
    _rfftn,
    _riesz_half_symbol,
    kappa_axes,
    kappa_sq,
    shared_grid,
)

__all__ = [
    "ConvergenceError",
    "FormEstimate",
    "form_norm",
    "nonlinear_form_constant",
    "trace_constant",
]

FLAVORS = ("homogeneous", "inhomogeneous")


# Lanczos settings: one wanted pair from a basis of four vectors (three
# did not converge on the 32^3 vortex in 300 restarts; six and eight
# raise the 64^3 peak memory by 8 and 16 MiB), ARPACK's relative Ritz
# tolerance, and a cap on implicit restarts, each of which costs
# ncv - 1 = 3 matvecs.
_NCV = 4
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


def _sqrt_inv_symbol(grid: Grid, flavor: str) -> np.ndarray:
    """S: (-Lap)^(-1/2) without the zero mode, or (1 - Lap)^(-1/2)."""
    if flavor == "inhomogeneous":
        return _bessel_half_symbol(grid)
    return _riesz_half_symbol(grid)


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}")


def _start_vector(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


def _top_eigenpair(apply_op, start: np.ndarray, seed: int):
    """Top eigenpair of a real symmetric positive semidefinite operator,
    by implicitly restarted Lanczos from the given start vector.

    Returns (value, unit vector, matvecs, relative eigen-residual).  The
    zero operator, which ARPACK rejects, gives 0.0.
    """
    # imported here: scipy.sparse.linalg adds about 60 ms to every start
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

    matvecs = 0

    def counted(x):
        nonlocal matvecs
        matvecs += 1
        return apply_op(x)

    n = start.size
    if n <= _NCV:
        # no room for a restarted basis; the whole matrix costs no more
        # matvecs than one Lanczos pass would
        _, vecs = np.linalg.eigh(np.column_stack([counted(e) for e in np.eye(n)]))
        x = vecs[:, -1]
    else:
        op = LinearOperator((n, n), matvec=counted, dtype=np.float64)
        # rng seeds the vector ARPACK restarts from when its Krylov space
        # becomes invariant (an operator of rank below ncv)
        try:
            _, vecs = eigsh(op, k=1, which="LA", ncv=_NCV, tol=_TOL, v0=start,
                            maxiter=_MAX_RESTARTS, rng=seed)
        except ArpackNoConvergence:
            raise ConvergenceError(
                f"Lanczos not within {_TOL:g} after {_MAX_RESTARTS} restarts "
                f"({matvecs} matvecs)"
            ) from None
        except ArpackError:
            # ARPACK's first matvec maps v0 into the range of the operator
            # and stops there if the product is zero: the zero operator
            if counted(start).any():
                raise
            return 0.0, start / _norm(start), matvecs, 0.0
        x = vecs[:, 0]
    # the residual's matvec runs after ARPACK has freed its workspace
    x /= _norm(x)
    y = counted(x)
    value = _dot(x, y)
    return value, x, matvecs, _norm(y - value * x) / max(value, 1e-300)


def trace_constant(
    measure: DiscreteMeasure,
    flavor: str = "homogeneous",
    mask: np.ndarray | None = None,
    seed: int = 0,
) -> FormEstimate:
    """Best C in  int |u|^2 dmu <= C ||u||^2  for the flavor's norm.

    Computed as the top eigenvalue of u -> S (rho S u) with rho the cell
    density of mu.  With a boolean mask, trials are confined to the
    masked cells and the eigenproblem is posed on those cells alone,
    giving the localized constant used by the shrinking-neighborhood
    profile.
    """
    _check_flavor(flavor)
    grid = measure.grid
    if mask is not None and np.shape(mask) != grid.shape:
        raise ValueError(f"mask shape {np.shape(mask)} does not match grid {grid.shape}")
    if measure.total <= 0.0:
        return FormEstimate(0.0, 0, 0.0)
    rho = measure.cell_mass / grid.cell_volume
    # S is real and even, so the operator is real symmetric: real vectors
    # and half-spectrum transforms
    sym = _half(_sqrt_inv_symbol(grid, flavor))
    cells = slice(None) if mask is None else np.flatnonzero(mask)
    start = _start_vector(grid.npoints, seed)[cells]
    if start.size == 0:
        return FormEstimate(0.0, 0, 0.0)

    def smooth(x):
        u = np.zeros(grid.npoints)
        u[cells] = x
        return _irfftn(_rfftn(u.reshape(grid.shape)) * sym, grid.shape)

    def apply_op(x):
        return _irfftn(_rfftn(rho * smooth(x)) * sym, grid.shape).reshape(-1)[cells]

    value, vec, iters, residual = _top_eigenpair(apply_op, start, seed)
    witness = ScalarField(grid, smooth(vec))
    return FormEstimate(value, iters, residual, witness)


class _Operator:
    """Matrix-free R = S L S and R* = S L* S, each half planned once from
    the paper's terms:

        L u  = sum_i d_i(sum_j A_ij d_j u) + sum_i b_i d_i u + q u,
        L* v = sum_i d_i(sum_j conj(A_ji) d_j v) - sum_i d_i(conj(b_i) v) + conj(q) v.

    A plan's spatial rows each sum coefficient x source (an axis derivative
    of S u, or S u) and name the multiplier of their spectrum: i kappa_i
    for a flux, -i kappa_i for an adjoint drift term, None for the point
    row, which comes last.  Adding an exact 0 changes no value, so a zero
    drift component or potential gets no term.
    """

    def __init__(self, grid: Grid, A: np.ndarray | None, b: np.ndarray | None,
                 q: np.ndarray | None, sym: np.ndarray):
        self.grid = grid
        self.A = A
        self.b = b
        self.q = None if q is None or not q.any() else q
        self.sym = sym
        self.ikappa = ik = tuple(1j * k for k in kappa_axes(grid))
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

    def compressed(self, hats, conjugate: bool, out: np.ndarray) -> np.ndarray:
        """Write the spectrum of S L S u, or of S L* S u, into ``out``
        (which may be ``hats``) and return it; ``hats`` is that of u.

        One inverse transform of the sources the half reads, one forward
        transform of its rows.  Every product is written into a buffer,
        and every sum adds its terms left to right.
        """
        derivs, slots, rows = self._plans[conjugate]
        if not rows:
            out[...] = 0.0
            return out
        d = self.grid.dim
        waves = np.empty((slots,) + hats.shape, dtype=np.complex128)
        # S u goes into the last slot, which is read before it is overwritten
        np.multiply(hats, self.sym, out=waves[-1])
        for k, axis in enumerate(derivs):
            np.multiply(self.ikappa[axis], waves[-1], out=waves[k])
        waves = _ifftn(waves, d, overwrite=True)
        spatial = np.empty((len(rows),) + hats.shape, dtype=np.complex128)
        term = np.empty_like(hats)
        for row, (terms, _) in zip(spatial, rows):
            _accumulate(row, [(_conj(c) if conjugate else c, waves[k]) for c, k in terms],
                        term)
        del waves
        hat = _fftn(spatial, d, overwrite=True)
        pairs = [(m, h) for (_, m), h in zip(rows, hat) if m is not None]
        if not pairs:
            out[...] = hat[-1]
        else:
            _accumulate(out, pairs, term)
            if rows[-1][1] is None:
                out += hat[-1]
        out *= self.sym
        return out

    def normal(self, x: np.ndarray) -> np.ndarray:
        """R*R x on the real and imaginary parts of the Fourier coefficients;
        the unnormalized transform scales the inner product uniformly, so
        adjoints and Rayleigh quotients are unaffected."""
        hats = x.view(np.complex128).reshape(self.grid.shape)
        rx = self.compressed(hats, False, np.empty_like(hats))
        return self.compressed(rx, True, rx).reshape(-1).view(np.float64)


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
    real input gives a contiguous real copy, which frees the complex one."""
    d, kmax = grid.dim, grid.points_per_axis // 4 - 1
    fine_band, coarse_band = grid.band(kmax), coarse.band(kmax)
    out = np.zeros(values.shape[:-d] + coarse.shape, dtype=np.complex128)
    for idx in np.ndindex(values.shape[:-d]):
        if values[idx].any():
            hat = np.zeros(coarse.shape, dtype=np.complex128)
            hat[coarse_band] = _fftn(values[idx])[fine_band] * (coarse.npoints / grid.npoints)
            out[idx] = _ifftn(hat, overwrite=True)
    return out if np.iscomplexobj(values) else np.ascontiguousarray(out.real)


def _lanczos_start(op: _Operator, flavor: str, seed: int) -> tuple[np.ndarray, int]:
    """The start vector of the form-norm Lanczos, and the coarse matvecs
    it took.

    From ``_COARSE_FROM`` points per axis up it is the top eigenvector of
    (P R P)*(P R P), P the projection onto the modes |k_i| < N/8, solved
    on the N/2 grid and zero-padded.  The coarse coefficients keep the modes
    |k_i| < N/4: a coefficient mode there times a field mode in the band
    cannot alias back into the band, so the coarse operator restricted to
    the band is P R P exactly, independent of where the cells sit.  A
    zero coarse value (no coefficient mode reaches the band) leaves the
    seeded random vector; a coarse run that does not converge raises
    ConvergenceError as the fine one would.
    """
    grid = op.grid
    n, d = grid.points_per_axis, grid.dim
    if n < _COARSE_FROM:
        return _start_vector(2 * grid.npoints, seed), 0
    coarse = Grid(d, n // 2, grid.period)
    coefs = [None if v is None else _restrict(v, grid, coarse) for v in (op.A, op.b, op.q)]
    band = coarse.band(n // 8 - 1)
    sym = np.zeros(coarse.shape)
    sym[band] = _sqrt_inv_symbol(coarse, flavor)[band]
    start = np.zeros(coarse.shape, dtype=np.complex128)
    start[band] = _start_vector(2 * coarse.npoints, seed).view(np.complex128) \
        .reshape(coarse.shape)[band]
    value, vec, iters, _ = _top_eigenpair(
        _Operator(coarse, *coefs, sym).normal, start.reshape(-1).view(np.float64), seed)
    if value == 0.0:
        return _start_vector(2 * grid.npoints, seed), iters
    lifted = np.zeros(grid.shape, dtype=np.complex128)
    lifted[grid.band(n // 8 - 1)] = vec.view(np.complex128).reshape(coarse.shape)[band]
    return lifted.reshape(-1).view(np.float64), iters


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
    sym = _sqrt_inv_symbol(grid, flavor)
    op = _Operator(grid, *(None if f is None else f.values for f in (A, b, q)), sym)
    start, coarse_iters = _lanczos_start(op, flavor, seed)
    value, vec, iters, residual = _top_eigenpair(op.normal, start, seed)
    hats = vec.view(np.complex128).reshape(grid.shape)
    u = ScalarField(grid, _ifftn(hats * sym))
    rx = op.compressed(hats, False, np.empty_like(hats))
    v = ScalarField(grid, _ifftn(rx * sym / max(_norm(rx.view(np.float64)), 1e-300)))
    return FormEstimate(float(np.sqrt(max(value, 0.0))), iters, residual, (u, v),
                        coarse_iters)


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
    # Nyquist-zeroed wavenumbers: the real part of the full derivative
    kaps = [_half(k) for k in _deriv_kappas(grid)[0]]
    ks = _half(kappa_sq(grid))
    inv_ks = -_half(_inv_lap_symbol(grid))

    def evaluate(hat):
        """The objective at ``hat`` scaled to unit Dirichlet norm, and what the
        gradient reads: (hat, u, b.grad u, |b.grad u|, |u|), smoothed."""
        hat = hat / np.sqrt(_dirichlet_sq_from_hat(grid, hat))
        u, *grads = _irfftn(np.stack([hat] + [1j * k * hat for k in kaps]), grid.shape)
        bg = sum(bv[i] * grads[i] for i in range(dim))
        mag_bg = np.sqrt(bg**2 + smooth**2)
        mag_u = np.sqrt(u**2 + smooth**2)
        return float(np.sum(mag_bg * mag_u) * vol), (hat, u, bg, mag_bg, mag_u)

    rng = np.random.default_rng(seed)
    best = 0.0
    best_witness = None
    total_steps = 0
    last_rel = 0.0
    band = grid.band(max(grid.points_per_axis // 8, 2))
    size = tuple(modes.size for modes in band)
    for _ in range(restarts):
        hats0 = np.zeros(grid.shape, np.complex128)
        hats0[band] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        hats0.flat[0] = 0.0
        value, state = evaluate(_rfftn(_ifftn(hats0).real))

        step = 0.5
        direction = None
        for _ in range(steps):
            hat, u, bg, mag_bg, mag_u = state
            # a rejected trial leaves the state, hence its direction, as it was
            if direction is None:
                # d(num / den) at den = 1 as a density: d num = -div(b phi |u|)
                # + |b.grad u| u / |u| with phi = b.grad u / |b.grad u|, d den = -2 Lap u
                phi = bg / mag_bg
                fluxes = _rfftn(np.stack([bv[i] * phi * mag_u for i in range(dim)]), dim)
                flux_hat = sum(1j * kaps[i] * fluxes[i] for i in range(dim))
                div_flux, lap_u = _irfftn(np.stack([flux_hat, ks * hat]), grid.shape)
                grad_vals = -div_flux + mag_bg * (u / mag_u) - 2.0 * lap_u * value
                g_hat = _rfftn(grad_vals) * inv_ks   # H^1 preconditioning
                gnorm = np.sqrt(_dirichlet_sq_from_hat(grid, g_hat))
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
