"""Best constants in the quadratic and bilinear inequalities, measured
directly on the grid.

Everything here reduces to the operator norm of a compressed operator
S M S, where S is the square-root inverse of -Lap (homogeneous flavor,
acting on zero-mean fields) or of 1 - Lap (inhomogeneous), and M is a
matrix-free realization of the object under test:

* trace_constant:   M = multiplication by the measure's density
* form_norm:        M = L = div(A grad .) + b.grad + q
* commutator_norm:  M = b.grad + (div b)/2, the antisymmetric part of
                    b.grad; for divergence-free b this coincides with
                    form_norm(0, b, 0), which downstream checks rely on

Hermitian problems use power iteration directly; non-Hermitian ones run
it on the Hermitian square R*R.  Rayleigh quotients of a positive
semidefinite iteration are nondecreasing, which is asserted by tests on
the recorded history.

The nonlinear constant of the pointwise inequality |b.grad u| |u|
against ||grad u||^2 is a nonconvex supremum; it is estimated from
below by preconditioned gradient ascent over several seeded restarts
and sandwiched against the trace route with the factor 2 sqrt(n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure
from .torus import (
    Grid,
    GridMismatchError,
    MatrixField,
    ScalarField,
    VectorField,
    _bessel_half_symbol,
    _dirichlet_sq_from_hat,
    _fftn,
    _ifftn,
    _inv_lap_symbol,
    _key,
    _riesz_half_symbol,
    _stacked,
    kappa_axes,
    kappa_sq,
)

__all__ = [
    "ConvergenceError",
    "FormEstimate",
    "commutator_norm",
    "form_norm",
    "nonlinear_form_constant",
    "power_iteration",
    "trace_constant",
]

FLAVORS = ("homogeneous", "inhomogeneous")


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching tolerance."""


@dataclass(frozen=True)
class FormEstimate:
    value: float
    method: str
    iterations: int
    residual: float
    witness: object = None
    history: tuple[float, ...] = ()


def _sqrt_inv_symbol(grid: Grid, flavor: str) -> np.ndarray:
    """S: (-Lap)^(-1/2) without the zero mode, or (1 - Lap)^(-1/2)."""
    if flavor == "inhomogeneous":
        return _bessel_half_symbol(*_key(grid))
    return _riesz_half_symbol(*_key(grid))


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}")


def _vdot(x: np.ndarray, y: np.ndarray) -> complex:
    """sum conj(x) y as a numpy reduction: np.vdot and np.linalg.norm run
    on the BLAS thread pool, whose size would move the last digits."""
    return np.sum(np.conj(x) * y)


def _norm(x: np.ndarray) -> float:
    return float(np.sqrt(np.real(_vdot(x, x))))


def power_iteration(
    apply_op,
    start: np.ndarray,
    rtol: float = 1e-8,
    residual_tol: float = 1e-6,
    max_iter: int = 2000,
):
    """Power iteration for a Hermitian positive semidefinite operator.

    Returns (eigenvalue, vector, iterations, residual, history).  Stops
    once the relative Rayleigh change is below rtol and the relative
    eigen-residual below residual_tol.
    """
    x = start / _norm(start)
    history = []
    value = 0.0
    for it in range(1, max_iter + 1):
        y = apply_op(x)
        new = float(np.real(_vdot(x, y)))
        norm_y = _norm(y)
        if norm_y == 0.0:
            return 0.0, x, it, 0.0, (0.0,)
        residual = _norm(y - new * x) / max(new, 1e-300)
        history.append(new)
        done = it > 1 and abs(new - value) <= rtol * max(new, 1e-300) \
            and residual <= residual_tol
        value = new
        x = y / norm_y
        if done:
            return value, x, it, residual, tuple(history)
    raise ConvergenceError(
        f"power iteration at {value:.6e} with residual {residual:.2e} "
        f"after {max_iter} iterations"
    )


def _start_vector(grid: Grid, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.npoints) + 1j * rng.standard_normal(grid.npoints)


def trace_constant(
    measure: DiscreteMeasure,
    flavor: str = "homogeneous",
    mask: np.ndarray | None = None,
    seed: int = 0,
    rtol: float = 1e-8,
    residual_tol: float = 1e-6,
    max_iter: int = 2000,
) -> FormEstimate:
    """Best C in  int |u|^2 dmu <= C ||u||^2  for the flavor's norm.

    Computed as the top eigenvalue of u -> S (rho S u) with rho the cell
    density of mu.  With a boolean mask, trials are confined to the
    masked cells (cells outside are zeroed before and after), giving the
    localized constant used by the shrinking-neighborhood profile.
    """
    _check_flavor(flavor)
    grid = measure.grid
    if measure.total <= 0.0:
        return FormEstimate(0.0, "power_iteration", 0, 0.0)
    rho = measure.cell_mass / grid.cell_volume
    sym = _sqrt_inv_symbol(grid, flavor)
    flat_mask = None if mask is None else np.asarray(mask, bool).reshape(-1)
    if flat_mask is not None and not flat_mask.any():
        return FormEstimate(0.0, "power_iteration", 0, 0.0)

    def apply_op(x):
        if flat_mask is not None:
            x = np.where(flat_mask, x, 0.0)
        w = _ifftn(_fftn(x.reshape(grid.shape)) * sym)
        y = _ifftn(_fftn(rho * w) * sym).reshape(-1)
        if flat_mask is not None:
            y = np.where(flat_mask, y, 0.0)
        return y

    value, vec, iters, residual, history = power_iteration(
        apply_op, _start_vector(grid, seed), rtol=rtol,
        residual_tol=residual_tol, max_iter=max_iter
    )
    witness = ScalarField(
        grid, _ifftn(_fftn(vec.reshape(grid.shape)) * sym)
    )
    return FormEstimate(value, "power_iteration", iters, residual, witness, history)


class _Operator:
    """Matrix-free L = div(A grad .) + b.grad + q and its adjoint."""

    def __init__(self, grid: Grid, A: MatrixField | None, b: VectorField | None,
                 q: ScalarField | None):
        self.grid = grid
        for field in (A, b, q):
            if field is not None and field.grid != grid:
                raise GridMismatchError("coefficient grids differ")
        self.kappa = kappa_axes(grid)
        self.A = None if A is None else A.values
        self.b = None if b is None else b.values
        self.q = None if q is None else q.values

    def _half(self, hats, conjugate: bool):
        d = self.grid.dim
        A, b, q = self.A, self.b, self.q
        # one inverse transform for grad u and u, one forward transform for
        # the fluxes, the adjoint's drift terms and the point term
        waves = _ifftn(_stacked(itertools.chain((1j * k * hats for k in self.kappa), [hats]),
                                (d + 1,) + hats.shape), d, overwrite=True)
        grads, w = waves[:d], waves[d]
        n_flux = d if A is not None else 0
        n_drift = d if b is not None and conjugate else 0
        spatial = np.empty((n_flux + n_drift + 1,) + hats.shape, dtype=np.complex128)
        for i in range(n_flux):
            # adjoint uses the conjugate transpose of A
            spatial[i] = sum(
                (np.conj(A[j][i]) if conjugate else A[i][j]) * grads[j]
                for j in range(d)
            )
        for i in range(n_drift):
            np.multiply(np.conj(b[i]), w, out=spatial[n_flux + i])
        point = spatial[-1]
        point[...] = 0.0
        if b is not None and not conjugate:
            point += sum(b[i] * grads[i] for i in range(d))
        if q is not None:
            point += (np.conj(q) if conjugate else q) * w
        del waves, grads, w
        hat = _fftn(spatial, d, overwrite=True)
        out_hat = np.zeros_like(hats)
        for i in range(n_flux):
            out_hat += 1j * self.kappa[i] * hat[i]
        for i in range(n_drift):
            out_hat -= 1j * self.kappa[i] * hat[n_flux + i]
        return out_hat + hat[-1]

    def compressed(self, hats, sym, conjugate: bool):
        return self._half(hats * sym, conjugate) * sym


def _operator_norm(
    op: _Operator,
    flavor: str,
    seed: int,
    rtol: float,
    residual_tol: float,
    max_iter: int,
    method_tag: str,
) -> FormEstimate:
    grid = op.grid
    sym = _sqrt_inv_symbol(grid, flavor)

    # iterate on Fourier coefficients; the unnormalized transform scales
    # the inner product uniformly, so adjoints and Rayleigh quotients
    # are unaffected
    def apply_op(x):
        rx = op.compressed(x.reshape(grid.shape), sym, conjugate=False)
        return op.compressed(rx, sym, conjugate=True).reshape(-1)

    value, vec, iters, residual, history = power_iteration(
        apply_op, _start_vector(grid, seed), rtol=rtol,
        residual_tol=residual_tol, max_iter=max_iter
    )
    hats = vec.reshape(grid.shape)
    u = ScalarField(grid, _ifftn(hats * sym))
    rx = op.compressed(hats, sym, conjugate=False)
    norm_rx = _norm(rx)
    if norm_rx > 0.0:
        v = ScalarField(grid, _ifftn(rx * sym / norm_rx))
    else:
        v = ScalarField(grid, np.zeros(grid.shape))
    return FormEstimate(
        float(np.sqrt(max(value, 0.0))), method_tag, iters, residual, (u, v),
        history,
    )


def form_norm(
    A: MatrixField | None,
    b: VectorField | None,
    q: ScalarField | None,
    flavor: str = "homogeneous",
    seed: int = 0,
    rtol: float = 1e-8,
    residual_tol: float = 1e-6,
    max_iter: int = 2000,
) -> FormEstimate:
    """Operator norm of S L S, the best constant of the full form.

    The form B(u,v) = -<A grad u, grad v> + <b.grad u, v> + <q u, v>
    equals <L u, v> with L = div(A grad .) + b.grad + q; its best
    constant against the flavor's norms is the top singular value of
    the compression, found by power iteration on R*R.
    """
    _check_flavor(flavor)
    grids = [f.grid for f in (A, b, q) if f is not None]
    if not grids:
        raise ValueError("all coefficients empty")
    op = _Operator(grids[0], A, b, q)
    return _operator_norm(op, flavor, seed, rtol, residual_tol, max_iter,
                          "power_iteration")


def commutator_norm(
    b: VectorField,
    flavor: str = "homogeneous",
    seed: int = 0,
    rtol: float = 1e-8,
    residual_tol: float = 1e-6,
    max_iter: int = 2000,
) -> FormEstimate:
    """Norm of the antisymmetric half of b.grad.

    The commutator form (1/2) <b, u-bar grad v - v grad u-bar> is the
    form of K = b.grad + (div b)/2.  For divergence-free b this equals
    form_norm(0, b, 0) with identical assembly.
    """
    _check_flavor(flavor)
    from .torus import div as _div

    grid = b.grid
    half_div = ScalarField(grid, 0.5 * _div(b).values)
    op = _Operator(grid, None, b, half_div)
    return _operator_norm(op, flavor, seed, rtol, residual_tol, max_iter,
                          "power_iteration")


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
    restart-limited lower bound.
    """
    grid = b.grid
    bv = b.values.real
    bmax = max(float(np.abs(c).max()) for c in bv)
    dim = grid.dim
    if bmax == 0.0:
        zero = FormEstimate(0.0, "subspace_sweep", 0, 0.0)
        return zero, zero, True

    smooth = 1e-8
    kappa = kappa_axes(grid)
    ks = kappa_sq(grid)
    inv_ks = -_inv_lap_symbol(*_key(grid))
    vol = grid.cell_volume

    def split(u):
        hats = _fftn(u)
        grads = _ifftn(np.stack([1j * k * hats for k in kappa]), dim).real
        bg = sum(bv[i] * grads[i] for i in range(dim))
        return hats, grads, bg

    def objective(u):
        hats, _grads, bg = split(u)
        num = float(np.sum(np.sqrt(bg**2 + smooth**2)
                           * np.sqrt(u**2 + smooth**2)) * vol)
        den = _dirichlet_sq_from_hat(grid, hats)
        return num / den, hats, bg, num, den

    def gradient(u, hats, bg, num, den):
        phi = bg / np.sqrt(bg**2 + smooth**2)
        gee = u / np.sqrt(u**2 + smooth**2)
        mag_u = np.sqrt(u**2 + smooth**2)
        mag_bg = np.sqrt(bg**2 + smooth**2)
        # d num: -div(b phi |u|) + |b.grad u| g'(u), as a value-space density
        # and d den = 2 (-Lap u), both back from one inverse transform
        fluxes = _fftn(np.stack([bv[i] * phi * mag_u for i in range(dim)]), dim)
        flux_hat = sum(1j * kappa[i] * fluxes[i] for i in range(dim))
        div_flux, lap_u = _ifftn(np.stack([flux_hat, ks * hats]), dim).real
        dnum = -div_flux + mag_bg * gee
        dden = 2.0 * lap_u
        grad_vals = (dnum * den - dden * num) / den**2
        grad_hat = _fftn(grad_vals) * inv_ks   # H^1 preconditioning
        grad_hat.flat[0] = 0.0
        return _ifftn(grad_hat).real

    rng = np.random.default_rng(seed)
    best = 0.0
    best_witness = None
    total_steps = 0
    last_rel = 0.0
    kmax = max(grid.points_per_axis // 8, 2)
    for _ in range(restarts):
        hats0 = np.zeros(grid.shape, np.complex128)
        n = grid.points_per_axis
        modes = [m % n for m in range(-kmax, kmax + 1)]
        sub = np.ix_(*([modes] * dim))
        hats0[sub] = rng.standard_normal((len(modes),) * dim) \
            + 1j * rng.standard_normal((len(modes),) * dim)
        hats0.flat[0] = 0.0
        u = _ifftn(hats0).real
        u /= np.sqrt(_dirichlet_sq_from_hat(grid, _fftn(u)))

        step = 0.5
        value, hats, bg, num, den = objective(u)
        for _ in range(steps):
            g = gradient(u, hats, bg, num, den)
            gnorm = np.sqrt(_dirichlet_sq_from_hat(grid, _fftn(g)))
            if gnorm == 0.0:
                break
            # unit ascent direction keeps the trajectory invariant under
            # b -> alpha b, so the estimate scales exactly linearly
            trial = u + step * (g / gnorm)
            trial /= np.sqrt(_dirichlet_sq_from_hat(grid, _fftn(trial)))
            new_value, nhats, nbg, nnum, nden = objective(trial)
            if new_value > value:
                last_rel = (new_value - value) / max(new_value, 1e-300)
                u, value = trial, new_value
                hats, bg, num, den = nhats, nbg, nnum, nden
                step = min(step * 1.5, 10.0)
            else:
                step *= 0.5
                if step < 1e-12:
                    break
            total_steps += 1
        if value > best:
            best = value
            best_witness = ScalarField(grid, u)

    upper = trace_constant(
        DiscreteMeasure(grid, sum(c**2 for c in bv) * vol), "homogeneous"
    )
    c_val = float(np.sqrt(upper.value))
    c_est = FormEstimate(c_val, upper.method, upper.iterations, upper.residual,
                         upper.witness)
    C_est = FormEstimate(best, "subspace_sweep", total_steps, last_rel,
                         best_witness)
    sandwich_ok = (best <= c_val * 1.05) and \
        (c_val <= 2.0 * np.sqrt(dim) * best * 1.25)
    return C_est, c_est, bool(sandwich_ok)
