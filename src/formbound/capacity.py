"""Variational capacities on the torus and the gauge construction.

Two flavors.  The inhomogeneous capacity minimizes the full Sobolev
energy ||grad u||^2 + ||u||^2 over u >= 1 on the set and is well posed
on the torus as is.  The homogeneous (Dirichlet-only) energy admits the
trivial competitor u == 1, so it needs a grounding convention: we
require u = 0 on a ball of radius L/8 antipodal to the set's centroid
and minimize the condenser energy.  Values therefore carry an O(s/L)
domain correction relative to free space; a single grounded cell would
instead make the value collapse to the ground cell's own vanishing
capacity under refinement, which is why a ball is used.

Both problems are solved in charge space.  Writing u = G sigma (+ c0
for the grounded problem, where G drops the zero mode), the obstacle
problem reduces to an equality-constrained solve on the active cells
with sign conditions on the charge; a preconditioned conjugate-gradient
inner loop and an active-set outer loop drive the KKT residual below
tolerance.  With u = 1 on the set and u = 0 on the ground, the Dirichlet
energy, the charge mass on the set, and the reported value coincide up
to solver tolerance.

Charges and potentials are real, so the Green operator is one real
transform pair (rfftn/irfftn) against a symbol of the real path's core,
a table of the half spectrum's shape.  The charges sit on the active
cells and only those cells are read back, so the pair skips every 1-D
pass over a line with no charge or no active cell (torus._PrunedFFT);
the values it computes have the bits of the full-grid pair.  The
potential of a round prunes only its forward transform.  The gauge
probes are band-limited draws (torus._BandDraw), whose inverse runs only
the passes over lines inside the band; a probe's Dirichlet norm is read
from its block of modes, and only the twisted probe is transformed over
the full grid, on the complex path.  The CG preconditioner is local: the
2d-neighbour finite-difference Laplacian (plus the identity in the
inhomogeneous flavor) restricted to the active cells, with periodic
neighbours and cells off the active set read as 0.  Its symbol
(4/h^2) sin^2(kh/2) per axis lies within [4/pi^2, 1] of k^2, so it is
spectrally equivalent to the inverse Green operator on the same cells:
the condition number grows by at most pi^2/4 and the iteration count by
at most pi/2, while each CG iteration makes one transform pair instead
of two and the preconditioner costs O(active cells).  Inner products are
numpy reductions, so no BLAS thread count moves the result.
Each active-set round warm-starts CG from the previous round's charges on
the cells it keeps (newly grown cells start at zero); the stopping bound
_CG_RTOL * ||rhs|| is the same absolute bound a cold start would use.

The first active set is the set's boundary shell, its cells with a face
neighbour outside it, because the equilibrium charge of a set sits on its
boundary.  The start only saves rounds; it decides nothing.  The drop rule
(negative charge) and the grow rule (u < 1 on an inactive cell) run as
before, interior cells that need charge are grown back, and the result
stands only once the KKT check passes on every cell of the set.  The ground
ball is an equality constraint and stays active throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, _check_flavor
from .torus import (
    Grid,
    ScalarField,
    _BandDraw,
    _PrunedFFT,
    _Spectral,
    _dot,
    _norm,
    dirichlet_norm,
)

__all__ = [
    "CapacityResult",
    "CompactSet",
    "GaugeReport",
    "SolverError",
    "ball_set",
    "capacity",
    "cube_set",
    "gauge_bounds",
    "gauge_check",
]

_MAX_ROUNDS = 30  # active-set rounds
_TOL = 1e-8  # on the KKT residual: the potential on the set, the charge signs
_CG_RTOL = 1e-12  # on the CG residual, relative to the right-hand side
_GAUGE_FLOOR = 1e-8  # under the potential in the gauge's logarithm


class SolverError(RuntimeError):
    """Obstacle-problem iteration failed to reach tolerance."""


@dataclass(frozen=True)
class CompactSet:
    """Set of grid cells given by a boolean mask."""

    grid: Grid
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask)
        if mask.shape != self.grid.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match grid {self.grid.shape}"
            )
        object.__setattr__(self, "mask", mask.astype(bool))

    @classmethod
    def from_field(cls, field: ScalarField) -> "CompactSet":
        """The cells where the field's real part exceeds 1/2."""
        return cls(field.grid, field.values.real > 0.5)

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def centroid_cell(self) -> tuple[int, ...]:
        """Mass center of the cells, circular per axis."""
        if self.count == 0:
            raise ValueError("empty set has no centroid")
        n = self.grid.points_per_axis
        idx = np.nonzero(self.mask)
        out = []
        for axis_idx in idx:
            theta = axis_idx * (2.0 * np.pi / n)
            mean = np.arctan2(np.sin(theta).mean(), np.cos(theta).mean())
            out.append(int(round(mean / (2.0 * np.pi) * n)) % n)
        return tuple(out)


def ball_set(grid: Grid, center: tuple[float, ...], radius: float) -> CompactSet:
    """Cells whose centers lie within torus distance radius of center."""
    if not (radius >= 0.0 and np.isfinite(radius)):
        raise ValueError(f"ball radius must be nonnegative and finite, got {radius}")
    cell = tuple(int(round(c / grid.spacing)) % grid.points_per_axis for c in center)
    return CompactSet(grid, grid.dist_sq(cell) <= radius * radius)


def cube_set(grid: Grid, corner: tuple[float, ...], side: float) -> CompactSet:
    """Cells whose centers lie in the axis cube [corner, corner + side)."""
    if not (side > 0.0 and np.isfinite(side)):
        raise ValueError(f"cube side must be positive and finite, got {side}")
    h = grid.spacing
    first = tuple(int(round(c / h)) for c in corner)
    return CompactSet(grid, grid.cube(first, max(int(round(side / h)), 1)))


@dataclass(frozen=True)
class CapacityResult:
    value: float
    potential: ScalarField
    measure: DiscreteMeasure
    kkt_residual: float
    flavor: str
    iterations: int  # conjugate-gradient iterations summed over all rounds
    rounds: int = 0
    active_cells: int = 0


def _neighbours(grid: Grid, flat_idx: np.ndarray) -> np.ndarray:
    """Positions in flat_idx of each cell's 2d periodic axis neighbours.

    Row 2 axis + k holds the neighbour one step down (k = 0) or up (k = 1)
    along axis; a neighbour that is not listed gets flat_idx.size.
    """
    pos = np.full(grid.npoints, flat_idx.size, dtype=np.intp)
    pos[flat_idx] = np.arange(flat_idx.size)
    coords = np.unravel_index(flat_idx, grid.shape)
    out = np.empty((2 * grid.dim, flat_idx.size), dtype=np.intp)
    for axis in range(grid.dim):
        for k, step in enumerate((-1, 1)):
            moved = list(coords)
            moved[axis] = (coords[axis] + step) % grid.points_per_axis
            out[2 * axis + k] = pos[np.ravel_multi_index(moved, grid.shape)]
    return out


class _ChargeSystem:
    """K sigma = target on a flat list of active cells, via grid FFTs.

    Charges and potentials travel as the lines of the last axis that hold
    an active cell: the Green transforms skip every other line.
    """

    def __init__(self, grid: Grid, flat_idx: np.ndarray, inhomogeneous: bool):
        self.grid = grid
        self.idx = flat_idx
        self.inhomogeneous = inhomogeneous
        cells = np.zeros(grid.npoints, dtype=bool)
        cells[flat_idx] = True
        cells = cells.reshape(grid.shape)
        self._forward = _PrunedFFT("rfftn", grid.shape, nonzero=cells)
        self._inverse = _PrunedFFT("irfftn", grid.shape, read=cells)
        # both list the rows that hold an active cell
        row, self._col = np.divmod(flat_idx, grid.points_per_axis)
        self._row = np.searchsorted(self._forward.rows, row)
        # (1 - Lap)^-1, or the grounded Lap^-1 with the charges negated
        self._sp = _Spectral(grid)
        self._symbol = self._sp.bessel_inv if inhomogeneous else self._sp.inv_lap
        self._nb = _neighbours(grid, flat_idx)
        # charges plus one trailing zero that unlisted neighbours read
        self._padded = np.zeros(flat_idx.size + 1)

    def _project(self, vec: np.ndarray) -> np.ndarray:
        """vec, made zero-sum in the homogeneous (grounded) system."""
        return vec if self.inhomogeneous else vec - vec.mean()

    def _green_hat(self, vec: np.ndarray) -> np.ndarray:
        """Half spectrum of the potential of charges vec."""
        lines = np.zeros((self._forward.rows.size, self.grid.points_per_axis))
        # negating the charges negates the transform exactly
        lines[self._row, self._col] = vec if self.inhomogeneous else -vec
        hat = self._forward(lines)
        hat *= self._symbol
        return hat

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        lines = self._inverse(self._green_hat(self._project(vec)))
        return self._project(lines[self._row, self._col])

    def precond(self, vec: np.ndarray) -> np.ndarray:
        """Finite-difference -Lap (+ 1) restricted to the active cells."""
        v = self._project(vec)
        self._padded[:-1] = v
        out = 2 * self.grid.dim * v - self._padded[self._nb].sum(axis=0)
        out /= self.grid.spacing**2
        if self.inhomogeneous:
            out += v
        return self._project(out)

    def solve(self, target: np.ndarray, start: np.ndarray | None = None):
        """CG to ||residual|| <= _CG_RTOL ||rhs|| in at most 10 n steps."""
        rhs = self._project(target)
        if start is None:
            sigma = np.zeros_like(rhs)
            r = rhs.copy()
        else:
            sigma = self._project(start)
            r = rhs - self.matvec(sigma)
        z = self.precond(r)
        p = z.copy()
        rz = _dot(r, z)
        bound = _CG_RTOL * max(_norm(rhs), 1e-300)
        max_iter = 10 * self.grid.points_per_axis
        iters = 0
        while _norm(r) > bound and iters < max_iter:
            Kp = self.matvec(p)
            alpha = rz / _dot(p, Kp)
            sigma += alpha * p
            r -= alpha * Kp
            z = self.precond(r)
            rz_new = _dot(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
            iters += 1
        if _norm(r) > bound:
            raise SolverError(
                f"conjugate gradient stalled at residual {_norm(r):.3e} "
                f"after {iters} iterations"
            )
        return sigma, iters

    def potential(self, sigma: np.ndarray, target: np.ndarray) -> np.ndarray:
        u = self._sp.inverse(self._green_hat(sigma)).reshape(-1)
        if not self.inhomogeneous:
            # constant component of the grounded problem, fixed by the
            # residual mean on the active cells
            u = u + float((target - u[self.idx]).mean())
        return u


def _ground_for(e: CompactSet) -> CompactSet:
    grid = e.grid
    n = grid.points_per_axis
    center = tuple(((c + n // 2) % n) * grid.spacing for c in e.centroid_cell())
    ground = ball_set(grid, center, grid.period / 8.0)
    if (ground.mask & e.mask).any():
        raise ValueError("set reaches its antipodal ground ball; too large")
    return ground


def _start_cells(mask: np.ndarray) -> np.ndarray:
    """First active set: the cells of mask with a periodic face neighbour
    outside it (the mask minus its erosion), or every cell when the mask
    fills the torus and has no such cell."""
    interior = mask.copy()
    for axis in range(mask.ndim):
        for step in (-1, 1):
            interior &= np.roll(mask, step, axis)
    shell = mask & ~interior
    return shell if shell.any() else mask


def capacity(e: CompactSet, flavor: str = "homogeneous") -> CapacityResult:
    """Capacity of e, with potential and equilibrium measure.

    Homogeneous flavor minimizes the Dirichlet energy with the set held
    at 1 and the antipodal ground ball at 0; inhomogeneous adds the
    L2 term and needs no ground.  In two dimensions the homogeneous
    capacity is 0 by convention.
    """
    _check_flavor(flavor)
    grid = e.grid
    if e.count == 0:
        raise ValueError("capacity of the empty set is undefined")

    if flavor == "homogeneous" and grid.dim == 2:
        ones = ScalarField(grid, np.ones(grid.shape))
        zero = DiscreteMeasure(grid, np.zeros(grid.shape))
        return CapacityResult(0.0, ones, zero, 0.0, flavor, 0)

    inhomogeneous = flavor == "inhomogeneous"
    if inhomogeneous:
        ground = None
        ground_idx = np.empty(0, dtype=np.intp)
    else:
        ground = _ground_for(e)
        ground_idx = np.flatnonzero(ground.mask.reshape(-1))

    e_idx_all = np.flatnonzero(e.mask.reshape(-1))
    # the equilibrium charge sits on the boundary; the grow rule adds any
    # interior cell the KKT check still needs
    active = _start_cells(e.mask).reshape(-1)[e_idx_all]

    sigma = u = None
    # previous round's charges on the full grid; zero off its active cells
    charges = np.zeros(grid.npoints)
    iterations = 0
    for rounds in range(1, _MAX_ROUNDS + 1):
        e_idx = e_idx_all[active]
        idx = np.concatenate([e_idx, ground_idx])
        target = np.zeros(idx.size)
        target[: e_idx.size] = 1.0
        system = _ChargeSystem(grid, idx, inhomogeneous)
        start = charges[idx] if rounds > 1 else None
        sigma, iters = system.solve(target, start=start)
        iterations += iters
        u = system.potential(sigma, target)
        charges[:] = 0.0
        charges[idx] = sigma

        drop = sigma[: e_idx.size] < -_TOL
        grow = u[e_idx_all] < 1.0 - _TOL
        grow &= ~active
        if not drop.any() and not grow.any():
            break
        active_new = active.copy()
        active_new[np.flatnonzero(active)[drop]] = False
        active_new |= grow
        active = active_new
    else:
        raise SolverError(f"active set did not settle in {_MAX_ROUNDS} rounds")

    e_idx = e_idx_all[active]
    charge = np.zeros(grid.npoints)
    # sigma is a charge density; cell masses carry the volume factor, so
    # the total mass equals <u, -Lap u> = the energy being minimized
    charge[e_idx] = np.clip(sigma[: e_idx.size], 0.0, None) * grid.cell_volume
    value = float(charge.sum())

    kkt = max(
        float(np.abs(u[e_idx] - 1.0).max(initial=0.0)),
        float(np.clip(1.0 - u[e_idx_all], 0.0, None).max(initial=0.0)),
        float(np.clip(-sigma[: e_idx.size], 0.0, None).max(initial=0.0)),
        float(np.abs(u[ground_idx]).max(initial=0.0)),
    )
    if kkt > _TOL:
        raise SolverError(f"KKT residual {kkt:.3e} above tolerance {_TOL:g}")

    potential = ScalarField(grid, u.reshape(grid.shape))
    mu = DiscreteMeasure(grid, charge.reshape(grid.shape))
    return CapacityResult(value, potential, mu, kkt, flavor, iterations, rounds,
                          int(active.sum()))


@dataclass(frozen=True)
class GaugeReport:
    energy_lhs: float
    energy_rhs: float
    gauge_ratio: float
    gauge_ratio_min: float
    within_bounds: bool
    cap_value: float


def gauge_bounds(tau: float) -> tuple[float, float]:
    """(upper, lower): the gauge distortion ratios at ``tau`` must stay
    at or below 1.1 (1 + 2 tau) and at or above 0.9 / (1 + 2 tau)."""
    bound = 1.0 + 2.0 * tau
    return bound * 1.1, 0.9 / bound


def gauge_check(
    e: CompactSet,
    tau: float,
    nprobe: int = 20,
    seed: int = 0,
    result: CapacityResult | None = None,
) -> GaugeReport:
    """Energy identity and norm distortion of the gauge exp(i tau log u).

    u is the grounded capacitary potential of e.  The identity
    ||grad u^tau||^2 = tau^2 (2 tau - 1)^{-1} cap(e) holds exactly in
    the continuum (the ground plate sits at u = 0 and contributes
    nothing); the reported pair tracks the discretization gap.  The
    gauge ratio is the worst Dirichlet-norm distortion of exp(i lam)
    over random band-limited probes, with lam = tau log(max(u, 1e-8)).

    A precomputed homogeneous CapacityResult for e may be passed to
    amortize the solve across several tau values.
    """
    if not 0.5 < tau < 1.5:
        raise ValueError("tau must lie in (1/2, 3/2)")
    if nprobe < 1:
        raise ValueError(f"nprobe must be at least 1, got {nprobe}")
    if result is None:
        result = capacity(e, "homogeneous")
    elif result.flavor != "homogeneous":
        raise ValueError("gauge check needs the homogeneous capacity")
    if result.value <= 0.0:
        raise ValueError("gauge needs a set of positive capacity")
    grid = e.grid

    u = result.potential.values.real
    v = ScalarField(grid, np.clip(u, 0.0, None) ** tau)
    energy_lhs = dirichlet_norm(v) ** 2
    energy_rhs = tau * tau / (2.0 * tau - 1.0) * result.value

    phase = np.exp(1j * (tau * np.log(np.maximum(u, _GAUGE_FLOOR))))
    rng = np.random.default_rng(seed)
    hi = 0.0
    lo = np.inf
    draw = _BandDraw(grid, max(grid.points_per_axis // 16, 2))
    sp = _Spectral(grid, real=False)
    for _ in range(nprobe):
        block = rng.standard_normal(draw.size) + 1j * rng.standard_normal(draw.size)
        base = np.sqrt(draw.dirichlet_sq(block))
        # the probe's buffer is the next draw's: twist and transform in place
        probe = draw(block)
        np.multiply(phase, probe, out=probe)
        twisted = np.sqrt(sp.dirichlet_sq(sp.forward(probe, overwrite=True)))
        ratio = twisted / base
        hi = max(hi, ratio)
        lo = min(lo, ratio)

    upper, lower = gauge_bounds(tau)
    return GaugeReport(float(energy_lhs), float(energy_rhs), float(hi), float(lo),
                       bool(hi <= upper and lo >= lower), result.value)
