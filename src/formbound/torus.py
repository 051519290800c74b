"""Grid-sampled fields on the flat torus and their exact spectral calculus.

Everything downstream (decompositions, trace tests, capacities, operator
norms) is built from the handful of Fourier-multiplier operators defined
here.  Conventions:

* the torus is [0, L)^dim sampled at ``n`` points per axis, spacing h = L/n,
  sample points x_j = j h (cell j owns the Voronoi cube centred on x_j);
* ``fftn`` is unnormalised, so Parseval reads
  sum |v_j|^2 h^dim = (L/n^2)^dim * sum_k |vhat_k|^2;
* differentiation multiplies mode k by i*kappa with kappa = 2*pi*k/L and k
  the signed integer frequency from fftfreq.

Derivatives of real fields are returned real: the (purely imaginary)
asymmetric Nyquist contribution of odd multipliers is discarded, which is
the usual spectral-derivative convention.  Composite identities that must
hold to machine precision (Hodge reconstruction and friends) are assembled
in frequency space in one pass, see hodge.py.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as _sfft

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "MatrixField",
    "GridMismatchError",
    "MeanModeError",
    "RankError",
    "grad",
    "div",
    "curl",
    "mat_div",
    "inv_laplacian",
    "riesz_half",
    "bessel_inv",
    "lp_norm",
    "mean",
    "max_abs",
    "dirichlet_norm",
    "sobolev_norm",
    "integral",
    "l2_inner",
    "zero_mean",
    "fft_workers",
]

_MEAN_TOL = 1e-10


class GridMismatchError(ValueError):
    """Fields living on different grids were combined."""


class MeanModeError(ValueError):
    """A homogeneous multiplier was applied to a field with nonzero mean."""


class RankError(TypeError):
    """An operation was applied to a field of the wrong rank."""


def fft_workers() -> int:
    """Worker count for FFT calls, capped by FORMBOUND_THREADS if set."""
    env = os.environ.get("FORMBOUND_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return os.cpu_count() or 1


def _fftn(values: np.ndarray) -> np.ndarray:
    return _sfft.fftn(values, workers=fft_workers())


def _ifftn(values: np.ndarray) -> np.ndarray:
    return _sfft.ifftn(values, workers=fft_workers())


def _rfftn(values: np.ndarray) -> np.ndarray:
    """Half spectrum of a real array: last axis keeps modes 0..n//2."""
    return _sfft.rfftn(values, workers=fft_workers())


def _irfftn(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return _sfft.irfftn(values, s=shape, workers=fft_workers())


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, period)^dim.

    points_per_axis must be a power of two (>= 8) so that the dyadic cube
    machinery tiles the domain exactly; h * points_per_axis == period holds
    exactly in binary floating point because of it.
    """

    dim: int
    points_per_axis: int
    period: float = 1.0

    def __post_init__(self) -> None:
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        n = self.points_per_axis
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_axis must be a power of two >= 8, got {n}")
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")

    @property
    def spacing(self) -> float:
        return self.period / self.points_per_axis

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def npoints(self) -> int:
        return self.points_per_axis**self.dim

    def coordinates(self) -> list[np.ndarray]:
        """Sample coordinates along each axis, broadcastable to shape."""
        n = self.points_per_axis
        x = np.arange(n) * self.spacing
        out = []
        for axis in range(self.dim):
            form = [1] * self.dim
            form[axis] = n
            out.append(x.reshape(form))
        return out


@lru_cache(maxsize=64)
def _kappa_axes(dim: int, n: int, period: float) -> tuple[np.ndarray, ...]:
    kap = 2.0 * np.pi * np.fft.fftfreq(n, d=period / n)
    out = []
    for axis in range(dim):
        form = [1] * dim
        form[axis] = n
        out.append(kap.reshape(form))
    return tuple(out)


@lru_cache(maxsize=64)
def _kappa_sq(dim: int, n: int, period: float) -> np.ndarray:
    axes = _kappa_axes(dim, n, period)
    out = np.zeros((n,) * dim)
    for a in axes:
        out = out + a**2
    return out


def kappa_axes(grid: Grid) -> tuple[np.ndarray, ...]:
    """Angular wavenumbers 2*pi*k/L per axis, shaped for broadcasting."""
    return _kappa_axes(grid.dim, grid.points_per_axis, grid.period)


def kappa_sq(grid: Grid) -> np.ndarray:
    """|2*pi*k/L|^2 on the full frequency lattice."""
    return _kappa_sq(grid.dim, grid.points_per_axis, grid.period)


def _coerce(grid: Grid, values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values)
    if arr.shape != grid.shape:
        raise GridMismatchError(f"values shape {arr.shape} != grid shape {grid.shape}")
    if np.iscomplexobj(arr):
        return np.ascontiguousarray(arr, dtype=np.complex128)
    return np.ascontiguousarray(arr, dtype=np.float64)


@dataclass
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = _coerce(self.grid, self.values)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def _check(self, other: "ScalarField") -> None:
        if other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")

    def __add__(self, other):
        if isinstance(other, ScalarField):
            self._check(other)
            return ScalarField(self.grid, self.values + other.values)
        return ScalarField(self.grid, self.values + other)

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            self._check(other)
            return ScalarField(self.grid, self.values - other.values)
        return ScalarField(self.grid, self.values - other)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            self._check(other)
            return ScalarField(self.grid, self.values * other.values)
        return ScalarField(self.grid, self.values * other)

    __rmul__ = __mul__

    def conj(self) -> "ScalarField":
        return ScalarField(self.grid, np.conj(self.values))


@dataclass
class VectorField:
    components: tuple[ScalarField, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if not comps:
            raise RankError("vector field needs at least one component")
        grid = comps[0].grid
        if len(comps) != grid.dim:
            raise RankError(f"expected {grid.dim} components, got {len(comps)}")
        for c in comps[1:]:
            if c.grid != grid:
                raise GridMismatchError("vector components live on different grids")
        self.components = comps

    @classmethod
    def from_array(cls, grid: Grid, stacked: np.ndarray) -> "VectorField":
        return cls(tuple(ScalarField(grid, stacked[i]) for i in range(grid.dim)))

    @property
    def grid(self) -> Grid:
        return self.components[0].grid

    def stack(self) -> np.ndarray:
        return np.stack([c.values for c in self.components])

    def __getitem__(self, i: int) -> ScalarField:
        return self.components[i]

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField(tuple(a - b for a, b in zip(self.components, other.components)))

    def __mul__(self, scalar) -> "VectorField":
        return VectorField(tuple(c * scalar for c in self.components))

    __rmul__ = __mul__


@dataclass
class MatrixField:
    entries: tuple[tuple[ScalarField, ...], ...]
    skew_symmetric: bool = False

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        grid = rows[0][0].grid
        d = grid.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            raise RankError(f"expected a {d}x{d} matrix of fields")
        for row in rows:
            for entry in row:
                if entry.grid != grid:
                    raise GridMismatchError("matrix entries live on different grids")
        self.entries = rows

    @classmethod
    def from_array(cls, grid: Grid, stacked: np.ndarray, skew_symmetric: bool = False) -> "MatrixField":
        d = grid.dim
        rows = tuple(
            tuple(ScalarField(grid, stacked[i, j]) for j in range(d)) for i in range(d)
        )
        return cls(rows, skew_symmetric=skew_symmetric)

    @property
    def grid(self) -> Grid:
        return self.entries[0][0].grid

    def stack(self) -> np.ndarray:
        return np.stack([np.stack([e.values for e in row]) for row in self.entries])

    def __getitem__(self, ij: tuple[int, int]) -> ScalarField:
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "MatrixField":
        d = self.grid.dim
        rows = tuple(tuple(self.entries[j][i] for j in range(d)) for i in range(d))
        return MatrixField(rows, skew_symmetric=self.skew_symmetric)

    def __add__(self, other: "MatrixField") -> "MatrixField":
        d = self.grid.dim
        rows = tuple(
            tuple(self.entries[i][j] + other.entries[i][j] for j in range(d)) for i in range(d)
        )
        return MatrixField(rows)

    def __sub__(self, other: "MatrixField") -> "MatrixField":
        d = self.grid.dim
        rows = tuple(
            tuple(self.entries[i][j] - other.entries[i][j] for j in range(d)) for i in range(d)
        )
        return MatrixField(rows)

    def __mul__(self, scalar) -> "MatrixField":
        rows = tuple(tuple(e * scalar for e in row) for row in self.entries)
        return MatrixField(rows, skew_symmetric=self.skew_symmetric)

    __rmul__ = __mul__


Field = ScalarField | VectorField | MatrixField


def _maybe_real(out: np.ndarray, *inputs: np.ndarray) -> np.ndarray:
    if any(np.iscomplexobj(v) for v in inputs):
        return out
    return out.real


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


def grad(f: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    if not isinstance(f, ScalarField):
        raise RankError("grad expects a scalar field")
    g = f.grid
    fhat = _fftn(f.values)
    comps = []
    for kap in kappa_axes(g):
        comps.append(ScalarField(g, _maybe_real(_ifftn(1j * kap * fhat), f.values)))
    return VectorField(tuple(comps))


def div(v: VectorField) -> ScalarField:
    """Spectral divergence of a vector field."""
    if not isinstance(v, VectorField):
        raise RankError("div expects a vector field")
    g = v.grid
    acc = np.zeros(g.shape, dtype=np.complex128)
    for kap, comp in zip(kappa_axes(g), v.components):
        acc += 1j * kap * _fftn(comp.values)
    return ScalarField(g, _maybe_real(_ifftn(acc), v.stack()))


def curl(v: VectorField) -> MatrixField:
    """Matrix curl, (curl b)_{ij} = d_j b_i - d_i b_j.

    The sign convention is the one that makes the two-part reconstruction
    b = grad(inv_laplacian(div b)) + mat_div(inv_laplacian(curl b)) exact.
    """
    if not isinstance(v, VectorField):
        raise RankError("curl expects a vector field")
    g = v.grid
    d = g.dim
    kaps = kappa_axes(g)
    hats = [_fftn(c.values) for c in v.components]
    real_in = not np.iscomplexobj(v.stack())
    zero = ScalarField(g, np.zeros(g.shape))
    rows: list[list[ScalarField]] = [[zero] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            ent = _ifftn(1j * (kaps[j] * hats[i] - kaps[i] * hats[j]))
            if real_in:
                ent = ent.real
            rows[i][j] = ScalarField(g, ent)
            rows[j][i] = ScalarField(g, -ent)
    return MatrixField(tuple(tuple(r) for r in rows), skew_symmetric=True)


def mat_div(m: MatrixField) -> VectorField:
    """Row-wise divergence of a matrix field, (Div F)_i = sum_j d_j F_ij."""
    if not isinstance(m, MatrixField):
        raise RankError("mat_div expects a matrix field")
    g = m.grid
    d = g.dim
    kaps = kappa_axes(g)
    comps = []
    stacked = m.stack()
    for i in range(d):
        acc = np.zeros(g.shape, dtype=np.complex128)
        for j in range(d):
            acc += 1j * kaps[j] * _fftn(m.entries[i][j].values)
        comps.append(ScalarField(g, _maybe_real(_ifftn(acc), stacked)))
    return VectorField(tuple(comps))


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------


def _mean_value(values: np.ndarray) -> complex:
    return complex(values.mean())


def _apply_multiplier(
    f: ScalarField, symbol: np.ndarray, homogeneous: bool, annihilate_mean: bool
) -> ScalarField:
    g = f.grid
    if homogeneous:
        m = _mean_value(f.values)
        scale = float(np.max(np.abs(f.values))) if f.values.size else 0.0
        if abs(m) > _MEAN_TOL * max(1.0, scale) and not annihilate_mean:
            raise MeanModeError(
                "homogeneous multiplier on a field with nonzero mean "
                f"(|mean| = {abs(m):.3e}); pass annihilate_mean=True to project it out"
            )
    fhat = _fftn(f.values)
    out = _ifftn(symbol * fhat)
    return ScalarField(g, _maybe_real(out, f.values))


def _componentwise(op, field: Field, **kw) -> Field:
    if isinstance(field, ScalarField):
        return op(field, **kw)
    if isinstance(field, VectorField):
        return VectorField(tuple(op(c, **kw) for c in field.components))
    if isinstance(field, MatrixField):
        rows = tuple(tuple(op(e, **kw) for e in row) for row in field.entries)
        return MatrixField(rows, skew_symmetric=field.skew_symmetric)
    raise RankError(f"not a field: {type(field)!r}")


@lru_cache(maxsize=64)
def _inv_lap_symbol(dim: int, n: int, period: float) -> np.ndarray:
    ks = _kappa_sq(dim, n, period).copy()
    ks.flat[0] = 1.0
    sym = -1.0 / ks
    sym.flat[0] = 0.0
    return sym


@lru_cache(maxsize=64)
def _riesz_half_symbol(dim: int, n: int, period: float) -> np.ndarray:
    ks = _kappa_sq(dim, n, period).copy()
    ks.flat[0] = 1.0
    sym = 1.0 / np.sqrt(ks)
    sym.flat[0] = 0.0
    return sym


@lru_cache(maxsize=64)
def _bessel_inv_symbol(dim: int, n: int, period: float) -> np.ndarray:
    return 1.0 / (1.0 + _kappa_sq(dim, n, period))


def inv_laplacian(field: Field, annihilate_mean: bool = False) -> Field:
    """Inverse Laplacian: multiply mode k by -1/|2 pi k / L|^2, zero mode -> 0."""

    def op(f: ScalarField) -> ScalarField:
        g = f.grid
        sym = _inv_lap_symbol(g.dim, g.points_per_axis, g.period)
        return _apply_multiplier(f, sym, homogeneous=True, annihilate_mean=annihilate_mean)

    return _componentwise(op, field)


def riesz_half(field: Field, annihilate_mean: bool = False) -> Field:
    """Half-order Riesz smoothing (-Delta)^(-1/2); zero mode dropped."""

    def op(f: ScalarField) -> ScalarField:
        g = f.grid
        sym = _riesz_half_symbol(g.dim, g.points_per_axis, g.period)
        return _apply_multiplier(f, sym, homogeneous=True, annihilate_mean=annihilate_mean)

    return _componentwise(op, field)


def bessel_inv(field: Field) -> Field:
    """(1 - Delta)^(-1); acts on every mode including the mean."""

    def op(f: ScalarField) -> ScalarField:
        g = f.grid
        sym = _bessel_inv_symbol(g.dim, g.points_per_axis, g.period)
        return _apply_multiplier(f, sym, homogeneous=False, annihilate_mean=False)

    return _componentwise(op, field)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _pointwise_magnitude(field: Field) -> np.ndarray:
    if isinstance(field, ScalarField):
        return np.abs(field.values)
    if isinstance(field, VectorField):
        return np.sqrt(np.sum(np.abs(field.stack()) ** 2, axis=0))
    if isinstance(field, MatrixField):
        return np.sqrt(np.sum(np.abs(field.stack()) ** 2, axis=(0, 1)))
    raise RankError(f"not a field: {type(field)!r}")


def _grid_of(field: Field) -> Grid:
    return field.grid


def integral(field: ScalarField) -> complex | float:
    """Integral over the torus, sum of samples times cell volume."""
    tot = field.values.sum() * field.grid.cell_volume
    return float(tot.real) if field.is_real else complex(tot)


def l2_inner(f: ScalarField, g: ScalarField) -> complex:
    """L2 pairing integral of f * conj(g)."""
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")
    return complex(np.vdot(g.values, f.values) * f.grid.cell_volume)


def lp_norm(field: Field, p: float = 2.0) -> float:
    """Lp norm with the euclidean pointwise magnitude for vectors/matrices."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    mag = _pointwise_magnitude(field)
    vol = _grid_of(field).cell_volume
    if np.isinf(p):
        return float(mag.max())
    return float((np.sum(mag**p) * vol) ** (1.0 / p))


def mean(field: Field):
    """Average over sample points; vector/matrix means keep their shape."""
    if isinstance(field, ScalarField):
        m = field.values.mean()
        return float(m.real) if field.is_real else complex(m)
    if isinstance(field, VectorField):
        return np.array([mean(c) for c in field.components])
    if isinstance(field, MatrixField):
        return np.array([[mean(e) for e in row] for row in field.entries])
    raise RankError(f"not a field: {type(field)!r}")


def max_abs(field: Field) -> float:
    return float(_pointwise_magnitude(field).max())


def _dirichlet_sq_from_hat(g: Grid, fhat: np.ndarray) -> float:
    """Squared Dirichlet norm of a field from its full spectrum."""
    # Parseval with the unnormalised transform.
    scale = g.period**g.dim / g.npoints**2
    return float(np.sum(kappa_sq(g) * np.abs(fhat) ** 2) * scale)


def dirichlet_norm(field: Field) -> float:
    """L2 norm of the full gradient, evaluated in frequency space."""

    def one(f: ScalarField) -> float:
        return _dirichlet_sq_from_hat(f.grid, _fftn(f.values))

    if isinstance(field, ScalarField):
        return float(np.sqrt(one(field)))
    if isinstance(field, VectorField):
        return float(np.sqrt(sum(one(c) for c in field.components)))
    if isinstance(field, MatrixField):
        return float(np.sqrt(sum(one(e) for row in field.entries for e in row)))
    raise RankError(f"not a field: {type(field)!r}")


def sobolev_norm(field: Field) -> float:
    """W^{1,2} norm as the sum of the L2 and Dirichlet norms."""
    return lp_norm(field, 2.0) + dirichlet_norm(field)


def zero_mean(field: Field) -> Field:
    """Subtract the mean from every component."""
    if isinstance(field, ScalarField):
        return field - mean(field)
    if isinstance(field, VectorField):
        return VectorField(tuple(c - mean(c) for c in field.components))
    if isinstance(field, MatrixField):
        rows = tuple(tuple(e - mean(e) for e in row) for row in field.entries)
        return MatrixField(rows, skew_symmetric=field.skew_symmetric)
    raise RankError(f"not a field: {type(field)!r}")
