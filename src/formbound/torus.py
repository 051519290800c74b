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

Geometry.  ``Grid`` owns the geometry of the grid, and the other modules
read it from there rather than rebuild it: the sample coordinates
(``coordinates``), the squared minimum-image distance from a cell
(``dist_sq``: the balls of the measure tests and of the capacity sets, and
the radial presets), the index of the modes |k_i| <= kmax in signed
ascending order (``band``: the seeded spectral draws, the gauge probes and
the coarse Galerkin start), and the mask of a periodic cube from its corner
cell (``cube``).  Every per-axis array, the wavenumbers included, is laid
along its axis by ``_on_axes``.

Fields.  A scalar field holds one array of the grid's shape; a vector field
one array of shape (dim, *grid) and a matrix field one of shape
(dim, dim, *grid).  Components and entries are views of that array, so a
write through a view reaches the field.  Every field is built through one
constructor, which rejects NaN and infinite samples.

Transforms.  Every transform in the package goes through ``_fftn`` /
``_ifftn`` (complex) or ``_rfftn`` / ``_irfftn`` (real) here.  Given the
grid's ``dim`` they transform the last ``dim`` axes and treat the leading
axes as a batch, so a vector or matrix field costs one call; each
component's result has the same bits as its own transform.  The calculus
below (``grad``, ``div``, ``curl``, ``mat_div`` and the multipliers) and
the Hodge splits pick their path through ``_Spectral``: a real field takes
the half spectrum (the last axis keeps modes 0..n//2) and reads every
symbol through ``_half``, a ``[..., :n//2 + 1]`` view of the cached table;
a complex field takes the full spectrum and the whole tables.  The measure
potentials and the nonlinear ascent, whose input is always real, call the
real pair directly.  The form operator and the preset draw still transform
real data as complex.  ``_PrunedFFT`` runs scipy's rfftn, irfftn or ifftn
as its 1-D passes, in scipy's order, and skips each pass over a line with
no nonzero input or no output that is read; the capacity solver's Green
operator and its band-limited gauge probes use it, and every value it
computes has the bits of the full transform.  Fourier symbols are built
once per (dim, n, period) and cached.

Derivatives of real fields are real.  A real field's unpaired Nyquist mode
carries no direction of travel, so the real path differentiates with
``_deriv_kappas``, whose own-axis Nyquist entries are zero.  This gives
the values the real part of the full complex derivative gives (the odd
multiplier's Nyquist contribution is purely imaginary), which is the usual
spectral-derivative convention.  Complex fields read the same table, so a
field's derivatives, and every certificate built on them, do not depend on
whether its samples are stored as real or complex; a complex field with no
energy on the Nyquist planes differentiates as it would with the Nyquist
entries kept.  Only the form operator still reads ``kappa_axes``, the
table with the Nyquist entries.  Composite identities that must hold to
machine precision (Hodge reconstruction and friends) are assembled in
frequency space in one pass, see hodge.py.
"""

from __future__ import annotations

import itertools
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
    """The thread budget: FORMBOUND_THREADS if set, else the core count.

    It is the worker count of every transform.
    """
    env = os.environ.get("FORMBOUND_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(
                f"FORMBOUND_THREADS must be a positive integer, got {env!r}")
        return workers
    return os.cpu_count() or 1


def _axes(dim: int | None) -> tuple[int, ...] | None:
    return None if dim is None else tuple(range(-dim, 0))


def _fftn(values: np.ndarray, dim: int | None = None,
          overwrite: bool = False) -> np.ndarray:
    """Transform over the last ``dim`` axes (every axis when None).

    With ``overwrite`` a complex input is transformed in place.
    """
    return _sfft.fftn(values, axes=_axes(dim), overwrite_x=overwrite,
                      workers=fft_workers())


def _ifftn(values: np.ndarray, dim: int | None = None,
           overwrite: bool = False) -> np.ndarray:
    return _sfft.ifftn(values, axes=_axes(dim), overwrite_x=overwrite,
                       workers=fft_workers())


def _rfftn(values: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Half spectrum of a real array over the last ``dim`` axes (every axis
    when None): the last of them keeps modes 0..n//2."""
    return _sfft.rfftn(values, axes=_axes(dim), workers=fft_workers())


def _irfftn(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Real samples of shape ``shape`` from half spectra over the last
    ``len(shape)`` axes; leading axes are a batch."""
    return _sfft.irfftn(values, s=shape, workers=fft_workers())


def _half(table: np.ndarray) -> np.ndarray:
    """The real path's view of a symbol table: modes 0..n//2 of the last
    axis (a table of length 1 there, which broadcasts, stays whole)."""
    return table[..., : table.shape[-1] // 2 + 1]


def _blocks(lines: np.ndarray, axis: int) -> list[tuple[slice, ...]]:
    """Basic indices of blocks of whole lines along ``axis`` that cover
    every marked line (``lines`` masks the other axes): the products of the
    runs of consecutive indices that each other axis keeps."""
    runs = []
    for b in range(lines.ndim):
        keep = np.flatnonzero(lines.any(axis=tuple(c for c in range(lines.ndim)
                                                   if c != b)))
        cuts = np.flatnonzero(np.diff(keep) != 1) + 1
        runs.append([slice(r[0], r[-1] + 1) for r in np.split(keep, cuts)]
                    if keep.size else [])
    runs.insert(axis, [slice(None)])
    return list(itertools.product(*runs))


class _PrunedFFT:
    """scipy's ``rfftn``, ``irfftn`` or ``ifftn`` over every axis of
    ``shape``, minus each 1-D pass over a line that holds no nonzero input
    or no output that is read.

    The passes that remain run in scipy's order: ``rfftn`` transforms the
    last axis and then axes 0, 1, ...; ``irfftn`` and ``ifftn`` run axes 0,
    1, ... and the last axis last.  A pass along another axis than the last
    runs over blocks of whole lines, the products of runs of consecutive
    indices that cover the lines it needs.  A 1-D transform reads and writes
    its own line only, so every value that is computed has the bits of the
    full transform.  Each inverse pass applies the 1/n of its axis; the
    lengths are powers of two, so the factors are exact and together equal
    scipy's single 1/N.

    ``nonzero`` masks the input entries that may be nonzero and ``read`` the
    output entries that are read (None: all).  The grid side travels in row
    form: ``rows`` lists the lines of the last axis (flat indices over the
    leading axes) that hold a nonzero input (``rfftn``) or a read output
    (``irfftn``, ``ifftn``), and the grid values are an array of shape
    (rows.size, n), one line each.  The spectral side is a whole array; its
    entries that nothing reads may hold anything.  Passes run in place:
    ``rfftn`` returns a buffer of its own that its next call overwrites, and
    the inverse transforms overwrite the spectrum they are given.
    """

    def __init__(self, kind: str, shape: tuple[int, ...],
                 nonzero: np.ndarray | None = None,
                 read: np.ndarray | None = None):
        d = len(shape)
        half = shape[:-1] + (shape[-1] // 2 + 1,)
        if kind == "rfftn":
            axes, spaces = (d - 1, *range(d - 1)), [shape] + [half] * d
        elif kind == "irfftn":
            axes, spaces = tuple(range(d)), [half] * d + [shape]
        elif kind == "ifftn":
            axes, spaces = tuple(range(d)), [shape] * (d + 1)
        else:
            raise ValueError(f"unknown transform {kind!r}")
        self.kind = kind
        self.shape = shape
        # a pass makes each line it transforms live along its axis, and it
        # needs each line that holds an output some later pass needs
        live = np.ones(spaces[0], bool) if nonzero is None else nonzero
        lines_in = []
        for axis, space in zip(axes, spaces[1:]):
            lines_in.append(live.any(axis=axis))
            live = np.broadcast_to(np.expand_dims(lines_in[-1], axis), space)
        need = np.ones(spaces[-1], bool) if read is None else read
        lines_out = []
        for axis, space in zip(axes[::-1], spaces[-2::-1]):
            lines_out.insert(0, need.any(axis=axis))
            need = np.broadcast_to(np.expand_dims(lines_out[0], axis), space)
        self._passes = []
        for axis, a, b in zip(axes, lines_in, lines_out):
            if axis == d - 1:
                self.rows = np.flatnonzero(a & b)
            else:
                self._passes.append((axis, _blocks(a & b, axis)))
        if kind == "rfftn":
            self._work = np.zeros(half, dtype=np.complex128)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        workers = fft_workers()
        if self.kind == "rfftn":
            work = self._work
            work.fill(0.0)
            work.reshape(-1, work.shape[-1])[self.rows] = _sfft.rfft(
                values, axis=-1, workers=workers)
            fn = _sfft.fft
        else:
            work = values
            fn = _sfft.ifft
        for axis, blocks in self._passes:
            for block in blocks:
                view = work[block]
                out = fn(view, axis=axis, overwrite_x=True, workers=workers)
                # overwrite_x allows an in-place transform but does not
                # promise one
                if not np.may_share_memory(out, view):
                    view[...] = out
        if self.kind == "rfftn":
            return work
        lines = work.reshape(-1, work.shape[-1])
        if self.rows.size < lines.shape[0]:
            lines = lines[self.rows]
        if self.kind == "irfftn":
            return _sfft.irfft(lines, n=self.shape[-1], axis=-1, workers=workers)
        return _sfft.ifft(lines, axis=-1, overwrite_x=True, workers=workers)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum x y as a numpy reduction: np.dot and np.linalg.norm run on the
    BLAS thread pool, whose size would move the last digits."""
    return float(np.sum(x * y))


def _norm(x: np.ndarray) -> float:
    return float(np.sqrt(_dot(x, x)))


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
        return _on_axes(*[np.arange(self.points_per_axis) * self.spacing] * self.dim)

    def dist_sq(self, cell: tuple[int, ...] | None = None) -> np.ndarray:
        """Squared torus distance from the sample point of ``cell`` (the
        origin when None) to every sample point: per axis the minimum-image
        offset, a whole number of cells times h, squared and summed."""
        cell = (0,) * self.dim if cell is None else cell
        if len(cell) != self.dim:
            raise ValueError(f"cell needs {self.dim} indices, got {len(cell)}")
        n = self.points_per_axis
        idx = np.arange(n)
        parts = _on_axes(*[(np.minimum((idx - c) % n, (c - idx) % n) * self.spacing) ** 2
                           for c in cell])
        return sum(parts[1:], parts[0])

    def band(self, kmax: int) -> tuple[np.ndarray, ...]:
        """Index of the modes |k_i| <= kmax on every axis of the grid's
        spectrum, each axis in signed ascending order -kmax, ..., kmax: a
        block drawn in this order lands on the same modes at every n."""
        return np.ix_(*[np.arange(-kmax, kmax + 1) % self.points_per_axis] * self.dim)

    def cube(self, corner: tuple[int, ...], side: int) -> np.ndarray:
        """Mask of the periodic cube of ``side`` cells per axis whose first
        cell is ``corner``; it wraps around the torus."""
        if len(corner) != self.dim:
            raise ValueError(f"cube corner needs {self.dim} indices, got {len(corner)}")
        mask = np.zeros(self.shape, dtype=bool)
        mask[np.ix_(*[(np.arange(side) + c) % self.points_per_axis for c in corner])] = True
        return mask


def _on_axes(*lines: np.ndarray) -> list[np.ndarray]:
    """Line k laid along axis k, shaped to broadcast against the grid."""
    return list(np.meshgrid(*lines, indexing="ij", sparse=True))


# ---------------------------------------------------------------------------
# the symbol table: every Fourier symbol, built once per (dim, n, period)
# ---------------------------------------------------------------------------


def _key(grid: Grid) -> tuple[int, int, float]:
    return grid.dim, grid.points_per_axis, grid.period


@lru_cache(maxsize=64)
def _kappa_axes(dim: int, n: int, period: float) -> tuple[np.ndarray, ...]:
    return tuple(_on_axes(*[2.0 * np.pi * np.fft.fftfreq(n, d=period / n)] * dim))


@lru_cache(maxsize=64)
def _kappa_sq(dim: int, n: int, period: float) -> np.ndarray:
    axes = _kappa_axes(dim, n, period)
    out = np.zeros((n,) * dim)
    for a in axes:
        out = out + a**2
    return out


@lru_cache(maxsize=64)
def _inv_lap_symbol(dim: int, n: int, period: float) -> np.ndarray:
    ks = _kappa_sq(dim, n, period).copy()
    ks.flat[0] = 1.0
    sym = -1.0 / ks
    sym.flat[0] = 0.0
    return sym


@lru_cache(maxsize=64)
def _riesz_half_symbol(dim: int, n: int, period: float) -> np.ndarray:
    """(-Lap)^(-1/2), zero mode dropped."""
    ks = _kappa_sq(dim, n, period).copy()
    ks.flat[0] = 1.0
    sym = 1.0 / np.sqrt(ks)
    sym.flat[0] = 0.0
    return sym


@lru_cache(maxsize=64)
def _bessel_half_symbol(dim: int, n: int, period: float) -> np.ndarray:
    """(1 - Lap)^(-1/2)."""
    return 1.0 / np.sqrt(1.0 + _kappa_sq(dim, n, period))


@lru_cache(maxsize=64)
def _bessel_inv_symbol(dim: int, n: int, period: float) -> np.ndarray:
    return 1.0 / (1.0 + _kappa_sq(dim, n, period))


@lru_cache(maxsize=64)
def _deriv_kappas(dim: int, n: int, period: float):
    """Wavenumbers with the own-axis Nyquist entry zeroed, for the fused
    Hodge splits and the real path's derivatives: (kaps, grounded
    |kaps|^2, 1 / (1 + |kaps|^2)).

    A real field's unpaired Nyquist mode carries no direction of travel,
    and the real part of the full spectral derivative treats it as zero.
    Building the projections from the same convention keeps each mode's
    multiplier partner-symmetric, so the spectra of a real field's parts
    stay Hermitian and P and Q stay exactly idempotent on real input.
    The grounded square has its zeros (the mean and the Nyquist-only
    modes) replaced by 1; the Bessel factor is taken from the
    Nyquist-zeroed square, so it differs from ``_bessel_inv_symbol`` on
    the Nyquist planes.
    """
    kaps = []
    for kap in _kappa_axes(dim, n, period):
        k = kap.copy()
        k.flat[n // 2] = 0.0
        kaps.append(k)
    ks = kaps[0] ** 2
    for k in kaps[1:]:
        ks = ks + k**2
    return tuple(kaps), np.where(ks > 0.0, ks, 1.0), 1.0 / (1.0 + ks)


def kappa_axes(grid: Grid) -> tuple[np.ndarray, ...]:
    """Angular wavenumbers 2*pi*k/L per axis, shaped for broadcasting."""
    return _kappa_axes(*_key(grid))


def kappa_sq(grid: Grid) -> np.ndarray:
    """|2*pi*k/L|^2 on the full frequency lattice."""
    return _kappa_sq(*_key(grid))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def _coerce(grid: Grid, values: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(values)
    want = lead + grid.shape
    if arr.shape != want:
        raise GridMismatchError(f"values shape {arr.shape} != expected shape {want}")
    dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
    arr = np.ascontiguousarray(arr, dtype=dtype)
    bad = arr.size - int(np.count_nonzero(np.isfinite(arr)))
    if bad:
        raise ValueError(f"{bad} non-finite sample(s) (NaN or inf) in a field")
    return arr


@dataclass
class _Field:
    """One array of samples; its leading ``rank`` axes index components."""

    grid: Grid
    values: np.ndarray

    rank = 0

    def __post_init__(self) -> None:
        self.values = _coerce(self.grid, self.values, (self.grid.dim,) * self.rank)

    @classmethod
    def from_array(cls, grid: Grid, stacked: np.ndarray):
        field = object.__new__(cls)
        _Field.__init__(field, grid, stacked)
        return field

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def copy(self):
        return self.from_array(self.grid, self.values.copy())

    def conj(self):
        return self.from_array(self.grid, np.conj(self.values))

    def _operand(self, other):
        if not isinstance(other, _Field):
            return other
        if type(other) is not type(self):
            raise RankError("fields of different rank combined")
        if other.grid != self.grid:
            raise GridMismatchError("fields live on different grids")
        return other.values

    def __add__(self, other):
        return self.from_array(self.grid, self.values + self._operand(other))

    def __sub__(self, other):
        return self.from_array(self.grid, self.values - self._operand(other))

    def __mul__(self, other):
        return self.from_array(self.grid, self.values * self._operand(other))

    __rmul__ = __mul__


@dataclass
class ScalarField(_Field):
    """Scalar field: one array of the grid's shape."""


def _view(grid: Grid, values: np.ndarray) -> ScalarField:
    """A scalar field sharing ``values``, which is already checked."""
    field = object.__new__(ScalarField)
    field.grid = grid
    field.values = values
    return field


def _stack_of(fields, grid: Grid) -> np.ndarray:
    for f in fields:
        if f.grid != grid:
            raise GridMismatchError("components live on different grids")
    return np.stack([f.values for f in fields])


@dataclass(init=False)
class VectorField(_Field):
    """Vector field; ``components`` and ``v[i]`` are views of its rows."""

    rank = 1

    def __init__(self, components) -> None:
        comps = tuple(components)
        if not comps:
            raise RankError("vector field needs at least one component")
        grid = comps[0].grid
        if len(comps) != grid.dim:
            raise RankError(f"expected {grid.dim} components, got {len(comps)}")
        super().__init__(grid, _stack_of(comps, grid))

    @property
    def components(self) -> tuple[ScalarField, ...]:
        return tuple(_view(self.grid, v) for v in self.values)

    def __getitem__(self, i: int) -> ScalarField:
        return _view(self.grid, self.values[i])


@dataclass(init=False)
class MatrixField(_Field):
    """Matrix field; ``entries`` and ``m[i, j]`` are views of its entries."""

    rank = 2

    def __init__(self, entries) -> None:
        rows = tuple(tuple(row) for row in entries)
        grid = rows[0][0].grid
        d = grid.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            raise RankError(f"expected a {d}x{d} matrix of fields")
        super().__init__(grid, np.stack([_stack_of(row, grid) for row in rows]))

    @property
    def entries(self) -> tuple[tuple[ScalarField, ...], ...]:
        return tuple(tuple(_view(self.grid, e) for e in row) for row in self.values)

    def __getitem__(self, ij: tuple[int, int]) -> ScalarField:
        return _view(self.grid, self.values[ij])

    def transpose(self) -> "MatrixField":
        return MatrixField.from_array(self.grid, np.swapaxes(self.values, 0, 1))

    def is_skew(self) -> bool:
        """Whether the diagonal is zero and F_ji = -F_ij, sample for sample."""
        v = self.values
        d = self.grid.dim
        return all(np.array_equal(v[j, i], -v[i, j])
                   for i in range(d) for j in range(i, d))


Field = ScalarField | VectorField | MatrixField


def _pairs(d: int) -> list[tuple[int, int]]:
    """Upper-triangle index pairs (i < j), row by row."""
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


def _skew_field(grid: Grid, upper: np.ndarray) -> MatrixField:
    """Skew matrix field from its upper entries, stacked in ``_pairs`` order."""
    d = grid.dim
    out = np.zeros((d, d) + grid.shape, dtype=upper.dtype)
    for (i, j), ent in zip(_pairs(d), upper):
        out[i, j] = ent
        out[j, i] = -ent
    return MatrixField.from_array(grid, out)


class _Spectral:
    """The transform pair and the symbol views for one field's samples.

    Real samples take the real path: one batched ``rfftn`` over the grid
    axes, symbols read through ``_half``, then ``irfftn``.  Complex samples
    take ``fftn`` / ``ifftn`` and the whole tables.  Both differentiate
    with the Nyquist-zeroed wavenumbers of ``_deriv_kappas``.
    """

    def __init__(self, field: _Field):
        g = field.grid
        self.grid = g
        self.real = field.is_real
        self.shape = g.shape[:-1] + (g.points_per_axis // 2 + 1,) if self.real else g.shape

    def view(self, table: np.ndarray) -> np.ndarray:
        return _half(table) if self.real else table

    def kappas(self) -> tuple[np.ndarray, ...]:
        return tuple(self.view(k) for k in _deriv_kappas(*_key(self.grid))[0])

    def forward(self, values: np.ndarray) -> np.ndarray:
        return (_rfftn if self.real else _fftn)(values, self.grid.dim)

    def stacked(self, parts, count: int) -> np.ndarray:
        """A batch of the ``count`` spectra ``parts`` yields, filled one at a
        time so that only one part is alive besides the batch."""
        out = np.empty((count,) + self.shape, dtype=np.complex128)
        for k, part in enumerate(parts):
            out[k] = part
        return out

    def inverse(self, spec: np.ndarray) -> np.ndarray:
        """Samples of ``spec``, a buffer the caller gives up."""
        if self.real:
            return _irfftn(spec, self.grid.shape)
        return _ifftn(spec, self.grid.dim, overwrite=True)


def _check_field(field) -> None:
    if not isinstance(field, _Field):
        raise RankError(f"not a field: {type(field)!r}")


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------


def grad(f: ScalarField) -> VectorField:
    """Spectral gradient of a scalar field."""
    if not isinstance(f, ScalarField):
        raise RankError("grad expects a scalar field")
    g = f.grid
    sp = _Spectral(f)
    fhat = sp.forward(f.values)
    spec = sp.stacked((1j * kap * fhat for kap in sp.kappas()), g.dim)
    return VectorField.from_array(g, sp.inverse(spec))


def div(v: VectorField) -> ScalarField:
    """Spectral divergence of a vector field."""
    if not isinstance(v, VectorField):
        raise RankError("div expects a vector field")
    g = v.grid
    sp = _Spectral(v)
    acc = np.zeros(sp.shape, dtype=np.complex128)
    for kap, hat in zip(sp.kappas(), sp.forward(v.values)):
        acc += 1j * kap * hat
    return ScalarField(g, sp.inverse(acc))


def curl(v: VectorField) -> MatrixField:
    """Matrix curl, (curl b)_{ij} = d_j b_i - d_i b_j.

    The sign convention is the one that makes the two-part reconstruction
    b = grad(inv_laplacian(div b)) + mat_div(inv_laplacian(curl b)) exact.
    """
    if not isinstance(v, VectorField):
        raise RankError("curl expects a vector field")
    g = v.grid
    sp = _Spectral(v)
    kaps = sp.kappas()
    hats = sp.forward(v.values)
    pairs = _pairs(g.dim)
    spec = sp.stacked((1j * (kaps[j] * hats[i] - kaps[i] * hats[j]) for i, j in pairs),
                      len(pairs))
    del hats
    return _skew_field(g, sp.inverse(spec))


def mat_div(m: MatrixField) -> VectorField:
    """Row-wise divergence of a matrix field, (Div F)_i = sum_j d_j F_ij."""
    if not isinstance(m, MatrixField):
        raise RankError("mat_div expects a matrix field")
    g = m.grid
    sp = _Spectral(m)
    kaps = sp.kappas()
    hats = sp.forward(m.values)
    out = np.zeros((g.dim,) + sp.shape, dtype=np.complex128)
    for acc, row in zip(out, hats):
        for kap, hat in zip(kaps, row):
            acc += 1j * kap * hat
    del hats
    return VectorField.from_array(g, sp.inverse(out))


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------


def _apply_multiplier(field: Field, symbol_of, homogeneous: bool,
                      annihilate_mean: bool) -> Field:
    """Multiply every component's spectrum by the cached ``symbol_of`` table."""
    _check_field(field)
    g = field.grid
    if homogeneous and not annihilate_mean:
        for comp in field.values.reshape((-1,) + g.shape):
            m = complex(comp.mean())
            scale = float(np.max(np.abs(comp))) if comp.size else 0.0
            if abs(m) > _MEAN_TOL * max(1.0, scale):
                raise MeanModeError(
                    "homogeneous multiplier on a field with nonzero mean "
                    f"(|mean| = {abs(m):.3e}); pass annihilate_mean=True to project it out"
                )
    sp = _Spectral(field)
    hat = sp.forward(field.values)
    hat *= sp.view(symbol_of(*_key(g)))
    return field.from_array(g, sp.inverse(hat))


def inv_laplacian(field: Field, annihilate_mean: bool = False) -> Field:
    """Inverse Laplacian: multiply mode k by -1/|2 pi k / L|^2, zero mode -> 0."""
    return _apply_multiplier(field, _inv_lap_symbol, True, annihilate_mean)


def riesz_half(field: Field, annihilate_mean: bool = False) -> Field:
    """Half-order Riesz smoothing (-Delta)^(-1/2); zero mode dropped."""
    return _apply_multiplier(field, _riesz_half_symbol, True, annihilate_mean)


def bessel_inv(field: Field) -> Field:
    """(1 - Delta)^(-1); acts on every mode including the mean."""
    return _apply_multiplier(field, _bessel_inv_symbol, False, False)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _pointwise_magnitude(field: Field) -> np.ndarray:
    _check_field(field)
    if field.rank == 0:
        return np.abs(field.values)
    return np.sqrt(np.sum(np.abs(field.values) ** 2, axis=tuple(range(field.rank))))


def integral(field: ScalarField) -> complex | float:
    """Integral over the torus, sum of samples times cell volume."""
    tot = field.values.sum() * field.grid.cell_volume
    return float(tot.real) if field.is_real else complex(tot)


def l2_inner(f: ScalarField, g: ScalarField) -> complex:
    """L2 pairing integral of f * conj(g)."""
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")
    # a numpy reduction, not np.vdot, so the BLAS pool size cannot move it
    return complex(np.sum(np.conj(g.values) * f.values) * f.grid.cell_volume)


def lp_norm(field: Field, p: float = 2.0) -> float:
    """Lp norm with the euclidean pointwise magnitude for vectors/matrices."""
    if p <= 0:
        raise ValueError(f"p must be positive, got {p}")
    mag = _pointwise_magnitude(field)
    vol = field.grid.cell_volume
    if np.isinf(p):
        return float(mag.max())
    return float((np.sum(mag**p) * vol) ** (1.0 / p))


def mean(field: Field):
    """Average over sample points; vector/matrix means keep their shape."""
    _check_field(field)
    if field.rank:
        return field.values.mean(axis=_axes(field.grid.dim))
    m = field.values.mean()
    return float(m.real) if field.is_real else complex(m)


def max_abs(field: Field) -> float:
    return float(_pointwise_magnitude(field).max())


def _dirichlet_sq_from_hat(g: Grid, fhat: np.ndarray) -> float:
    """Squared Dirichlet norm by Parseval from full spectra, or from the half
    spectra of real fields, whose interior columns of the last axis stand
    for their conjugate partners too; leading axes index components."""
    scale = g.period**g.dim / g.npoints**2
    if fhat.shape[-1] == g.points_per_axis:
        return float(np.sum(kappa_sq(g) * np.abs(fhat) ** 2) * scale)
    dens = _half(kappa_sq(g)) * np.abs(fhat) ** 2
    edges = np.sum(dens[..., 0]) + np.sum(dens[..., -1])
    return float((2.0 * np.sum(dens[..., 1:-1]) + edges) * scale)


def dirichlet_norm(field: Field) -> float:
    """L2 norm of the full gradient, evaluated in frequency space."""
    _check_field(field)
    sp = _Spectral(field)
    return float(np.sqrt(_dirichlet_sq_from_hat(field.grid, sp.forward(field.values))))


def zero_mean(field: Field) -> Field:
    """Subtract the mean from every component."""
    m = mean(field)
    if field.rank:
        m = np.reshape(m, np.shape(m) + (1,) * field.grid.dim)
    return field.from_array(field.grid, field.values - m)
