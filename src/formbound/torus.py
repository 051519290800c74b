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
ascending order (``band``: the band-limited draws of ``_BandDraw`` and the
coarse Galerkin start), and the mask of a periodic cube from its corner
cell (``cube``).  Every per-axis array, the wavenumbers included, is laid
along its axis by ``_on_axes``.

Fields.  A scalar field holds one array of the grid's shape; a vector field
one array of shape (dim, *grid) and a matrix field one of shape
(dim, dim, *grid).  Components and entries are views of that array, so a
write through a view reaches the field.  A skew matrix field (``SkewField``,
what ``curl`` and the Hodge splits return) holds only its d(d-1)/2 upper
entries, one array of shape (d(d-1)/2, *grid) in ``_pairs`` order: an entry
above the diagonal is a view, one below it a negated copy, and ``dense()``
gives the full matrix field.  Every field is built through one
constructor, which rejects NaN and infinite samples.

Transforms and symbols.  Every transform in the package is a call of
``_Spectral``, and every Fourier symbol is a table of it.  A core is keyed
by a grid and a path and is interned: ``_Spectral(grid, real)`` returns the
one core of that pair, which builds each table on its first read and keeps
it.  The real path takes the half spectrum, and its tables have the half
spectrum's shape: the last axis holds modes 0..n//2, with wavenumbers from
the same ``fftfreq`` values as the full grid, so each entry has the bits of
the full table's.  The complex path takes the full spectrum and full-grid
tables.  Real data takes the real path (the calculus, the Hodge splits, the
measure potentials and ball scans, the capacity potentials, the nonlinear
ascent and the form operator on real coefficients); complex fields,
complex coefficients and the gauge probes' twisted spectra take the
complex one.  The core transforms the last ``dim`` axes and treats the
leading axes as a batch; each component's result has the same bits as its
own transform.  An input vector or matrix field goes forward in one call
(``mat_div`` takes a skew field's upper entries in one call and a dense
field's rows one per call).  The outputs of ``grad``, ``curl``, ``mat_div``
and the Hodge splits come back one component at a time through
``_Spectral.stream``, so that one output spectrum is alive at a time; a
multiplier transforms its batch back in one call.  The only other caller
of scipy.fft is ``_PrunedFFT``, which runs scipy's rfftn, irfftn or ifftn
as its 1-D passes, in scipy's order, and skips each pass over a line with
no nonzero input or no output that is read; every value it computes has
the bits of the full transform.  The capacity solver's Green operator runs
on it, and so does ``_BandDraw``, which turns a block of modes on
``grid.band(kmax)`` into samples: the ``random`` presets, the starts of the
nonlinear ascent and the gauge probes are its calls.

Derivatives of real fields are real.  A real field's unpaired Nyquist mode
carries no direction of travel, so the core differentiates with
``kappas``, whose own-axis Nyquist entries are zero.  This gives the
values the real part of the full complex derivative gives (the odd
multiplier's Nyquist contribution is purely imaginary), which is the usual
spectral-derivative convention.  The complex path reads the same
wavenumbers, so a field's derivatives, and every certificate built on
them, do not depend on whether its samples are stored as real or complex;
a complex field with no energy on the Nyquist planes differentiates as it
would with the Nyquist entries kept.  The form operator and the Hodge
splits (``split``) read the same wavenumbers; ``ksq``, |kappa|^2 with the
Nyquist entries, and the multipliers built from it (``inv_lap``,
``riesz_half``, ``bessel_half``, ``bessel_inv``) keep them.  Composite
identities that must hold to machine precision (Hodge reconstruction and
friends) are assembled in frequency space in one pass, see hodge.py.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import fft as _sfft

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "MatrixField",
    "SkewField",
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
    "shared_grid",
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


def _axes(dim: int) -> tuple[int, ...]:
    return tuple(range(-dim, 0))


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


class _BandDraw:
    """Samples of band-limited fields: called with a complex block of
    ``size``, it returns the complex samples of the field whose spectrum is
    that block on ``grid.band(kmax)``, the mean dropped.

    One pruned ``ifftn`` runs only the passes over lines that hold a band
    mode, in place in one kept buffer, so the next call overwrites the
    samples; every sample has the bits of the full ``ifftn``.
    """

    def __init__(self, grid: Grid, kmax: int):
        self.grid = grid
        self.band = grid.band(kmax)
        self.size = tuple(modes.size for modes in self.band)
        self._work = np.zeros(grid.shape, dtype=np.complex128)
        support = np.zeros(grid.shape, dtype=bool)
        support[self.band] = True
        self._inverse = _PrunedFFT("ifftn", grid.shape, nonzero=support)

    def __call__(self, block: np.ndarray) -> np.ndarray:
        work = self._work
        work.fill(0.0)
        work[self.band] = block
        work.flat[0] = 0.0
        return self._inverse(work).reshape(work.shape)

    def dirichlet_sq(self, block: np.ndarray) -> float:
        """Squared Dirichlet norm of the field of ``block``, read from the
        block: the mean's weight |kappa|^2 is 0."""
        sp = _Spectral(self.grid, real=False)
        return float(np.sum(sp.ksq[self.band] * np.abs(block) ** 2) * sp.parseval)


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
# fields
# ---------------------------------------------------------------------------


def shared_grid(*fields) -> Grid:
    """The grid that every given field lives on; a None (an absent
    coefficient) is skipped.  Raises GridMismatchError when two fields
    live on different grids, and ValueError when none is given."""
    grids = [f.grid for f in fields if f is not None]
    if not grids:
        raise ValueError("all coefficients absent")
    if any(g != grids[0] for g in grids[1:]):
        raise GridMismatchError("fields live on different grids")
    return grids[0]


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
        self.values = _coerce(self.grid, self.values, self._lead())

    def _lead(self) -> tuple[int, ...]:
        """The shape of the leading axes of ``values``."""
        return (self.grid.dim,) * self.rank

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

    def _operand(self, other):
        if not isinstance(other, _Field):
            return other
        if type(other) is not type(self):
            raise RankError("fields of different rank combined")
        shared_grid(self, other)
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


@dataclass(init=False)
class VectorField(_Field):
    """Vector field; ``components`` and ``v[i]`` are views of its rows."""

    rank = 1

    def __init__(self, components) -> None:
        comps = tuple(components)
        if not comps:
            raise RankError("vector field needs at least one component")
        grid = shared_grid(*comps)
        if len(comps) != grid.dim:
            raise RankError(f"expected {grid.dim} components, got {len(comps)}")
        super().__init__(grid, np.stack([f.values for f in comps]))

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
        grid = shared_grid(*itertools.chain(*rows))
        d = grid.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            raise RankError(f"expected a {d}x{d} matrix of fields")
        super().__init__(grid, np.stack([np.stack([e.values for e in row]) for row in rows]))

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


def _pairs(d: int) -> list[tuple[int, int]]:
    """Upper-triangle index pairs (i < j), row by row."""
    return [(i, j) for i in range(d) for j in range(i + 1, d)]


@dataclass
class SkewField(_Field):
    """Skew matrix field held by its d(d-1)/2 upper entries: ``values`` has
    shape (d(d-1)/2, *grid), one entry per pair of ``_pairs``.  ``m[i, j]``
    is a view of the stored entry above the diagonal, its negated copy
    below it and zeros on it; ``dense()`` is the d x d matrix field."""

    rank = 2

    def _lead(self) -> tuple[int, ...]:
        return (len(_pairs(self.grid.dim)),)

    def __getitem__(self, ij: tuple[int, int]) -> ScalarField:
        i, j = ij
        d = self.grid.dim
        if not (0 <= i < d and 0 <= j < d):
            raise IndexError(f"entry {ij} outside a {d}x{d} matrix")
        if i == j:
            return _view(self.grid, np.zeros_like(self.values[0]))
        if i < j:
            return _view(self.grid, self.values[_pairs(d).index((i, j))])
        return _view(self.grid, np.negative(self.values[_pairs(d).index((j, i))]))

    @property
    def entries(self) -> tuple[tuple[ScalarField, ...], ...]:
        d = self.grid.dim
        return tuple(tuple(self[i, j] for j in range(d)) for i in range(d))

    def is_skew(self) -> bool:
        """True: the lower entries and the diagonal are not stored."""
        return True

    def dense(self) -> MatrixField:
        """The d x d matrix field, each lower entry the negation of its
        upper one."""
        d = self.grid.dim
        out = np.zeros((d, d) + self.grid.shape, dtype=self.values.dtype)
        for upper, (i, j) in zip(self.values, _pairs(d)):
            out[i, j] = upper
            np.negative(upper, out=out[j, i])
        return MatrixField.from_array(self.grid, out)


Field = ScalarField | VectorField | MatrixField | SkewField


class _Spectral:
    """The transform pair and the Fourier symbols of one grid and path:
    every transform in the package but ``_PrunedFFT``'s runs here, and
    every symbol table is built here.

    The real path (``real``) takes ``rfftn`` over the grid axes and comes
    back through ``irfftn``; its tables have the half spectrum's shape.
    The complex path takes ``fftn`` / ``ifftn`` and full-grid tables.
    ``_Spectral(grid, real)`` returns the one core of its grid and path,
    and a table is built on its first read and kept.  Leading axes are a
    batch, so an input's components go forward in one call; outputs can
    come back through ``stream``, one component at a time.
    """

    def __new__(cls, grid: Grid, real: bool = True) -> "_Spectral":
        return _core(grid, bool(real))

    def _wavenumbers(self) -> list[np.ndarray]:
        """2*pi*k/L per axis, the Nyquist entries kept, laid along the axes."""
        n = self.grid.points_per_axis
        line = 2.0 * np.pi * np.fft.fftfreq(n, d=self.grid.period / n)
        lines = [line] * self.grid.dim
        if self.real:
            lines[-1] = line[: n // 2 + 1]
        return _on_axes(*lines)

    @cached_property
    def kappas(self) -> tuple[np.ndarray, ...]:
        """The wavenumbers with the own-axis Nyquist entry zeroed, which
        every derivative in the package multiplies by."""
        kaps = self._wavenumbers()
        for k in kaps:
            k.flat[self.grid.points_per_axis // 2] = 0.0
        return tuple(kaps)

    @cached_property
    def ksq(self) -> np.ndarray:
        """|kappa|^2, the Nyquist entries included."""
        return sum(k**2 for k in self._wavenumbers())

    def _grounded_ksq(self) -> np.ndarray:
        ks = self.ksq.copy()
        ks.flat[0] = 1.0
        return ks

    @cached_property
    def inv_lap(self) -> np.ndarray:
        """-1/|kappa|^2, zero mode dropped."""
        sym = -1.0 / self._grounded_ksq()
        sym.flat[0] = 0.0
        return sym

    @cached_property
    def riesz_half(self) -> np.ndarray:
        """(-Lap)^(-1/2), zero mode dropped."""
        sym = 1.0 / np.sqrt(self._grounded_ksq())
        sym.flat[0] = 0.0
        return sym

    @cached_property
    def bessel_half(self) -> np.ndarray:
        """(1 - Lap)^(-1/2)."""
        return 1.0 / np.sqrt(1.0 + self.ksq)

    @cached_property
    def bessel_inv(self) -> np.ndarray:
        """(1 - Lap)^(-1)."""
        return 1.0 / (1.0 + self.ksq)

    @cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """The symbols of the Hodge splits, from ``kappas``: (grounded
        |kappas|^2, 1 / (1 + |kappas|^2)).

        Building the projections from the derivative's convention keeps
        each mode's multiplier partner-symmetric, so the spectra of a real
        field's parts stay Hermitian and P and Q stay exactly idempotent on
        real input.  The grounded square has its zeros (the mean and the
        Nyquist-only modes) replaced by 1; the Bessel factor differs from
        ``bessel_inv`` on the Nyquist planes.
        """
        ks = sum(k**2 for k in self.kappas)
        return np.where(ks > 0.0, ks, 1.0), 1.0 / (1.0 + ks)

    def band(self, kmax: int) -> tuple[np.ndarray, ...]:
        """``grid.band(kmax)``, on the real path its modes 0..kmax of the
        last axis, the part of the band a half spectrum holds."""
        band = self.grid.band(kmax)
        return band[:-1] + (band[-1][..., kmax:],) if self.real else band

    def forward(self, values: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Spectra of ``values``; with ``overwrite`` the complex path may
        transform the input in place."""
        axes = _axes(self.grid.dim)
        if self.real:
            return _sfft.rfftn(values, axes=axes, workers=fft_workers())
        return _sfft.fftn(values, axes=axes, overwrite_x=overwrite, workers=fft_workers())

    def div_hat(self, values: np.ndarray) -> np.ndarray:
        """Spectrum of the divergence of the vector whose components
        ``values`` holds: sum_j i kappa_j hat_j."""
        acc = np.zeros(self.shape, dtype=np.complex128)
        for kap, hat in zip(self.kappas, self.forward(values)):
            acc += 1j * kap * hat
        return acc

    def inverse(self, spec: np.ndarray) -> np.ndarray:
        """Samples of ``spec``, a buffer the caller gives up: the complex
        path transforms it in place."""
        if self.real:
            return _sfft.irfftn(spec, s=self.grid.shape, workers=fft_workers())
        return _sfft.ifftn(spec, axes=_axes(self.grid.dim), overwrite_x=True,
                           workers=fft_workers())

    def stream(self, parts, lead: tuple[int, ...]) -> np.ndarray:
        """Samples of shape ``lead`` + grid: each spectrum that ``parts``
        yields is inverse-transformed into the next row of the first axis
        of ``lead``, and every other entry is zero.  Only one output
        spectrum is alive at a time, and each row has the bits of a
        batched inverse, which transforms every component on its own."""
        out = np.zeros(lead + self.grid.shape,
                       dtype=np.float64 if self.real else np.complex128)
        for row, part in zip(range(lead[0]), parts):
            out[row] = self.inverse(part)
        return out

    @property
    def parseval(self) -> float:
        """L^dim / N^2, the Parseval factor of the squared Dirichlet norm."""
        return self.grid.period**self.grid.dim / self.grid.npoints**2

    def dirichlet_sq(self, fhat: np.ndarray) -> float:
        """Squared Dirichlet norm by Parseval from this path's spectra; on
        the real path the interior columns of the last axis stand for their
        conjugate partners too.  Leading axes index components."""
        dens = np.abs(fhat)
        np.square(dens, out=dens)
        dens *= self.ksq
        if not self.real:
            return float(np.sum(dens) * self.parseval)
        edges = np.sum(dens[..., 0]) + np.sum(dens[..., -1])
        return float((2.0 * np.sum(dens[..., 1:-1]) + edges) * self.parseval)


@lru_cache(maxsize=64)
def _core(grid: Grid, real: bool) -> _Spectral:
    """The one core of a grid and path, which keeps its tables."""
    sp = object.__new__(_Spectral)
    sp.grid, sp.real = grid, real
    sp.shape = grid.shape[:-1] + (grid.points_per_axis // 2 + 1,) if real else grid.shape
    return sp


def _skew_field(sp: _Spectral, upper) -> SkewField:
    """Skew matrix field from the spectra of its upper entries, yielded in
    ``_pairs`` order: each is streamed into its entry."""
    return SkewField.from_array(sp.grid, sp.stream(upper, (len(_pairs(sp.grid.dim)),)))


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
    sp = _Spectral(g, f.is_real)
    fhat = sp.forward(f.values)
    return VectorField.from_array(g, sp.stream((1j * kap * fhat for kap in sp.kappas),
                                               (g.dim,)))


def div(v: VectorField) -> ScalarField:
    """Spectral divergence of a vector field."""
    if not isinstance(v, VectorField):
        raise RankError("div expects a vector field")
    sp = _Spectral(v.grid, v.is_real)
    return ScalarField(v.grid, sp.inverse(sp.div_hat(v.values)))


def curl(v: VectorField) -> SkewField:
    """Matrix curl, (curl b)_{ij} = d_j b_i - d_i b_j.

    With this sign the Hodge split rebuilds b exactly (see hodge.py), but
    only with its grounded |kappas|^2: ``inv_laplacian`` keeps the Nyquist
    entries of |kappa|^2, so grad(inv_laplacian(div b)) +
    mat_div(inv_laplacian(curl b)) misses where b has Nyquist-plane content.
    """
    if not isinstance(v, VectorField):
        raise RankError("curl expects a vector field")
    sp = _Spectral(v.grid, v.is_real)
    kaps = sp.kappas
    hats = sp.forward(v.values)
    return _skew_field(sp, (1j * (kaps[j] * hats[i] - kaps[i] * hats[j])
                            for i, j in _pairs(v.grid.dim)))


def mat_div(m: MatrixField | SkewField) -> VectorField:
    """Row-wise divergence of a matrix field, (Div F)_i = sum_j d_j F_ij.

    A dense field's rows go forward one at a time, so one row's spectra are
    alive at a time.  A skew field's upper entries go forward in one call,
    and each row adds its off-diagonal terms in the dense order, a lower
    entry's as the subtraction of its upper one's: a negated entry
    transforms to the exact negation, and a sum that starts at +0 is left
    as it is by the diagonal's zero terms, so every bit is the dense
    field's."""
    if not isinstance(m, (MatrixField, SkewField)):
        raise RankError("mat_div expects a matrix field")
    g = m.grid
    sp = _Spectral(g, m.is_real)
    if isinstance(m, MatrixField):
        rows = (sp.div_hat(row) for row in m.values)
        return VectorField.from_array(g, sp.stream(rows, (g.dim,)))
    hats = sp.forward(m.values)
    slot = {pair: k for k, pair in enumerate(_pairs(g.dim))}

    def rows():
        for i in range(g.dim):
            acc = np.zeros(sp.shape, dtype=np.complex128)
            for j, kap in enumerate(sp.kappas):
                if i < j:
                    acc += 1j * kap * hats[slot[i, j]]
                elif j < i:
                    acc -= 1j * kap * hats[slot[j, i]]
            yield acc

    return VectorField.from_array(g, sp.stream(rows(), (g.dim,)))


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------


def _apply_multiplier(field: Field, symbol: str, homogeneous: bool,
                      annihilate_mean: bool) -> Field:
    """Multiply every component's spectrum by the core's ``symbol`` table."""
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
    sp = _Spectral(field.grid, field.is_real)
    hat = sp.forward(field.values)
    hat *= getattr(sp, symbol)
    return field.from_array(g, sp.inverse(hat))


def inv_laplacian(field: Field, annihilate_mean: bool = False) -> Field:
    """Inverse Laplacian: multiply mode k by -1/|2 pi k / L|^2, zero mode -> 0."""
    return _apply_multiplier(field, "inv_lap", True, annihilate_mean)


def riesz_half(field: Field, annihilate_mean: bool = False) -> Field:
    """Half-order Riesz smoothing (-Delta)^(-1/2); zero mode dropped."""
    return _apply_multiplier(field, "riesz_half", True, annihilate_mean)


def bessel_inv(field: Field) -> Field:
    """(1 - Delta)^(-1); acts on every mode including the mean."""
    return _apply_multiplier(field, "bessel_inv", False, False)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _pointwise_magnitude(field: Field) -> np.ndarray:
    _check_field(field)
    if isinstance(field, SkewField):
        field = field.dense()
    if field.rank == 0:
        return np.abs(field.values)
    return np.sqrt(np.sum(np.abs(field.values) ** 2, axis=tuple(range(field.rank))))


def integral(field: ScalarField) -> complex | float:
    """Integral over the torus, sum of samples times cell volume."""
    tot = field.values.sum() * field.grid.cell_volume
    return float(tot.real) if field.is_real else complex(tot)


def l2_inner(f: ScalarField, g: ScalarField) -> complex:
    """L2 pairing integral of f * conj(g)."""
    shared_grid(f, g)
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
    """Average over sample points; vector/matrix means keep their shape,
    and a skew field's are those of its upper entries."""
    _check_field(field)
    if field.rank:
        return field.values.mean(axis=_axes(field.grid.dim))
    m = field.values.mean()
    return float(m.real) if field.is_real else complex(m)


def max_abs(field: Field) -> float:
    return float(_pointwise_magnitude(field).max())


def _peak(values: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """The first maximum of ``values`` in C order, with its index: the
    witness rule of every test that says where its constant is attained."""
    flat = int(values.argmax())
    return float(values.flat[flat]), tuple(int(i) for i in np.unravel_index(flat, values.shape))


def dirichlet_norm(field: Field) -> float:
    """<-Lap u, u>^(1/2) by Parseval: every mode weighted by |kappa|^2,
    the Nyquist modes included.  It is the energy that the capacity
    Green operator inverts; for a field with Nyquist energy it exceeds
    ||grad u||, since ``grad`` drops those modes."""
    _check_field(field)
    sp = _Spectral(field.grid, field.is_real)
    return float(np.sqrt(sp.dirichlet_sq(sp.forward(field.values))))


def zero_mean(field: Field) -> Field:
    """Subtract the mean from every component."""
    m = mean(field)
    if field.rank:
        m = np.reshape(m, np.shape(m) + (1,) * field.grid.dim)
    return field.from_array(field.grid, field.values - m)
