"""Binary field files (FBF1).

Layout: 4-byte magic ``FBF1``, then little-endian uint32 words
[version, dim, n_1, ..., n_dim, component_count, dtype_code], then the raw
samples, component-major, C order, and nothing after them.  dtype_code 0 is float64, 1 is
complex128.  The physical period is run configuration, not file payload.  A
skew matrix field is written as its dense d x d matrix and read back as a
``MatrixField``.
"""

from __future__ import annotations

import numpy as np

from .torus import Grid, MatrixField, ScalarField, SkewField, VectorField

MAGIC = b"FBF1"
VERSION = 1

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<c16")}


class FormatError(ValueError):
    """Malformed or unsupported field file."""


def write_field(path, field) -> None:
    """Serialize a scalar, vector, or matrix field."""
    if isinstance(field, SkewField):
        field = field.dense()
    if not isinstance(field, (ScalarField, VectorField, MatrixField)):
        raise TypeError(f"not a field: {type(field)!r}")
    grid = field.grid
    comps = field.values.reshape((-1,) + grid.shape)
    code = 1 if np.iscomplexobj(comps) else 0
    header = np.array(
        [VERSION, grid.dim, *grid.shape, len(comps), code], dtype="<u4"
    )
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(comps, dtype=_DTYPES[code]).tobytes())


def _words(raw: bytes, offset: int, count: int) -> np.ndarray:
    """``count`` header words from byte ``offset``; a file that ends inside
    them is a FormatError."""
    if len(raw) < offset + 4 * count:
        raise FormatError(f"file of {len(raw)} bytes ends inside its header")
    return np.frombuffer(raw, dtype="<u4", count=count, offset=offset)


def read_field(path, period: float = 1.0):
    """Read a field file; the component count decides the field rank.  The
    payload must hold exactly the samples the header declares."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, dim = (int(w) for w in _words(raw, 4, 2))
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if dim not in (2, 3):
        raise FormatError(f"unsupported dim {dim}")
    rest = _words(raw, 12, dim + 2)
    sizes = [int(s) for s in rest[:dim]]
    ncomp, code = int(rest[dim]), int(rest[dim + 1])
    if len(set(sizes)) != 1:
        raise FormatError(f"axes must share one size, got {sizes}")
    if code not in _DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    grid = Grid(dim=dim, points_per_axis=sizes[0], period=period)
    expected = {1, dim, dim * dim}
    if ncomp not in expected:
        raise FormatError(f"component count {ncomp} not in {sorted(expected)}")
    dtype = _DTYPES[code]
    offset = 12 + 4 * (dim + 2)
    want = ncomp * grid.npoints
    if len(raw) - offset != want * dtype.itemsize:
        raise FormatError(f"payload of {len(raw) - offset} bytes, header declares "
                          f"{want * dtype.itemsize}")
    data = np.frombuffer(raw, dtype=dtype, count=want, offset=offset)
    bad = int(np.count_nonzero(~np.isfinite(data)))
    if bad:
        raise FormatError(f"{bad} non-finite sample(s) (NaN or inf)")
    comps = data.reshape((ncomp,) + grid.shape)
    if code == 0:
        comps = comps.astype(np.float64)
    if ncomp == 1:
        return ScalarField(grid, comps[0])
    if ncomp == dim:
        return VectorField.from_array(grid, comps)
    return MatrixField.from_array(grid, comps.reshape((dim, dim) + grid.shape))
