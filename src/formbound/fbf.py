"""Binary field files (FBF1).

Layout: 4-byte magic ``FBF1``, then little-endian uint32 words
[version, dim, n_1, ..., n_dim, component_count, dtype_code], then the raw
samples, component-major, C order.  dtype_code 0 is float64, 1 is
complex128.  The physical period is run configuration, not file payload.
"""

from __future__ import annotations

import numpy as np

from .torus import Grid, MatrixField, ScalarField, VectorField

MAGIC = b"FBF1"
VERSION = 1

_DTYPES = {0: np.dtype("<f8"), 1: np.dtype("<c16")}


class FormatError(ValueError):
    """Malformed or unsupported field file."""


def write_field(path, field) -> None:
    """Serialize a scalar, vector, or matrix field."""
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


def read_field(path, period: float = 1.0):
    """Read a field file; the component count decides the field rank."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    head = np.frombuffer(raw, dtype="<u4", count=2, offset=4)
    version, dim = int(head[0]), int(head[1])
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if dim not in (2, 3):
        raise FormatError(f"unsupported dim {dim}")
    rest = np.frombuffer(raw, dtype="<u4", count=dim + 2, offset=12)
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
    if len(raw) - offset < want * dtype.itemsize:
        raise FormatError("truncated payload")
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
