"""Mean-oscillation norms over the dyadic cubes of the grid.

Cubes are axis-aligned blocks of s x s (x s) cells with s a power of two;
on top of the aligned dyadic tiling each side s other than 1 and n carries
the half-side shifts (offsets in {0, s/2} per axis, wrapped periodically),
which is what stands in for the full translation family on the torus.

The r-oscillation of f over a cube Q is ((1/|Q|) int_Q |f - m_Q f|^r)^(1/r)
with m_Q the cube mean; the 1/r root keeps the reported number 1-homogeneous
in f and monotone in r.  Flavors:

* BMO        sup of the oscillation over every cube;
* BMO_sharp  small cubes only (side <= L/2);
* bmo        small-cube oscillation sup plus the sup over large cubes
             (side >= L/2) of the plain r-mean of |f|.

One walk over the (side, shift) layers serves every flavor and the small-
scale profile: it gives, per side, the sup of the oscillation and the first
cube attaining it (and, for the bmo flavor, the same for the r-mean of |f|
from side n/2 up), and each flavor and each profile entry is a max over
that table.  Ties keep the first cube in (side ascending, shift) order.
Each layer is copied once into a contiguous array with one row of side**d
samples per cube, so that every mean is a reduction along the last axis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .torus import MatrixField, RankError, ScalarField

__all__ = [
    "Cube",
    "BmoReport",
    "bmo_norm",
    "vmo_profile",
]

FLAVORS = ("BMO", "bmo", "BMO_sharp")

# the oscillation exponent r of the small-scale profile
_VMO_R = 1


@dataclass(frozen=True)
class Cube:
    """Axis-aligned periodic cube: cell-index corner and side in cells."""

    corner: tuple[int, ...]
    side: int


@dataclass
class BmoReport:
    norm: float
    flavor: str
    r_exponent: int
    worst_cube: Cube
    entry: tuple[int, int] | None = None


def _r_mean(absvals: np.ndarray, r: int) -> np.ndarray:
    """((1/|Q|) sum_Q |.|^r)^(1/r) of each row of nonnegative values."""
    if r == 1:
        return absvals.mean(axis=-1)
    return np.sqrt((absvals**2).mean(axis=-1))


def _block_reduce(vals: np.ndarray, side: int, shift: tuple[int, ...], r: int,
                  mass: bool = False):
    """Per-cube oscillation of one (scale, shift) layer, and with ``mass``
    the r-mean of |f|; both shaped (n/side,)*d, or None for the mass.

    The layer is laid out once as a contiguous (n_blocks, side**d) array,
    one row per cube: roll by the shift, split each axis into (block,
    offset), move the d block axes in front of the d offset axes and
    flatten each group.  Every reduction then runs along the contiguous
    last axis, instead of over d strided axes of length side.
    """
    d = vals.ndim
    if any(shift):
        vals = np.roll(vals, tuple(-o for o in shift), axis=tuple(range(d)))
    nb = vals.shape[0] // side
    order = tuple(range(0, 2 * d, 2)) + tuple(range(1, 2 * d, 2))
    blocks = vals.reshape((nb, side) * d).transpose(order).reshape(nb**d, side**d)
    osc = _r_mean(np.abs(blocks - blocks.mean(axis=-1, keepdims=True)), r)
    massr = _r_mean(np.abs(blocks), r).reshape((nb,) * d) if mass else None
    return osc.reshape((nb,) * d), massr


def _sup(best, per_cube: np.ndarray, side: int, shift: tuple[int, ...]):
    """The larger of ``best`` and this layer's max with its first cube; a
    tie keeps ``best``, the cube met first."""
    flat = int(np.argmax(per_cube))
    top = float(per_cube.flat[flat])
    if top <= best[0]:
        return best
    n = per_cube.shape[0] * side
    idx = np.unravel_index(flat, per_cube.shape)
    return top, Cube(tuple(int((i * side + o) % n) for i, o in zip(idx, shift)), side)


def _layer_sups(vals: np.ndarray, r: int, max_side: int, mass: bool = False):
    """One walk over the dyadic layers of side <= ``max_side``.

    Returns {side: (osc, mass)}, each a (sup, cube) pair: the sup of the
    r-oscillation over the side's cubes and the first cube attaining it,
    and with ``mass``, from side n/2 up, the same for the r-mean of |f|
    (``(-1.0, None)`` where it is not computed).
    """
    n, d = vals.shape[0], vals.ndim
    table = {}
    side = 1
    while side <= max_side:
        offsets = (0, side // 2) if 1 < side < n else (0,)
        osc_best = mass_best = (-1.0, None)
        for shift in itertools.product(offsets, repeat=d):
            osc, massr = _block_reduce(vals, side, shift, r, mass=mass and side >= n // 2)
            osc_best = _sup(osc_best, osc, side, shift)
            if massr is not None:
                mass_best = _sup(mass_best, massr, side, shift)
        table[side] = (osc_best, mass_best)
        side *= 2
    return table


def _first_max(pairs):
    """The (sup, cube) pair of largest sup, the first one on a tie."""
    return max(pairs, key=lambda pair: pair[0])


def _reduced_entries(field: MatrixField) -> list[tuple[int, int]]:
    """Entries whose oscillation sup is the whole matrix's.

    A skew field (read from its samples) needs only its upper triangle:
    the diagonal is zero and each lower entry is a negated upper one, whose
    oscillation and r-means are bit for bit the same.
    """
    d = field.grid.dim
    if field.is_skew():
        return [(i, j) for i in range(d) for j in range(i + 1, d)]
    return [(i, j) for i in range(d) for j in range(d)]


def bmo_norm(field, flavor: str = "BMO", r: int = 1) -> BmoReport:
    """Oscillation norm of a scalar field, or entrywise max for a matrix."""
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    if r not in (1, 2):
        raise ValueError(f"r must be 1 or 2, got {r}")
    if isinstance(field, MatrixField):
        best = None
        for i, j in _reduced_entries(field):
            rep = bmo_norm(field[i, j], flavor=flavor, r=r)
            if best is None or rep.norm > best.norm:
                rep.entry = (i, j)
                best = rep
        return best
    if not isinstance(field, ScalarField):
        raise RankError("bmo_norm expects a scalar or matrix field")
    n = field.grid.points_per_axis
    table = _layer_sups(field.values, r, n // 2 if flavor == "BMO_sharp" else n,
                        mass=flavor == "bmo")
    norm, worst = _first_max(osc for side, (osc, _) in table.items()
                             if flavor == "BMO" or side <= n // 2)
    if flavor == "bmo":
        mass, mass_cube = _first_max(mass for _, mass in table.values())
        worst = worst if norm >= mass else mass_cube
        norm += mass
    return BmoReport(norm=norm, flavor=flavor, r_exponent=r, worst_cube=worst)


def vmo_profile(field, deltas) -> list[tuple[float, float]]:
    """Small-scale oscillation profile: for each delta, the sup of the
    r-oscillation (r = 1) over cubes of side <= delta.

    deltas below the grid resolution are rejected; the profile is
    nondecreasing in delta because the sides are nested.  One walk up to
    the largest side serves every delta.
    """
    if isinstance(field, MatrixField):
        per_entry = [
            vmo_profile(field[i, j], deltas) for i, j in _reduced_entries(field)
        ]
        return [
            (per_entry[0][i][0], max(p[i][1] for p in per_entry))
            for i in range(len(per_entry[0]))
        ]
    if not isinstance(field, ScalarField):
        raise RankError("vmo_profile expects a scalar or matrix field")
    grid = field.grid
    h = grid.spacing
    deltas = [float(delta) for delta in deltas]
    tops = []
    for delta in deltas:
        if not np.isfinite(delta):
            raise ValueError(f"delta {delta} is not finite")
        if delta < h * (1.0 - 1e-12):
            raise ValueError(f"delta {delta} is below the grid resolution {h}")
        max_side = max(1, int(np.floor(delta / h * (1.0 + 1e-12))))
        tops.append(min(max_side, grid.points_per_axis))
    table = _layer_sups(field.values, _VMO_R, max(tops, default=1))
    return [(delta, max(osc[0] for side, (osc, _) in table.items() if side <= top))
            for delta, top in zip(deltas, tops)]
