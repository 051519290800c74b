"""Mean-oscillation norms over dyadic cube families.

Cubes are axis-aligned blocks of s x s (x s) cells with s a power of two;
on top of the aligned dyadic tiling the family carries half-cell-count
shifts of each scale (offsets in {0, s/2} per axis, wrapped periodically),
which is what stands in for the full translation family on the torus.

The r-oscillation of f over a cube Q is ((1/|Q|) int_Q |f - m_Q f|^r)^(1/r)
with m_Q the cube mean; the 1/r root keeps the reported number 1-homogeneous
in f and monotone in r.  Flavors:

* BMO        sup of the oscillation over every cube;
* BMO_sharp  small cubes only (side <= L/2);
* bmo        small-cube oscillation sup plus the sup over large cubes
             (side >= L/2) of the plain r-mean of |f|.

Each (side, shift) layer is copied once into a contiguous array with one
row of side**d samples per cube, so that every mean is a reduction along
the last axis; the r-mean of |f| is computed only on the layers the bmo
flavor reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import Grid, MatrixField, RankError, ScalarField

__all__ = [
    "Cube",
    "CubeFamily",
    "BmoReport",
    "dyadic_family",
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


@dataclass(frozen=True)
class CubeFamily:
    """Dyadic scales with optional half-side shifts on a fixed grid."""

    grid: Grid
    sides: tuple[int, ...]
    half_shifts: bool = True

    def __post_init__(self) -> None:
        n = self.grid.points_per_axis
        for s in self.sides:
            if s < 1 or s > n or (s & (s - 1)) != 0:
                raise ValueError(f"cube side {s} is not a dyadic divisor of {n}")

    def shifts_for(self, side: int) -> list[tuple[int, ...]]:
        d = self.grid.dim
        if not self.half_shifts or side < 2 or side == self.grid.points_per_axis:
            return [(0,) * d]
        offs = (0, side // 2)
        out: list[tuple[int, ...]] = [()]
        for _ in range(d):
            out = [prev + (o,) for prev in out for o in offs]
        return out

    def cubes(self) -> list[Cube]:
        """Materialized cube list (corners on the unshifted lattice)."""
        n = self.grid.points_per_axis
        d = self.grid.dim
        out = []
        for s in self.sides:
            for shift in self.shifts_for(s):
                ranges = [range(0, n, s)] * d
                grids = np.meshgrid(*[np.array(r) for r in ranges], indexing="ij")
                corners = np.stack([gg.ravel() for gg in grids], axis=1)
                for corner in corners:
                    out.append(Cube(tuple(int((c + o) % n) for c, o in zip(corner, shift)), s))
        return out


def dyadic_family(grid: Grid, min_side: int = 1, max_side: int | None = None,
                  half_shifts: bool = True) -> CubeFamily:
    """All dyadic scales between min_side and max_side cells."""
    n = grid.points_per_axis
    if max_side is None:
        max_side = n
    sides = []
    s = 1
    while s <= n:
        if min_side <= s <= max_side:
            sides.append(s)
        s *= 2
    if not sides:
        raise ValueError("empty cube family")
    return CubeFamily(grid=grid, sides=tuple(sides), half_shifts=half_shifts)


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


def _argmax_cube(arr: np.ndarray, side: int, shift: tuple[int, ...], n: int) -> Cube:
    idx = np.unravel_index(int(np.argmax(arr)), arr.shape)
    corner = tuple(int((i * side + o) % n) for i, o in zip(idx, shift))
    return Cube(corner, side)


def _scalar_bmo(f: ScalarField, flavor: str, r: int, family: CubeFamily):
    n = f.grid.points_per_axis
    small_cut = n // 2
    best_osc = (-1.0, None)
    best_mass = (-1.0, None)
    for side in family.sides:
        for shift in family.shifts_for(side):
            osc, massr = _block_reduce(f.values, side, shift, r,
                                       mass=flavor == "bmo" and side >= small_cut)
            if flavor == "BMO" or side <= small_cut:
                top = float(osc.max())
                if top > best_osc[0]:
                    best_osc = (top, _argmax_cube(osc, side, shift, n))
            if massr is not None:
                top = float(massr.max())
                if top > best_mass[0]:
                    best_mass = (top, _argmax_cube(massr, side, shift, n))
    if flavor == "bmo":
        if best_mass[0] < 0:
            raise ValueError("bmo flavor needs cubes of side >= half the period in the family")
        worst = best_osc[1] if best_osc[0] >= best_mass[0] else best_mass[1]
        if best_osc[0] < 0:
            best_osc, worst = (0.0, best_mass[1]), best_mass[1]
        return best_osc[0] + best_mass[0], worst
    if best_osc[1] is None:
        raise ValueError(f"family has no cubes eligible for flavor {flavor!r}")
    return best_osc


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


def bmo_norm(field, flavor: str = "BMO", r: int = 1, family: CubeFamily | None = None) -> BmoReport:
    """Oscillation norm of a scalar field, or entrywise max for a matrix."""
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    if r not in (1, 2):
        raise ValueError(f"r must be 1 or 2, got {r}")
    if isinstance(field, MatrixField):
        best = None
        for i, j in _reduced_entries(field):
            rep = bmo_norm(field[i, j], flavor=flavor, r=r, family=family)
            if best is None or rep.norm > best.norm:
                rep.entry = (i, j)
                best = rep
        return best
    if not isinstance(field, ScalarField):
        raise RankError("bmo_norm expects a scalar or matrix field")
    fam = family if family is not None else dyadic_family(field.grid)
    norm, worst = _scalar_bmo(field, flavor, r, fam)
    return BmoReport(norm=float(norm), flavor=flavor, r_exponent=r, worst_cube=worst)


def vmo_profile(field, deltas) -> list[tuple[float, float]]:
    """Small-scale oscillation profile: for each delta, the sup of the
    r-oscillation (r = 1) over cubes of side <= delta.

    deltas below the grid resolution are rejected; the profile is
    nondecreasing in delta because the cube families are nested.  Each
    (side, shift) layer is reduced once and its sup shared by every delta
    whose family contains the side.
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
        if delta < h * (1.0 - 1e-12):
            raise ValueError(f"delta {delta} is below the grid resolution {h}")
        max_side = max(1, int(np.floor(delta / h * (1.0 + 1e-12))))
        tops.append(min(max_side, grid.points_per_axis))
    fam = dyadic_family(grid, min_side=1, max_side=max(tops, default=1))
    side_sup = {side: max(float(_block_reduce(field.values, side, shift, _VMO_R)[0].max())
                          for shift in fam.shifts_for(side))
                for side in fam.sides}
    return [(delta, max([0.0] + [v for s, v in side_sup.items() if s <= top]))
            for delta, top in zip(deltas, tops)]
