"""Admissibility tests for nonnegative measures on the torus.

A measure is stored as one nonnegative mass per grid cell.  The tests
quantify how far the measure is from satisfying a trace inequality
relative to the Dirichlet form:

* ``carleson_test``     dyadic Carleson condition, constant c5
* ``truncated_carleson_test``  the same with the tree cut at side L/2
* ``ball_growth_test``  mass growth mu(B_r) <= c2 r^(n-2)
* ``ball_energy_test``  energy of the Riesz potential of mu restricted
                        to a ball, constant c3
* ``pointwise_test``    I1[(I1 mu)^2] <= c4 I1 mu pointwise
* ``fefferman_phong_test``  integral growth of a nonnegative density
                        raised to the power 1 + eps
* ``inhomogeneous_variants``  the same battery with the Bessel kernel
                        (1 - Lap)^(-1/2) and the Carleson tree cut at
                        side L/2, for the W^{1,2} setting

Conventions.  Balls are discrete: a cell belongs to B_r(x) iff its
center lies within torus distance r of x.  Ball masses are computed for
every center at once by circular convolution with the ball indicator.
Radii default to the geometric family 2h * sqrt(2)^j capped at L/4.

The homogeneous Riesz potential I1 = (-Lap)^(-1/2) is evaluated
spectrally on mean-free input; the mean of the density re-enters
through the zero mode of the free-space kernel |x|^(2-n)/(2 pi^2)
truncated at the torus radius, which integrates to L/pi in three
dimensions.  Dropping it would assign zero potential to uniform
densities and break the pointwise test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .oscillation import Cube
from .report import Record
from .torus import (
    Grid,
    ScalarField,
    _bessel_half_symbol,
    _half,
    _irfftn,
    _key,
    _rfftn,
    riesz_half,
)

__all__ = [
    "DiscreteMeasure",
    "DyadicTree",
    "ball_energy_test",
    "ball_growth_test",
    "carleson_test",
    "default_ball_sample",
    "fefferman_phong_test",
    "geometric_radii",
    "inhomogeneous_variants",
    "pointwise_test",
    "truncated_carleson_test",
]

_MASS_TOL = -1e-12


@dataclass(frozen=True)
class DiscreteMeasure:
    """Nonnegative measure with one mass per grid cell."""

    grid: Grid
    cell_mass: np.ndarray

    def __post_init__(self) -> None:
        mass = np.asarray(self.cell_mass, dtype=np.float64)
        if mass.shape != self.grid.shape:
            raise ValueError(
                f"cell masses have shape {mass.shape}, grid wants {self.grid.shape}"
            )
        if not np.isfinite(mass).all():
            raise ValueError("non-finite cell mass (NaN or inf)")
        if mass.size and float(mass.min()) < _MASS_TOL:
            raise ValueError(f"negative cell mass {mass.min():g}")
        object.__setattr__(self, "cell_mass", np.clip(mass, 0.0, None))

    @classmethod
    def from_density(cls, field: ScalarField) -> "DiscreteMeasure":
        """Interpret a real scalar field as a density d mu / dx."""
        if not field.is_real:
            raise ValueError("measure density must be real")
        return cls(field.grid, field.values.real * field.grid.cell_volume)

    @property
    def total(self) -> float:
        return float(self.cell_mass.sum())

    def density(self) -> ScalarField:
        return ScalarField(self.grid, self.cell_mass / self.grid.cell_volume)

    def scaled(self, factor: float) -> "DiscreteMeasure":
        if factor < 0:
            raise ValueError("scale factor must be nonnegative")
        return DiscreteMeasure(self.grid, self.cell_mass * factor)


class DyadicTree:
    """Dyadic cube tree with pooled masses and Carleson energies.

    Level 0 is the whole torus, level D a single cell.  Each node
    carries mu(Q) and the energy sum over its descendants (itself
    included) of [mu(Q') / |Q'|^(1-1/n)]^2 |Q'|.  Parent masses are
    built by pooling children, so conservation is exact by
    construction.
    """

    def __init__(self, measure: DiscreteMeasure):
        grid = measure.grid
        self.grid = grid
        depth = int(round(np.log2(grid.points_per_axis)))
        self.depth = depth

        masses = [None] * (depth + 1)
        masses[depth] = measure.cell_mass.copy()
        for level in range(depth - 1, -1, -1):
            masses[level] = _pool(masses[level + 1], grid.dim)

        exponent = 2.0 / grid.dim - 1.0
        side_len = [grid.period / (1 << level) for level in range(depth + 1)]
        terms = [
            masses[level] ** 2 * (side_len[level] ** grid.dim) ** exponent
            for level in range(depth + 1)
        ]

        energies = [None] * (depth + 1)
        energies[depth] = terms[depth]
        for level in range(depth - 1, -1, -1):
            energies[level] = terms[level] + _pool(energies[level + 1], grid.dim)

        self.masses = masses
        self.energies = energies

    def cube(self, level: int, index: tuple[int, ...]) -> Cube:
        side = self.grid.points_per_axis >> level
        return Cube(tuple(int(i) * side for i in index), side)


def _pool(values: np.ndarray, dim: int) -> np.ndarray:
    half = tuple(s // 2 for s in values.shape)
    shaped = values.reshape(sum(((m, 2) for m in half), ()))
    return shaped.sum(axis=tuple(range(1, 2 * dim, 2)))


def _carleson_scan(tree: DyadicTree, first_level: int) -> tuple[float, Cube | None]:
    best = 0.0
    witness = None
    for level in range(first_level, tree.depth + 1):
        mass = tree.masses[level]
        energy = tree.energies[level]
        occupied = mass > 0.0
        if not occupied.any():
            continue
        ratio = np.where(occupied, energy, 0.0) / np.where(occupied, mass, 1.0)
        flat = int(ratio.argmax())
        value = float(ratio.flat[flat])
        if value > best:
            best = value
            witness = tree.cube(level, np.unravel_index(flat, mass.shape))
    return best, witness


def carleson_test(
    measure: DiscreteMeasure, threshold: float | None = None
) -> Record:
    """Least c5 with sum_{Q in P} [mu(Q)/|Q|^(1-1/n)]^2 |Q| <= c5 mu(P)."""
    tree = DyadicTree(measure)
    constant, witness = _carleson_scan(tree, 0)
    return Record("carleson", constant, threshold, witness=witness)


def truncated_carleson_test(
    measure: DiscreteMeasure, threshold: float | None = None
) -> Record:
    """The Carleson constant over cubes of side <= L/2, the W^{1,2} variant."""
    constant, witness = _carleson_scan(DyadicTree(measure), 1)
    return Record("carleson_w12", constant, threshold, witness=witness,
                  note="cubes of side <= L/2")


def geometric_radii(grid: Grid) -> list[float]:
    """Radii 2h * sqrt(2)^j capped at a quarter period."""
    radii = []
    r = 2.0 * grid.spacing
    top = grid.period / 4.0
    while r <= top * (1.0 + 1e-12):
        radii.append(min(r, top))
        r *= np.sqrt(2.0)
    return radii


def _ball_counts(mass_hat: np.ndarray, dist_sq: np.ndarray, radius: float) -> np.ndarray:
    # mu(B_r(x)) for every center x at once: circular convolution of the
    # mass (given by its half spectrum) with the (symmetric) ball indicator.
    kernel = (dist_sq <= radius * radius).astype(np.float64)
    return _irfftn(mass_hat * _rfftn(kernel), dist_sq.shape)


def _check_radii(grid: Grid, radii: Sequence[float]) -> list[float]:
    radii = [float(r) for r in radii]
    if not radii:
        raise ValueError("empty radius list")
    lo, hi = 2.0 * grid.spacing, grid.period / 4.0
    for r in radii:
        # written so that a NaN radius fails the test too
        if not lo * (1.0 - 1e-12) <= r <= hi * (1.0 + 1e-12):
            raise ValueError(f"radius {r:g} outside [{lo:g}, {hi:g}]")
    return radii


def ball_growth_test(
    measure: DiscreteMeasure,
    radii: Sequence[float] | None = None,
    threshold: float | None = None,
) -> Record:
    """Least c2 with mu(B_r(x)) <= c2 r^(n-2) over centers and radii.

    In two dimensions r^(n-2) = 1 and admissibility actually forces
    mu = 0; the record then carries the max ball mass with a note.
    """
    grid = measure.grid
    radii = _check_radii(grid, radii if radii is not None else geometric_radii(grid))
    dist_sq = grid.dist_sq()
    mass_hat = _rfftn(measure.cell_mass)

    best = 0.0
    witness = None
    for r in radii:
        counts = _ball_counts(mass_hat, dist_sq, r)
        flat = int(counts.argmax())
        mass = float(counts.flat[flat])
        value = mass if grid.dim == 2 else mass / r ** (grid.dim - 2)
        if value > best:
            best = value
            witness = (tuple(int(i) for i in np.unravel_index(flat, counts.shape)), r)

    note = "n=2: reporting max ball mass; admissibility forces mu = 0" if grid.dim == 2 else ""
    return Record("ball_growth", best, threshold, witness=witness, note=note)


def _riesz_potential(density: ScalarField) -> np.ndarray:
    """I1 = (-Lap)^(-1/2) of a density, zero mode from the truncated kernel."""
    grid = density.grid
    if grid.dim != 3:
        raise ValueError("homogeneous Riesz potential needs dim 3")
    mean = float(np.mean(density.values.real))
    spectral = riesz_half(density, annihilate_mean=True)
    return spectral.values.real + mean * grid.period / np.pi


def _bessel_potential(density: ScalarField) -> np.ndarray:
    grid = density.grid
    symbol = _half(_bessel_half_symbol(*_key(grid)))
    return _irfftn(_rfftn(density.values.real) * symbol, grid.shape)


def default_ball_sample(
    grid: Grid, measure: DiscreteMeasure | None = None
) -> list[tuple[tuple[int, ...], float]]:
    """Centers on a coarse sublattice, radii L/8 and L/4.

    When a measure is supplied its heaviest cell joins the centers, so
    concentrated mass away from the sublattice is not missed.
    """
    n = grid.points_per_axis
    step = max(n // 2, 1)
    centers = [
        tuple(i * step for i in idx)
        for idx in np.ndindex(*([n // step] * grid.dim))
    ]
    if measure is not None and measure.total > 0.0:
        flat = int(measure.cell_mass.argmax())
        peak = tuple(int(i) for i in np.unravel_index(flat, grid.shape))
        if peak not in centers:
            centers.append(peak)
    sample = []
    for c in centers:
        for r in (grid.period / 8.0, grid.period / 4.0):
            sample.append((c, r))
    return sample


def _ball_energy(
    measure: DiscreteMeasure,
    ball_sample,
    potential,
    test_name: str,
    threshold,
) -> Record:
    grid = measure.grid
    if ball_sample is None:
        ball_sample = default_ball_sample(grid, measure)
    dist_sq = grid.dist_sq()
    vol = grid.cell_volume

    best = 0.0
    witness = None
    for center, radius in ball_sample:
        if not (radius >= 0.0 and np.isfinite(radius)):
            raise ValueError(f"ball radius must be nonnegative and finite, got {radius}")
        mask = np.roll(dist_sq <= radius * radius, center, axis=range(grid.dim))
        mass = float(measure.cell_mass[mask].sum())
        if mass <= 0.0:
            continue
        inside = np.where(mask, measure.cell_mass, 0.0) / vol
        pot = potential(ScalarField(grid, inside))
        energy = float((pot[mask] ** 2).sum() * vol)
        value = energy / mass
        if value > best:
            best = value
            witness = (tuple(center), radius)
    return Record(test_name, best, threshold, witness=witness)


def ball_energy_test(
    measure: DiscreteMeasure,
    ball_sample: Sequence[tuple[tuple[int, ...], float]] | None = None,
    threshold: float | None = None,
) -> Record:
    """Least c3 with int_B (I1 mu_B)^2 dx <= c3 mu(B) over sampled balls."""
    if measure.grid.dim != 3:
        raise ValueError("ball energy test needs dim 3")
    return _ball_energy(measure, ball_sample, _riesz_potential, "ball_energy", threshold)


def pointwise_test(measure: DiscreteMeasure, threshold: float | None = None) -> Record:
    """Least c4 with I1[(I1 mu)^2] <= c4 I1 mu at cells where I1 mu exceeds
    1e-8 of its maximum."""
    grid = measure.grid
    if grid.dim != 3:
        raise ValueError("pointwise test needs dim 3")
    return _pointwise(measure, _riesz_potential, "pointwise", threshold)


def _pointwise(measure, potential, test_name, threshold) -> Record:
    grid = measure.grid
    pot = potential(measure.density())
    top = float(pot.max())
    if top <= 0.0:
        return Record(test_name, 0.0, threshold)
    squared = potential(ScalarField(grid, pot * pot))
    keep = pot > 1e-8 * top
    ratio = np.where(keep, squared, 0.0) / np.where(keep, pot, 1.0)
    flat = int(ratio.argmax())
    witness = tuple(int(i) for i in np.unravel_index(flat, grid.shape))
    return Record(test_name, float(ratio.flat[flat]), threshold, witness=witness)


def fefferman_phong_test(
    rho: ScalarField,
    eps: float,
    radii: Sequence[float] | None = None,
    threshold: float | None = None,
) -> Record:
    """Max over balls of r^(2(1+eps)-n) int_{B_r} rho^(1+eps) dx."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if not rho.is_real:
        raise ValueError("density must be real")
    grid = rho.grid
    values = rho.values.real
    if values.size and float(values.min()) < _MASS_TOL:
        raise ValueError(f"negative density sample {values.min():g}")
    values = np.clip(values, 0.0, None)

    radii = _check_radii(grid, radii if radii is not None else geometric_radii(grid))
    dist_sq = grid.dist_sq()
    integrand_hat = _rfftn(values ** (1.0 + eps) * grid.cell_volume)

    best = 0.0
    witness = None
    for r in radii:
        integrals = _ball_counts(integrand_hat, dist_sq, r)
        flat = int(integrals.argmax())
        value = float(integrals.flat[flat]) * r ** (2.0 * (1.0 + eps) - grid.dim)
        if value > best:
            best = value
            witness = (tuple(int(i) for i in np.unravel_index(flat, grid.shape)), r)
    return Record("fefferman_phong", best, threshold, witness=witness)


def inhomogeneous_variants(
    measure: DiscreteMeasure, thresholds: dict[str, float] | None = None
) -> dict[str, Record]:
    """W^{1,2} variants: Bessel potential, Carleson tree cut at side L/2.

    Returns records keyed 'carleson', 'ball_energy', 'pointwise'.  The
    Bessel kernel is bounded at frequency zero, so these run in both
    two and three dimensions.
    """
    thresholds = thresholds or {}
    out = {"carleson": truncated_carleson_test(measure, thresholds.get("carleson"))}
    out["ball_energy"] = _ball_energy(
        measure, None, _bessel_potential, "ball_energy_w12",
        thresholds.get("ball_energy"),
    )
    out["pointwise"] = _pointwise(
        measure, _bessel_potential, "pointwise_w12", thresholds.get("pointwise"))
    return out
