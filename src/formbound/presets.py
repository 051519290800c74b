"""Named analytic inputs: drift fields, scalar potentials, and measures.

Every preset is a deterministic function of (grid, seed), so reports built
from presets are reproducible bit for bit.  Fields are returned as torus
fields on the caller's grid; measures as DiscreteMeasure.

The vortex preset is the rotational field (x2, -x1, 0, ...)/(x1^2 + x2^2)
centered at L/2 per axis.  Its magnitude 1/r is capped at 1/(2h) inside the
core (the cap radius is then 2h) and the mean is subtracted, so the sampled
field is finite while the L^2 mass over any fixed ball still grows under
refinement like log(1/h).
"""

from __future__ import annotations

import numpy as np

from formbound.measures import DiscreteMeasure
from formbound.torus import (
    Grid,
    ScalarField,
    SkewField,
    VectorField,
    _BandDraw,
    _on_axes,
    _pairs,
    grad,
    mat_div,
)

__all__ = [
    "FIELD_PRESETS",
    "MEASURE_PRESETS",
    "SCALAR_PRESETS",
    "MEASURE_FAMILY",
    "make_field",
    "make_measure",
    "make_scalar",
    "vortex",
    "gradient",
    "stream",
    "coulomb_gauge",
    "random_field",
    "singular_gradient",
    "log_stream",
    "log_singular",
    "trig_scalar",
    "lebesgue",
    "bump",
    "two_bumps",
    "point_mass",
    "random_density",
]


def _full(grid: Grid, arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.broadcast_to(arr, grid.shape).astype(np.float64))


def vortex(grid: Grid) -> VectorField:
    """Capped swirl around the axis through the grid center.

    b = (d2, -d1, 0)/r * min(1/r, 1/(2h)) with d the displacement from the
    center and r = |(d1, d2)|; the axis cells (r = 0) carry zero.  Each
    component is mean-subtracted.
    """
    h = grid.spacing
    # signed displacements from the center cell, in [-L/2, L/2)
    d = (np.arange(grid.points_per_axis) - grid.points_per_axis // 2) * h
    d1, d2 = _on_axes(*[d] * grid.dim)[:2]
    rsq = d1**2 + d2**2
    r = np.sqrt(rsq)
    # min(1/r^2, 1/(2 h r)) without dividing by zero on the axis
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(r > 0.0, np.minimum(1.0 / np.where(rsq > 0, rsq, 1.0),
                                             1.0 / (2.0 * h * np.where(r > 0, r, 1.0))), 0.0)
    comps = [_full(grid, d2 * scale), _full(grid, -d1 * scale)]
    while len(comps) < grid.dim:
        comps.append(np.zeros(grid.shape))
    comps = [c - c.mean() for c in comps]
    return VectorField(tuple(ScalarField(grid, c) for c in comps))


def gradient(grid: Grid) -> VectorField:
    """b = grad g with g = sin(2 pi x1 / L), so b = (2 pi/L cos(...), 0, ...)."""
    x = grid.coordinates()
    w = 2.0 * np.pi / grid.period
    return grad(ScalarField(grid, np.sin(w * x[0]) + np.zeros(grid.shape)))


def stream(grid: Grid) -> VectorField:
    """Divergence-free drift b = (d g/dx2, -d g/dx1, 0, ...) from the stream
    function g = sin(2 pi x1 / L) sin(2 pi x2 / L) + cos(2 pi x2 / L) / 2."""
    x = grid.coordinates()
    w = 2.0 * np.pi / grid.period
    vals = np.sin(w * x[0]) * np.sin(w * x[1]) + 0.5 * np.cos(w * x[1])
    gg = grad(ScalarField(grid, vals + np.zeros(grid.shape)))
    comps = [gg[1], -1.0 * gg[0]]
    while len(comps) < grid.dim:
        comps.append(ScalarField(grid, np.zeros(grid.shape)))
    return VectorField(tuple(comps))


def coulomb_gauge(grid: Grid) -> VectorField:
    """a = Div F0 for a smooth skew matrix F0; div a = 0 by antisymmetry."""
    x = grid.coordinates()
    w = 2.0 * np.pi / grid.period
    f = np.cos(w * x[0]) * np.sin(w * x[1]) + np.zeros(grid.shape)
    return mat_div(_skew_12(grid, f))


def _skew_12(grid: Grid, f: np.ndarray) -> SkewField:
    """The skew matrix field with F_12 = f = -F_21 and no other entries."""
    upper = np.zeros((len(_pairs(grid.dim)),) + grid.shape)
    upper[0] = f
    return SkewField.from_array(grid, upper)


def _band_limited(grid: Grid, rng: np.random.Generator) -> np.ndarray:
    """Real field whose spectrum is confined to |k_i| <= max(2, n/8) per axis,
    scaled to unit sup norm.  The normals are drawn over the full grid and
    cut to the band, which keeps each seed's values."""
    draw = _BandDraw(grid, max(2, grid.points_per_axis // 8))
    full = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    vals = draw(full[draw.band]).real
    peak = np.abs(vals).max()
    return vals / peak if peak > 0 else vals


def random_field(grid: Grid, seed: int = 0) -> VectorField:
    """Seeded band-limited real drift, unit sup norm per component."""
    rng = np.random.default_rng(seed)
    comps = tuple(ScalarField(grid, _band_limited(grid, rng)) for _ in range(grid.dim))
    return VectorField(comps)


def singular_gradient(grid: Grid) -> VectorField:
    """Gradient of a capped 1/r spike: a strong, concentrated curl-free drift.

    The potential is 10 min(1/|d|, 1/(2h)) mean-subtracted; its
    spectral gradient has L^2 mass that diverges under refinement, which is
    the bad case for the inhomogeneous trace test.
    """
    r = np.sqrt(grid.dist_sq((grid.points_per_axis // 2,) * grid.dim))
    h = grid.spacing
    phi = 10.0 * np.minimum(1.0 / np.maximum(r, h * 1e-12), 1.0 / (2.0 * h))
    phi = phi - phi.mean()
    return grad(ScalarField(grid, phi))


def log_singular(grid: Grid) -> ScalarField:
    """log |2 sin(pi x1 / L)|: the periodic log singularity along x1 = 0.

    The argument is floored at its half-cell value so samples stay finite;
    the oscillation per dyadic scale is then flat in the scale, which is the
    canonical BMO-but-not-VMO profile.
    """
    x = grid.coordinates()
    s = np.abs(2.0 * np.sin(np.pi * x[0] / grid.period))
    floor = 2.0 * np.sin(np.pi * grid.spacing / (2.0 * grid.period))
    vals = np.log(np.maximum(s, floor)) + np.zeros(grid.shape)
    return ScalarField(grid, vals)


def log_stream(grid: Grid) -> VectorField:
    """Drift whose stream matrix carries a log singularity: b = Div F0,
    F0_{12} = -F0_{21} = log_singular."""
    return mat_div(_skew_12(grid, log_singular(grid).values))


def trig_scalar(grid: Grid) -> ScalarField:
    x = grid.coordinates()
    w = 2.0 * np.pi / grid.period
    vals = np.cos(w * x[0]) * np.cos(w * x[1]) + np.zeros(grid.shape)
    return ScalarField(grid, vals)


# ---------------------------------------------------------------------------
# measures


def lebesgue(grid: Grid) -> DiscreteMeasure:
    return DiscreteMeasure.from_density(ScalarField(grid, np.ones(grid.shape)))


def bump(grid: Grid) -> DiscreteMeasure:
    """Gaussian bump of width L/8 at the grid center."""
    sigma = grid.period / 8.0
    rsq = grid.dist_sq((grid.points_per_axis // 2,) * grid.dim)
    density = np.exp(-rsq / (2.0 * sigma**2))
    return DiscreteMeasure.from_density(ScalarField(grid, density))


def two_bumps(grid: Grid) -> DiscreteMeasure:
    """Two Gaussian bumps of width L/10, the second offset and lighter."""
    n = grid.points_per_axis
    sigma = grid.period / 10.0

    def _bump_at(center_cell: int, weight: float) -> np.ndarray:
        rsq = grid.dist_sq((center_cell,) * grid.dim)
        return weight * np.exp(-rsq / (2.0 * sigma**2))

    density = _bump_at(n // 4, 1.0) + _bump_at(3 * n // 4, 0.6)
    return DiscreteMeasure.from_density(ScalarField(grid, density))


def point_mass(grid: Grid) -> DiscreteMeasure:
    """Unit mass in the single center cell."""
    cell = (grid.points_per_axis // 2,) * grid.dim
    masses = np.zeros(grid.shape)
    masses[cell] = 1.0
    return DiscreteMeasure(grid, masses)


def random_density(grid: Grid, seed: int = 0) -> DiscreteMeasure:
    """Squared band-limited random field: nonnegative, diffuse, seeded."""
    rng = np.random.default_rng(seed)
    vals = _band_limited(grid, rng)
    return DiscreteMeasure.from_density(ScalarField(grid, vals**2 + 0.05))


FIELD_PRESETS = {
    "vortex": vortex,
    "gradient": gradient,
    "stream": stream,
    "coulomb_gauge": coulomb_gauge,
    "random": random_field,
    "singular_gradient": singular_gradient,
    "log_stream": log_stream,
}

SCALAR_PRESETS = {
    "log_singular": log_singular,
    "trig": trig_scalar,
}

MEASURE_PRESETS = {
    "lebesgue": lebesgue,
    "bump": bump,
    "two_bumps": two_bumps,
    "point_mass": point_mass,
    "random_density": random_density,
}

# the family the coherence checks sweep over
MEASURE_FAMILY = ("lebesgue", "bump", "two_bumps", "random_density")


def make_field(name: str, grid: Grid, seed: int = 0) -> VectorField:
    if name not in FIELD_PRESETS:
        raise ValueError(f"unknown field preset {name!r}; choices: {sorted(FIELD_PRESETS)}")
    if name == "random":
        return random_field(grid, seed=seed)
    return FIELD_PRESETS[name](grid)


def make_scalar(name: str, grid: Grid) -> ScalarField:
    if name not in SCALAR_PRESETS:
        raise ValueError(f"unknown scalar preset {name!r}; choices: {sorted(SCALAR_PRESETS)}")
    return SCALAR_PRESETS[name](grid)


def make_measure(name: str, grid: Grid, seed: int = 0) -> DiscreteMeasure:
    if name not in MEASURE_PRESETS:
        raise ValueError(f"unknown measure preset {name!r}; choices: {sorted(MEASURE_PRESETS)}")
    if name == "random_density":
        return random_density(grid, seed=seed)
    return MEASURE_PRESETS[name](grid)
