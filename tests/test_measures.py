import numpy as np
import pytest

from formbound import presets
from formbound.capacity import ball_set, capacity
from formbound.formnorm import form_norm, trace_constant
from formbound.hodge import decompose
from formbound.measures import (
    FLAVORS,
    DiscreteMeasure,
    ball_energy_test,
    ball_growth_test,
    carleson_test,
    default_ball_sample,
    fefferman_phong_test,
    geometric_radii,
    pointwise_test,
)
from formbound.torus import Grid, ScalarField


def _lebesgue_carleson(depth: int) -> float:
    # per-level contribution of the uniform measure is 4^(-level)
    return 4.0 / 3.0 * (1.0 - 4.0 ** (-(depth + 1)))


@pytest.mark.parametrize("dim,n", [(2, 16), (2, 64), (3, 32)])
def test_carleson_lebesgue_closed_form(dim, n):
    g = Grid(dim, n, 1.0)
    mu = presets.make_measure("lebesgue", g)
    depth = int(np.log2(n))
    rep = carleson_test(mu)
    assert abs(rep.constant - _lebesgue_carleson(depth)) <= 1e-12
    assert rep.witness.side == n  # the whole torus realizes the sup


def test_carleson_truncated_lebesgue():
    g = Grid(2, 64, 1.0)
    mu = presets.make_measure("lebesgue", g)
    rep = carleson_test(mu, flavor="inhomogeneous")
    # cut at side L/2: levels j = 1..D of 4^(-j) relative to the top cube
    want = (1.0 - 4.0 ** (-6)) / 3.0
    assert abs(rep.constant - want) <= 1e-12
    assert rep.name == "carleson_w12"


def test_carleson_point_mass_chain():
    g = Grid(3, 32, 1.0)
    mu = presets.make_measure("point_mass", g)
    # one unit mass: the nested-cube chain sums side_len^(-1) = 2^level
    rep = carleson_test(mu)
    assert abs(rep.constant - (2.0**6 - 1.0)) <= 1e-12
    assert rep.witness.side == 32  # the full chain accumulates at the top cube


def test_carleson_brute_force_oracle():
    g = Grid(3, 16, 1.0)
    mu = presets.make_measure("random_density", g, seed=2)
    cells = mu.cell_mass
    n, dim, L, depth = 16, 3, 1.0, 4
    level_mass = {}
    for lev in range(depth + 1):
        s = n >> lev
        m = np.zeros((1 << lev,) * dim)
        for idx in np.ndindex(*m.shape):
            sl = tuple(slice(i * s, (i + 1) * s) for i in idx)
            m[idx] = cells[sl].sum()
        level_mass[lev] = m
    best = 0.0
    for lev in range(depth + 1):
        for idx in np.ndindex(*level_mass[lev].shape):
            mass = level_mass[lev][idx]
            if mass <= 0:
                continue
            energy = 0.0
            for sub in range(lev, depth + 1):
                f = 1 << (sub - lev)
                block = level_mass[sub][
                    tuple(slice(i * f, (i + 1) * f) for i in idx)
                ]
                side_len = L / (1 << sub)
                energy += float((block**2).sum()) * (side_len**dim) ** (2.0 / dim - 1.0)
            best = max(best, energy / mass)
    assert abs(carleson_test(mu).constant - best) <= 1e-12 * best


def test_carleson_scaling_exact():
    g = Grid(3, 16, 1.0)
    mu = presets.make_measure("bump", g)
    base = carleson_test(mu).constant
    scaled = carleson_test(mu.scaled(3.5)).constant
    assert abs(scaled - 3.5 * base) <= 1e-12 * scaled


def test_carleson_threshold_flag():
    g = Grid(2, 16, 1.0)
    mu = presets.make_measure("lebesgue", g)
    assert carleson_test(mu, threshold=10.0).passed
    assert not carleson_test(mu, threshold=1e-6).passed


def test_ball_growth_lebesgue_3d():
    g = Grid(3, 32, 1.0)
    rep = ball_growth_test(presets.make_measure("lebesgue", g))
    want = 4.0 * np.pi / 3.0 * (1.0 / 4.0) ** 2  # vol(B_r)/r at r = L/4
    assert abs(rep.constant - want) <= 0.1 * want
    center, radius = rep.witness
    assert abs(radius - 0.25) <= 1e-12


def test_ball_growth_2d_reports_mass():
    g = Grid(2, 32, 1.0)
    rep = ball_growth_test(presets.make_measure("lebesgue", g))
    want = np.pi * (1.0 / 4.0) ** 2
    assert abs(rep.constant - want) <= 0.1 * want
    assert "mu = 0" in rep.note


def test_ball_growth_radius_validation():
    g = Grid(3, 16, 1.0)
    mu = presets.make_measure("lebesgue", g)
    with pytest.raises(ValueError):
        ball_growth_test(mu, radii=[0.5])  # beyond L/4
    with pytest.raises(ValueError):
        ball_growth_test(mu, radii=[g.spacing / 2.0])
    with pytest.raises(ValueError):
        ball_growth_test(mu, radii=[])


@pytest.mark.parametrize("run", [
    lambda mu: ball_growth_test(mu, radii=[np.nan]),
    lambda mu: fefferman_phong_test(mu, 0.5, radii=[np.nan]),
], ids=["ball_growth", "fefferman_phong"])
def test_nan_radius_rejected(run):
    # a NaN radius compares False both ways: only a check that requires
    # lo <= r <= hi rejects it, instead of returning an all-zero record
    bump = presets.make_measure("bump", Grid(3, 16, 1.0))
    with pytest.raises(ValueError, match="radius nan"):
        run(bump)


@pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
def test_ball_tests_match_brute_force_ball_sums(dim, n):
    # every center and every geometric radius, each ball summed over its
    # own dist_sq mask: per radius, over the whole family, and at the witness
    g = Grid(dim, n, 1.0)
    mu = DiscreteMeasure(g, np.random.default_rng(7).exponential(size=g.shape))
    eps = 0.5
    integrand = (mu.cell_mass / g.cell_volume) ** (1.0 + eps) * g.cell_volume
    cases = [
        (lambda radii: ball_growth_test(mu, radii), mu.cell_mass,
         lambda mass, r: mass / r ** (dim - 2)),
        (lambda radii: fefferman_phong_test(mu, eps, radii), integrand,
         lambda mass, r: mass * r ** (2.0 * (1.0 + eps) - dim)),
    ]
    radii = geometric_radii(g)
    for run, values, weight in cases:
        def ball(center, r):
            return weight(values[g.dist_sq(center) <= r * r].sum(), r)

        tops = {r: max(ball(c, r) for c in np.ndindex(*g.shape)) for r in radii}
        for r, top in tops.items():
            assert abs(run([r]).constant - top) <= 1e-12 * top
        rec = run(None)
        want = max(tops.values())
        assert abs(rec.constant - want) <= 1e-12 * want
        assert abs(ball(*rec.witness) - want) <= 1e-12 * want


def test_geometric_radii_span():
    g = Grid(3, 32, 1.0)
    radii = geometric_radii(g)
    assert radii[0] == 2.0 * g.spacing
    assert radii[-1] <= 0.25 + 1e-12
    assert all(b > a for a, b in zip(radii, radii[1:]))


def test_ball_energy_truncated_kernel_oracle():
    # independent route: direct convolution with the free-space kernel
    # of (-Lap)^(-1/2), cut at half the period
    g = Grid(3, 16, 1.0)
    leb = presets.make_measure("lebesgue", g)
    n, L, h = 16, 1.0, g.spacing
    d1 = np.minimum(np.arange(n), n - np.arange(n)) * h
    dist_sq = (
        d1[:, None, None] ** 2 + d1[None, :, None] ** 2 + d1[None, None, :] ** 2
    )
    dist = np.sqrt(dist_sq)
    kern = np.where(
        (dist > 0) & (dist <= L / 2),
        1.0 / (2.0 * np.pi**2 * np.maximum(dist_sq, 1e-300)),
        0.0,
    )
    r_cell = (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0) * h
    kern.flat[0] = (2.0 * r_cell / np.pi) / g.cell_volume
    center, radius = (8, 8, 8), L / 8
    mask = np.roll(dist_sq <= radius * radius, center, axis=(0, 1, 2))
    inside = np.where(mask, leb.cell_mass, 0.0) / g.cell_volume
    pot = np.fft.ifftn(np.fft.fftn(inside) * np.fft.fftn(kern)).real * g.cell_volume
    oracle = float((pot[mask] ** 2).sum() * g.cell_volume) / float(
        leb.cell_mass[mask].sum()
    )
    rep = ball_energy_test(leb, ball_sample=[(center, radius)])
    assert abs(rep.constant - oracle) <= 0.1 * oracle


@pytest.mark.parametrize("radius", [-0.2, -np.inf, np.inf, np.nan])
def test_ball_energy_radius_validated(radius):
    # the mask reads radius**2, so a negative radius would measure the
    # ball of |radius| and report the negative one as its witness
    bump = presets.make_measure("bump", Grid(3, 16, 1.0))
    with pytest.raises(ValueError, match="radius"):
        ball_energy_test(bump, ball_sample=[((1, 2, 3), 0.25), ((1, 2, 3), radius)])


def test_ball_energy_needs_dim3():
    g = Grid(2, 16, 1.0)
    with pytest.raises(ValueError):
        ball_energy_test(presets.make_measure("lebesgue", g))


def test_pointwise_lebesgue_exact():
    g = Grid(3, 32, 1.0)
    rep = pointwise_test(presets.make_measure("lebesgue", g))
    # I1 of the unit density is the constant L/pi, so the ratio is (L/pi)^2
    assert abs(rep.constant - 1.0 / np.pi**2) <= 1e-12


def test_pointwise_scaling_exact():
    g = Grid(3, 16, 1.0)
    mu = presets.make_measure("two_bumps", g)
    base = pointwise_test(mu).constant
    scaled = pointwise_test(mu.scaled(2.0)).constant
    assert abs(scaled - 2.0 * base) <= 1e-10 * scaled


def test_fefferman_phong_lebesgue():
    g = Grid(3, 16, 1.0)
    rep = fefferman_phong_test(DiscreteMeasure.from_density(ScalarField(g, np.ones(g.shape))), 0.5)
    want = 4.0 * np.pi / 3.0 * 0.25 ** (2.0 * 1.5)  # (4pi/3) r^(2(1+eps)) at r = L/4
    assert abs(rep.constant - want) <= 0.1 * want


def test_fefferman_phong_validation():
    g = Grid(2, 16, 1.0)
    mu = presets.make_measure("lebesgue", g)
    with pytest.raises(ValueError):
        fefferman_phong_test(mu, 0.0)
    with pytest.raises(ValueError):
        fefferman_phong_test(mu, 1.5)


def test_inhomogeneous_flavor_lebesgue():
    g = Grid(3, 16, 1.0)
    mu = presets.make_measure("lebesgue", g)
    pointwise = pointwise_test(mu, flavor="inhomogeneous")
    assert pointwise.name == "pointwise_w12"
    # Bessel potential of the unit density is 1, so the ratio is exactly 1
    assert abs(pointwise.constant - 1.0) <= 1e-12
    energy = ball_energy_test(mu, flavor="inhomogeneous")
    assert energy.name == "ball_energy_w12"
    assert energy.constant > 0.0


def test_inhomogeneous_flavor_dim2():
    # the Bessel kernel is bounded at frequency zero: no dim-3 check
    g = Grid(2, 32, 1.0)
    mu = presets.make_measure("bump", g)
    out = [test(mu, flavor="inhomogeneous")
           for test in (carleson_test, ball_energy_test, pointwise_test)]
    assert [rep.name for rep in out] == ["carleson_w12", "ball_energy_w12", "pointwise_w12"]
    assert all(rep.constant >= 0.0 for rep in out)


_FLAVORED = {
    "carleson_test": lambda mu, flavor: carleson_test(mu, flavor=flavor),
    "ball_energy_test": lambda mu, flavor: ball_energy_test(mu, flavor=flavor),
    "pointwise_test": lambda mu, flavor: pointwise_test(mu, flavor=flavor),
    "trace_constant": lambda mu, flavor: trace_constant(mu, flavor=flavor),
    "form_norm": lambda mu, flavor: form_norm(None, None, mu.density(), flavor=flavor),
    "capacity": lambda mu, flavor: capacity(ball_set(mu.grid, (0.5,) * 3, 0.125), flavor),
    "decompose": lambda mu, flavor: decompose(presets.make_field("vortex", mu.grid),
                                              flavor=flavor),
}


@pytest.mark.parametrize("entry", sorted(_FLAVORED))
def test_every_flavored_entry_point_checks_one_vocabulary(entry):
    mu = presets.make_measure("bump", Grid(3, 16, 1.0))
    with pytest.raises(ValueError) as err:
        _FLAVORED[entry](mu, "Homogeneous")
    assert str(err.value) == f"flavor must be one of {FLAVORS}"


def test_measure_validation():
    g = Grid(2, 16, 1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure(g, -np.ones(g.shape))
    with pytest.raises(ValueError):
        DiscreteMeasure(g, np.zeros((16, 8)))
    with pytest.raises(ValueError):
        DiscreteMeasure(g, np.zeros(g.shape)).scaled(-1.0)
    with pytest.raises(ValueError):
        DiscreteMeasure.from_density(ScalarField(g, 1j * np.ones(g.shape)))


def test_from_density_total():
    g = Grid(2, 16, 2.0)
    mu = DiscreteMeasure.from_density(ScalarField(g, np.full(g.shape, 3.0)))
    assert abs(mu.total - 3.0 * g.period**2) <= 1e-12
    back = mu.density()
    assert np.allclose(back.values, 3.0)


def test_default_ball_sample_tracks_peak():
    # concentrated mass away from the coarse center lattice must be sampled
    g = Grid(3, 32, 1.0)
    masses = np.zeros(g.shape)
    masses[5, 9, 13] = 1.0
    mu = DiscreteMeasure(g, masses)
    centers = {c for c, _ in default_ball_sample(g, mu)}
    assert (5, 9, 13) in centers
    plain = {c for c, _ in default_ball_sample(g)}
    assert (5, 9, 13) not in plain


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_mass_rejected(bad):
    g = Grid(3, 16, 1.0)
    mass = np.full(g.shape, g.cell_volume)
    mass[4, 5, 6] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DiscreteMeasure(g, mass)
