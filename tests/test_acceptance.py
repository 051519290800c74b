"""Acceptance suite: one test per published criterion.

Each test prints a single "criterion NN <name>: PASS/FAIL" line (the
suite runs with -s) and then asserts, so the printed line and the pytest
outcome always agree.  Stated runtime budgets are asserted where given.
"""

import json
import time

import numpy as np

from formbound import presets
from formbound.capacity import ball_set, capacity, cube_set, gauge_check
from formbound.cli import main
from formbound.formnorm import form_norm, nonlinear_form_constant, trace_constant
from formbound.hodge import project
from formbound.measures import (
    DiscreteMeasure,
    ball_energy_test,
    carleson_test,
    pointwise_test,
)
from formbound.torus import (
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    curl,
    div,
    grad,
    mat_div,
)
from formbound.verdict import assess_homogeneous, assess_infinitesimal


def _emit(num: int, name: str, ok: bool) -> bool:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _noise_field(grid: Grid, rng) -> VectorField:
    comps = []
    for _ in range(grid.dim):
        v = rng.standard_normal(grid.shape)
        comps.append(ScalarField(grid, v - v.mean()))
    return VectorField(tuple(comps))


def _sup(field) -> float:
    return max(float(np.abs(c.values).max()) for c in field.components)


def test_criterion_01_hodge_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for dim, n in ((2, 64), (3, 32)):
        grid = Grid(dim, n, 1.0)
        rng = np.random.default_rng(100 + dim)
        for _ in range(50):
            b = _noise_field(grid, rng)
            scale = _sup(b)
            Pb = project("P", b)
            Qb = project("Q", b)
            worst = max(
                worst,
                _sup(b - Pb - Qb) / scale,
                _sup(project("P", Pb) - Pb) / scale,
                _sup(project("Q", Qb) - Qb) / scale,
                _sup(project("Q", Pb)) / scale,
                _sup(project("P", Qb)) / scale,
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 10.0
    assert _emit(1, "hodge identity", ok), f"worst={worst:.3e} elapsed={elapsed:.1f}s"


def test_criterion_02_algebraic_identities():
    worst = 0.0
    for dim in (2, 3):
        grid = Grid(dim, 32, 1.0)
        scalars = [presets.make_scalar(nm, grid) for nm in presets.SCALAR_PRESETS]
        scalars += [
            presets.make_field(nm, grid, seed=1).components[0]
            for nm in presets.FIELD_PRESETS
        ]
        for u in scalars:
            g = grad(u)
            rot = curl(g)
            scale = max(_sup(g), 1e-30)
            worst = max(
                worst,
                max(
                    float(np.abs(rot[i, j].values).max())
                    for i in range(dim)
                    for j in range(dim)
                )
                / scale,
            )
        for nm in presets.FIELD_PRESETS:
            b = presets.make_field(nm, grid, seed=1)
            zero = ScalarField(grid, np.zeros(grid.shape))
            if dim == 2:
                rows = ((zero, b.components[0]),
                        (-1.0 * b.components[0], zero))
            else:
                c0, c1, c2 = b.components
                rows = ((zero, c0, c1),
                        (-1.0 * c0, zero, c2),
                        (-1.0 * c1, -1.0 * c2, zero))
            skew = MatrixField(rows)
            res = div(mat_div(skew))
            scale = max(_sup(b), 1e-30)
            worst = max(worst, float(np.abs(res.values).max()) / scale)
    ok = worst <= 1e-9
    assert _emit(2, "exact algebraic identities", ok), f"worst={worst:.3e}"


def test_criterion_03_gauge_energy_identity():
    t0 = time.perf_counter()
    taus = (0.75, 1.0, 1.25)
    gaps = {}
    for n in (64, 128):
        grid = Grid(3, n, 1.0)
        e = ball_set(grid, (0.5, 0.5, 0.5), 0.125)
        res = capacity(e)
        gap = 0.0
        for tau in taus:
            rep = gauge_check(e, tau=tau, nprobe=1, seed=0, result=res)
            ratio = rep.energy_lhs / rep.energy_rhs
            assert 0.85 <= ratio <= 1.15, f"n={n} tau={tau} ratio={ratio:.4f}"
            gap = max(gap, abs(ratio - 1.0))
        gaps[n] = gap
    elapsed = time.perf_counter() - t0
    ok = gaps[128] < gaps[64] and elapsed <= 300.0
    assert _emit(3, "gauge energy identity", ok), f"gaps={gaps} elapsed={elapsed:.0f}s"


def test_criterion_04_gauge_distortion_bound():
    grid = Grid(3, 64, 1.0)
    e = ball_set(grid, (0.5, 0.5, 0.5), 0.125)
    res = capacity(e)
    ok = True
    for tau in (0.75, 1.0, 1.25):
        rep = gauge_check(e, tau=tau, nprobe=20, seed=0, result=res)
        bound = 1.0 + 2.0 * tau
        ok = ok and rep.within_bounds
        ok = ok and rep.gauge_ratio <= bound * 1.1
        ok = ok and rep.gauge_ratio_min >= 0.9 / bound
    assert _emit(4, "gauge distortion bound", ok)


def test_criterion_05_capacity_scaling():
    grid3 = Grid(3, 32, 1.0)
    ratios = [
        capacity(cube_set(grid3, (0.5,) * 3, s)).value / s
        for s in (0.0625, 0.125, 0.25)
    ]
    ok = max(ratios) / min(ratios) <= 2.0
    grid2 = Grid(2, 32, 1.0)
    products = []
    for s in (0.0625, 0.125, 0.25):
        hom = capacity(cube_set(grid2, (0.5, 0.5), s), "homogeneous").value
        ok = ok and hom == 0.0
        inh = capacity(cube_set(grid2, (0.5, 0.5), s), "inhomogeneous").value
        products.append(inh * np.log(2.0 / s**2))
    ok = ok and max(products) / min(products) <= 2.0
    assert _emit(5, "capacity scaling", ok), f"ratios={ratios} products={products}"


def test_criterion_06_carleson_closed_form_and_oracle():
    grid = Grid(3, 32, 1.0)
    leb = presets.make_measure("lebesgue", grid)
    want = 4.0 / 3.0 * (1.0 - 4.0 ** (-6))
    ok = abs(carleson_test(leb).constant - want) <= 1e-12

    g16 = Grid(3, 16, 1.0)
    mu = presets.make_measure("lebesgue", g16)
    cells = mu.cell_mass
    depth = 4
    level_mass = {}
    for lev in range(depth + 1):
        s = 16 >> lev
        m = np.zeros((1 << lev,) * 3)
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
                side_len = 1.0 / (1 << sub)
                energy += float((block**2).sum()) * (side_len**3) ** (2.0 / 3.0 - 1.0)
            best = max(best, energy / mass)
    tree = carleson_test(mu).constant
    ok = ok and abs(tree - best) <= 1e-12 * best
    assert _emit(6, "carleson closed form and oracle", ok), f"tree={tree} brute={best}"


def test_criterion_07_poincare_cross_check():
    grid = Grid(3, 16, 1.0)
    alpha = 2.25
    want = alpha / (4.0 * np.pi**2)
    tr = trace_constant(presets.make_measure("lebesgue", grid).scaled(alpha)).value
    fn = form_norm(None, None, ScalarField(grid, np.full(grid.shape, alpha))).value
    ok = abs(tr - want) <= 1e-6 * want and abs(fn - want) <= 1e-6 * want
    assert _emit(7, "poincare cross-check", ok), f"trace={tr} form={fn} want={want}"


def test_criterion_08_vortex_contrast():
    t0 = time.perf_counter()
    forms, masses, traces = [], [], []
    for n in (32, 64, 128):
        grid = Grid(3, n, 1.0)
        b = presets.make_field("vortex", grid)
        speed_sq = sum(c.values**2 for c in b.components)
        axes = [np.arange(n) * grid.spacing for _ in range(3)]
        d1 = np.minimum(np.abs(axes[0] - 0.5), 1.0 - np.abs(axes[0] - 0.5))
        dist_sq = (
            d1[:, None, None] ** 2 + d1[None, :, None] ** 2 + d1[None, None, :] ** 2
        )
        mask = dist_sq <= 0.25**2
        masses.append(float(speed_sq[mask].sum()) * grid.cell_volume)
        mu = DiscreteMeasure.from_density(ScalarField(grid, speed_sq))
        traces.append(trace_constant(mu).value)
        forms.append(form_norm(None, b, None).value)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 600.0
    for prev, cur in zip(forms, forms[1:]):
        ok = ok and abs(cur / prev - 1.0) <= 0.20
    for prev, cur in zip(masses, masses[1:]):
        ok = ok and cur / prev >= 1.30
    for prev, cur in zip(traces, traces[1:]):
        ok = ok and cur / prev >= 1.30
    assert _emit(8, "vortex contrast", ok), (
        f"forms={forms} masses={masses} traces={traces} elapsed={elapsed:.0f}s"
    )


def test_criterion_09_sandwich():
    grid = Grid(3, 32, 1.0)
    slack_hi = 1.25 * 2.0 * np.sqrt(3.0)
    ok = True
    detail = {}
    for name in ("vortex", "gradient", "random"):
        b = presets.make_field(name, grid, seed=0)
        big, small, flag = nonlinear_form_constant(b, seed=0)
        ok = ok and flag
        ok = ok and big.value <= 1.05 * small.value
        ok = ok and small.value <= slack_hi * big.value
        detail[name] = (big.value, small.value)
    assert _emit(9, "nonlinear sandwich", ok), f"pairs={detail}"


def test_criterion_10_two_dimensional_degeneracy():
    grid = Grid(2, 32, 1.0)
    stream = presets.make_field("stream", grid)
    ok = assess_homogeneous(None, stream, None).overall == "certified_bounded"
    for qv in (
        ScalarField(grid, np.full(grid.shape, 0.5)),
        presets.make_scalar("trig", grid),
    ):
        mass = float(np.abs(qv.values).mean())
        assert mass >= 0.1
        verdict = assess_homogeneous(None, stream, qv)
        ok = ok and verdict.overall == "certified_unbounded_n2"
    assert _emit(10, "n=2 degeneracy", ok)


def test_criterion_11_equivalence_coherence():
    grid = Grid(3, 32, 1.0)
    constants = {}
    for name in presets.MEASURE_FAMILY:
        mu = presets.make_measure(name, grid, seed=5)
        constants[name] = (
            ball_energy_test(mu).constant,
            pointwise_test(mu).constant,
            carleson_test(mu).constant,
        )
    ok = True
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            ratios = [c[i] / c[j] for c in constants.values()]
            ok = ok and max(ratios) / min(ratios) <= 30.0
    alpha = 3.5
    for name in presets.MEASURE_FAMILY:
        mu = presets.make_measure(name, grid, seed=5)
        scaled = mu.scaled(alpha)
        base = constants[name]
        post = (
            ball_energy_test(scaled).constant,
            pointwise_test(scaled).constant,
            carleson_test(scaled).constant,
        )
        for x, y in zip(base, post):
            ok = ok and abs(y - alpha * x) <= 1e-10 * max(abs(y), 1e-30)
    assert _emit(11, "equivalence coherence", ok), f"constants={constants}"


def test_criterion_12_infinitesimal_profiles():
    grid = Grid(2, 256, 1.0)
    deltas = [1 / 16, 1 / 32, 1 / 64, 1 / 128]
    smooth = assess_infinitesimal(
        presets.make_field("stream", grid), presets.make_scalar("trig", grid), deltas
    )
    vmo = smooth.profiles["vmo"]
    vmo_factors = [x / y for x, y in zip(vmo, vmo[1:])]
    tr = smooth.profiles["local_trace"]
    tr_factors = [x / y for x, y in zip(tr, tr[1:])]
    # the VMO factor carries a small discretization deficit at the first
    # step and climbs monotonically to the exact 2
    ok = all(f >= 1.96 for f in vmo_factors)
    ok = ok and all(y >= x for x, y in zip(vmo_factors, vmo_factors[1:]))
    ok = ok and all(f >= 2.0 for f in tr_factors)
    ok = ok and smooth.overall == "certified_bounded"

    flagged = assess_infinitesimal(
        presets.make_field("log_stream", grid), None, [1 / 16, 1 / 32, 1 / 64]
    )
    fvmo = flagged.profiles["vmo"]
    flag_factors = [x / y for x, y in zip(fvmo, fvmo[1:])]
    ok = ok and all(f < 1.2 for f in flag_factors)
    ok = ok and flagged.overall != "certified_bounded"
    assert _emit(12, "infinitesimal profiles", ok), (
        f"vmo={vmo_factors} trace={tr_factors} flagged={flag_factors}"
    )


def test_criterion_13_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verdict", "--dim", "3", "--grid", "32", "--preset", "vortex",
            "--seed", "11"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())
    assert _emit(13, "determinism", ok)
