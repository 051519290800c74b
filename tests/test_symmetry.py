"""Grid symmetries of the verdicts.

The torus, the dyadic cube family and the paper's conditions do not change
under a permutation of the axes or a roll by half the period along every
axis, and neither may a verdict: each case runs on a drift and on its
image, and the outcome and every constant above the round-off floor must
agree.  The Lanczos tolerance is 1e-8, so 1e-7 leaves room for the form
records.  A roll by one cell along x moves the dyadic records and the
ball-energy sample, which hang on where the cells sit (ROADMAP, symmetry
checks), so under it the outcome, the six spectral records and
harmonic_drift (a max over the parity classes of cells) alone are
asserted.  Cell-centred reflections still move some records, so under
them only form_norm is asserted: its Nyquist-free derivative is odd in
every mode, so the compression of a drift and of its mirror image are
unitarily equivalent, and the two values agree to round-off.
"""

import numpy as np
import pytest

from formbound import presets
from formbound.formnorm import form_norm
from formbound.torus import Grid, ScalarField, VectorField
from formbound.verdict import assess_homogeneous, assess_inhomogeneous, assess_magnetic

_FLOOR = 1e-8
_RTOL = 1e-7

# the records that do not hang on where the dyadic cells or the sampled
# balls sit; a one-cell roll permutes the parity classes of b_h
_SPECTRAL = {"form_norm", "trace", "strengthened_drift", "ball_growth",
             "fefferman_phong", "pointwise_w12", "harmonic_drift"}


def _moved(field, how: str):
    """The image of a field under a cyclic permutation of the axes, a roll
    by n/2 cells along every axis, or a roll by one cell along x;
    components travel with their axes."""
    d = field.grid.dim
    lead = field.values.ndim - d
    vals = field.values
    if how == "permute":
        perm = tuple(range(1, d)) + (0,)
        if lead:
            vals = vals[list(perm)]
        vals = np.transpose(vals, tuple(range(lead)) + tuple(lead + p for p in perm))
    elif how == "roll":
        vals = np.roll(vals, field.grid.points_per_axis // 2, axis=tuple(range(lead, lead + d)))
    else:
        vals = np.roll(vals, 1, axis=lead)
    return type(field).from_array(field.grid, vals)


def _magnetic(a):
    return assess_magnetic(a, ScalarField(a.grid, -sum(c.values**2 for c in a.components)))


_PIPELINES = {
    "homogeneous": lambda b: assess_homogeneous(None, b, None),
    "inhomogeneous": lambda b: assess_inhomogeneous(None, b, None),
    "magnetic": _magnetic,
}

_CASES = [(3, preset, flavor)
          for preset in ("vortex", "random", "singular_gradient", "gradient")
          for flavor in ("homogeneous", "inhomogeneous")]
_CASES += [(3, "coulomb_gauge", "magnetic"), (2, "stream", "homogeneous"),
           (2, "stream", "inhomogeneous")]


@pytest.mark.parametrize("how", ["permute", "roll", "shift"])
@pytest.mark.parametrize("dim, preset, pipeline", _CASES)
def test_verdict_invariant_under_grid_symmetry(dim, preset, pipeline, how):
    b = presets.make_field(preset, Grid(dim, 16, 1.0))
    run = _PIPELINES[pipeline]
    base, image = run(b), run(_moved(b, how))
    assert image.overall == base.overall
    assert [r.name for r in image.records] == [r.name for r in base.records]
    for r0, r1 in zip(base.records, image.records):
        if how == "shift" and r0.name not in _SPECTRAL:
            continue
        assert r1.passed == r0.passed, r0.name
        if abs(r0.constant) > _FLOOR:
            assert abs(r1.constant - r0.constant) <= _RTOL * abs(r0.constant), r0.name


@pytest.mark.parametrize("flavor", ["homogeneous", "inhomogeneous"])
def test_form_norm_invariant_under_cell_centred_reflection(flavor):
    # i -> n - 1 - i along x, with b_x negated
    g = Grid(3, 16, 1.0)
    b = presets.make_field("vortex", g)
    mirrored = np.flip(b.values, axis=1).copy()
    mirrored[0] *= -1.0
    base = form_norm(None, b, None, flavor=flavor).value
    image = form_norm(None, VectorField.from_array(g, mirrored), None, flavor=flavor).value
    assert abs(image - base) <= 1e-12 * base
