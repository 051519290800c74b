import numpy as np
import pytest

from formbound import presets
from formbound.report import Record
from formbound.torus import Grid, MatrixField, ScalarField, VectorField
from formbound.verdict import (
    Thresholds,
    Verdict,
    assess_homogeneous,
    assess_infinitesimal,
    assess_inhomogeneous,
    assess_magnetic,
)


def _zero_vec(grid):
    return VectorField(tuple(ScalarField(grid, np.zeros(grid.shape)) for _ in range(grid.dim)))


def test_identity_principal_part():
    g = Grid(3, 16, 1.0)
    one = ScalarField(g, np.ones(g.shape))
    zero = ScalarField(g, np.zeros(g.shape))
    A = MatrixField(((one, zero, zero), (zero, one, zero), (zero, zero, one)))
    vd = assess_homogeneous(A, None, None)
    assert vd.overall == "certified_bounded"
    assert vd.record("symmetric_sup").constant == 1.0
    # S div(grad .) S is minus the identity off the mean
    assert abs(vd.record("form_norm").constant - 1.0) <= 1e-9


def test_zero_drift_certifies_with_zero_form_norm():
    vd = assess_homogeneous(None, _zero_vec(Grid(2, 16, 1.0)), None)
    assert vd.overall == "certified_bounded"
    assert vd.record("form_norm").constant == 0.0


def test_vortex_battery():
    g = Grid(3, 32, 1.0)
    vd = assess_homogeneous(None, presets.make_field("vortex", g), None)
    assert vd.overall == "certified_bounded"
    want = {
        "stream_bmo": 0.444861183394,
        "carleson": 0.00964859447133,
        "ball_growth": 0.00836864926249,
        "fefferman_phong": 0.00104926037212,
        "form_norm": 0.566300853911,
    }
    for cond, val in want.items():
        rec = vd.record(cond)
        assert abs(rec.constant - val) <= 1e-4 * max(val, 1e-12)
        assert rec.passed
    assert vd.pipeline == "homogeneous"
    assert vd.provenance["flavor"] == "homogeneous"


@pytest.mark.parametrize("name, roundoff", [("stream", True), ("vortex", False)])
def test_roundoff_density_carries_no_witness(name, roundoff):
    # a divergence-free drift leaves a gradient-part density of pure
    # rounding, whose argmax points nowhere; the vortex's density is real
    vd = assess_homogeneous(None, presets.make_field(name, Grid(3, 16, 1.0)), None)
    assert vd.overall == "certified_bounded"
    for rec in vd.records:
        if rec.name in ("carleson", "ball_growth", "fefferman_phong"):
            assert (rec.witness is None) == roundoff, rec.name
            assert ("round-off" in rec.note) == roundoff, rec.name
            assert rec.constant < 1e-24 if roundoff else rec.constant > 1e-4


def test_two_dimensional_stream_certifies():
    g = Grid(2, 32, 1.0)
    vd = assess_homogeneous(None, presets.make_field("stream", g), None)
    assert vd.overall == "certified_bounded"
    assert abs(vd.record("rotation_bmo").constant - 0.534430139519) <= 1e-6
    assert abs(vd.record("form_norm").constant - 0.599390912417) <= 1e-4


def test_two_dimensional_potential_obstruction():
    g = Grid(2, 32, 1.0)
    b = presets.make_field("stream", g)
    q = ScalarField(g, np.full(g.shape, 0.5))
    vd = assess_homogeneous(None, b, q)
    assert vd.overall == "certified_unbounded_n2"
    assert not vd.record("n2_potential_mass").passed
    assert vd.record("n2_divergence_mass").constant <= 1e-12
    # the battery stops at the obstruction
    with pytest.raises(KeyError):
        vd.record("form_norm")


def test_threshold_override_blocks_certification():
    g = Grid(3, 16, 1.0)
    b = presets.make_field("vortex", g)
    tight = Thresholds(carleson=1e-9)
    vd = assess_homogeneous(None, b, None, thresholds=tight)
    assert vd.overall == "inconclusive"
    assert not vd.record("carleson").passed


def test_inhomogeneous_unit_potential():
    g = Grid(3, 16, 1.0)
    q = ScalarField(g, np.ones(g.shape))
    vd = assess_inhomogeneous(None, None, q)
    assert vd.overall == "certified_bounded"
    assert abs(vd.record("pointwise_w12").constant - 1.0) <= 1e-12
    assert abs(vd.record("trace").constant - 1.0) <= 1e-9
    assert vd.record("strengthened_drift").constant == 0.0
    assert abs(vd.record("form_norm").constant - 1.0) <= 1e-9
    assert abs(vd.record("carleson_w12").constant - 0.33203125) <= 1e-10


def test_inhomogeneous_singular_drift_is_inconclusive():
    g = Grid(3, 32, 1.0)
    b = presets.make_field("singular_gradient", g)
    vd = assess_inhomogeneous(None, b, None)
    assert vd.overall == "inconclusive"
    # a pure gradient leaves no stream part
    assert vd.record("stream_bmo_sharp").constant <= 1e-10
    failing = {"carleson_w12", "ball_energy_w12", "pointwise_w12", "trace",
               "strengthened_drift", "form_norm"}
    for cond in failing:
        assert not vd.record(cond).passed
    # dual routes agree on the failure
    assert vd.record("trace").passed == vd.record("form_norm").passed


def test_magnetic_zero_gauge_reduces_to_homogeneous():
    g = Grid(3, 16, 1.0)
    q = ScalarField(g, np.abs(np.random.default_rng(0).standard_normal(g.shape)))
    vm = assess_magnetic(_zero_vec(g), q)
    vh = assess_homogeneous(None, None, q)
    assert vm.record("carleson").constant == vh.record("carleson").constant
    assert vm.record("ball_growth").constant == vh.record("ball_growth").constant


def test_magnetic_coulomb_gauge():
    g = Grid(3, 16, 1.0)
    a = presets.make_field("coulomb_gauge", g)
    q = ScalarField(g, -sum(c.values**2 for c in a.components))
    vd = assess_magnetic(a, q)
    assert vd.overall == "certified_bounded"
    # q + |a|^2 = 0 leaves only the rotation of the gauge field
    assert vd.record("carleson").constant <= 1e-20
    assert abs(vd.record("stream_bmo").constant - 0.404727496963) <= 1e-6


def test_magnetic_rejects_complex_gauge():
    g = Grid(3, 16, 1.0)
    bad = VectorField(tuple(ScalarField(g, 1j * np.ones(g.shape)) for _ in range(3)))
    with pytest.raises(ValueError, match="must be real"):
        assess_magnetic(bad, None)


def test_infinitesimal_profile():
    g = Grid(2, 64, 1.0)
    b = presets.make_field("stream", g)
    q = presets.make_scalar("trig", g)
    vd = assess_infinitesimal(b, q, [1 / 8, 1 / 16, 1 / 32])
    assert vd.overall == "certified_bounded"
    assert vd.record("vmo_decay").constant >= 1.8
    assert vd.record("local_trace_decay").constant >= 2.0
    assert set(vd.profiles) == {"delta", "vmo", "local_trace"}
    assert vd.profiles["delta"] == [0.125, 0.0625, 0.03125]
    assert all(y < x for x, y in zip(vd.profiles["vmo"], vd.profiles["vmo"][1:]))


def test_infinitesimal_zero_fields():
    g = Grid(2, 32, 1.0)
    vd = assess_infinitesimal(_zero_vec(g), ScalarField(g, np.zeros(g.shape)), [1 / 4, 1 / 8])
    assert vd.overall == "certified_bounded"
    assert vd.record("vmo_decay").constant == float("inf")


def test_infinitesimal_delta_validation():
    g = Grid(2, 32, 1.0)
    b = presets.make_field("stream", g)
    with pytest.raises(ValueError, match="at least two"):
        assess_infinitesimal(b, None, [0.25])
    with pytest.raises(ValueError, match="below resolution"):
        assess_infinitesimal(b, None, [0.25, g.spacing / 4])


def test_verdict_dict_shape():
    g = Grid(2, 32, 1.0)
    vd = assess_homogeneous(None, presets.make_field("stream", g), None)
    rerun = assess_homogeneous(None, presets.make_field("stream", g), None)
    assert vd.records == rerun.records
    assert vd.pipeline == "homogeneous"
    assert all(isinstance(r, Record) for r in vd.records)
    # the oscillation record keeps the cube that realizes it
    assert vd.record("rotation_bmo").witness.side >= 1
    with pytest.raises(KeyError):
        vd.record("nonexistent")


def test_verdict_outcome_validation():
    with pytest.raises(ValueError):
        Verdict("homogeneous", (), "maybe", {})


def _gauge_case(name, dim, n, cancel):
    # the magnetic pipeline on a gauge preset, with q = -|a|^2 if cancel
    a = presets.make_field(name, Grid(dim, n, 1.0))
    q = ScalarField(a.grid, -sum(c.values**2 for c in a.components)) if cancel else None
    return assess_magnetic(a, q)


_HOM3 = ("symmetric_sup", "stream_bmo", "carleson", "ball_growth", "fefferman_phong",
         "form_norm")
_MAG3 = _HOM3[1:]
_N2 = ("symmetric_sup", "n2_divergence_mass", "n2_potential_mass")
_MAG2 = ("n2_divergence_mass", "n2_effective_potential_mass")


@pytest.mark.parametrize("run, names, overall", [
    pytest.param(lambda: assess_homogeneous(
        None, presets.make_field("stream", Grid(2, 32, 1.0)),
        ScalarField(Grid(2, 32, 1.0), np.full((32, 32), 0.5))),
        _N2, "certified_unbounded_n2", id="homogeneous-n2-obstructed"),
    pytest.param(lambda: assess_homogeneous(
        None, presets.make_field("stream", Grid(2, 32, 1.0)), None),
        _N2 + ("rotation_bmo", "form_norm"), "certified_bounded",
        id="homogeneous-n2"),
    pytest.param(lambda: assess_homogeneous(
        None, presets.make_field("gradient", Grid(3, 16, 1.0)), None),
        _HOM3, "inconclusive", id="homogeneous-n3"),
    pytest.param(lambda: _gauge_case("coulomb_gauge", 2, 32, False),
                 _MAG2, "certified_unbounded_n2", id="magnetic-n2-obstructed"),
    pytest.param(lambda: _gauge_case("stream", 2, 32, True),
                 _MAG2 + ("rotation_bmo",), "certified_bounded", id="magnetic-n2"),
    pytest.param(lambda: _gauge_case("log_stream", 3, 16, False),
                 _MAG3, "inconclusive", id="magnetic-n3"),
    pytest.param(lambda: assess_inhomogeneous(
        None, presets.make_field("singular_gradient", Grid(3, 16, 1.0)), None),
        ("symmetric_sup", "stream_bmo_sharp", "carleson_w12", "ball_energy_w12",
         "pointwise_w12", "trace", "strengthened_drift", "form_norm"),
        "inconclusive", id="inhomogeneous"),
    pytest.param(lambda: assess_infinitesimal(
        presets.make_field("stream", Grid(2, 32, 1.0)), None, [1 / 8, 1 / 16]),
        ("vmo_decay", "local_trace_decay"), "certified_bounded", id="infinitesimal"),
])
def test_outcome_rule_per_branch(run, names, overall):
    # one rule decides every branch from its records: an n=2 mass record
    # failed, else every record passed, else inconclusive
    vd = run()
    assert tuple(r.name for r in vd.records) == names
    assert vd.overall == overall
    failed = {r.name for r in vd.records if not r.passed}
    if overall == "certified_unbounded_n2":
        assert failed and all(name.startswith("n2_") for name in failed)
    else:
        assert bool(failed) == (overall == "inconclusive")


def test_failed_sufficiency_probe_alone_is_inconclusive():
    g = Grid(3, 16, 1.0)
    vd = assess_homogeneous(None, presets.make_field("vortex", g), None,
                            thresholds=Thresholds(fefferman_phong=1e-12))
    assert [r.name for r in vd.records if not r.passed] == ["fefferman_phong"]
    assert vd.overall == "inconclusive"
