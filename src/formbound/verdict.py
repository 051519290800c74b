"""Assessment pipelines that fold the per-condition tests into a certificate.

Each pipeline decomposes the coefficients, runs the admissibility battery on
the decomposed pieces, probes sufficiency, cross-checks the direct compressed
norm, and returns its records.  One rule turns the records alone into the
outcome:

* ``certified_unbounded_n2``  an n=2 obstruction record failed (nonzero
                           divergence of the drift, or a potential with
                           nonvanishing mass);
* ``certified_bounded``    otherwise, every record passed;
* ``inconclusive``         otherwise: a necessary condition or the
                           sufficiency probe exceeded its envelope, a decay
                           factor fell short, or an estimate did not converge.

Pass thresholds are numeric envelopes, not theorems: finiteness of a BMO or
Carleson constant is the mathematical condition, and a certifier needs a
finite cut.  The defaults (10 in normalized units) are configuration, carried
in the verdict's provenance.  Refinement trends across grids, not single
values, are what the test suite leans on.

Sub-tests of one pipeline run one after another, in a fixed order; the
thread budget, torus.fft_workers (FORMBOUND_THREADS or the core count), is
spent inside each transform.  Reports are bit-identical across reruns
regardless of the budget.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from formbound.formnorm import ConvergenceError, form_norm, trace_constant
from formbound.hodge import hodge_decompose, inhomogeneous_decompose, reduce_principal
from formbound.measures import (
    DiscreteMeasure,
    ball_growth_test,
    carleson_test,
    fefferman_phong_test,
    inhomogeneous_variants,
)
from formbound.oscillation import BmoReport, bmo_norm, vmo_profile
from formbound.report import Record
from formbound.torus import (
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    bessel_inv,
    curl,
    div,
    grad,
    inv_laplacian,
    lp_norm,
    zero_mean,
)

OUTCOMES = ("certified_bounded", "certified_unbounded_n2", "inconclusive")

# the exponent 1 + eps of the Fefferman-Phong sufficiency probe
_FP_EPS = 0.5


@dataclass(frozen=True)
class Thresholds:
    """Numeric envelopes for the pass flags.

    carleson/bmo/ball_growth/trace bound the respective constants in
    normalized units; fefferman_phong bounds the sufficiency probe;
    null_tolerance is the L1 mass below which a field counts as zero in the
    n=2 branches; vmo_decay and trace_decay are the minimum per-halving
    shrink factors of the small-scale profiles.
    """

    carleson: float = 10.0
    bmo: float = 10.0
    ball_growth: float = 10.0
    fefferman_phong: float = 10.0
    trace: float = 10.0
    null_tolerance: float = 1e-3
    vmo_decay: float = 1.8
    trace_decay: float = 2.0


@dataclass
class Verdict:
    pipeline: str
    records: tuple[Record, ...]
    overall: str
    provenance: dict
    profiles: dict | None = None

    def __post_init__(self) -> None:
        if self.overall not in OUTCOMES:
            raise ValueError(f"overall must be one of {OUTCOMES}, got {self.overall!r}")

    def record(self, name: str) -> Record:
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)


def _coefficients(A, b, q):
    """The common grid of the coefficients given, with an absent drift or
    potential read as zero."""
    grids = [f.grid for f in (A, b, q) if f is not None]
    if not grids:
        raise ValueError("all coefficients empty")
    grid = grids[0]
    if any(g != grid for g in grids[1:]):
        raise ValueError("coefficient grids differ")
    if b is None:
        b = VectorField.from_array(grid, np.zeros((grid.dim,) + grid.shape))
    if q is None:
        q = ScalarField(grid, np.zeros(grid.shape))
    return grid, b, q


def _provenance(grid: Grid, thr: Thresholds, **extra) -> dict:
    out = {
        "dim": grid.dim,
        "points_per_axis": grid.points_per_axis,
        "period": grid.period,
        "thresholds": asdict(thr),
    }
    out.update(extra)
    return out


def _is_finite_record(name: str, value: float, note: str = "") -> Record:
    return Record(name, float(value), passed=bool(np.isfinite(value)), note=note)


def _form_record(name: str, thunk, threshold: float | None = None) -> Record:
    """Run a compressed-norm estimate, mapping non-convergence to a failed
    record instead of an exception."""
    try:
        est = thunk()
    except ConvergenceError as exc:
        return Record(name, float("nan"), threshold, False,
                      note=f"did not converge: {exc}")
    return Record(name, est.value, threshold)


def _bmo_record(name: str, rep: BmoReport, threshold: float) -> Record:
    """An oscillation record, witnessed by the worst cube (and, for a
    matrix field, noted with the worst entry)."""
    note = "" if rep.entry is None else f"worst entry {rep.entry}"
    return Record(name, rep.norm, threshold, witness=rep.worst_cube, note=note)


def _fold_principal(A: MatrixField | None, b: VectorField):
    """The effective drift, with the skew part of A folded in, and the
    record list opened by the symmetric part's sup."""
    if A is None:
        return b, [_is_finite_record("symmetric_sup", 0.0, "A absent")]
    _As, b1, s_inf = reduce_principal(A, b)
    return b1, [_is_finite_record("symmetric_sup", s_inf,
                                  "ess sup of the pointwise norm of sym A")]


def _gradient_energy_density(q: ScalarField) -> np.ndarray:
    """|grad inv_laplacian q~|^2 with q~ the mean-free part of q."""
    if float(np.abs(q.values).max()) == 0.0:
        return np.zeros(q.grid.shape)
    pot = inv_laplacian(zero_mean(q), annihilate_mean=True)
    gq = grad(pot)
    return sum(np.abs(c.values) ** 2 for c in gq.components)


def _strengthened_measure(b: VectorField) -> DiscreteMeasure:
    """|(1-Lap)^{-1} div b|^2 + |(1-Lap)^{-1} b|^2 dx."""
    vals = np.abs(bessel_inv(div(b)).values) ** 2
    for comp in bessel_inv(b).values:
        vals = vals + np.abs(comp) ** 2
    return DiscreteMeasure.from_density(ScalarField(b.grid, vals))


def _obstructed(records) -> bool:
    """Whether an n=2 obstruction record failed."""
    return any(r.name.startswith("n2_") and not r.passed for r in records)


def _outcome(records) -> str:
    # envelope records already fail on nan/inf constants (the comparison
    # against the threshold is False); decay records pass with an infinite
    # factor by design, so only the pass flags are consulted here
    if _obstructed(records):
        return "certified_unbounded_n2"
    if all(r.passed for r in records):
        return "certified_bounded"
    return "inconclusive"


# the n=2 mass records: the divergence note, and the potential's name and note
_N2_MASS = {
    "homogeneous": ("L1 of div b", "n2_potential_mass", "L1 of q"),
    "magnetic": ("L1 of div a", "n2_effective_potential_mass", "L1 of q + |a|^2"),
}


def _homogeneous_battery(
    pipeline: str, b: VectorField, q: ScalarField, thr: Thresholds
) -> list[Record]:
    """The Dirichlet-norm criterion on a drift b and potential q: in three
    dimensions the stream part of b in BMO and |c|^2 + |grad inv_laplacian q~|^2
    as an admissible measure, c the gradient part of b; in two dimensions the
    masses of div b and q, then the rotation potential of b in BMO.  The
    battery stops at a failed mass record."""
    grid = b.grid
    if grid.dim == 2:
        div_note, q_name, q_note = _N2_MASS[pipeline]
        records = [
            Record("n2_divergence_mass", lp_norm(div(b), 1.0), thr.null_tolerance,
                   note=div_note),
            Record(q_name, lp_norm(q, 1.0), thr.null_tolerance, note=q_note),
        ]
        if _obstructed(records):
            return records
        pot = inv_laplacian(curl(b)[0, 1], annihilate_mean=True)
        return records + [_bmo_record("rotation_bmo", bmo_norm(pot), thr.bmo)]

    dec = hodge_decompose(b)
    rho = sum(np.abs(c.values) ** 2 for c in dec.c.components)
    rho = rho + _gradient_energy_density(q)
    bmo_rep = bmo_norm(dec.F)
    del dec  # free the split's fields before the estimates that peak in memory
    mu = DiscreteMeasure.from_density(ScalarField(grid, rho))
    measure_records = [
        carleson_test(mu, threshold=thr.carleson),
        ball_growth_test(mu, threshold=thr.ball_growth),
        fefferman_phong_test(mu.density(), _FP_EPS, threshold=thr.fefferman_phong),
    ]
    # a round-off density (the gradient part of a divergence-free drift)
    # has no witness: its argmax is noise
    if rho.max() <= (1e-12 * max(float(np.abs(c).max()) for c in b.values)) ** 2:
        note = "density at round-off level (<= (1e-12 max|b_i|)^2): no witness"
        measure_records = [
            replace(r, witness=None, note=f"{r.note}; {note}" if r.note else note)
            for r in measure_records]
    return [_bmo_record("stream_bmo", bmo_rep, thr.bmo), *measure_records]


def assess_homogeneous(
    A: MatrixField | None,
    b: VectorField | None,
    q: ScalarField | None,
    thresholds: Thresholds | None = None,
    seed: int = 0,
) -> Verdict:
    """Homogeneous (Dirichlet-norm) pipeline.

    Splits A into symmetric + skew, folds the skew part into the drift,
    Hodge-decomposes the effective drift, and tests the stream part in BMO
    and the gradient parts as a measure.  In two dimensions boundedness
    degenerates: a drift with nonzero divergence or any potential mass is an
    exact obstruction and certifies unboundedness.
    """
    thr = thresholds or Thresholds()
    grid, b0, q0 = _coefficients(A, b, q)
    b1, records = _fold_principal(A, b0)
    # in two dimensions the skew part of A was folded into b1, so the
    # rotation potential of b1 already carries the - (A - A^T)/2 correction
    records += _homogeneous_battery("homogeneous", b1, q0, thr)
    if grid.dim == 3:
        records.append(_form_record("form_norm", lambda: form_norm(A, b, q, seed=seed)))
    elif not _obstructed(records):
        records.append(_form_record(
            "form_norm", lambda: form_norm(None, b1, None, seed=seed)))
    prov = _provenance(grid, thr, eps=_FP_EPS, seed=seed, flavor="homogeneous")
    return Verdict("homogeneous", tuple(records), _outcome(records), prov)


def assess_inhomogeneous(
    A: MatrixField | None,
    b: VectorField | None,
    q: ScalarField | None,
    thresholds: Thresholds | None = None,
    seed: int = 0,
) -> Verdict:
    """Sobolev-norm pipeline: Bessel decomposition, small-cube oscillation,
    the three W^{1,2} admissibility variants, the trace constant, and a
    strengthened drift condition."""
    thr = thresholds or Thresholds()
    grid, b0, q0 = _coefficients(A, b, q)
    b1, records = _fold_principal(A, b0)

    dec = inhomogeneous_decompose(b1, q0)
    bmo_rep = bmo_norm(dec.F, flavor="BMO_sharp")
    records.append(_bmo_record("stream_bmo_sharp", bmo_rep, thr.bmo))

    rho = sum(np.abs(c.values) ** 2 for c in dec.c.components)
    rho = rho + sum(np.abs(c.values) ** 2 for c in dec.h.components)
    rho = rho + np.abs(dec.gamma.values)
    del dec  # free the split's fields before the estimates that peak in memory
    mu = DiscreteMeasure.from_density(ScalarField(grid, rho))

    variants = inhomogeneous_variants(mu, thresholds={
        "carleson": thr.carleson,
        "ball_energy": thr.ball_growth,
        "pointwise": thr.trace,
    })
    records.extend(variants.values())  # carleson, ball_energy, pointwise

    strong_mu = _strengthened_measure(b1)
    records.extend([
        _form_record("trace",
                     lambda: trace_constant(mu, flavor="inhomogeneous", seed=seed),
                     thr.trace),
        _form_record("strengthened_drift",
                     lambda: trace_constant(strong_mu, flavor="inhomogeneous", seed=seed),
                     thr.trace),
        _form_record("form_norm",
                     lambda: form_norm(A, b, q, flavor="inhomogeneous", seed=seed),
                     thr.trace),
    ])

    prov = _provenance(grid, thr, seed=seed, flavor="inhomogeneous")
    return Verdict("inhomogeneous", tuple(records), _outcome(records), prov)


def assess_magnetic(
    a: VectorField,
    q: ScalarField | None,
    thresholds: Thresholds | None = None,
    seed: int = 0,
) -> Verdict:
    """Magnetic pipeline: the homogeneous battery on the gauge field a and
    the effective potential q + |a|^2.

    The gauge field enters through its rotation (stream BMO) and its
    divergence; with a = 0 the records reduce exactly to the q-only
    homogeneous battery.
    """
    thr = thresholds or Thresholds()
    if any(not c.is_real for c in a.components):
        raise ValueError("magnetic gauge field must be real")
    grid, a, q0 = _coefficients(None, a, q)
    if np.iscomplexobj(q0.values):
        raise ValueError("magnetic potential must be real")

    asq = sum(c.values**2 for c in a.components)
    q_eff = ScalarField(grid, q0.values + asq)
    records = _homogeneous_battery("magnetic", a, q_eff, thr)
    if grid.dim == 3:
        a_arg = None if float(np.abs(asq).max()) == 0.0 else a
        records.append(_form_record(
            "form_norm", lambda: form_norm(None, a_arg, q_eff, seed=seed)))
    prov = _provenance(grid, thr, eps=_FP_EPS, seed=seed, flavor="magnetic")
    return Verdict("magnetic", tuple(records), _outcome(records), prov)


def _decay_factors(profile: list[tuple[float, float]]) -> list[float]:
    """Per-halving shrink factors of a (delta, value) profile, larger delta
    first.  A zero tail contributes an infinite factor."""
    pts = sorted(profile, key=lambda p: -p[0])
    out = []
    for (d1, v1), (d2, v2) in zip(pts, pts[1:]):
        steps = np.log2(d1 / d2)
        if steps <= 0:
            raise ValueError("profile deltas must be distinct")
        if v2 == 0.0:
            out.append(np.inf if v1 > 0 else 1.0)
        else:
            out.append(float((v1 / v2) ** (1.0 / steps)))
    return out


def assess_infinitesimal(
    b: VectorField | None,
    q: ScalarField | None,
    deltas,
    thresholds: Thresholds | None = None,
    seed: int = 0,
) -> Verdict:
    """Small-scale pipeline: does the form constant vanish with the scale?

    Reports the oscillation profile of the stream part over cubes of side
    <= delta and the localized trace constants of (|b|^2 + |q|) dx over a
    delta-graded cube family, with per-halving decay flags.
    """
    thr = thresholds or Thresholds()
    grid, b0, q0 = _coefficients(None, b, q)

    deltas = sorted({float(d) for d in deltas}, reverse=True)
    for d in deltas:
        if not np.isfinite(d):
            raise ValueError(f"delta {d} is not finite")
    if len(deltas) < 2:
        raise ValueError("need at least two deltas for a profile")
    h = grid.spacing
    if deltas[-1] < 2.0 * h * (1.0 - 1e-12):
        raise ValueError(f"delta {deltas[-1]} below resolution (needs >= 2h = {2*h})")

    dec = inhomogeneous_decompose(b0, q0)
    vmo = vmo_profile(dec.F, deltas)

    dens = sum(np.abs(c.values) ** 2 for c in b0.components) + np.abs(q0.values)
    mu = DiscreteMeasure.from_density(ScalarField(grid, dens))

    n = grid.points_per_axis
    peak_flat = int(mu.cell_mass.argmax())
    peak = np.unravel_index(peak_flat, grid.shape)
    anchors = [tuple(int(i) for i in peak), (n // 2,) * grid.dim, (0,) * grid.dim]

    def _local(delta: float) -> float:
        side = max(1, int(round(delta / h)))
        best = 0.0
        for corner in anchors:
            mask = grid.cube(corner, side)
            best = max(best, trace_constant(mu, mask=mask, seed=seed).value)
        return best

    local = [(d, _local(d)) for d in deltas]

    def _decay_record(name: str, profile, cut: float) -> Record:
        if all(v == 0.0 for _, v in profile):
            return Record(name, np.inf, cut, True, note="profile identically 0")
        worst = min(_decay_factors(profile))
        return Record(name, worst, cut, worst >= cut,
                      note="per-halving decay factor (larger is better)")

    records = (
        _decay_record("vmo_decay", vmo, thr.vmo_decay),
        _decay_record("local_trace_decay", local, thr.trace_decay),
    )
    profiles = {
        "delta": [d for d, _ in vmo],
        "vmo": [v for _, v in vmo],
        "local_trace": [v for _, v in local],
    }
    prov = _provenance(grid, thr, seed=seed, flavor="infinitesimal",
                       deltas=list(deltas))
    return Verdict("infinitesimal", records, _outcome(records), prov, profiles)
