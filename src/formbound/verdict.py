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
from formbound.hodge import decompose, reduce_principal
from formbound.measures import (
    DiscreteMeasure,
    ball_energy_test,
    ball_growth_test,
    carleson_test,
    fefferman_phong_test,
    pointwise_test,
)
from formbound.oscillation import bmo_norm, vmo_profile
from formbound.report import OUTCOMES, Record
from formbound.torus import (
    Grid,
    MatrixField,
    ScalarField,
    VectorField,
    _peak,
    bessel_inv,
    div,
    grad,
    inv_laplacian,
    lp_norm,
    shared_grid,
    zero_mean,
)

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
    grid = shared_grid(A, b, q)
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


# a constant at or below this share of its drift's scale is round-off,
# and its argmax is noise: the record carries no witness
_ROUNDOFF = 1e-12


def _sup(b: VectorField) -> float:
    """max_i sup|b_i|"""
    return max(float(np.abs(c).max()) for c in b.values)


def _roundoff(rec: Record, note: str) -> Record:
    """``rec`` without its witness, noted as round-off."""
    return replace(rec, witness=None, note=f"{rec.note}; {note}" if rec.note else note)


def _bmo_record(name: str, rec: Record, b: VectorField) -> Record:
    """``bmo_norm``'s record of a potential of the drift b, renamed; at or
    below the round-off floor 1e-12 max|b_i| L it has no witness."""
    rec = replace(rec, name=name)
    if rec.constant <= _ROUNDOFF * _sup(b) * b.grid.period:
        rec = _roundoff(rec, "BMO norm at round-off level (<= 1e-12 max|b_i| L): no witness")
    return rec


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


def _harmonic_record(harmonic: np.ndarray, b: VectorField, thr: Thresholds) -> Record:
    """sup|b_h| / kappa1, kappa1 = 2 pi / L, from the parity-class table of
    b_h (the harmonic part of the drift b) and witnessed by the first cell
    of the worst class, unless it is at or below the round-off floor
    1e-12 max|b_i| / kappa1.  For mean-free u and v,
    |<b_h . grad u, v>| <= sup|b_h| ||grad u|| ||v||, and Poincare bounds
    ||v|| by ||grad v|| / kappa1: no other record sees b_h, which the
    derivatives of the split annihilate."""
    top, cell = _peak(np.sqrt(sum(np.abs(h) ** 2 for h in harmonic)))
    rec = Record("harmonic_drift", top / (2.0 * np.pi / b.grid.period), thr.trace,
                 witness=cell, note="sup|b_h| / (2 pi / L), b_h the mean and "
                                    "Nyquist-only modes")
    if top <= _ROUNDOFF * _sup(b):
        rec = _roundoff(rec, "at round-off level (<= 1e-12 max|b_i| / (2 pi / L)): no witness")
    return rec


# the n=2 mass records: the divergence note, and the potential's name and note
_N2_MASS = {
    "homogeneous": ("L1 of div b", "n2_potential_mass", "L1 of q"),
    "magnetic": ("L1 of div a", "n2_effective_potential_mass", "L1 of q + |a|^2"),
}


def _homogeneous_battery(
    pipeline: str, b: VectorField, q: ScalarField, thr: Thresholds
) -> list[Record]:
    """The Dirichlet-norm criterion on a drift b and potential q, read off
    the Hodge split b = b_h + c + Div F: in three dimensions the harmonic
    part b_h bounded, F in BMO and |c|^2 + |grad inv_laplacian q~|^2 as an
    admissible measure; in two dimensions the masses of div b and q, then
    b_h bounded and F's one entry F_01, the stream function of b, in BMO.
    The battery stops at a failed mass record, before the split."""
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
        dec = decompose(b)
        # F's one entry, the stream function of b, so the record names no entry
        return records + [_harmonic_record(dec.harmonic, b, thr),
                          _bmo_record("rotation_bmo",
                                      bmo_norm(dec.F[0, 1], threshold=thr.bmo), b)]

    dec = decompose(b)
    harmonic = _harmonic_record(dec.harmonic, b, thr)
    rho = sum(np.abs(c.values) ** 2 for c in dec.c.components)
    rho = rho + _gradient_energy_density(q)
    bmo_rec = bmo_norm(dec.F, threshold=thr.bmo)
    del dec  # free the split's fields before the estimates that peak in memory
    mu = DiscreteMeasure.from_density(ScalarField(grid, rho))
    measure_records = [
        carleson_test(mu, threshold=thr.carleson),
        ball_growth_test(mu, threshold=thr.ball_growth),
        fefferman_phong_test(mu, _FP_EPS, threshold=thr.fefferman_phong),
    ]
    # a round-off density (the gradient part of a divergence-free drift)
    # has no witness: its argmax is noise
    if rho.max() <= (_ROUNDOFF * _sup(b)) ** 2:
        note = "density at round-off level (<= (1e-12 max|b_i|)^2): no witness"
        measure_records = [_roundoff(r, note) for r in measure_records]
    return [harmonic, _bmo_record("stream_bmo", bmo_rec, b), *measure_records]


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
    # stream function F of b1 already carries the - (A - A^T)/2 correction
    records += _homogeneous_battery("homogeneous", b1, q0, thr)
    del q0  # the zero q of an absent potential: the estimate does not read it
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

    dec = decompose(b1, q0, flavor="inhomogeneous")
    del q0  # the split has read it
    records.append(_bmo_record(
        "stream_bmo_sharp", bmo_norm(dec.F, flavor="BMO_sharp", threshold=thr.bmo), b1))

    rho = sum(np.abs(c.values) ** 2 for c in dec.c.components)
    rho = rho + sum(np.abs(c.values) ** 2 for c in dec.h.components)
    rho = rho + np.abs(dec.gamma.values)
    del dec  # free the split's fields before the estimates that peak in memory
    mu = DiscreteMeasure.from_density(ScalarField(grid, rho))
    del rho

    records += [
        carleson_test(mu, threshold=thr.carleson, flavor="inhomogeneous"),
        ball_energy_test(mu, threshold=thr.ball_growth, flavor="inhomogeneous"),
        pointwise_test(mu, threshold=thr.trace, flavor="inhomogeneous"),
    ]

    # each measure lives until its trace has read it
    records.append(_form_record(
        "trace", lambda: trace_constant(mu, flavor="inhomogeneous", seed=seed), thr.trace))
    del mu
    strong_mu = _strengthened_measure(b1)
    records.append(_form_record(
        "strengthened_drift",
        lambda: trace_constant(strong_mu, flavor="inhomogeneous", seed=seed), thr.trace))
    del strong_mu
    records.append(_form_record(
        "form_norm", lambda: form_norm(A, b, q, flavor="inhomogeneous", seed=seed),
        thr.trace))

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
    del q0
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
    <= delta and the local trace constants of mu = (|b|^2 + |q|) dx: at
    each delta, the largest C(mu|_Q) of mu restricted to cubes Q of side
    delta at three anchors (the peak cell, the centre and the origin),
    with per-halving decay flags.
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
    # a cube of side delta > L would wrap onto itself: it gets the whole
    # torus's value but counts halvings that never happen
    if deltas[0] > grid.period * (1.0 + 1e-12):
        raise ValueError(f"delta {deltas[0]} above the period {grid.period}")

    # the stream part F of the Bessel split of b: q's split is not read
    vmo = vmo_profile(decompose(b0, flavor="inhomogeneous").F, deltas)

    dens = sum(np.abs(c.values) ** 2 for c in b0.components) + np.abs(q0.values)
    del q0
    mu = DiscreteMeasure.from_density(ScalarField(grid, dens))

    n = grid.points_per_axis
    anchors = [_peak(mu.cell_mass)[1], (n // 2,) * grid.dim, (0,) * grid.dim]

    def _local(delta: float) -> float:
        side = max(1, int(round(delta / h)))
        best = 0.0
        for corner in anchors:
            local_mu = DiscreteMeasure(grid, mu.cell_mass * grid.cube(corner, side))
            best = max(best, trace_constant(local_mu, seed=seed).value)
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
