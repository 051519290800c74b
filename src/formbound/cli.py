"""Command-line front end.

One subcommand per module surface: decompose, bmo, carleson, capacity,
trace, formnorm, verdict, magnetic, infinitesimal.  Inputs are named
presets or FBF1 field files; every run can emit a single JSON report
(see docs/report_schema.json) and profile CSVs where a profile exists.

Exit codes: 0 when the run completed (including inconclusive verdicts),
2 when a certified failure was found (an n=2 obstruction, or a tested
constant above an explicit --threshold), 1 on configuration or runtime
errors, with a diagnostic on standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from formbound import fbf, oscillation, presets, report
from formbound.capacity import (SolverError, ball_set, capacity, cube_set, gauge_bounds,
                                 gauge_check)
from formbound.formnorm import (
    ConvergenceError,
    form_norm,
    nonlinear_form_constant,
    trace_constant,
)
from formbound.hodge import decompose
from formbound.measures import FLAVORS, carleson_test
from formbound.report import Record
from formbound.torus import (Grid, ScalarField, VectorField, div, fft_workers, lp_norm,
                             mat_div, max_abs)
from formbound.verdict import (
    assess_homogeneous,
    assess_infinitesimal,
    assess_inhomogeneous,
    assess_magnetic,
)

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _finite(text: str) -> float:
    """A threshold: a finite number, so NaN and inf stop at the parser."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """A thread budget: a positive integer, so a bad one names its option."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _common(sub: argparse.ArgumentParser, dim_default: int = 3) -> None:
    sub.add_argument("--dim", type=int, choices=(2, 3),
                     help=f"default {dim_default}, or the --input file's")
    sub.add_argument("--grid", type=int,
                     help="points per axis (power of two, >= 16; default 32, "
                          "or the --input file's)")
    sub.set_defaults(dim_default=dim_default)
    sub.add_argument("--period", type=float, default=1.0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="write the JSON report here")
    sub.add_argument("--timing", action="store_true",
                     help="include wall-clock timing in the report")
    sub.add_argument("--threads", type=_positive_int,
                     help="cap worker threads (overrides FORMBOUND_THREADS)")


def _field_source(sub: argparse.ArgumentParser, default: str | None) -> None:
    group = sub.add_mutually_exclusive_group(required=default is None)
    group.add_argument("--preset", default=default,
                       help=f"field preset name (default {default})")
    group.add_argument("--input", help="FBF1 vector field file")


def _q_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q-const", type=float,
                     help="constant scalar potential")
    sub.add_argument("--q-preset", choices=sorted(presets.SCALAR_PRESETS),
                     help="scalar potential preset")


def _build_parser() -> _Parser:
    parser = _Parser(prog="formbound",
                     description="form-boundedness certification on the torus")
    subs = parser.add_subparsers(dest="cmd", required=True)

    p = subs.add_parser("decompose", help="drift field decomposition")
    _common(p, dim_default=2)
    _field_source(p, None)
    p.add_argument("--flavor", choices=FLAVORS, default="homogeneous")
    _q_source(p)

    p = subs.add_parser("bmo", help="oscillation norm of a scalar preset")
    _common(p, dim_default=2)
    p.add_argument("--scalar-preset", default="log_singular",
                   choices=sorted(presets.SCALAR_PRESETS))
    p.add_argument("--flavor", choices=oscillation.FLAVORS, default="BMO")
    p.add_argument("--r", type=int, choices=(1, 2), default=1)
    p.add_argument("--threshold", type=_finite)

    p = subs.add_parser("carleson", help="dyadic energy test of a measure")
    _common(p)
    p.add_argument("--measure", default="lebesgue",
                   choices=sorted(presets.MEASURE_PRESETS))
    p.add_argument("--truncated", action="store_true",
                   help="restrict to cubes of side <= L/2")
    p.add_argument("--threshold", type=_finite)

    p = subs.add_parser("capacity", help="condenser capacity of a set")
    _common(p)
    p.add_argument("--set", dest="set_kind", choices=("ball", "cube"),
                   default="ball")
    p.add_argument("--radius", type=float, help="ball radius (default L/8)")
    p.add_argument("--side", type=float, help="cube side (default L/8)")
    p.add_argument("--flavor", choices=FLAVORS, default="homogeneous")
    p.add_argument("--tau", type=float,
                   help="also run the gauge check at this tau")

    p = subs.add_parser("trace", help="trace constant of a measure")
    _common(p)
    p.add_argument("--measure", default="lebesgue",
                   choices=sorted(presets.MEASURE_PRESETS))
    p.add_argument("--flavor", choices=FLAVORS, default="homogeneous")
    p.add_argument("--threshold", type=_finite)

    p = subs.add_parser("formnorm", help="compressed operator norm of a drift")
    _common(p)
    _field_source(p, "vortex")
    _q_source(p)
    p.add_argument("--flavor", choices=FLAVORS, default="homogeneous")
    p.add_argument("--nonlinear", action="store_true",
                   help="also estimate the nonlinear commutator constant")
    p.add_argument("--threshold", type=_finite)

    p = subs.add_parser("verdict", help="full assessment pipeline")
    _common(p)
    _field_source(p, "vortex")
    _q_source(p)
    p.add_argument("--flavor", choices=FLAVORS, default="homogeneous")

    p = subs.add_parser("magnetic", help="magnetic gauge assessment")
    _common(p)
    _field_source(p, "coulomb_gauge")
    _q_source(p)
    p.add_argument("--q-from-gauge", action="store_true",
                   help="set q = -|a|^2")

    p = subs.add_parser("infinitesimal", help="small-scale profile assessment")
    _common(p, dim_default=2)
    _field_source(p, "stream")
    _q_source(p)
    p.add_argument("--deltas", default="",
                   help="comma-separated cube sides, at least two, each >= 2h "
                        "(default: those of L/8,L/16,L/32 that are >= 2h)")
    p.add_argument("--csv", help="write delta-profile columns here")

    return parser


def _resolve(args) -> tuple[Grid, VectorField | None, ScalarField | None]:
    """The run's grid, drift (None for commands without a field source)
    and potential, decided once.  With --input the file's grid is the
    run's, and --dim and --grid must match it when given.  Runs keep a
    floor of 16 points per axis, above the library's 8 (which the dense
    cross-checks need)."""
    q_const = getattr(args, "q_const", None)
    q_preset = getattr(args, "q_preset", None)
    if q_const is not None and q_preset is not None:
        raise ValueError("give at most one of --q-const and --q-preset")
    path = getattr(args, "input", None)
    if path:
        b = fbf.read_field(path, period=args.period)
        if not isinstance(b, VectorField):
            raise ValueError(f"{path} does not hold a vector field")
        grid = b.grid
        for flag, given, held in (("--dim", args.dim, grid.dim),
                                  ("--grid", args.grid, grid.points_per_axis)):
            if given is not None and given != held:
                raise ValueError(f"{flag} {given} disagrees with {path}, which holds {held}")
    else:
        grid = Grid(args.dim_default if args.dim is None else args.dim,
                    32 if args.grid is None else args.grid, args.period)
        b = None
    if grid.points_per_axis < 16:
        raise ValueError(f"runs need at least 16 points per axis, got {grid.points_per_axis}")
    if b is None and getattr(args, "preset", None) is not None:
        b = presets.make_field(args.preset, grid, seed=args.seed)
    if q_const is not None:
        return grid, b, ScalarField(grid, np.full(grid.shape, q_const))
    return grid, b, None if q_preset is None else presets.make_scalar(q_preset, grid)


def _config_echo(args, grid: Grid, **extra) -> dict:
    cfg = {
        "dim": grid.dim,
        "points_per_axis": grid.points_per_axis,
        "period": grid.period,
        "seed": args.seed,
    }
    if getattr(args, "input", None):
        cfg["input"] = args.input
    elif getattr(args, "preset", None):
        cfg["preset"] = args.preset
    for key in ("q_const", "q_preset", "flavor", "measure", "threshold"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg.update(extra)
    return cfg


def _report(args, cfg: dict, records, overall: str | None = None, **extra):
    """The run's report and exit code: 2 on an n=2 obstruction, or, with
    no verdict, on any failed record; else 0."""
    rep = report.build(args.cmd, cfg, [report.render_record(r) for r in records],
                       overall=overall, **extra)
    if overall is None:
        failed = not all(r.passed for r in records)
    else:
        failed = overall == "certified_unbounded_n2"
    return rep, 2 if failed else 0


def _verdict_report(args, grid: Grid, verdict, **extra_config):
    cfg = _config_echo(args, grid, **extra_config)
    return _report(args, cfg, verdict.records, verdict.overall,
                   profiles=verdict.profiles,
                   details={"provenance": verdict.provenance})


def _cmd_decompose(args):
    grid, b, q = _resolve(args)
    dec = decompose(b, q, args.flavor)
    # the residuals rebuild b = b_h + c + Div F and q = div h + gamma from the
    # parts; b_h repeats its table of parity classes over the grid
    if args.flavor == "homogeneous":
        recon = (dec.c + mat_div(dec.F)).values
        reps = (grid.points_per_axis // 2,) * grid.dim
        residual = max(float(np.max(np.abs(b.values[i] - np.tile(dec.harmonic[i], reps)
                                           - recon[i])))
                       for i in range(grid.dim))
        extra = {}
    else:
        q0 = q if q is not None else ScalarField(grid, np.zeros(grid.shape))
        residual = max_abs(b - (dec.c + mat_div(dec.F)))
        extra = {"q_residual": np.max(np.abs(q0.values - (div(dec.h) + dec.gamma).values)),
                 "h_l2": lp_norm(dec.h), "gamma_l2": lp_norm(dec.gamma)}
    records = [
        Record("reconstruction_residual", residual, 1e-8),
        Record("stream_max_abs", max(float(np.abs(e).max()) for e in dec.F.values),
               note="max |F_ij| over entries"),
        Record("gradient_l2", lp_norm(dec.c)),
    ]
    mean = np.atleast_1d(dec.mean_part)
    # a complex drift's mean keeps its imaginary part: one [real, imag] pair
    # per component
    details = {"mean_part": [[float(m.real), float(m.imag)] for m in mean]
               if np.iscomplexobj(mean) else [float(m) for m in mean]}
    for key, val in extra.items():
        details[key] = float(val)
    # the split's records are diagnostics: they never set the exit code
    rep, _ = _report(args, _config_echo(args, grid), records, details=details)
    return rep, 0


def _cmd_bmo(args):
    grid, _, _ = _resolve(args)
    f = presets.make_scalar(args.scalar_preset, grid)
    rec = oscillation.bmo_norm(f, flavor=args.flavor, r=args.r, threshold=args.threshold)
    records = [replace(rec, note=f"flavor {args.flavor}, r = {args.r}")]
    cfg = _config_echo(args, grid, scalar_preset=args.scalar_preset, r=args.r)
    return _report(args, cfg, records)


def _cmd_carleson(args):
    grid, _, _ = _resolve(args)
    mu = presets.make_measure(args.measure, grid, seed=args.seed)
    flavor = "inhomogeneous" if args.truncated else "homogeneous"
    rep = carleson_test(mu, threshold=args.threshold, flavor=flavor)
    cfg = _config_echo(args, grid, truncated=bool(args.truncated))
    return _report(args, cfg, [rep])


def _cmd_capacity(args):
    grid, _, _ = _resolve(args)
    center = (grid.period / 2.0,) * grid.dim
    if args.set_kind == "ball":
        radius = args.radius if args.radius is not None else grid.period / 8.0
        e = ball_set(grid, center, radius)
        geometry = {"set": "ball", "radius": radius}
    else:
        side = args.side if args.side is not None else grid.period / 8.0
        corner = tuple(c - side / 2.0 for c in center)
        e = cube_set(grid, corner, side)
        geometry = {"set": "cube", "side": side}
    result = capacity(e, flavor=args.flavor)
    records = [Record("capacity", result.value,
                      note=f"{args.flavor}, {geometry['set']}")]
    details = {
        "iterations": result.iterations,
        "rounds": result.rounds,
        "active_cells": result.active_cells,
        "kkt_residual": result.kkt_residual,
        "measure_mass": result.measure.total,
        "set_cells": e.count,
    }
    if args.tau is not None:
        gauge = gauge_check(e, args.tau, seed=args.seed, result=result)
        ratio = gauge.energy_lhs / gauge.energy_rhs
        upper, lower = gauge_bounds(args.tau)
        records += [
            Record("gauge_energy_ratio", ratio, None, 0.85 <= ratio <= 1.15,
                   note="||grad u^tau||^2 over tau^2/(2tau-1) cap"),
            Record("gauge_distortion_hi", gauge.gauge_ratio, upper),
            Record("gauge_distortion_lo", gauge.gauge_ratio_min, lower,
                   gauge.gauge_ratio_min >= lower,
                   note="lower bound: passes at or above the threshold"),
        ]
    cfg = _config_echo(args, grid, **geometry)
    if args.tau is not None:
        cfg["tau"] = args.tau
    return _report(args, cfg, records, details=details)


def _cmd_trace(args):
    grid, _, _ = _resolve(args)
    mu = presets.make_measure(args.measure, grid, seed=args.seed)
    est = trace_constant(mu, flavor=args.flavor, seed=args.seed)
    details = {"iterations": est.iterations, "residual": est.residual}
    return _report(args, _config_echo(args, grid),
                   [Record("trace", est.value, args.threshold)], details=details)


def _cmd_formnorm(args):
    grid, b, q = _resolve(args)
    if args.nonlinear and not b.is_real:
        # rejected before the form estimate, which would run for nothing
        raise ValueError("nonlinear constant needs a real drift")
    est = form_norm(None, b, q, flavor=args.flavor, seed=args.seed)
    records = [Record("form_norm", est.value, args.threshold)]
    details = {"iterations": est.iterations,
               "coarse_iterations": est.coarse_iterations, "residual": est.residual}
    if args.nonlinear:
        big, small, ok = nonlinear_form_constant(b, seed=args.seed)
        ratio = small.value if big.value == 0 else small.value / big.value
        records += [
            Record("nonlinear_constant", big.value, note="ascent lower estimate"),
            Record("drift_l2_constant", small.value, note="sqrt trace of |b|^2 dx"),
            Record("sandwich", ratio, None, ok, note="c against C and 2 sqrt(n) C"),
        ]
    cfg = _config_echo(args, grid, nonlinear=bool(args.nonlinear))
    return _report(args, cfg, records, details=details)


def _cmd_verdict(args):
    grid, b, q = _resolve(args)
    if args.flavor == "homogeneous":
        verdict = assess_homogeneous(None, b, q, seed=args.seed)
    else:
        verdict = assess_inhomogeneous(None, b, q, seed=args.seed)
    return _verdict_report(args, grid, verdict)


def _cmd_magnetic(args):
    grid, a, q = _resolve(args)
    if args.q_from_gauge:
        if q is not None:
            raise ValueError("--q-from-gauge excludes --q-const/--q-preset")
        q = ScalarField(grid, -sum(c.values**2 for c in a.components))
    verdict = assess_magnetic(a, q, seed=args.seed)
    return _verdict_report(args, grid, verdict, q_from_gauge=bool(args.q_from_gauge))


def _cmd_infinitesimal(args):
    grid, b, q = _resolve(args)
    if args.deltas:
        deltas = [float(tok) for tok in args.deltas.split(",") if tok.strip()]
    else:
        # keep those at or above the resolution floor 2h of
        # assess_infinitesimal (exact: n is a power of two)
        deltas = [d for d in (grid.period / 8.0, grid.period / 16.0, grid.period / 32.0)
                  if d >= 2.0 * grid.spacing]
        if len(deltas) < 2:
            raise ValueError(f"grid {grid.points_per_axis} resolves fewer than two of "
                             "the default deltas L/8, L/16, L/32; pass --deltas")
    verdict = assess_infinitesimal(b, q, deltas, seed=args.seed)
    if args.csv:
        report.write_profile_csv(args.csv, verdict.profiles)
    return _verdict_report(args, grid, verdict, deltas=deltas)


_HANDLERS = {
    "decompose": _cmd_decompose,
    "bmo": _cmd_bmo,
    "carleson": _cmd_carleson,
    "capacity": _cmd_capacity,
    "trace": _cmd_trace,
    "formnorm": _cmd_formnorm,
    "verdict": _cmd_verdict,
    "magnetic": _cmd_magnetic,
    "infinitesimal": _cmd_infinitesimal,
}


def _summarize(rep: dict, stream) -> None:
    for rec in rep["records"]:
        flag = "pass" if rec["passed"] else "FAIL"
        const = rec["constant"]
        shown = "n/a" if const is None else format(float(const), ".12g")
        note = f" ({rec['note']})" if rec["note"] and not rec["passed"] else ""
        print(f"{rec['name']}: {shown} [{flag}]{note}", file=stream)
    if "overall" in rep:
        print(f"overall: {rep['overall']}", file=stream)


def main(argv=None) -> int:
    parser = _build_parser()
    saved_threads = os.environ.get("FORMBOUND_THREADS")
    try:
        args = parser.parse_args(argv)
        if getattr(args, "threads", None) is not None:
            os.environ["FORMBOUND_THREADS"] = str(args.threads)
        fft_workers()  # rejects a bad thread budget before any work
        started = time.perf_counter()
        rep, code = _HANDLERS[args.cmd](args)
        if args.timing:
            rep["timing"] = {"seconds": time.perf_counter() - started}
        report.validate(rep)
        _summarize(rep, sys.stdout)
        if args.out:
            report.write(args.out, rep)
            print(f"report written to {args.out}")
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, fbf.FormatError,
            SolverError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # --threads holds for this run only; the caller's budget returns
        if saved_threads is None:
            os.environ.pop("FORMBOUND_THREADS", None)
        else:
            os.environ["FORMBOUND_THREADS"] = saved_threads


if __name__ == "__main__":
    sys.exit(main())
