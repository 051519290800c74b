"""The benchmark's workloads: seeded inputs, one op each, and its checks.

A workload seed feeds ``numpy.random.default_rng(seed)``, which picks a
whole-cell torus shift of the workload's reference input.  Set-up writes the
shifted input once as an FBF1 file; every op reads it back through the
program.  ``seed=None`` means no shift: that is how the pinned reference
values in ``reference.json`` were made (``python3 perfbench/reference.py``).

Each op pairs two program runs of fixed kinds (``ascent16`` has one), so the
op-time median never flips between two kinds of op.  Every output of an op
is checked; see ``check``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os

import numpy as np

from formbound import capacity as cap
from formbound import cli, fbf, presets, report
from formbound.torus import Grid, ScalarField, VectorField

HERE = os.path.dirname(os.path.abspath(__file__))
PERIOD = 1.0

# Relative tolerance of each shift-invariant record against the unshifted
# reference.  form_norm is a power-iteration value from a seeded start
# vector and agrees across shifts and seeds to about 1e-6; the others
# agree to about 1e-14 (capacity) or to every printed digit.  The margins
# leave room for a different solver that converges to the same tolerance.
SHIFT_TOL = {
    "form_norm": 1e-4,
    "ball_growth": 1e-9,
    "fefferman_phong": 1e-9,
    "capacity": 1e-6,
}


@dataclasses.dataclass
class Output:
    """One program run inside an op: exit code, parsed report, raw bytes."""

    label: str
    code: int
    report: dict
    raw: bytes


def shift_of(seed: int | None, dim: int, n: int) -> tuple[int, ...]:
    if seed is None:
        return (0,) * dim
    rng = np.random.default_rng(seed)
    return tuple(int(s) for s in rng.integers(0, n, size=dim))


def write_shifted(name: str, grid: Grid, shift, path: str) -> str:
    """Write the named field preset, rolled by ``shift`` cells, as FBF1."""
    field = presets.make_field(name, grid)
    axes = tuple(range(grid.dim))
    comps = tuple(ScalarField(grid, np.roll(c.values, shift, axis=axes))
                  for c in field.components)
    fbf.write_field(path, VectorField(comps))
    return path


def run_cli(label: str, argv: list[str], out_path: str) -> Output:
    """Run the formbound command in this process; its summary is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--out", out_path])
    with open(out_path, "rb") as fh:
        raw = fh.read()
    return Output(label, code, json.loads(raw), raw)


def set_threads(threads: int) -> list[str]:
    os.environ["FORMBOUND_THREADS"] = str(threads)
    return ["--threads", str(threads)]


@dataclasses.dataclass(frozen=True)
class Workload:
    """One workload at one size.

    ``expect`` holds the expected (exit code, overall) of each output of an
    op, in order; ``None`` as overall means the report has none.
    """

    name: str = ""
    dim: int = 3
    grid: int = 64
    expect: tuple = ()

    @property
    def key(self) -> str:
        return f"{self.dim}x{self.grid}"

    @property
    def grid_obj(self) -> Grid:
        return Grid(self.dim, self.grid, PERIOD)

    @property
    def array_mib(self) -> float:
        """Size of one complex128 array at this grid."""
        return 16.0 * self.grid**self.dim / 2**20

    def small(self) -> "Workload":
        """The reduced size the self-test runs."""
        raise NotImplementedError

    def make_inputs(self, seed: int | None, workdir: str) -> dict:
        raise NotImplementedError

    def run_op(self, inputs: dict, seed: int, threads: int,
               workdir: str) -> list[Output]:
        raise NotImplementedError

    def check_output(self, out: Output) -> list[str]:
        """Workload-specific checks of one output; problems, if any."""
        return []


def _records(out: Output) -> dict:
    return {r["name"]: r for r in out.report["records"]}


@dataclasses.dataclass(frozen=True)
class Certify3d(Workload):
    name: str = "certify3d"
    expect: tuple = ((0, "certified_bounded"), (0, "certified_bounded"))

    def small(self):
        # form_norm does not converge at 16^3, nor inhomogeneous at 32^3
        return self

    def make_inputs(self, seed, workdir):
        g = self.grid_obj
        path = os.path.join(workdir, "vortex.fbf")
        return {"field": write_shifted("vortex", g, shift_of(seed, g.dim, g.points_per_axis), path)}

    def run_op(self, inputs, seed, threads, workdir):
        base = ["verdict", "--dim", str(self.dim), "--grid", str(self.grid),
                "--input", inputs["field"], "--seed", str(seed)]
        base += set_threads(threads)
        return [
            run_cli(flavor, base + ["--flavor", flavor],
                    os.path.join(workdir, f"{flavor}.json"))
            for flavor in ("homogeneous", "inhomogeneous")
        ]


@dataclasses.dataclass(frozen=True)
class Capacity3d(Workload):
    name: str = "capacity3d"
    expect: tuple = ((0, None), (0, None))
    tau: float = 1.0
    nprobe: int = 20

    def small(self):
        return dataclasses.replace(self, grid=16)

    def make_inputs(self, seed, workdir):
        # the set is centred on the seed-shifted centre cell; it travels as
        # an FBF1 indicator field because the command has no centre option
        g = self.grid_obj
        n, h = g.points_per_axis, g.spacing
        shift = shift_of(seed, g.dim, n)
        center = tuple(((n // 2 + s) % n) * h for s in shift)
        side = g.period / 8.0
        sets = {
            "ball": cap.ball_set(g, center, g.period / 8.0),
            "cube": cap.cube_set(g, tuple(c - side / 2.0 for c in center), side),
        }
        paths = {}
        for kind, e in sets.items():
            paths[kind] = os.path.join(workdir, f"{kind}.fbf")
            fbf.write_field(paths[kind], ScalarField(g, e.mask.astype(np.float64)))
        return paths

    def run_op(self, inputs, seed, threads, workdir):
        set_threads(threads)
        return [self._solve(kind, path, seed, workdir)
                for kind, path in inputs.items()]

    def _solve(self, kind, path, seed, workdir):
        # mirrors the capacity command's report, with the set read from file
        e = cap.CompactSet.from_field(fbf.read_field(path, period=PERIOD))
        result = cap.capacity(e)
        gauge = cap.gauge_check(e, self.tau, nprobe=self.nprobe, seed=seed,
                                result=result)
        ratio = gauge.energy_lhs / gauge.energy_rhs
        records = [
            report.record_entry("capacity", result.value, note=f"homogeneous, {kind}"),
            report.record_entry("gauge_energy_ratio", ratio, None,
                                0.85 <= ratio <= 1.15),
            report.record_entry("gauge_distortion_hi", gauge.gauge_ratio,
                                (1.0 + 2.0 * self.tau) * 1.1, gauge.within_bounds),
            report.record_entry("gauge_distortion_lo", gauge.gauge_ratio_min,
                                None, gauge.within_bounds),
        ]
        details = {"iterations": result.iterations,
                   "kkt_residual": result.kkt_residual,
                   "set_cells": e.count}
        cfg = {"dim": self.dim, "points_per_axis": self.grid, "period": PERIOD,
               "seed": seed, "set": kind, "tau": self.tau, "nprobe": self.nprobe}
        rep = report.build("capacity", cfg, records, details=details)
        report.validate(rep)
        out_path = os.path.join(workdir, f"{kind}.json")
        report.write(out_path, rep)
        with open(out_path, "rb") as fh:
            raw = fh.read()
        code = 0 if all(r["passed"] for r in records) else 2
        return Output(kind, code, json.loads(raw), raw)

    def check_output(self, out):
        recs = _records(out)
        ratio = recs["gauge_energy_ratio"]["constant"]
        problems = []
        if not 0.85 <= ratio <= 1.15:
            problems.append(f"{out.label}: gauge energy ratio {ratio} outside [0.85, 1.15]")
        if not recs["gauge_distortion_hi"]["passed"]:
            problems.append(f"{out.label}: gauge distortion not within bounds")
        return problems


@dataclasses.dataclass(frozen=True)
class Ascent(Workload):
    name: str = "ascent16"
    grid: int = 16
    expect: tuple = ((0, None),)

    def small(self):
        return dataclasses.replace(self, dim=2)

    def make_inputs(self, seed, workdir):
        g = self.grid_obj
        path = os.path.join(workdir, "vortex.fbf")
        return {"field": write_shifted("vortex", g, shift_of(seed, g.dim, g.points_per_axis), path)}

    def run_op(self, inputs, seed, threads, workdir):
        argv = ["formnorm", "--dim", str(self.dim), "--grid", str(self.grid),
                "--input", inputs["field"], "--seed", str(seed), "--nonlinear"]
        argv += set_threads(threads)
        return [run_cli("nonlinear", argv, os.path.join(workdir, "formnorm.json"))]

    def check_output(self, out):
        recs = _records(out)
        big = recs["nonlinear_constant"]["constant"]
        small = recs["drift_l2_constant"]["constant"]
        problems = []
        if not recs["sandwich"]["passed"]:
            problems.append("sandwich flag not set")
        if not big <= 1.05 * small:
            problems.append(f"C = {big} above 1.05 c = {1.05 * small}")
        if not small <= 1.25 * 2.0 * math.sqrt(self.dim) * big:
            problems.append(f"c = {small} above 1.25 * 2 sqrt(n) C")
        return problems


@dataclasses.dataclass(frozen=True)
class Profile2d(Workload):
    name: str = "profile2d"
    dim: int = 2
    grid: int = 256
    expect: tuple = ((0, "certified_bounded"), (0, "inconclusive"))
    # deltas as divisors of the period, per program run
    stream_deltas: tuple = (16, 32, 64, 128)
    log_deltas: tuple = (16, 32, 64)

    def small(self):
        return dataclasses.replace(self, grid=64, stream_deltas=(8, 16, 32),
                                   log_deltas=(8, 16, 32))

    def make_inputs(self, seed, workdir):
        g = self.grid_obj
        shift = shift_of(seed, g.dim, g.points_per_axis)
        return {name: write_shifted(name, g, shift, os.path.join(workdir, f"{name}.fbf"))
                for name in ("stream", "log_stream")}

    def run_op(self, inputs, seed, threads, workdir):
        def deltas(divisors):
            return ",".join(repr(PERIOD / d) for d in divisors)

        base = ["infinitesimal", "--dim", str(self.dim), "--grid", str(self.grid),
                "--seed", str(seed)] + set_threads(threads)
        return [
            run_cli("stream", base + ["--input", inputs["stream"], "--q-preset", "trig",
                                      "--deltas", deltas(self.stream_deltas)],
                    os.path.join(workdir, "stream.json")),
            run_cli("log_stream", base + ["--input", inputs["log_stream"],
                                          "--deltas", deltas(self.log_deltas)],
                    os.path.join(workdir, "log_stream.json")),
        ]


WORKLOADS = {w.name: w for w in (Certify3d(), Capacity3d(), Ascent(), Profile2d())}


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def reference_values(outputs: list[Output]) -> list[dict]:
    """The shift-invariant record constants of each output."""
    return [{name: rec["constant"] for name, rec in _records(out).items()
             if name in SHIFT_TOL} for out in outputs]


def check(wl: Workload, outputs: list[Output], reference: list[dict]) -> list[str]:
    """Every problem with one op's outputs; an empty list means it passed."""
    if len(outputs) != len(wl.expect):
        return [f"{len(outputs)} outputs, expected {len(wl.expect)}"]
    problems = []
    for out, (code, overall), ref in zip(outputs, wl.expect, reference):
        if out.code != code:
            problems.append(f"{out.label}: exit code {out.code}, expected {code}")
        if out.report.get("overall") != overall:
            problems.append(f"{out.label}: overall {out.report.get('overall')!r}, "
                            f"expected {overall!r}")
        recs = _records(out)
        for rec in recs.values():
            if "did not converge" in (rec.get("note") or ""):
                problems.append(f"{out.label}: {rec['name']} did not converge")
        for name, want in ref.items():
            got = recs.get(name, {}).get("constant")
            # the report writes a non-finite constant as a string
            if not isinstance(got, (int, float)) or \
                    abs(got - want) > SHIFT_TOL[name] * abs(want):
                problems.append(f"{out.label}: {name} = {got}, unshifted "
                                f"reference {want} (rel. tol. {SHIFT_TOL[name]:g})")
        problems += wl.check_output(out)
    return problems
