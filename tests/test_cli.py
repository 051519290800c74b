import json
import os
import pathlib
import struct
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from formbound import cli, fbf, formnorm, presets
from formbound.capacity import GaugeReport
from formbound.cli import main
from formbound.torus import Grid


def _schema():
    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "docs" / "report_schema.json") as fh:
        return json.load(fh)


def test_carleson_closed_form(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["carleson", "--dim", "3", "--grid", "32", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, _schema())
    want = 4.0 / 3.0 * (1.0 - 4.0 ** (-6))
    assert abs(rep["records"][0]["constant"] - want) <= 1e-12
    stdout = capsys.readouterr().out
    assert "carleson" in stdout and "pass" in stdout


def test_carleson_threshold_failure(capsys):
    code = main(["carleson", "--dim", "3", "--grid", "16", "--threshold", "1e-9"])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_failed_record_note_in_summary(capsys):
    code = main(["bmo", "--dim", "2", "--grid", "16", "--threshold", "1e-3"])
    assert code == 2
    out = capsys.readouterr().out
    assert "[FAIL] (flavor BMO, r = 1)" in out


def test_passed_record_note_not_in_summary(capsys):
    code = main(["bmo", "--dim", "2", "--grid", "16"])
    assert code == 0
    assert "flavor" not in capsys.readouterr().out


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_bad_thread_budget_exit_1(threads, monkeypatch, capsys):
    # a bad --threads fails even over a good FORMBOUND_THREADS
    monkeypatch.setenv("FORMBOUND_THREADS", "1")
    code = main(["bmo", "--dim", "2", "--grid", "16", "--threads", threads])
    assert code == 1
    err = capsys.readouterr().err
    # the parser names the option, not the environment variable it sets
    assert "argument --threads" in err and "positive integer" in err
    assert "FORMBOUND_THREADS" not in err


@pytest.mark.parametrize("size", [["--radius", "-0.1"],
                                  ["--set", "cube", "--side", "-0.5"],
                                  ["--set", "cube", "--side", "0"]])
def test_bad_set_size_exit_1(size, capsys):
    code = main(["capacity", "--dim", "3", "--grid", "16", *size])
    assert code == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["1", "0"])
def test_thread_budget_not_leaked(threads, monkeypatch):
    # --threads holds for one run: the caller's value, or its absence, returns
    monkeypatch.delenv("FORMBOUND_THREADS", raising=False)
    before = dict(os.environ)
    main(["bmo", "--dim", "2", "--grid", "16", "--threads", threads])
    assert dict(os.environ) == before
    monkeypatch.setenv("FORMBOUND_THREADS", "2")
    before = dict(os.environ)
    main(["bmo", "--dim", "2", "--grid", "16", "--threads", threads])
    assert dict(os.environ) == before


def test_bad_thread_env_exit_1(monkeypatch, capsys):
    monkeypatch.setenv("FORMBOUND_THREADS", "two")
    code = main(["bmo", "--dim", "2", "--grid", "16"])
    assert code == 1
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_reports_independent_of_thread_counts(tmp_path):
    # the BLAS pool and the program's own budget, both at 1 and both at 2
    root = pathlib.Path(__file__).resolve().parents[1]
    g = Grid(3, 32, 1.0)
    complex_drift = tmp_path / "complex_drift.fbf"
    fbf.write_field(complex_drift, presets.make_field("vortex", g)
                    + 1j * presets.make_field("random", g, seed=1))
    runs = {
        "trace": ["trace", "--dim", "3", "--grid", "32", "--measure", "bump"],
        "formnorm": ["formnorm", "--dim", "3", "--grid", "32"],
        # large enough that a reduction on the BLAS pool would thread
        "formnorm_64": ["formnorm", "--dim", "3", "--grid", "64"],
        "formnorm_complex": ["formnorm", "--dim", "3", "--grid", "32",
                             "--input", str(complex_drift)],
        # the nonlinear ascent's batched real transforms
        "formnorm_nonlinear": ["formnorm", "--dim", "3", "--grid", "16", "--nonlinear"],
        "capacity": ["capacity", "--dim", "3", "--grid", "32", "--tau", "1"],
        # at 2 threads every transform runs two workers
        "verdict": ["verdict", "--dim", "3", "--grid", "32"],
        "verdict_inhomogeneous": ["verdict", "--dim", "3", "--grid", "32",
                                  "--preset", "random", "--flavor", "inhomogeneous"],
        "verdict_vortex_inhomogeneous": ["verdict", "--dim", "3", "--grid", "32",
                                         "--flavor", "inhomogeneous"],
        # the real Hodge split and the real q split
        "decompose_inhomogeneous": ["decompose", "--dim", "3", "--grid", "32",
                                    "--preset", "random", "--flavor", "inhomogeneous",
                                    "--q-preset", "trig"],
    }
    for name, argv in runs.items():
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(root / "src"))
            env.pop("FORMBOUND_THREADS", None)
            out = tmp_path / f"{name}_{threads}.json"
            subprocess.run([sys.executable, "-m", "formbound.cli", *argv,
                            "--threads", threads, "--out", str(out)],
                           env=env, check=True, capture_output=True)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], name


def test_verdict_certifies_near_degenerate_vortex(tmp_path):
    # the top two singular values of the 16^3 compression differ by 3e-5
    # relative
    out = tmp_path / "rep.json"
    code = main(["verdict", "--dim", "3", "--grid", "16", "--preset", "vortex",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["overall"] == "certified_bounded"


def test_decompose_fbf_round_trip(tmp_path, capsys):
    g = Grid(2, 16, 1.0)
    field = presets.make_field("gradient", g)
    src = tmp_path / "grad.fbf"
    fbf.write_field(src, field)
    out = tmp_path / "rep.json"
    code = main(["decompose", "--dim", "2", "--grid", "16",
                 "--input", str(src), "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    by_name = {r["name"]: r["constant"] for r in rep["records"]}
    assert by_name["stream_max_abs"] <= 1e-10
    assert by_name["reconstruction_residual"] <= 1e-10


def test_verdict_rejects_nonfinite_input(tmp_path, capsys):
    g = Grid(3, 16, 1.0)
    field = presets.make_field("vortex", g)
    field[0].values[1, 2, 3] = np.nan
    src = tmp_path / "nan.fbf"
    fbf.write_field(src, field)
    code = main(["verdict", "--dim", "3", "--grid", "16",
                 "--input", str(src)])
    assert code == 1
    assert "non-finite" in capsys.readouterr().err


def test_verdict_certifies_vortex(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verdict", "--dim", "3", "--grid", "32",
                 "--preset", "vortex", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, _schema())
    assert rep["overall"] == "certified_bounded"


def test_verdict_records_keep_witnesses(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["verdict", "--dim", "3", "--grid", "16", "--preset", "random",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    jsonschema.validate(rep, _schema())
    witness = {r["name"]: r["witness"] for r in rep["records"]}
    assert witness["carleson"] == {"cube_corner": [0, 0, 0], "cube_side": 16}
    assert set(witness["stream_bmo"]) == {"cube_corner", "cube_side"}
    for name in ("ball_growth", "fefferman_phong"):
        assert set(witness[name]) == {"ball_center", "ball_radius"}
    assert witness["form_norm"] is None


def test_verdict_two_dimensional_obstruction(capsys):
    code = main(["verdict", "--dim", "2", "--grid", "32",
                 "--preset", "stream", "--q-const", "0.5"])
    assert code == 2
    assert "certified_unbounded_n2" in capsys.readouterr().out


def test_report_rerun_is_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verdict", "--dim", "3", "--grid", "16", "--preset", "vortex",
            "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors(capsys):
    assert main(["carleson", "--grid", "24"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["carleson", "--grid", "8"]) == 1
    assert "at least 16" in capsys.readouterr().err
    assert main(["verdict", "--preset", "nosuch"]) == 1
    err = capsys.readouterr().err
    assert "unknown field preset" in err
    assert main(["bmo", "--no-such-flag"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main([]) == 1


def test_timing_block(tmp_path):
    out = tmp_path / "rep.json"
    assert main(["bmo", "--grid", "32", "--timing", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["timing"]["seconds"] >= 0.0


def test_infinitesimal_csv(tmp_path):
    out = tmp_path / "prof.csv"
    code = main(["infinitesimal", "--grid", "64",
                 "--deltas", "0.125,0.0625,0.03125", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "delta,vmo,local_trace"
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 0.125


def test_infinitesimal_default_deltas_above_resolution(tmp_path):
    # at 32 points L/32 = h is below the floor 2h, so L/8 and L/16 remain
    out = tmp_path / "rep.json"
    assert main(["infinitesimal", "--grid", "32", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["config"]["deltas"] == [0.125, 0.0625]
    assert rep["profiles"]["delta"] == [0.125, 0.0625]


def test_infinitesimal_delta_above_the_period_exit_1(capsys):
    argv = ["infinitesimal", "--dim", "2", "--grid", "32", "--preset", "stream"]
    assert main(argv + ["--deltas", "4,0.5,0.25"]) == 1
    assert "above the period" in capsys.readouterr().err


def test_infinitesimal_default_deltas_unresolved_exit_1(capsys):
    # at 16 points only L/8 = 2h remains, and a profile needs two
    assert main(["infinitesimal", "--grid", "16"]) == 1
    assert "--deltas" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_infinitesimal_nonfinite_delta_exit_1(bad):
    # run as a script, so that an uncaught exception shows as a traceback
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "formbound.cli", "infinitesimal",
                           "--grid", "32", "--deltas", f"{bad},0.125", "--threads", "1"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: delta {bad} is not finite")


def test_carleson_truncated_runs_only_the_tree(tmp_path, monkeypatch):
    # the truncated command reads one record; the W^{1,2} potentials of
    # the rest of the battery must not run for it
    from formbound import measures

    def _refuse(*args):
        raise AssertionError("W^{1,2} potential computed for the Carleson record")

    monkeypatch.setattr(measures, "_potential", _refuse)
    out = tmp_path / "rep.json"
    assert main(["carleson", "--dim", "3", "--grid", "16", "--measure", "bump",
                 "--truncated", "--out", str(out)]) == 0
    [rec] = json.loads(out.read_text())["records"]
    assert rec["name"] == "carleson_w12" and rec["note"] == "cubes of side <= L/2"
    assert rec["witness"]["cube_side"] <= 8


def test_capacity_gauge_records(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["capacity", "--dim", "3", "--grid", "32", "--set", "cube",
                 "--tau", "1.0", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    names = {r["name"] for r in rep["records"]}
    assert {"capacity", "gauge_energy_ratio", "gauge_distortion_hi",
            "gauge_distortion_lo"} <= names
    by_name = {r["name"]: r for r in rep["records"]}
    assert abs(by_name["capacity"]["constant"] - 0.672031349306) <= 1e-9
    assert abs(by_name["gauge_energy_ratio"]["constant"] - 1.0) <= 1e-9
    details = rep["details"]
    assert details["iterations"] >= details["rounds"] >= 1
    assert 0 < details["active_cells"] <= details["set_cells"]


def test_trace_and_formnorm_smoke(capsys):
    assert main(["trace", "--dim", "3", "--grid", "16"]) == 0
    assert main(["formnorm", "--dim", "3", "--grid", "16",
                 "--preset", "vortex"]) == 0
    out = capsys.readouterr().out
    assert "form_norm" in out


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", [["bmo", "--dim", "2"], ["carleson", "--dim", "3"],
                                     ["trace", "--dim", "3"], ["formnorm", "--dim", "3"]])
def test_nonfinite_threshold_exit_1(command, value, capsys, monkeypatch):
    # rejected by the parser, before any estimate runs
    monkeypatch.setattr(cli, "form_norm", None)
    monkeypatch.setattr(cli, "trace_constant", None)
    code = main([*command, "--grid", "16", f"--threshold={value}"])
    assert code == 1
    assert "not a finite number" in capsys.readouterr().err


def test_formnorm_details_count_coarse_matvecs(tmp_path, monkeypatch):
    out = tmp_path / "rep.json"
    assert main(["formnorm", "--dim", "3", "--grid", "16", "--out", str(out)]) == 0
    details = json.loads(out.read_text())["details"]
    assert details["coarse_iterations"] == 0 and details["iterations"] > 0
    monkeypatch.setattr(formnorm, "_COARSE_FROM", 16)
    assert main(["formnorm", "--dim", "3", "--grid", "16", "--out", str(out)]) == 0
    details = json.loads(out.read_text())["details"]
    assert details["coarse_iterations"] > 0 and details["iterations"] > 0


def test_magnetic_smoke(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["magnetic", "--dim", "3", "--grid", "16",
                 "--preset", "coulomb_gauge", "--q-from-gauge",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["overall"] == "certified_bounded"


def test_conflicting_q_sources(capsys):
    code = main(["verdict", "--dim", "3", "--grid", "16", "--preset", "vortex",
                 "--q-const", "1.0", "--q-preset", "trig"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_nonlinear_rejects_complex_input(tmp_path, capsys, monkeypatch):
    # the drift is rejected before the form estimate runs
    def never(*args, **kwargs):
        raise AssertionError("form_norm ran on a drift the command rejects")

    monkeypatch.setattr(cli, "form_norm", never)
    g = Grid(3, 16, 1.0)
    path = tmp_path / "complex.fbf"
    fbf.write_field(path, 1j * presets.make_field("vortex", g))
    code = main(["formnorm", "--dim", "3", "--grid", "16", "--nonlinear",
                 "--input", str(path)])
    assert code == 1
    assert "needs a real drift" in capsys.readouterr().err


def test_homogeneous_decompose_rebuilds_vortex(tmp_path):
    # the vortex has energy on the Nyquist-only modes, which b_h carries
    out = tmp_path / "rep.json"
    assert main(["decompose", "--dim", "2", "--grid", "16", "--preset", "vortex",
                 "--flavor", "homogeneous", "--out", str(out)]) == 0
    recs = {r["name"]: r for r in json.loads(out.read_text())["records"]}
    assert recs["reconstruction_residual"]["passed"]


def test_decompose_keeps_the_imaginary_mean(tmp_path, recwarn):
    # a complex drift's mean is reported as one [real, imag] pair per
    # component; a real cast would drop 0.5j and warn
    b = presets.make_field("vortex", Grid(3, 16))
    src = tmp_path / "c.fbf"
    fbf.write_field(src, type(b).from_array(b.grid, b.values.astype(complex) + 0.5j))
    out = tmp_path / "rep.json"
    assert main(["decompose", "--input", str(src), "--flavor", "homogeneous",
                 "--out", str(out)]) == 0
    assert not [w for w in recwarn if "discards the imaginary part" in str(w.message)]
    mean = np.array(json.loads(out.read_text())["details"]["mean_part"])
    assert mean.shape == (3, 2)
    assert np.allclose(mean, [[0.0, 0.5]] * 3, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("q_flag", [["--q-const", "1.0"], ["--q-preset", "trig"]])
def test_homogeneous_decompose_rejects_q(q_flag, capsys):
    # the homogeneous split has no q part, so a given q would go unread
    code = main(["decompose", "--dim", "2", "--grid", "16", "--preset", "vortex",
                 "--flavor", "homogeneous"] + q_flag)
    assert code == 1
    assert "homogeneous split takes no q" in capsys.readouterr().err
    code = main(["decompose", "--dim", "2", "--grid", "16", "--preset", "vortex",
                 "--flavor", "inhomogeneous"] + q_flag)
    assert code == 0


def test_decompose_rejects_scalar_payload(tmp_path, capsys):
    from formbound.torus import ScalarField

    g = Grid(2, 16, 1.0)
    path = tmp_path / "scalar.fbf"
    fbf.write_field(path, ScalarField(g, np.ones(g.shape)))
    code = main(["decompose", "--dim", "2", "--grid", "16", "--input", str(path)])
    assert code == 1
    assert "vector field" in capsys.readouterr().err


@pytest.fixture
def stream64(tmp_path):
    """A 2-D stream drift on 64 points, as an FBF1 file."""
    path = tmp_path / "s64.fbf"
    fbf.write_field(path, presets.make_field("stream", Grid(2, 64, 1.0)))
    return str(path)


@pytest.mark.parametrize("q_flags", [[], ["--q-const", "1.0"], ["--q-preset", "trig"]])
def test_input_file_decides_the_grid(stream64, tmp_path, q_flags):
    # no --dim or --grid: the file's 2-D 64 grid is the run's, so q, the
    # config and the default deltas (L/32 = 2h is resolved) are built on it
    out = tmp_path / "rep.json"
    code = main(["infinitesimal", "--input", stream64, *q_flags, "--threads", "1",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert (rep["config"]["dim"], rep["config"]["points_per_axis"]) == (2, 64)
    assert rep["config"]["deltas"] == [0.125, 0.0625, 0.03125]
    assert rep["details"]["provenance"]["points_per_axis"] == 64


def test_verdict_config_names_the_file_grid(stream64, tmp_path):
    # verdict defaults to 3-D 32 without a file; the 2-D 64 file overrides
    # both, and a constant potential on it is the n=2 obstruction
    out = tmp_path / "rep.json"
    code = main(["verdict", "--input", stream64, "--q-const", "1.0", "--threads", "1",
                 "--out", str(out)])
    assert code == 2
    rep = json.loads(out.read_text())
    assert (rep["config"]["dim"], rep["config"]["points_per_axis"]) == (2, 64)
    assert rep["overall"] == "certified_unbounded_n2"


@pytest.mark.parametrize("flags", [["--dim", "3"], ["--grid", "32"],
                                   ["--dim", "2", "--grid", "128"]])
def test_flags_that_disagree_with_the_file_exit_1(stream64, flags, capsys):
    assert main(["verdict", "--input", stream64, *flags]) == 1
    assert "disagrees with" in capsys.readouterr().err


def test_flags_that_match_the_file_are_accepted(stream64, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["infinitesimal", "--input", stream64, "--threads", "1", "--out"]
    assert main(argv + [str(a)]) == 0
    assert main(argv + [str(b), "--dim", "2", "--grid", "64"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_input_file_longer_than_its_header_exit_1(tmp_path, capsys):
    # a 2-D 32 file whose header says 16 was read as its first 256
    # samples and certified unbounded
    path = tmp_path / "long.fbf"
    fbf.write_field(path, presets.make_field("stream", Grid(2, 32, 1.0)))
    raw = bytearray(path.read_bytes())
    raw[12:20] = struct.pack("<II", 16, 16)
    path.write_bytes(bytes(raw))
    assert main(["verdict", "--input", str(path)]) == 1
    assert "header declares" in capsys.readouterr().err


def test_input_file_cut_inside_its_header_exit_1(tmp_path, capsys):
    path = tmp_path / "cut.fbf"
    fbf.write_field(path, presets.make_field("stream", Grid(2, 32, 1.0)))
    path.write_bytes(path.read_bytes()[:18])
    assert main(["verdict", "--input", str(path)]) == 1
    assert "inside its header" in capsys.readouterr().err


def test_input_file_below_the_floor_exit_1(tmp_path, capsys):
    path = tmp_path / "v8.fbf"
    fbf.write_field(path, presets.make_field("vortex", Grid(3, 8, 1.0)))
    assert main(["verdict", "--input", str(path)]) == 1
    assert "at least 16" in capsys.readouterr().err


@pytest.mark.parametrize("hi, lo", [(3.0, 0.2), (3.4, 0.4)])
def test_gauge_records_pass_on_their_own_bounds(hi, lo, tmp_path, monkeypatch):
    # at tau = 1 the high ratio may reach 3.3 and the low one must stay at
    # or above 0.3; each record is held to its own bound
    def fake_gauge(e, tau, seed=0, result=None):
        return GaugeReport(1.0, 1.0, hi, lo, False, result.value)

    monkeypatch.setattr(cli, "gauge_check", fake_gauge)
    out = tmp_path / "rep.json"
    assert main(["capacity", "--dim", "3", "--grid", "16", "--tau", "1.0",
                 "--out", str(out)]) == 2
    recs = {r["name"]: r for r in json.loads(out.read_text())["records"]}
    assert recs["gauge_distortion_hi"]["threshold"] == pytest.approx(3.3)
    assert recs["gauge_distortion_lo"]["threshold"] == pytest.approx(0.3)
    assert recs["gauge_distortion_hi"]["passed"] == (hi <= 3.3)
    assert recs["gauge_distortion_lo"]["passed"] == (lo >= 0.3)
