import json

import jsonschema
import pytest

from formbound import report
from formbound.oscillation import Cube
from formbound.report import Record


def _schema():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    with open(root / "docs" / "report_schema.json") as fh:
        return json.load(fh)


def test_render_float():
    assert report.render_float(float("nan")) == '"nan"'
    assert report.render_float(float("inf")) == '"inf"'
    assert report.render_float(float("-inf")) == '"-inf"'
    assert report.render_float(0.1) == "0.10000000000000001"
    # 17 significant digits round-trip doubles exactly
    x = 1.0 / 3.0
    assert float(report.render_float(x)) == x


def test_dumps_deterministic_and_parseable():
    obj = {
        "a": [1, 2.5, None, True, "s"],
        "b": {"nested": [float("inf"), 0.3]},
        "empty": {},
        "seq": [],
    }
    one = report.dumps(obj)
    two = report.dumps(obj)
    assert one == two
    parsed = json.loads(one)
    assert parsed["b"]["nested"][0] == "inf"
    assert parsed["a"][1] == 2.5
    with pytest.raises(TypeError):
        report.dumps({"bad": object()})


def test_witness_payload_shapes():
    assert report.witness_payload(None) is None
    cube = report.witness_payload(Cube(corner=(1, 2), side=4))
    assert cube == {"cube_corner": [1, 2], "cube_side": 4}
    ball = report.witness_payload(((3, 4, 5), 0.25))
    assert ball == {"ball_center": [3, 4, 5], "ball_radius": 0.25}
    cell = report.witness_payload((7, 8))
    assert cell == {"cell": [7, 8]}
    assert report.witness_payload(3.14) is None


def test_record_builders():
    # the one pass rule: no threshold passes, else constant <= threshold
    assert Record("x", 3.0).passed
    assert Record("x", 2.0, threshold=2.0).passed
    assert not Record("x", 2.5, threshold=2.0).passed
    assert not Record("x", float("nan"), threshold=2.0).passed
    # records held to another rule give passed themselves
    assert Record("x", 2.5, 2.0, passed=True).passed
    assert not Record("x", float("nan"), passed=False).passed
    rec = Record("carleson", 1.25, 2.0, witness=Cube((0, 0), 8), note="x")
    entry = report.render_record(rec)
    assert entry == {"name": "carleson", "constant": 1.25, "threshold": 2.0,
                     "passed": True,
                     "witness": {"cube_corner": [0, 0], "cube_side": 8},
                     "note": "x"}
    assert report.record_entry("carleson", 1.25, 2.0, True, Cube((0, 0), 8),
                               "x") == entry
    entry2 = report.render_record(Record("form_norm", 0.5))
    assert entry2["threshold"] is None
    assert entry2["witness"] is None


def _sample_report():
    rec = report.record_entry("carleson", 1.3330078125, threshold=None,
                              passed=True, witness=Cube((0, 0, 0), 32))
    return report.build(
        "carleson",
        {"dim": 3, "points_per_axis": 32, "period": 1.0, "seed": 0,
         "measure": "lebesgue"},
        [rec],
        overall=None,
        profiles={"delta": [0.25, 0.125], "vmo": [1.0, 0.5]},
    )


def test_build_and_validate():
    rep = _sample_report()
    report.validate(rep)
    for key in ("schema_version", "subcommand", "config", "records"):
        broken = dict(rep)
        del broken[key]
        with pytest.raises(ValueError):
            report.validate(broken)
    broken = dict(rep)
    broken["schema_version"] = 99
    with pytest.raises(ValueError):
        report.validate(broken)
    broken = dict(rep)
    broken["overall"] = "maybe"
    with pytest.raises(ValueError):
        report.validate(broken)
    broken = dict(rep)
    broken["records"] = [{"name": "x"}]
    with pytest.raises(ValueError):
        report.validate(broken)


def test_serialized_report_matches_schema(tmp_path):
    rep = _sample_report()
    path = tmp_path / "rep.json"
    report.write(path, rep)
    loaded = json.loads(path.read_text())
    jsonschema.validate(loaded, _schema())


def test_nonfinite_constants_pass_schema():
    rec = report.record_entry("vmo_decay", float("inf"), passed=True)
    rep = report.build("infinitesimal", {"dim": 2}, [rec])
    loaded = json.loads(report.dumps(rep))
    jsonschema.validate(loaded, _schema())
    assert loaded["records"][0]["constant"] == "inf"


def test_write_profile_csv(tmp_path):
    path = tmp_path / "prof.csv"
    report.write_profile_csv(
        path, {"delta": [0.25, 0.125], "vmo": [1.0, 0.5], "trace": [2.0, 0.7]}
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "delta,vmo,trace"
    row = lines[1].split(",")
    assert float(row[0]) == 0.25 and float(row[2]) == 2.0
    assert len(lines) == 3
