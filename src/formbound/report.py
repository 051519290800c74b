"""Report assembly and serialization.

One run produces one self-describing JSON document.  Floats are rendered
as decimal with 17 significant digits, enough to round-trip IEEE doubles,
so a rerun with the same configuration and seed emits byte-identical output.
Non-finite values (the decay records can legitimately carry an infinite
factor) are rendered as the strings "inf", "-inf", "nan" since JSON has no
spelling for them.

The schema lives in docs/report_schema.json; validate() checks the same
structural constraints without an external validator dependency.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

SCHEMA_VERSION = 1

_RECORD_KEYS = ("name", "constant", "threshold", "passed", "witness", "note")

# the overall outcomes a verdict can reach
OUTCOMES = ("certified_bounded", "certified_unbounded_n2", "inconclusive")


@dataclass(frozen=True)
class Record:
    """One tested condition, from the test that measures it to the report.

    ``witness`` is the cube, ball or cell that realizes the constant, in
    the shapes ``witness_payload`` accepts.  Unless given, ``passed``
    follows the one pass rule: with no threshold the record is
    informational and passes, otherwise it passes when
    ``constant <= threshold``, which is False for a NaN constant.  Records
    held to another rule (a decay factor, finiteness, a band) give
    ``passed`` themselves.
    """

    name: str
    constant: float | None
    threshold: float | None = None
    passed: bool | None = None
    witness: object = None
    note: str = ""

    def __post_init__(self) -> None:
        passed = self.passed
        if passed is None:
            passed = self.threshold is None or self.constant <= self.threshold
        object.__setattr__(self, "passed", bool(passed))


def render_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON with fixed float formatting.

    Dict insertion order is preserved (callers build reports in a fixed
    key order); lists, strings, bools, ints, floats and None are handled.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return render_float(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def witness_payload(witness):
    """Index-coordinate form of a test witness.

    Accepts the shapes the test modules produce: a dyadic cube, a
    (center, radius) ball, a bare cell tuple, or None.
    """
    corner = getattr(witness, "corner", None)
    if corner is not None:
        return {"cube_corner": [int(i) for i in corner],
                "cube_side": int(witness.side)}
    if isinstance(witness, tuple) and len(witness) == 2 \
            and isinstance(witness[0], tuple):
        center, radius = witness
        return {"ball_center": [int(i) for i in center],
                "ball_radius": float(radius)}
    if isinstance(witness, tuple):
        return {"cell": [int(i) for i in witness]}
    return None


def render_record(rec: Record) -> dict:
    """The report entry of a record."""
    return {
        "name": str(rec.name),
        "constant": None if rec.constant is None else float(rec.constant),
        "threshold": None if rec.threshold is None else float(rec.threshold),
        "passed": rec.passed,
        "witness": witness_payload(rec.witness),
        "note": str(rec.note),
    }


def record_entry(
    name: str,
    constant,
    threshold=None,
    passed: bool = True,
    witness=None,
    note: str = "",
) -> dict:
    return render_record(Record(name, constant, threshold, passed, witness, note))


def build(subcommand: str, config: dict, records: list[dict],
          overall: str | None = None, profiles: dict | None = None,
          details: dict | None = None) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": str(subcommand),
        "config": config,
        "records": records,
    }
    if overall is not None:
        out["overall"] = overall
    if profiles is not None:
        out["profiles"] = profiles
    if details is not None:
        out["details"] = details
    return out


def write(path, report: dict) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(report))
        fh.write("\n")


def validate(report: dict) -> None:
    """Structural check mirroring docs/report_schema.json."""
    if not isinstance(report, dict):
        raise ValueError("report must be an object")
    for key in ("schema_version", "subcommand", "config", "records"):
        if key not in report:
            raise ValueError(f"report missing required key {key!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}")
    if not isinstance(report["subcommand"], str):
        raise ValueError("subcommand must be a string")
    if not isinstance(report["config"], dict):
        raise ValueError("config must be an object")
    records = report["records"]
    if not isinstance(records, list):
        raise ValueError("records must be an array")
    for rec in records:
        if not isinstance(rec, dict):
            raise ValueError("each record must be an object")
        for key in _RECORD_KEYS:
            if key not in rec:
                raise ValueError(f"record missing key {key!r}")
        if not isinstance(rec["name"], str):
            raise ValueError("record name must be a string")
        if not isinstance(rec["passed"], bool):
            raise ValueError("record passed must be a bool")
        const = rec["constant"]
        if const is not None and not isinstance(const, (int, float, str)):
            raise ValueError("record constant must be number, string or null")
    overall = report.get("overall")
    if overall is not None and overall not in OUTCOMES:
        raise ValueError(f"unknown overall outcome {overall!r}")


def write_profile_csv(path, profiles: dict) -> None:
    """Plot-ready columns: delta plus one column per profile."""
    keys = [k for k in profiles if k != "delta"]
    deltas = profiles["delta"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta"] + keys)
        for i, d in enumerate(deltas):
            writer.writerow([format(float(d), ".17g")] +
                            [format(float(profiles[k][i]), ".17g") for k in keys])
