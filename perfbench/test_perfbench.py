"""Self-test of the benchmark at reduced size.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that every workload runs one op, that every metric prints with its
unit, that a wrong expected outcome raises the failure count, and that two
seeds give different input files with the same outcome.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE = workloads.load_reference()
SMALL = {name: wl.small() for name, wl in workloads.WORKLOADS.items()}


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _one_op(wl, seed, workdir):
    inputs = wl.make_inputs(seed, str(workdir))
    wall, cpu, raws, problems = run._op(wl, inputs, seed, 2, str(workdir),
                                        REFERENCE[wl.name][wl.key])
    return inputs, raws, problems


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_workload_runs_one_op(name, tmp_path):
    _inputs, raws, problems = _one_op(SMALL[name], 1, tmp_path)
    assert problems == []
    assert raws and all(raws)


def test_wrong_expected_outcome_counts_as_failure(tmp_path):
    wl = SMALL["profile2d"]
    wrong = dataclasses.replace(
        wl, expect=((0, "inconclusive"),) + wl.expect[1:])
    inputs = wrong.make_inputs(3, str(tmp_path))
    ops, failed, _metrics = run.timed_run(
        wrong, inputs, 3, 2, 0.0, str(tmp_path), REFERENCE[wl.name][wl.key])
    assert (ops, failed) == (1, 1)


def test_two_seeds_give_different_inputs_and_same_outcome(tmp_path):
    wl = SMALL["certify3d"]
    outcomes, files = [], []
    for seed in (1, 2):
        workdir = tmp_path / str(seed)
        workdir.mkdir()
        inputs, raws, problems = _one_op(wl, seed, workdir)
        assert problems == []
        with open(inputs["field"], "rb") as fh:
            files.append(fh.read())
        outcomes.append([json.loads(r)["overall"] for r in raws])
    assert files[0] != files[1]
    assert outcomes[0] == outcomes[1] == ["certified_bounded"] * 2


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(trace):
    spec = _benchmark_spec()
    wanted = spec["end_to_end" if trace == 0 else "per_layer"]
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "profile2d",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}
    for m in wanted:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and line.split()[3] == m["unit"]
                   for line in lines[:-1])
