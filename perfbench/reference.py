"""Regenerate reference.json: the shift-invariant record constants of one op
on the unshifted inputs (seed 0), at the full and the self-test size.

    python3 perfbench/reference.py

Run it only when the program's results change on purpose, and say so in
the change that commits the new file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> None:
    out: dict = {}
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    for wl in workloads.WORKLOADS.values():
        for sized in dict.fromkeys((wl, wl.small())):
            with tempfile.TemporaryDirectory(dir=scratch) as workdir:
                inputs = sized.make_inputs(None, workdir)
                outputs = sized.run_op(inputs, 0, os.cpu_count() or 1, workdir)
            out.setdefault(wl.name, {})[sized.key] = workloads.reference_values(outputs)
            print(wl.name, sized.key, out[wl.name][sized.key], flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
