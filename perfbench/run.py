"""formbound benchmark: one workload per process, closed loop, checked ops.

    python3 perfbench/run.py --workload certify3d --seed 1 --seconds 20 --trace 0

With ``--trace 0`` one client issues ops back to back for ``--seconds``
seconds (at least one op) and the end-to-end metrics are printed.  With
``--trace 1`` the run makes three ops: one untraced, one traced, and one
untraced at one thread, and prints the per-layer metrics.  Every op's
outputs are checked (see workloads.check), and reports of repeated ops on
identical input must be byte-identical.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# set-up is repeated this many times per run and its median reported
SETUPS = 3

# The timed loop runs the program at one thread.  On the two-core reference
# box a second thread made no op faster (capacity3d 5.8 s against 5.9 s;
# ascent16 twice as slow) and made the op time less steady: over five seeds
# it spread by 0.81 of the median on ascent16 and 0.21 on capacity3d,
# against 0.08 on capacity3d at one thread.  The traced run runs at every
# core the process may use, and times the op at one thread beside it.
TIMED_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0, as the kernel lists them."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
            if level in ("2", "3"):
                out[f"L{level}"] = size
    except OSError:
        pass
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _clear_caches() -> None:
    """Empty every functools cache in formbound, so each set-up refills them."""
    for name, module in list(sys.modules.items()):
        if name == "formbound" or name.startswith("formbound."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


# workloads imports formbound, so it is imported only after main has timed
# the formbound import and, in a traced run, installed the FFT counters

def _warm_up(wl, workdir: str) -> None:
    """Fill the symbol and FFT plan caches at the workload's grid."""
    import workloads
    out = os.path.join(workdir, "warmup.json")
    workloads.run_cli("warmup", ["decompose", "--dim", str(wl.dim), "--grid",
                                 str(wl.grid), "--preset", "vortex"], out)


def _op(wl, inputs, seed, threads, workdir, reference):
    """Run one op; returns (seconds, cpu seconds, raw reports, problems)."""
    import workloads
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        outputs = wl.run_op(inputs, seed, threads, workdir)
    except Exception:
        # a failed op is counted, not fatal: the run goes on to report it
        traceback.print_exc()
        outputs = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if outputs is None:
        return wall, cpu, None, ["op raised"]
    try:
        problems = workloads.check(wl, outputs, reference)
    except (KeyError, TypeError, ValueError) as exc:
        problems = [f"outputs could not be checked: {exc!r}"]
    return wall, cpu, [o.raw for o in outputs], problems


def _report_problems(problems) -> None:
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)


def timed_run(wl, inputs, seed, threads, seconds, workdir, reference):
    walls, cpus, failed, first = [], [], 0, None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, cpu, raws, problems = _op(wl, inputs, seed, threads, workdir, reference)
        if first is None:
            first = raws
        elif raws != first:
            problems.append("report bytes differ from the first op's")
        _report_problems(problems)
        walls.append(wall)
        cpus.append(cpu)
        failed += bool(problems)
    print("op_s " + " ".join(f"{w:.4f}" for w in walls))
    metrics = {
        "op_s_p50": (statistics.median(walls), "s"),
        "cpu_s_per_op": (statistics.median(cpus), "s"),
    }
    return len(walls), failed, metrics


def traced_run(wl, inputs, seed, threads, workdir, reference, tracer, modules):
    results = []
    # untraced, traced, then untraced at one thread
    for n_threads, traced in ((threads, False), (threads, True), (1, False)):
        if traced:
            tracer.wrap_modules(modules)
            tracer.active = True
        try:
            results.append(_op(wl, inputs, seed, n_threads, workdir, reference))
        finally:
            tracer.active = False
            if traced:
                tracer.restore()
    failed = 0
    for _wall, _cpu, raws, problems in results:
        if raws != results[0][2]:
            problems.append("report bytes differ between traced, untraced "
                            "and one-thread ops")
        _report_problems(problems)
        failed += bool(problems)
    metrics = tracer.layer_metrics(ops=1)
    metrics["report.bytes"] = (float(sum(len(r) for r in results[1][2] or ())), "bytes")
    metrics["run.trace_overhead"] = (results[1][0] / results[0][0], "ratio")
    metrics["run.op_s_threads1"] = (results[2][0], "s")
    return len(results), failed, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "formbound", "cli.py")):
        print(f"error: no formbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    cores = len(os.sched_getaffinity(0))
    threads = cores if args.trace else TIMED_THREADS
    os.environ["FORMBOUND_THREADS"] = str(threads)
    # the BLAS pool under numpy follows the same budget; it is sized when
    # numpy is imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)

    t0 = time.perf_counter()
    import numpy
    import scipy
    import tracer as tracing
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install_fft_counters()   # before formbound binds any name
    modules = [importlib.import_module(f"formbound.{m}") for m in tracing.LAYERS]
    import_s = time.perf_counter() - t0
    if not all(m.__file__.startswith(SRC) for m in modules):
        print("error: formbound was not imported from this checkout", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[wl.name][wl.key]

    workdir = os.path.join(WORK, f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUPS):
            _clear_caches()
            s0 = time.perf_counter()
            inputs = wl.make_inputs(args.seed, workdir)
            _warm_up(wl, workdir)
            setups.append(time.perf_counter() - s0)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            ops, failed, metrics = traced_run(wl, inputs, args.seed, threads,
                                              workdir, reference, tracer, modules)
        else:
            ops, failed, metrics = timed_run(wl, inputs, args.seed, threads,
                                             args.seconds, workdir, reference)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    env = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores_affinity": cores, "threads": threads,
        "grid": f"{wl.grid}^{wl.dim}", "array_mib_complex128": wl.array_mib,
        "cache": _cache_sizes(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": _git_commit(), "loop": "closed, 1 client",
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"ops {ops}  failed {failed}  fail_ratio {failed / ops:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  (n={ops} ops)" if name == "op_s_p50" else ""))
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
