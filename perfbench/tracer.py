"""Spans and FFT counters for the traced benchmark run.

Every layer is measured from outside the program:

* each ``scipy.fft`` and ``numpy.fft`` transform (complex and real, 1-D and
  n-D) is replaced by a counting wrapper.  ``install_fft_counters`` must run
  before ``formbound`` is imported, so that a module doing
  ``from scipy.fft import rfftn`` binds the counting wrapper too;
* each public function of each ``formbound`` module is wrapped in a span,
  and the wrapper is bound in every ``formbound`` namespace that bound the
  function (``verdict`` imports ``form_norm`` by name, for instance).  The
  hand-written ``__init__`` of a public class (``DyadicTree``) is wrapped
  as well;
* ``ThreadPoolExecutor.submit`` carries the submitting thread's open spans
  into the worker, so spans run in the pipeline's pool get their parent.

Spans stay in memory until ``layer_metrics`` reads them.  Only public names
and the FFT libraries are used, so refactors of private helpers do not
break the trace.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np
import numpy.fft
import scipy.fft

LAYERS = ("cli", "verdict", "hodge", "oscillation", "measures", "formnorm",
          "capacity", "torus", "presets", "report", "fbf")

FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
             "hfft", "ihfft", "hfft2", "ihfft2", "hfftn", "ihfftn")

MIB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "layer", "parent", "thread", "start", "end",
                 "ffts", "info")

    def __init__(self, name: str, layer: str, parent: "Span | None"):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = threading.get_ident()
        self.start = self.end = 0.0
        self.ffts = 0          # transforms issued while this span was open
        self.info = None       # what a result hook read from the call

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the union of its direct children's intervals.

    The union matters because children run in the pipeline's pool overlap.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[id(s)] if c.end > s.start and c.start < s.end)
        out[id(s)] = s.seconds - covered
    return out


class Tracer:
    """Records spans and FFT counts while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans: list[Span] = []
        self.fft_calls = 0
        self.fft_seconds = 0.0
        self.fft_bytes = 0
        self.layer_ffts: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- per-thread span stack -------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- FFT counters -----------------------------------------------------

    def install_fft_counters(self) -> None:
        for module in (scipy.fft, numpy.fft):
            for name in FFT_NAMES:
                fn = getattr(module, name, None)
                if fn is not None:
                    self._patch(module, name, self._counted(fn))

    def _counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            local = tracer._local
            if not tracer.active or getattr(local, "in_fft", False):
                return fn(*args, **kwargs)
            local.in_fft = True
            try:
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                seconds = perf_counter() - t0
            finally:
                local.in_fft = False
            x = args[0] if args else kwargs.get("x", kwargs.get("a"))
            nbytes = np.asarray(x).nbytes + np.asarray(out).nbytes
            stack = tracer._stack()
            with tracer._lock:
                tracer.fft_calls += 1
                tracer.fft_seconds += seconds
                tracer.fft_bytes += nbytes
                for layer in {s.layer for s in stack}:
                    tracer.layer_ffts[layer] += 1
                for s in stack:
                    s.ffts += 1
            return out

        return counted

    # -- spans around public functions ------------------------------------

    def wrap_modules(self, modules) -> None:
        """Wrap the public functions of ``modules`` (formbound modules, each
        a layer named after the module) in spans, in every namespace."""
        by_layer = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        hooks = _result_hooks(by_layer)
        wrappers = {}
        for layer, module in by_layer.items():
            names = getattr(module, "__all__", None)
            if names is None:
                names = [n for n in vars(module) if not n.startswith("_")]
            for name in names:
                obj = getattr(module, name, None)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                hook = hooks.get((layer, name), hooks.get((layer, "*")))
                if inspect.isfunction(obj):
                    wrappers[obj] = self._spanned(obj, layer, name, hook)
                elif inspect.isclass(obj) and not dataclasses.is_dataclass(obj):
                    init = obj.__dict__.get("__init__")
                    if inspect.isfunction(init):
                        self._patch(obj, "__init__",
                                    self._spanned(init, layer, name, None))
        for module in by_layer.values():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        self._patch(ThreadPoolExecutor, "submit",
                    self._carrying(ThreadPoolExecutor.submit))

    def _spanned(self, fn, layer: str, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = Span(name, layer, stack[-1] if stack else None)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return spanned

    def _carrying(self, submit):
        tracer = self

        def carrying_submit(pool, fn, /, *args, **kwargs):
            parents = list(tracer._stack())

            def run(*a, **k):
                stack = tracer._stack()
                saved = stack[:]
                stack[:] = parents
                try:
                    return fn(*a, **k)
                finally:
                    stack[:] = saved

            return submit(pool, run, *args, **kwargs)

        return carrying_submit

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-op layer metrics from the spans recorded so far."""
        spans = self.spans
        selfs = self_times(spans)
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            mine = [s for s in spans if s.layer == layer]
            out[f"{layer}.self_s"] = (sum(selfs[id(s)] for s in mine) / ops, "s")
            out[f"{layer}.calls"] = (len(mine) / ops, "count")
            out[f"{layer}.fft_calls"] = (self.layer_ffts[layer] / ops, "count")

        def ratio(num, den):
            return num / den if den else 0.0

        def named(layer, *names):
            return [s for s in spans if s.layer == layer and s.name in names]

        out["torus.fft_s"] = (self.fft_seconds / ops, "s")
        out["torus.fft_mb"] = (self.fft_bytes / MIB / ops, "MiB")
        out["torus.fft_pair_ms"] = (
            2e3 * ratio(self.fft_seconds, self.fft_calls), "ms")

        estimates = [s for s in spans
                     if s.layer == "formnorm" and isinstance(s.info, Estimate)]
        iters = sum(s.info.iterations for s in estimates)
        out["formnorm.estimates"] = (len(estimates) / ops, "count")
        out["formnorm.iterations"] = (iters / ops, "count")
        out["formnorm.iteration_ms"] = (
            1e3 * ratio(sum(s.seconds for s in estimates), iters), "ms")
        out["formnorm.ffts_per_iteration"] = (
            ratio(sum(s.ffts for s in estimates), iters), "count")

        ascents = [s for s in spans if isinstance(s.info, Ascent)]
        steps = sum(s.info.steps for s in ascents)
        ascent_ids = {id(s) for s in ascents}
        inner = sum(s.ffts for s in estimates if _nested_in(s, ascent_ids))
        out["formnorm.ascent_steps"] = (steps / ops, "count")
        out["formnorm.ffts_per_ascent_step"] = (
            ratio(sum(s.ffts for s in ascents) - inner, steps), "count")

        solves = named("capacity", "capacity")
        gauges = named("capacity", "gauge_check")
        out["capacity.solves"] = (len(solves) / ops, "count")
        out["capacity.ffts_per_solve"] = (
            ratio(sum(s.ffts for s in solves), len(solves)), "count")
        out["capacity.solve_ms"] = (
            1e3 * ratio(sum(s.seconds for s in solves), len(solves)), "ms")
        out["capacity.gauge_ms"] = (
            1e3 * ratio(sum(s.seconds for s in gauges), len(gauges)), "ms")

        osc = named("oscillation", "bmo_norm", "vmo_profile")
        osc_ids = {id(s) for s in osc}
        top = [s for s in osc if not _nested_in(s, osc_ids)]
        entries = sum(1 for s in osc if s.info == "scalar")
        out["oscillation.entries"] = (entries / ops, "count")
        out["oscillation.entry_ms"] = (
            1e3 * ratio(sum(s.seconds for s in top), entries), "ms")

        trees = named("measures", "DyadicTree")
        growth = named("measures", "ball_growth_test")
        radii = sum(s.info or 0 for s in growth)
        out["measures.tree_ms"] = (
            1e3 * ratio(sum(s.seconds for s in trees), len(trees)), "ms")
        out["measures.radii"] = (radii / ops, "count")
        out["measures.radius_ms"] = (
            1e3 * ratio(sum(s.seconds for s in growth), radii), "ms")

        decs = [s for s in spans
                if s.layer == "hodge" and s.name.endswith("decompose")]
        out["hodge.decompositions"] = (len(decs) / ops, "count")
        out["hodge.decompose_ms"] = (
            1e3 * ratio(sum(s.seconds for s in decs), len(decs)), "ms")

        pipes = [s for s in spans
                 if s.layer == "verdict" and s.name.startswith("assess_")]
        pipe_ids = {id(s) for s in pipes}
        child_s = sum(s.seconds for s in spans
                      if s.parent is not None and id(s.parent) in pipe_ids)
        out["verdict.parallelism"] = (
            ratio(child_s, sum(s.seconds for s in pipes)), "ratio")

        reads = named("fbf", "read_field")
        out["fbf.read_mb"] = (sum(s.info or 0 for s in reads) / MIB / ops, "MiB")
        return out


@dataclasses.dataclass(frozen=True)
class Estimate:
    """A FormEstimate returned by a formnorm function."""
    iterations: int


@dataclasses.dataclass(frozen=True)
class Ascent:
    """The nonlinear ascent's step count."""
    steps: int


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _result_hooks(by_layer: dict) -> dict:
    """``hook(args, kwargs, result)`` runs after each traced call of the
    keyed function (``"*"``: any function of the layer); what it returns
    is kept as the span's ``info``."""
    geometric_radii = by_layer["measures"].geometric_radii

    def estimate(args, kwargs, result):
        if hasattr(result, "iterations") and hasattr(result, "value"):
            return Estimate(int(result.iterations))
        return None

    def ascent(args, kwargs, result):
        return Ascent(int(result[0].iterations))

    def entry(args, kwargs, result):
        field = _arg(args, kwargs, 0, "field")
        return "matrix" if hasattr(field, "entries") else "scalar"

    def radii(args, kwargs, result):
        chosen = _arg(args, kwargs, 1, "radii")
        if chosen is None:
            chosen = geometric_radii(_arg(args, kwargs, 0, "measure").grid)
        return len(chosen)

    def file_size(args, kwargs, result):
        return os.path.getsize(_arg(args, kwargs, 0, "path"))

    return {
        ("formnorm", "*"): estimate,
        ("formnorm", "nonlinear_form_constant"): ascent,
        ("oscillation", "bmo_norm"): entry,
        ("oscillation", "vmo_profile"): entry,
        ("measures", "ball_growth_test"): radii,
        ("fbf", "read_field"): file_size,
    }


def _nested_in(span: Span, ids: set) -> bool:
    """Whether an ancestor of ``span`` has its id in ``ids``."""
    p = span.parent
    while p is not None:
        if id(p) in ids:
            return True
        p = p.parent
    return False
