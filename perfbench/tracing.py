"""In-memory spans around tailfactor's public functions.

The benchmark measures each layer from outside: it replaces a public
function (a name in ``tailfactor.__all__`` or a ``tailfactor.cli`` entry
point) with a wrapper wherever a tailfactor module binds it, so calls made
inside the package are seen too.  Each span records name, start, end,
parent, thread, the replicate key ``(n, stream_id)``, process CPU and
minor faults, plus counters read from the call's arguments and result.
"""

import inspect
import itertools
import resource
import statistics
import sys
import threading
import time
from functools import wraps
from pathlib import Path

import numpy as np

import tailfactor
from tailfactor import cli


def _sampling_counts(args, result):
    spec, n = args["spec"], args["n"]
    z = np.linalg.solve(spec.A, result.xs.T).T
    t = spec.zeta * float(n) ** ((1.0 - 2.0 * spec.s) / spec.alpha)
    return {"observations": n, "tail_vectors": int((np.abs(z).sum(axis=1) >= t).sum())}


def _bytes_written(args, result):
    out = Path(args["out_dir"])
    return {"bytes": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}


# Name in tailfactor.__all__, or ``cli.main`` -> (span name, counters read
# from the bound arguments and the result).
WRAPPED = {
    "generate_dataset": ("sampling", _sampling_counts),
    "estimate_conventional": ("estimators.conv", lambda a, r: {"exceedances": r[1]}),
    "estimate_two_step": ("estimators.two_step", lambda a, r: {"exceedances": r[2]}),
    "empirical_angular_measure": ("estimators.empirical", lambda a, r: {"atoms": r[0].n_atoms}),
    "kmeans": (
        "numerics.kmeans",
        lambda a, r: {"points": len(a["points"]), "best_iters": len(r.history)},
    ),
    "fit_loglog_slope": ("numerics.slope_fit", None),
    "wasserstein_pp": (
        "transport",
        lambda a, r: {"cells": a["mu"].n_atoms * a["nu"].n_atoms},
    ),
    "run_convergence_experiment": ("harness.sweep", None),
    "emit_outputs": ("harness.emit_outputs", _bytes_written),
    "cli.main": ("cli", None),
}


def _public(name):
    """The function a WRAPPED key names."""
    return cli.main if name == "cli.main" else getattr(tailfactor, name)


def _replace_everywhere(original, replacement):
    """Rebind every tailfactor module attribute that is ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "tailfactor" and not mod_name.startswith("tailfactor."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _replicate_key(args):
    if "stream_id" in args and "n" in args:
        return (int(args["n"]), int(args["stream_id"]))
    batch = args.get("batch")
    if isinstance(batch, tailfactor.SampleBatch):
        return (batch.n, batch.stream_id)
    return None


class Tracer:
    """Collects spans (full mode), or only keeps sweep results (light mode).

    Light mode wraps ``run_convergence_experiment`` alone, so the benchmark
    can read the in-memory result of a sweep run through the CLI.
    """

    def __init__(self, full: bool):
        self.full = full
        self.spans = []
        self.results = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.get_ident()

    def install(self):
        names = WRAPPED if self.full else ("run_convergence_experiment",)
        for name in names:
            original = _public(name)
            _replace_everywhere(original, self._wrap(name, original))

    def _wrap(self, name, fn):
        if not self.full:

            @wraps(fn)
            def keep(*args, **kwargs):
                out = fn(*args, **kwargs)
                self.results.append(out)
                return out

            return keep

        span_name, counts = WRAPPED[name]
        sig = inspect.signature(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            call = sig.bind(*args, **kwargs)
            call.apply_defaults()
            bound = call.arguments
            stack = self._stacks.setdefault(threading.get_ident(), [])
            main = self._stacks.get(self._main) or [None]
            parent = stack[-1] if stack else main[-1]
            key = _replicate_key(bound)
            if key is None and parent is not None:
                key = parent["key"]
            span = {"id": next(self._ids), "name": span_name, "parent": parent and parent["id"],
                    "thread": threading.get_ident(), "key": key}
            stack.append(span)
            ru0 = resource.getrusage(resource.RUSAGE_SELF)
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                ru1 = resource.getrusage(resource.RUSAGE_SELF)
                stack.pop()
            span["cpu_s"] = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime)
            span["minor_faults"] = ru1.ru_minflt - ru0.ru_minflt
            if name == "run_convergence_experiment":
                self.results.append(out)
            self.spans.append(span)
            if counts is not None:
                c0 = time.perf_counter()
                span.update(counts(bound, out))
                # The tracer's own work, as a sibling span so that it counts
                # as covered, not as the parent's self time.
                self.spans.append({"id": next(self._ids), "name": "trace.counters",
                                   "parent": span["parent"], "thread": span["thread"],
                                   "key": key, "start": c0, "end": time.perf_counter()})
            return out

        return traced


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer busy/self times and counters from one pass's spans.

    CPU time and minor faults are process-wide deltas over each span, so
    they include helper threads (OpenBLAS) and, with a thread pool, work
    running concurrently on other threads.  ``cli.config_s`` is the self
    time of ``cli.main``: argument and config parsing and whatever else the
    CLI does besides the sweep and ``emit_outputs``.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def of(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in of(name))

    def total(name, field):
        return sum(s[field] for s in of(name))

    def self_s(name):
        return sum(
            (s["end"] - s["start"])
            - _covered([(c["start"], c["end"]) for c in children.get(s["id"], ())], s["start"], s["end"])
            for s in of(name)
        )

    solves = [s["end"] - s["start"] for s in of("transport")]
    solve_q = statistics.quantiles(solves, n=4) if len(solves) > 1 else [sum(solves)] * 3
    # Thread capacity of the sweeps, less the tracer's own counter work.
    sweep_busy = capacity = 0.0
    for s in of("harness.sweep"):
        capacity += (s["end"] - s["start"]) * threads
        for c in children.get(s["id"], ()):
            if c["name"] == "trace.counters":
                capacity -= c["end"] - c["start"]
            else:
                sweep_busy += c["end"] - c["start"]
    return {
        "sampling.busy_s": busy("sampling"),
        "sampling.cpu_s": total("sampling", "cpu_s"),
        "sampling.minor_faults": total("sampling", "minor_faults"),
        "sampling.observations": total("sampling", "observations"),
        "sampling.tail_vectors": total("sampling", "tail_vectors"),
        "numerics.kmeans.busy_s": busy("numerics.kmeans"),
        "numerics.kmeans.calls": len(of("numerics.kmeans")),
        "numerics.kmeans.points": total("numerics.kmeans", "points"),
        "numerics.kmeans.best_iters": total("numerics.kmeans", "best_iters"),
        "numerics.slope_fit.busy_s": busy("numerics.slope_fit"),
        "estimators.conv.self_s": self_s("estimators.conv"),
        "estimators.conv.exceedances": total("estimators.conv", "exceedances"),
        "estimators.two_step.self_s": self_s("estimators.two_step"),
        "estimators.two_step.exceedances": total("estimators.two_step", "exceedances"),
        "estimators.empirical.busy_s": busy("estimators.empirical"),
        "estimators.empirical.atoms": total("estimators.empirical", "atoms"),
        "transport.busy_s": busy("transport"),
        "transport.solves": len(of("transport")),
        "transport.cells": total("transport", "cells"),
        "transport.solve_s.p50": solve_q[1],
        "transport.solve_s.p75": solve_q[2],
        "harness.self_s": self_s("harness.sweep"),
        "harness.parallel_efficiency": sweep_busy / capacity if capacity else 0.0,
        "harness.emit_outputs.busy_s": busy("harness.emit_outputs"),
        "harness.bytes_written": total("harness.emit_outputs", "bytes"),
        "cli.config_s": self_s("cli"),
    }
