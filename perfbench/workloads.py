"""The benchmark's workloads, built from a seed.

Each workload is a batch job with one client: one pass is a whole
convergence sweep, or a fixed list of exact transport solves.  Every pass of
a run uses the run's seed as its base seed, so all passes compute the same
outputs and one reference serves them all.
Every call into tailfactor goes through ``tailfactor.<name>`` (or
``tailfactor.cli``) at call time, so the tracer's wrappers see it.

``run`` is the timed pass.  ``summary`` reads the outputs after the timer
stops; ``reference`` recomputes, untimed, what the gates compare against.
"""

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

import tailfactor
from checks import linprog_wpp
from tailfactor import cli
from tailfactor.errors import TailFactorError

GRID = tuple(2**k for k in range(11, 18))
TINY_GRID = (256, 512, 1024)
OUTPUT_FILES = ("rows.csv", "slopes.csv")


def _digests(out_dir: Path) -> dict:
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in OUTPUT_FILES}


def _sweep_summary(result, out_dir: Path) -> dict:
    failures = Counter(r.failure_kind for r in result.rows if r.failed)
    return {
        "attempted": len(result.rows),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "all_finite": all(math.isfinite(r.error) for r in result.rows if not r.failed),
        "slopes": {tag: fit[0] for tag, fit in result.slope_fits.items()},
        "last_error": {tag: errs[-1] for tag, (_, errs) in result.aggregated.items()},
        "digests": _digests(out_dir),
    }


class ConvSweep:
    """Conventional estimator only, alpha=2, s=0.2, through the Python API."""

    threads = 1

    def __init__(self, seed, work_dir, tiny, kappa_bar, replicates):
        self.work_dir = work_dir
        self.cfg = tailfactor.ExperimentConfig(
            alpha=2.0,
            s=0.2,
            n_grid=TINY_GRID if tiny else GRID,
            replicates=3 if tiny else replicates,
            base_seed=seed,
            conv=tailfactor.ConvConfig(kappa_bar=kappa_bar, alpha=2.0, s=0.2),
        )

    def run(self):
        tailfactor.run_convergence_experiment(self.cfg)

    def summary(self, tracer):
        out = self.work_dir / "out"
        out.mkdir()
        tailfactor.emit_outputs(tracer.results[-1], out)
        return _sweep_summary(tracer.results[-1], out)

    def reference(self):
        return {}


class TwoStepThreads:
    """Both estimators, alpha=2, s=0.4, through the CLI with two threads."""

    threads = 2

    def __init__(self, seed, work_dir, tiny, replicates):
        self.seed = seed
        self.work_dir = work_dir
        self.config = work_dir / "two_step.json"
        doc = {
            "model": {"A": "worst-case-diag", "alpha": 2.0, "s": 0.4, "latent": "tilted-worst-case"},
            "estimator": {
                "conv": {"kappa_bar": 1.0, "collapse_k": 2},
                "two_step": {"kappa_tilde": 0.3, "kappa": 1.0, "m": 2},
            },
            "experiment": {
                "n_grid": list(TINY_GRID if tiny else GRID),
                "replicates": 3 if tiny else replicates,
                "base_seed": 20240601,
                "aggregate": "median",
                "p": 1,
                "estimators": ["conv", "two-step"],
            },
        }
        self.config.write_text(json.dumps(doc, indent=2) + "\n")

    def _cli(self, threads, out):
        argv = ["--threads", str(threads), "--seed-override", str(self.seed),
                "experiment", "--config", str(self.config), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"tailfactor {' '.join(argv)} exited with {rc}")

    def run(self):
        self._cli(self.threads, self.work_dir / "out")

    def summary(self, tracer):
        return _sweep_summary(tracer.results[-1], self.work_dir / "out")

    def reference(self):
        out = self.work_dir / "serial"
        self._cli(1, out)
        return {"serial_digests": _digests(out)}


# Fixed non-negative, invertible d=3 loading matrix of the transport workload.
TRANSPORT_A = ((1.0, 0.3, 0.2), (0.2, 1.0, 0.4), (0.1, 0.3, 1.0))
# Samples per replicate for each pair; the top 1/64 of the l1-norms are kept,
# giving measures of 64 and 72 atoms.  The pivot count, and so the solve
# time, varies from problem to problem; 72 solves per pass keep the pass
# time from hanging on a few of them.
TRANSPORT_PAIRS = ((4096, 4608),) * 36
TINY_PAIRS = ((1600, 2000),)
TOP_SHARE = 1.0 / 64.0


class TransportD3:
    """Exact W_1 and W_2 between empirical angular measures in d=3."""

    threads = 1

    def __init__(self, seed, work_dir, tiny):
        self.seed = seed
        self.spec = tailfactor.ModelSpec(
            A=np.array(TRANSPORT_A), alpha=1.0, s=0.2, latent_kind="iid-pareto"
        )
        self.pairs = TINY_PAIRS if tiny else TRANSPORT_PAIRS
        self.objectives = []
        self.failures = Counter()

    def problems(self):
        """(mu, nu, p) for every solve, from independent replicates."""
        out = []
        for j, sizes in enumerate(self.pairs):
            measures = []
            for k, n in enumerate(sizes):
                batch = tailfactor.generate_dataset(self.spec, n, self.seed, stream_id=2 * j + k)
                tau = float(np.quantile(np.abs(batch.xs).sum(axis=1), 1.0 - TOP_SHARE))
                measures.append(tailfactor.empirical_angular_measure(batch, tau)[0])
            out.extend((measures[0], measures[1], p) for p in (1.0, 2.0))
        return out

    def run(self):
        for mu, nu, p in self.problems():
            try:
                obj, _ = tailfactor.wasserstein_pp(mu, nu, p)
            except TailFactorError as exc:
                self.failures[type(exc).__name__] += 1
                obj = float("nan")
            self.objectives.append(obj)

    def summary(self, tracer):
        text = ",".join(float(v).hex() for v in self.objectives)
        return {
            "attempted": len(self.objectives),
            "failed": sum(self.failures.values()),
            "failures": dict(self.failures),
            "all_finite": all(math.isfinite(v) for v in self.objectives),
            "objectives": self.objectives,
            "digests": {"objectives": hashlib.sha256(text.encode()).hexdigest()},
        }

    def reference(self):
        return {"linprog": [linprog_wpp(mu, nu, p) for mu, nu, p in self.problems()]}


# name -> constructor(seed, work_dir, tiny)
WORKLOADS = {
    "conv-sampler": lambda seed, work_dir, tiny: ConvSweep(seed, work_dir, tiny, 0.5, 20),
    "conv-kmeans": lambda seed, work_dir, tiny: ConvSweep(seed, work_dir, tiny, 0.1, 4),
    "two-step-threads": lambda seed, work_dir, tiny: TwoStepThreads(seed, work_dir, tiny, 20),
    "transport-d3": TransportD3,
}
