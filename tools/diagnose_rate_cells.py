"""Diagnose the alpha = 1 acceptance rate cells on the golden seeds.

Reruns the acceptance suite's rate cells (base seed 20240601, worst-case
latent law, 30 replicates, median aggregation) and prints, per sample size:

- the median W_1 error, its replicate standard deviation and the local
  log-log slope to the previous grid point;
- for the POT cell (alpha = 1, s = 0.4, kappa_bar = 1), the population bias:
  W_1 to the truth of the k-means summary of the exact tail law above the
  threshold tau, drawn with POP_POINTS points;
- for the two-step cells (alpha = 0.5, 1, 2, s = 0.4), the errors of the
  magnitude stage (true directions) and the direction stage (true
  magnitudes) next to the full error.

Each section ends with the fitted slopes over 2^11 .. 2^17 (2^11 .. 2^kmax
when --kmax is below 17) and, when --kmax is above 17, over the extended
grid.  The sweeps use one thread per CPU; the numbers do not depend on the
thread count.

The stage decomposition is `tailfactor.harness.run_staged_experiment`, the
sweep the acceptance suite's criterion 2 runs: each two-step replicate fits
its directions once, and the full error and the direction stage share them.

Usage:
    PYTHONPATH=src python tools/diagnose_rate_cells.py [--kmax 20]
"""

import argparse
import math
import os

import numpy as np

from tailfactor import (
    ConvConfig,
    ExperimentConfig,
    TwoStepConfig,
    conventional_threshold,
    fit_loglog_slope,
    generate_dataset,
    kmeans,
    make_measure,
    run_convergence_experiment,
    spectral_measure_of,
    wasserstein_p,
)
from tailfactor.errors import NoExceedancesError
from tailfactor.estimators import _thresholded_points
from tailfactor.harness import run_staged_experiment
from tailfactor.sampling import model_at

BASE_SEED = 20240601
REPLICATES = 30
KMIN, KGRID = 11, 17
S = 0.4
CONV_ALPHA, KAPPA_BAR = 1.0, 1.0
TWO_STEP_ALPHAS = (0.5, 1.0, 2.0)
POP_POINTS = 400_000
POP_BLOCK = 1 << 20  # rows per population batch
# Stream ids above any replicate index, so the population draws share no
# entropy with the replicates: batch b at sample size n reads the stream
# POP_STREAM + (n << 32) + b.
POP_STREAM = 1_000_000


def _spread(res, n):
    """Median and replicate sd of the W_1 errors at n of the replicates that ran."""
    errors = [r.error for r in res.rows if r.n == n and not r.failed]
    return float(np.median(errors)), float(np.std(errors, ddof=1))


def _local_slopes(ns, values):
    return [None] + [
        math.log(b / a) / math.log(m / n)
        for n, m, a, b in zip(ns, ns[1:], values, values[1:])
    ]


def _fmt_slope(x):
    return "      " if x is None else f"{x:+.3f}"


def _fits(ns, series):
    """Fitted slopes over the acceptance grid, or the shorter grid ``ns``,
    and over ``ns`` if it is longer; each labelled by the grid it used."""
    for size in sorted({min(len(ns), KGRID - KMIN + 1), len(ns)}):
        span = f"2^{KMIN}..2^{KMIN + size - 1}"
        parts = [
            f"{name} {fit_loglog_slope(ns[:size], values[:size])[0]:+.3f}"
            for name, values in series
        ]
        print(f"  fitted slope over {span}: " + ", ".join(parts))


def population_bias(n, cfg: ConvConfig):
    """W_1 to the truth of the k-means summary of the law above tau.

    Draws by plain rejection from batches of POP_BLOCK rows of the
    worst-case law at n (`generate_dataset` on the spec `model_at` gives).
    """
    spec = model_at(None, cfg.alpha, cfg.s, "tilted-worst-case", n)
    truth = spectral_measure_of(spec.A, cfg.alpha)
    tau = conventional_threshold(n, cfg)
    kept, total, block = [], 0, 0
    while total < POP_POINTS:
        stream = POP_STREAM + (n << 32) + block
        batch = generate_dataset(spec, POP_BLOCK, BASE_SEED, stream_id=stream)
        block += 1
        try:
            above, _ = _thresholded_points(batch, tau)
        except NoExceedancesError:
            continue
        kept.append(above)
        total += above.shape[0]
    km = kmeans(np.concatenate(kept)[:POP_POINTS], spec.m)
    return tau, wasserstein_p(make_measure(km.centers, km.weights), truth, 1.0)


def diagnose_conv(grid, threads):
    conv = ConvConfig(kappa_bar=KAPPA_BAR, alpha=CONV_ALPHA, s=S)
    cfg = ExperimentConfig(
        alpha=CONV_ALPHA,
        s=S,
        n_grid=grid,
        replicates=REPLICATES,
        base_seed=BASE_SEED,
        conv=conv,
    )
    res = run_convergence_experiment(cfg, threads=threads)
    print(f"POT cell alpha={CONV_ALPHA:g} s={S} kappa_bar={KAPPA_BAR:g}")
    print(
        "         n  median W1     sd  sd/med   local  pop bias  "
        "bias*tau/ln tau  med*n^1/3  med*n^1/3/ln n"
    )
    medians = [_spread(res, n) for n in grid]
    local = _local_slopes(grid, [m for m, _ in medians])
    for n, (med, sd), slope in zip(grid, medians, local):
        tau, bias = population_bias(n, conv)
        scaled = med * n ** (1.0 / 3.0)
        print(
            f"  {n:>8}  {med:9.4f}  {sd:.4f}  {sd / med:6.1%}  {_fmt_slope(slope)}"
            f"  {bias:8.4f}  {bias * tau / math.log(tau):15.3f}"
            f"  {scaled:9.2f}  {scaled / math.log(n):14.3f}"
        )
    rate = [n ** (-1.0 / 3.0) * math.log(n) for n in grid]
    _fits(grid, [("median", [m for m, _ in medians]), ("n^-1/3 ln n", rate)])
    print(f"  failed replicates: {res.failure_rate['conv']:.1%}")


def diagnose_two_step(alpha, grid, threads):
    cfg = ExperimentConfig(
        alpha=alpha,
        s=S,
        n_grid=grid,
        replicates=REPLICATES,
        base_seed=BASE_SEED,
        two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0),
    )
    res, stages = run_staged_experiment(cfg, threads=threads)
    print(f"two-step cell alpha={alpha:g} s={S} kappa_tilde=0.3 kappa=1")
    print("         n  full W1     sd   local  magnitude   local  direction   local")
    full, sd = zip(*(_spread(res, n) for n in grid))
    magnitude, direction = zip(*(np.nanmedian(stages[n], axis=0) for n in grid))
    series = [("full", full), ("magnitude", magnitude), ("direction", direction)]
    local = [_local_slopes(grid, v) for _, v in series]
    for i, n in enumerate(grid):
        print(
            f"  {n:>8}  {full[i]:7.4f}  {sd[i]:.4f}  {_fmt_slope(local[0][i])}"
            f"  {magnitude[i]:9.4f}  {_fmt_slope(local[1][i])}"
            f"  {direction[i]:9.4f}  {_fmt_slope(local[2][i])}"
        )
    _fits(grid, series)
    mag_failed = sum(np.isnan(m) for n in grid for m, _ in stages[n])
    print(
        f"  failed replicates: {res.failure_rate['two-step']:.1%}; "
        f"magnitude stage failed: {mag_failed}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kmax", type=int, default=KGRID, help="grid ends at 2^kmax")
    args = parser.parse_args(argv)
    if args.kmax < KMIN + 2:
        parser.error(f"--kmax must be at least {KMIN + 2}")
    grid = tuple(2**k for k in range(KMIN, args.kmax + 1))
    threads = os.cpu_count() or 1
    diagnose_conv(grid, threads)
    for alpha in TWO_STEP_ALPHAS:
        diagnose_two_step(alpha, grid, threads)


if __name__ == "__main__":
    main()
