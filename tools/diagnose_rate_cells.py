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

Each section ends with the fitted slopes over 2^11 .. 2^17 and, when --kmax
is above 17, over the extended grid.  The sweeps use one thread per CPU; the
numbers do not depend on the thread count.

The stage decomposition is `tailfactor.harness.run_staged_experiment`, the
sweep the acceptance suite's criterion 2 runs.

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
    RngStream,
    TwoStepConfig,
    conventional_threshold,
    fit_loglog_slope,
    kmeans,
    make_measure,
    run_convergence_experiment,
    sample_pareto,
    spectral_measure_of,
    wasserstein_p,
)
from tailfactor.harness import run_staged_experiment
from tailfactor.sampling import tail_threshold, worst_case_tilts

BASE_SEED = 20240601
REPLICATES = 30
KMIN, KGRID = 11, 17
S = 0.4
CONV_ALPHA, KAPPA_BAR = 1.0, 1.0
TWO_STEP_ALPHAS = (0.5, 1.0, 2.0)
POP_POINTS = 400_000
# Stream ids above any replicate index, so the population draws share no
# entropy with the replicates.
POP_STREAM = 1_000_000


def _spread(errors):
    return float(np.median(errors)), float(np.std(errors, ddof=1))


def _local_slopes(ns, values):
    return [None] + [
        math.log(b / a) / math.log(m / n)
        for n, m, a, b in zip(ns, ns[1:], values, values[1:])
    ]


def _fmt_slope(x):
    return "      " if x is None else f"{x:+.3f}"


def _fits(ns, series):
    """Fitted slopes over the acceptance grid and, if longer, the full grid."""
    spans = [(f"2^{KMIN}..2^{KGRID}", KGRID - KMIN + 1)]
    if len(ns) > spans[0][1]:
        spans.append((f"2^{KMIN}..2^{KMIN + len(ns) - 1}", len(ns)))
    for span, size in spans:
        parts = [
            f"{name} {fit_loglog_slope(ns[:size], values[:size])[0]:+.3f}"
            for name, values in series
        ]
        print(f"  fitted slope over {span}: " + ", ".join(parts))


def population_bias(n, cfg: ConvConfig):
    """W_1 to the truth of the k-means summary of the law above tau.

    Above tau the worst-case model is X = A Z with Z i.i.d. Pareto(alpha)
    conditioned on ||A Z||_1 > tau, provided tau clears the latent tail
    threshold scaled by the largest column norm.  Draws by plain rejection
    from the unconditioned Pareto sampler.
    """
    A = np.diag(worst_case_tilts(n, cfg.s))
    truth = spectral_measure_of(A, cfg.alpha)
    tau = conventional_threshold(n, cfg)
    if tau < A.sum(axis=0).max() * tail_threshold(n, cfg.alpha, cfg.s):
        raise ValueError(f"tau={tau:.4g} reaches below the latent tail threshold")
    gen = RngStream(BASE_SEED, POP_STREAM + n).generator()
    kept, total = [], 0
    while total < POP_POINTS:
        x = sample_pareto(cfg.alpha, gen, size=(1 << 20, 2)) @ A.T
        norms = x.sum(axis=1)
        above = x[norms > tau] / norms[norms > tau, None]
        kept.append(above)
        total += above.shape[0]
    km = kmeans(np.concatenate(kept)[:POP_POINTS], A.shape[1])
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
    medians = []
    for n in grid:
        errs = [r.error for r in res.rows if r.n == n and not r.failed]
        medians.append(_spread(errs))
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
        two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=alpha, s=S),
    )
    res, stages = run_staged_experiment(cfg, threads=threads)
    print(f"two-step cell alpha={alpha:g} s={S} kappa_tilde=0.3 kappa=1")
    print(
        "         n  full W1     sd   local  magnitude   local  direction   local"
    )
    table = []
    for n in grid:
        full = [r.error for r in res.rows if r.n == n and not r.failed]
        table.append((_spread(full), np.nanmedian(stages[n], axis=0)))
    full = [row[0][0] for row in table]
    magnitude = [row[1][0] for row in table]
    direction = [row[1][1] for row in table]
    local = [_local_slopes(grid, v) for v in (full, magnitude, direction)]
    for i, n in enumerate(grid):
        print(
            f"  {n:>8}  {full[i]:7.4f}  {table[i][0][1]:.4f}  {_fmt_slope(local[0][i])}"
            f"  {magnitude[i]:9.4f}  {_fmt_slope(local[1][i])}"
            f"  {direction[i]:9.4f}  {_fmt_slope(local[2][i])}"
        )
    _fits(
        grid,
        [("full", full), ("magnitude", magnitude), ("direction", direction)],
    )
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
