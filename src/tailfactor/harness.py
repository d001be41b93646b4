"""Convergence-rate experiment driver.

Sweeps the sample-size grid, runs replicates on independent RNG streams,
measures the Wasserstein error of each estimator against the n-dependent
ground truth, aggregates per grid point and fits log-log slopes.  Results
are bit-identical for any worker count.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    ExperimentAbortedError,
    IoError,
    TailFactorError,
)
from .estimators import (
    ConvConfig,
    TwoStepConfig,
    check_square_model,
    estimate_conventional,
    estimate_directions,
    estimate_two_step,
    two_step_from_directions,
)
from .measures import _as_int, _fmt, spectral_measure_of
from .numerics import fit_loglog_slope
from .sampling import check_sample_size, generate_dataset, model_at, pareto_draw
from .svg import line_chart
from .transport import _l1_costs, check_p, wasserstein_p

ESTIMATOR_TAGS = ("conv", "two-step")


def check_n_grid(n_grid) -> None:
    """ConfigError unless the sizes ``n_grid`` are >= 3 strictly increasing
    ones, all >= 3."""
    if len(n_grid) < 3 or n_grid[0] < 3 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("n_grid needs >= 3 strictly increasing sizes, all >= 3")


def check_replicates(replicates) -> None:
    """ConfigError unless at least one replicate runs."""
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")


def check_estimators(tags) -> None:
    """ConfigError unless at least one estimator tag is given."""
    if not tags:
        raise ConfigError("at least one estimator must be configured")


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float
    s: float
    n_grid: tuple
    replicates: int
    base_seed: int
    conv: Optional[ConvConfig] = None
    two_step: Optional[TwoStepConfig] = None
    p: float = 1.0
    latent_kind: str = "tilted-worst-case"
    fixed_A: Optional[np.ndarray] = None  # None => worst-case diagonal per n

    def __post_init__(self):
        try:
            grid = tuple(_as_int("n_grid", n) for n in self.n_grid)
            for name in ("replicates", "base_seed"):
                object.__setattr__(self, name, _as_int(name, getattr(self, name)))
            check_p(self.p)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "n_grid", grid)
        check_n_grid(grid)
        check_replicates(self.replicates)
        check_estimators(self.tags)
        if self.conv is not None and (self.conv.alpha, self.conv.s) != (self.alpha, self.s):
            got = f"ConvConfig has alpha={self.conv.alpha}, s={self.conv.s}"
            raise ConfigError(f"{got}, but the model alpha={self.alpha}, s={self.s}")
        try:
            spec, _ = _model_at(self, grid[0])
            if self.two_step is not None:
                check_square_model(spec)
        except (ValueError, TailFactorError) as exc:
            raise ConfigError(f"model at n={grid[0]}: {exc}") from exc
        try:
            check_sample_size(grid[-1], max(spec.A.shape))
        except TailFactorError as exc:
            raise ConfigError(f"n_grid: {exc}") from exc

    @property
    def tags(self):
        ests = (self.conv, self.two_step)
        return tuple(tag for tag, est in zip(ESTIMATOR_TAGS, ests) if est is not None)


@dataclass(frozen=True)
class ResultRow:
    n: int
    replicate: int
    estimator: str
    error: float  # nan when failed
    count: Optional[int]  # the estimator's n_tau or n_tau_tilde; None when failed
    failure_kind: str = ""  # the typed error's class name when failed

    @property
    def failed(self) -> bool:
        return bool(self.failure_kind)


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple
    slope_fits: dict  # tag -> (slope, intercept, r2, n_points)
    failure_rate: dict  # tag -> fraction of failed replicates
    aggregated: dict  # tag -> (ns, errors)


def _model_at(cfg: ExperimentConfig, n: int):
    """The ModelSpec replicates at sample size n draw from, and its true measure."""
    spec = model_at(cfg.fixed_A, cfg.alpha, cfg.s, cfg.latent_kind, n)
    return spec, spectral_measure_of(spec.A, spec.alpha)


def _default_runner(cfg: ExperimentConfig):
    def run(tag, batch, truth):
        if tag == "conv":
            mu, count = estimate_conventional(batch, cfg.conv)
        else:
            _, mu, count = estimate_two_step(batch, cfg.two_step)
        return wasserstein_p(mu, truth, cfg.p), count

    return run


def _grid_point_rows(cfg: ExperimentConfig, model, n: int, rep: int, draw, runner):
    """The result rows of replicate ``rep`` at n, drawn from ``model``, the
    (spec, truth) pair `_model_at` gives at n, on the prefix of the
    replicate's shared Pareto draw ``draw``."""
    spec, truth = model
    batch = generate_dataset(spec, n, cfg.base_seed, stream_id=rep, draw=draw)
    rows = []
    for tag in cfg.tags:
        try:
            error, count = runner(tag, batch, truth)
            rows.append(ResultRow(n, rep, tag, float(error), count))
        except TailFactorError as exc:
            rows.append(ResultRow(n, rep, tag, float("nan"), None, type(exc).__name__))
    return rows


def _replicate_task(cfg: ExperimentConfig, models, rep: int, runner):
    """The result rows of replicate ``rep``, one list per grid point n,
    drawn from ``models[n]``, each from ``runner``'s (error, count).

    The replicate's i.i.d. Pareto draw is taken once, at the largest n, and
    each grid point's batch reads its first n rows (see
    `generate_dataset`).  Grid points run in ascending n, each batch freed
    before the next is built, and the largest builds its batch in the
    shared draw itself.  An exception ends the list in place of the grid
    point that raised it, for the caller to raise in (n, replicate) order."""
    n_max = cfg.n_grid[-1]
    out = []
    try:
        draw = pareto_draw(models[n_max][0], n_max, cfg.base_seed, rep)
        for n in cfg.n_grid:
            out.append(_grid_point_rows(cfg, models[n], n, rep, draw, runner))
    except Exception as exc:  # the caller raises it in (n, replicate) order
        out.append(exc)
    return out


def _median(values) -> float:
    """``float(np.median(values))`` of a short list, to the byte: the middle
    value, or the mean (a + b) / 2 of the two middle ones; nan if one is
    nan.  np.median's first call imports numpy.ma, which this avoids."""
    xs = sorted(float(v) for v in values)
    if any(math.isnan(x) for x in xs):
        return math.nan
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def stage_errors(batch, ts_cfg, a_dir, truth, p):
    """W_p errors of the magnitude and the direction stage of the two-step
    fit whose direction matrix is ``a_dir``.

    Magnitude stage: the tail-frequency equation solved with the true column
    directions (the l1-normalized columns of A).  Direction stage: the
    columns of ``a_dir``, each scaled by the true magnitude of the nearest
    true column.  A magnitude stage that raises a typed error reads nan.
    """
    norms = batch.spec.A.sum(axis=0)
    true_dirs = batch.spec.A / norms
    gaps = _l1_costs(a_dir.T, true_dirs.T)
    mu_dir = spectral_measure_of(a_dir * norms[gaps.argmin(axis=1)], batch.spec.alpha)
    try:
        _, mu_mag = two_step_from_directions(batch, ts_cfg, true_dirs)
        magnitude = wasserstein_p(mu_mag, truth, p)
    except TailFactorError:
        magnitude = float("nan")
    return magnitude, wasserstein_p(mu_dir, truth, p)


def run_staged_experiment(cfg: ExperimentConfig, threads: int = 1):
    """The default sweep, plus the two-step stage errors beside its rows.

    Returns (result, stages): ``result`` is what `run_convergence_experiment`
    returns, and stages[n] holds the `stage_errors` (magnitude, direction)
    pair of every two-step replicate at n whose full fit completed, in
    replicate order.  Each two-step replicate fits its directions once:
    the full fit and the stages share them.
    """
    default = _default_runner(cfg)
    stages = {}

    def run(tag, batch, truth):
        if tag != "two-step":
            return default(tag, batch, truth)
        a_dir, n_tt = estimate_directions(batch, cfg.two_step)
        _, mu = two_step_from_directions(batch, cfg.two_step, a_dir)
        error = wasserstein_p(mu, truth, cfg.p)
        stages[batch.n, batch.stream_id] = stage_errors(
            batch, cfg.two_step, a_dir, truth, cfg.p
        )
        return error, n_tt

    result = run_convergence_experiment(cfg, threads, runner=run)
    return result, {
        n: tuple(stages[n, r] for r in range(cfg.replicates) if (n, r) in stages)
        for n in cfg.n_grid
    }


def run_convergence_experiment(
    cfg: ExperimentConfig, threads: int = 1, runner=None
) -> ExperimentResult:
    """Full grid sweep on at most ``threads`` >= 1 worker threads, the same
    bytes for any count given cfg.base_seed.  ``runner(tag, batch, truth)``
    gives the estimator ``tag``'s W_p error and exceedance count (n_tau for
    conv, n_tau_tilde for two-step); a TailFactorError it raises fails the row.

    Replicate r draws from the stream (cfg.base_seed, r) at every grid
    point, and the i.i.d. Pareto draw at n is the first n rows of the one
    at the largest n.  So each replicate is one pool task: it takes that
    draw once, at the largest n, and runs the grid points on its prefixes
    in ascending n, on min(threads, replicates, usable CPUs) workers: a
    thread beyond the CPUs only adds switching.  Rows are assembled in
    (n, replicate, estimator) order, an exception from a task raised where
    its grid point falls in it.  Each grid point's spec and true measure
    are built once, before the pool starts, and its replicates share them.
    No product in a sweep calls BLAS, so it runs on the pool's threads
    alone: its LAPACK calls, the two-step estimator's d x d determinant and
    inverse, are far too small for OpenBLAS to split over threads."""
    if runner is None:
        runner = _default_runner(cfg)
    models = {n: _model_at(cfg, n) for n in cfg.n_grid}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, cfg.replicates, cpus or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_rep = list(
            pool.map(lambda rep: _replicate_task(cfg, models, rep, runner), range(cfg.replicates))
        )
    rows = []
    for i in range(len(cfg.n_grid)):
        for chunks in per_rep:  # a task's list ends at its exception
            if isinstance(chunks[i], Exception):
                raise chunks[i]
            rows.extend(chunks[i])
    rows = tuple(rows)

    slope_fits = {}
    failure_rate = {}
    aggregated = {}
    for tag in cfg.tags:
        tag_rows = [r for r in rows if r.estimator == tag]
        failure_rate[tag] = sum(r.failed for r in tag_rows) / len(tag_rows)
        ns, errs = [], []
        for n in cfg.n_grid:
            good = [r.error for r in tag_rows if r.n == n and not r.failed]
            if not good:
                raise ExperimentAbortedError(
                    f"every replicate failed for estimator {tag} at n={n}"
                )
            ns.append(n)
            errs.append(_median(good))
        aggregated[tag] = (tuple(ns), tuple(errs))
        slope, intercept, r2 = fit_loglog_slope(ns, errs)
        slope_fits[tag] = (slope, intercept, r2, len(ns))
    return ExperimentResult(
        rows=rows,
        slope_fits=slope_fits,
        failure_rate=failure_rate,
        aggregated=aggregated,
    )


def diagnostic_counts(result: ExperimentResult):
    """Per-replicate exceedance counts for the tuning diagnostics.

    Returns rows (n, replicate, estimator, count); conventional counts are
    meant to be plotted as ln(count) vs ln(n), two-step counts vs ln(n).
    """
    return [
        (r.n, r.replicate, r.estimator, r.count)
        for r in result.rows
        if not r.failed and r.count is not None
    ]


def _write_text(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def emit_outputs(result: ExperimentResult, out_dir) -> None:
    """Write rows.csv, slopes.csv and the SVG charts, byte-deterministic."""
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise IoError(f"output directory {out_dir} does not exist")

    lines = ["n,replicate,estimator,error,n_tau,n_tau_tilde,failed"]
    for r in result.rows:
        err = "" if r.failed else _fmt(r.error)
        count = "" if r.count is None else str(r.count)
        counts = f"{count}," if r.estimator == "conv" else f",{count}"  # n_tau, n_tau_tilde
        lines.append(f"{r.n},{r.replicate},{r.estimator},{err},{counts},{int(r.failed)}")
    _write_text(out_dir / "rows.csv", "\n".join(lines) + "\n")

    lines = ["estimator,slope,intercept,r2,n_points"]
    for tag in sorted(result.slope_fits):
        slope, intercept, r2, n_points = result.slope_fits[tag]
        lines.append(f"{tag},{_fmt(slope)},{_fmt(intercept)},{_fmt(r2)},{n_points}")
    _write_text(out_dir / "slopes.csv", "\n".join(lines) + "\n")

    # Error vs n, both axes in natural log.
    series = []
    for tag in sorted(result.aggregated):
        ns, errs = result.aggregated[tag]
        pairs = [(math.log(n), math.log(e)) for n, e in zip(ns, errs) if e > 0]
        if pairs:
            series.append((tag, [p[0] for p in pairs], [p[1] for p in pairs]))
    if series:
        _write_text(
            out_dir / "error_loglog.svg",
            line_chart(series, "Estimation error vs sample size", "ln n", "ln error"),
        )

    # Diagnostic exceedance counts.
    diag = diagnostic_counts(result)
    for tag, fname, ylab, transform in (
        ("conv", "diag_counts_conv.svg", "ln count", lambda c: math.log(c)),
        ("two-step", "diag_counts_two_step.svg", "count", float),
    ):
        tag_counts = {}
        for n, _, t, count in diag:
            if t == tag and count > 0:
                tag_counts.setdefault(n, []).append(count)
        if not tag_counts:
            continue
        ns = sorted(tag_counts)
        ys = [transform(_median(tag_counts[n])) for n in ns]
        _write_text(
            out_dir / fname,
            line_chart(
                [(tag, [math.log(n) for n in ns], ys)],
                f"Threshold exceedances ({tag})",
                "ln n",
                ylab,
            ),
        )
