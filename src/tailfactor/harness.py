"""Convergence-rate experiment driver.

Sweeps the sample-size grid, runs replicates on independent RNG streams,
measures the Wasserstein error of each estimator against the n-dependent
ground truth, aggregates per grid point and fits log-log slopes.  Results
are bit-identical for any worker count.
"""

import math
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
    estimate_conventional,
    estimate_directions,
    estimate_two_step,
    two_step_from_directions,
)
from .measures import ModelSpec, spectral_measure_of, _fmt
from .numerics import fit_loglog_slope
from .sampling import check_sample_size, generate_dataset, worst_case_tilts
from .svg import line_chart
from .transport import wasserstein_p

ESTIMATOR_TAGS = ("conv", "two-step")


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
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        if len(grid) < 3 or grid[0] < 3 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid needs >= 3 strictly increasing sizes, all >= 3")
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if not 1 <= self.p < math.inf:
            raise ConfigError(f"need 1 <= p < inf, got {self.p}")
        if self.conv is None and self.two_step is None:
            raise ConfigError("at least one estimator must be configured")
        for est in (self.conv, self.two_step):
            if est is not None and (est.alpha, est.s) != (self.alpha, self.s):
                got = f"{type(est).__name__} has alpha={est.alpha}, s={est.s}"
                raise ConfigError(f"{got}, but the model alpha={self.alpha}, s={self.s}")
        try:
            spec, _ = _model_at(self, grid[0])
        except (ValueError, TailFactorError) as exc:
            raise ConfigError(f"model at n={grid[0]}: {exc}") from exc
        try:
            check_sample_size(grid[-1], max(spec.A.shape))
        except TailFactorError as exc:
            raise ConfigError(f"n_grid: {exc}") from exc
        if self.two_step is not None and spec.d != spec.m:
            shape = f"the model has d={spec.d}, m={spec.m}"
            raise ConfigError(f"two-step needs a square A, but {shape}")

    @property
    def tags(self):
        out = []
        if self.conv is not None:
            out.append("conv")
        if self.two_step is not None:
            out.append("two-step")
        return tuple(out)


@dataclass(frozen=True)
class ResultRow:
    n: int
    replicate: int
    estimator: str
    error: float  # nan when failed
    n_tau: Optional[int]
    n_tau_tilde: Optional[int]
    failed: bool
    failure_kind: str = ""


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple
    slope_fits: dict  # tag -> (slope, intercept, r2, n_points)
    failure_rate: dict  # tag -> fraction of failed replicates
    aggregated: dict  # tag -> (ns, errors)


def _model_at(cfg: ExperimentConfig, n: int):
    """The ModelSpec replicates at sample size n draw from, and its true measure."""
    A = np.diag(worst_case_tilts(n, cfg.s)) if cfg.fixed_A is None else cfg.fixed_A
    spec = ModelSpec(A=A, alpha=cfg.alpha, s=cfg.s, latent_kind=cfg.latent_kind)
    return spec, spectral_measure_of(spec.A, spec.alpha)


def _default_runner(cfg: ExperimentConfig):
    def run(tag, batch, truth):
        if tag == "conv":
            mu, n_tau = estimate_conventional(batch, cfg.conv)
            return wasserstein_p(mu, truth, cfg.p), n_tau, None
        _, mu, n_tt = estimate_two_step(batch, cfg.two_step)
        return wasserstein_p(mu, truth, cfg.p), None, n_tt

    return run


def _replicate_task(cfg: ExperimentConfig, n: int, rep: int, runner):
    spec, truth = _model_at(cfg, n)
    batch = generate_dataset(spec, n, cfg.base_seed, stream_id=rep)
    rows = []
    for tag in cfg.tags:
        try:
            error, n_tau, n_tt = runner(tag, batch, truth)
            rows.append(ResultRow(n, rep, tag, float(error), n_tau, n_tt, False))
        except TailFactorError as exc:
            rows.append(
                ResultRow(n, rep, tag, float("nan"), None, None, True, type(exc).__name__)
            )
    return rows


def stage_errors(batch, ts_cfg, truth, p):
    """W_p errors of the magnitude and the direction stage of the two-step fit.

    Magnitude stage: the tail-frequency equation solved with the true column
    directions (the l1-normalized columns of A).  Direction stage: the
    directions from `estimate_directions`, each scaled by the true magnitude
    of the nearest true column.  A magnitude stage that raises a typed error
    reads nan.
    """
    norms = batch.spec.A.sum(axis=0)
    true_dirs = batch.spec.A / norms
    a_dir, _ = estimate_directions(batch, ts_cfg)
    gaps = np.abs(a_dir[:, :, None] - true_dirs[:, None, :]).sum(axis=0)
    mu_dir = spectral_measure_of(a_dir * norms[gaps.argmin(axis=1)], ts_cfg.alpha)
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
    replicate order.
    """
    default = _default_runner(cfg)
    stages = {}

    def run(tag, batch, truth):
        row = default(tag, batch, truth)
        if tag == "two-step":
            stages[batch.n, batch.stream_id] = stage_errors(
                batch, cfg.two_step, truth, cfg.p
            )
        return row

    result = run_convergence_experiment(cfg, threads, runner=run)
    return result, {
        n: tuple(stages[n, r] for r in range(cfg.replicates) if (n, r) in stages)
        for n in cfg.n_grid
    }


def run_convergence_experiment(
    cfg: ExperimentConfig, threads: int = 1, runner=None
) -> ExperimentResult:
    """Full grid sweep on ``threads`` >= 1 worker threads; deterministic given
    cfg.base_seed for any thread count."""
    if runner is None:
        runner = _default_runner(cfg)
    tasks = [(n, rep) for n in cfg.n_grid for rep in range(cfg.replicates)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        chunks = pool.map(lambda t: _replicate_task(cfg, *t, runner), tasks)
        rows = tuple(row for chunk in chunks for row in chunk)

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
            errs.append(float(np.median(good)))
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
    out = []
    for r in result.rows:
        if r.failed:
            continue
        count = r.n_tau if r.estimator == "conv" else r.n_tau_tilde
        if count is not None:
            out.append((r.n, r.replicate, r.estimator, count))
    return out


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
        nt = "" if r.n_tau is None else str(r.n_tau)
        ntt = "" if r.n_tau_tilde is None else str(r.n_tau_tilde)
        lines.append(
            f"{r.n},{r.replicate},{r.estimator},{err},{nt},{ntt},{int(r.failed)}"
        )
    _write_text(out_dir / "rows.csv", "\n".join(lines) + "\n")

    lines = ["estimator,slope,intercept,r2,n_points"]
    for tag in sorted(result.slope_fits):
        slope, intercept, r2, n_points = result.slope_fits[tag]
        lines.append(f"{tag},{_fmt(slope)},{_fmt(intercept)},{_fmt(r2)},{n_points}")
    _write_text(out_dir / "slopes.csv", "\n".join(lines) + "\n")

    if not result.rows:
        return

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
        ys = [transform(float(np.median(tag_counts[n]))) for n in ns]
        _write_text(
            out_dir / fname,
            line_chart(
                [(tag, [math.log(n) for n in ns], ys)],
                f"Threshold exceedances ({tag})",
                "ln n",
                ylab,
            ),
        )
