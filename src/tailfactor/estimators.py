"""Spectral-measure estimators: peak-over-threshold and the two-step method.

The conventional estimator thresholds the samples radially, normalizes the
survivors onto the simplex and summarizes them with k-means.  The two-step
estimator first recovers the column directions from a very high threshold
(only O(log n) exceedances), inverts that direction matrix to decouple the
coordinates, then solves a one-dimensional tail-frequency equation per
coordinate to recover the column magnitudes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoExceedancesError,
    NoSolutionError,
    TooFewPointsError,
)
from .measures import (
    SampleBatch,
    _is_bool,
    _onto_simplex,
    check_alpha,
    check_s,
    column_dot,
    divide_rows,
    make_measure,
    row_sums,
    spectral_measure_of,
)
from .numerics import invert_square_matrix, kmeans
from .sampling import scaled_power, tail_threshold

# Tail scale r of the latent law P(Z > x) = r (1 + x)^-alpha.
R_HAT = 1.0
# Below this, solve_theta takes ratio^(-1/alpha) - 1 from expm1: it cancels.
CANCEL_GAP = 1e-3
TINY = np.finfo(np.float64).tiny


def _check_settings(cfg, kind: str, positive) -> None:
    """ValueError unless each of ``positive`` is in (0, inf) and not a bool."""
    if any(_is_bool(x) or not 0 < x < math.inf for x in positive):
        raise ValueError(f"invalid {kind} config {cfg}")


@dataclass(frozen=True)
class ConvConfig:
    """Peak-over-threshold estimator settings."""

    kappa_bar: float
    alpha: float
    s: float

    def __post_init__(self):
        check_s(self.s)
        _check_settings(self, "conventional", (self.kappa_bar, self.alpha))


@dataclass(frozen=True)
class TwoStepConfig:
    """Two-step tuning constants; alpha and s are the batch model's."""

    kappa_tilde: float
    kappa: float

    def __post_init__(self):
        _check_settings(self, "two-step", (self.kappa_tilde, self.kappa))


def check_square_model(spec) -> None:
    """DimensionMismatchError unless the two-step model ``spec`` has d = m."""
    if spec.d != spec.m:
        raise DimensionMismatchError(f"two-step needs a square A, got d={spec.d}, m={spec.m}")


def _thresholded_points(batch: SampleBatch, tau: float):
    """Normalized samples with l1-norm ``batch.norms`` above tau, in sample order.

    The rows are taken by index (``np.flatnonzero``, then ``np.take``): a
    boolean row mask costs several times more on an (n, d) array.  A row
    whose l1-norm overflows float64 counts as above every tau and is
    normalized after scaling it by its largest entry, as ``make_measure``
    does, so it keeps its direction."""
    idx = np.flatnonzero(batch.norms > tau)
    if idx.size == 0:
        raise NoExceedancesError(f"no sample above tau={tau}")
    return _onto_simplex(np.take(batch.xs, idx, axis=0), np.take(batch.norms, idx)), idx.size


def empirical_angular_measure(batch: SampleBatch, tau: float):
    """Empirical angular measure of the batch's samples above the radial
    threshold ``tau`` >= 0.

    Returns (measure, n_tau) where atoms are the normalized exceedances with
    uniform weight 1/n_tau (duplicates merged).
    """
    if tau < 0:
        raise ValueError(f"need tau >= 0, got {tau}")
    points, n_tau = _thresholded_points(batch, tau)
    mu = make_measure(points, np.full(n_tau, 1.0 / n_tau))
    return mu, n_tau


def conventional_threshold(n: int, cfg: ConvConfig) -> float:
    """Rate-optimal radial threshold, switching on the deviation regime."""
    critical = 1.0 / (2.0 + max(1.0, cfg.alpha))
    if cfg.s < critical:
        return tail_threshold(n, cfg.alpha, cfg.s, cfg.kappa_bar)
    return scaled_power(cfg.kappa_bar, float(n), 1 / min(2 + cfg.alpha, 3 * cfg.alpha))


def estimate_conventional(batch: SampleBatch, cfg: ConvConfig):
    """POT estimate: k-means summary of the thresholded angular samples, one
    cluster per factor of the batch's model.

    Returns (measure, n_tau).
    """
    tau = conventional_threshold(batch.n, cfg)
    points, n_tau = _thresholded_points(batch, tau)
    km = kmeans(points, batch.spec.m)
    return make_measure(km.centers, km.weights), n_tau


def direction_threshold(n: int, alpha: float, kappa_tilde: float) -> float:
    """kappa_tilde * (n / ln n)^(1/alpha), leaving O(log n) exceedances."""
    if n < 3:
        raise TooFewPointsError(f"need n >= 3, got {n}")
    check_alpha(alpha)
    return scaled_power(kappa_tilde, n / math.log(n), 1.0 / alpha)


def estimate_directions(batch: SampleBatch, cfg: TwoStepConfig):
    """Direction matrix: k-means centers of the high-threshold angular cloud,
    one per factor of the batch's model.

    Returns (matrix with unit-l1 columns sorted lexicographically, n_tau_tilde).
    """
    tau_tilde = direction_threshold(batch.n, batch.spec.alpha, cfg.kappa_tilde)
    try:
        points, n_tt = _thresholded_points(batch, tau_tilde)
    except NoExceedancesError:
        raise TooFewPointsError(f"n_tau_tilde=0 below m={batch.spec.m}") from None
    km = kmeans(points, batch.spec.m)
    centers = _onto_simplex(km.centers, row_sums(km.centers))
    return centers.T.copy(), n_tt


def solve_theta(count: int, n: int, r_hat: float, tau: float, alpha: float) -> float:
    """Closed-form solution of count/n = r_hat * (1 + tau/theta)^(-alpha):
    theta = tau / (ratio^(-1/alpha) - 1), ratio = count/(n r_hat).  Raises
    NoSolutionError for ratio >= 1 and where the divisor or theta leaves
    the normal float64 range, losing theta's precision."""
    if count <= 0:
        raise NoExceedancesError("zero exceedances in estimating equation")
    ratio = count / (n * r_hat)
    if ratio >= 1.0:
        raise NoSolutionError(f"tail frequency {ratio:.3g} >= 1 admits no solution")
    try:
        gap = ratio ** (-1.0 / alpha) - 1.0
        if gap < CANCEL_GAP:
            gap = math.expm1(-math.log(ratio) / alpha)
        theta = tau / gap
    except (OverflowError, ZeroDivisionError):
        gap = theta = math.nan
    if not (gap >= TINY and TINY <= theta < math.inf):
        raise NoSolutionError(f"no normal float theta at {ratio=:.3g}, {alpha=:.3g}")
    return theta


def two_step_from_directions(batch: SampleBatch, cfg: TwoStepConfig, a_dir):
    """Magnitude stage of the two-step estimator, given the direction matrix.

    Decouples coordinates with the inverse of ``a_dir``, then solves the
    tail-frequency equation per coordinate.  Coordinate k counts the rows x
    with x . w > tau, w = a_inv[k], summed by ``column_dot``, among the rows
    their radius r = ``batch.norms`` admits: as x . w <= max(w, 0) ||x||_1
    for x >= 0, a row is multiplied only if r (max(w, 0) + c max|w|) >
    tau (1 - c), c = (d + 2) 2^-50 >= 2 gamma_d + 8u (u = 2^-53), which
    covers the rounding of ``row_sums``, ``column_dot`` and this test while
    tau and c max|w| are normal floats (else every row is).  An overflowing
    entry is compared after scaling its row by its largest entry, tau scaled
    the same way, as ``_onto_simplex`` keeps such a row.  Returns (A_hat,
    measure).
    """
    a_dir = np.asarray(a_dir, dtype=np.float64)
    a_inv = invert_square_matrix(a_dir)
    n, alpha = batch.n, batch.spec.alpha
    tau = tail_threshold(n, alpha, batch.spec.s, cfg.kappa)
    slack = (len(a_inv) + 2) * 2.0**-50
    counts = []
    for w in a_inv:
        spread = slack * np.abs(w).max()
        floor = tau * (1.0 - slack) if min(tau, spread) >= TINY else -1.0
        with np.errstate(over="ignore", invalid="ignore"):
            kept = np.flatnonzero(batch.norms * (max(w.max(), 0.0) + spread) > floor)
            rows = np.take(batch.xs, kept, axis=0)
            dot = column_dot(rows, w)
        above = dot > tau
        bad = np.flatnonzero(~np.isfinite(dot))
        big = np.take(rows, bad, axis=0)
        scale = big.max(axis=1)
        above[bad] = column_dot(divide_rows(big, scale), w) > tau / scale
        counts.append(int(np.count_nonzero(above)))
    thetas = np.array([solve_theta(c, n, R_HAT, tau, alpha) for c in counts])
    a_hat = a_dir * thetas[None, :]
    return a_hat, spectral_measure_of(a_hat, alpha)


def estimate_two_step(batch: SampleBatch, cfg: TwoStepConfig):
    """Two-step estimate of the spectral measure.

    Returns (A_hat, measure, n_tau_tilde).  Any stage failure, a non-square
    A included, raises a typed error: callers treat it as a failed replicate.
    """
    check_square_model(batch.spec)
    a_dir, n_tt = estimate_directions(batch, cfg)
    a_hat, measure = two_step_from_directions(batch, cfg, a_dir)
    return a_hat, measure, n_tt
