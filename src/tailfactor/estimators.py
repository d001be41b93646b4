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
from .measures import SampleBatch, make_measure, spectral_measure_of
from .numerics import invert_square_matrix, kmeans
from .sampling import scaled_power, tail_threshold

# Tail scale r of the latent law P(Z > x) = r (1 + x)^-alpha.
R_HAT = 1.0
# Below this, solve_theta takes ratio^(-1/alpha) - 1 from expm1: it cancels.
CANCEL_GAP = 1e-3
TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class ConvConfig:
    """Peak-over-threshold estimator settings."""

    kappa_bar: float
    alpha: float
    s: float

    def __post_init__(self):
        positive = (self.kappa_bar, self.alpha)
        if not all(0 < x < math.inf for x in positive) or not 0 < self.s < 0.5:
            raise ValueError(f"invalid conventional config {self}")


@dataclass(frozen=True)
class TwoStepConfig:
    """Two-step estimator settings; the model's A must be square (d = m)."""

    kappa_tilde: float
    kappa: float
    alpha: float
    s: float

    def __post_init__(self):
        positive = (self.kappa_tilde, self.kappa, self.alpha)
        if not all(0 < x < math.inf for x in positive) or not 0 < self.s < 0.5:
            raise ValueError(f"invalid two-step config {self}")


def _thresholded_points(xs: np.ndarray, tau: float):
    """Normalized samples with l1-norm strictly above tau, in sample order."""
    norms = xs.sum(axis=1)
    mask = norms > tau
    n_tau = int(mask.sum())
    if n_tau == 0:
        raise NoExceedancesError(f"no sample above tau={tau}")
    return xs[mask] / norms[mask, None], n_tau


def empirical_angular_measure(batch: SampleBatch, tau: float):
    """Empirical angular measure of the batch's samples above the radial
    threshold ``tau`` >= 0.

    Returns (measure, n_tau) where atoms are the normalized exceedances with
    uniform weight 1/n_tau (duplicates merged).
    """
    if tau < 0:
        raise ValueError(f"need tau >= 0, got {tau}")
    points, n_tau = _thresholded_points(batch.xs, tau)
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
    points, n_tau = _thresholded_points(batch.xs, tau)
    km = kmeans(points, batch.spec.m)
    return make_measure(km.centers, km.weights), n_tau


def direction_threshold(n: int, cfg: TwoStepConfig) -> float:
    """Direction-recovery threshold, leaving only O(log n) exceedances."""
    if n < 3:
        raise TooFewPointsError(f"need n >= 3, got {n}")
    return scaled_power(cfg.kappa_tilde, n / math.log(n), 1.0 / cfg.alpha)


def estimate_directions(batch: SampleBatch, cfg: TwoStepConfig):
    """Direction matrix: k-means centers of the high-threshold angular cloud,
    one per factor of the batch's model.

    Returns (matrix with unit-l1 columns sorted lexicographically, n_tau_tilde).
    """
    tau_tilde = direction_threshold(batch.n, cfg)
    try:
        points, n_tt = _thresholded_points(batch.xs, tau_tilde)
    except NoExceedancesError:
        raise TooFewPointsError(f"n_tau_tilde=0 below m={batch.spec.m}") from None
    km = kmeans(points, batch.spec.m)
    centers = km.centers / km.centers.sum(axis=1, keepdims=True)
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
    tail-frequency equation per coordinate.  Returns (A_hat, measure).
    """
    a_dir = np.asarray(a_dir, dtype=np.float64)
    a_inv = invert_square_matrix(a_dir)
    transformed = batch.xs @ a_inv.T
    n = batch.n
    tau = tail_threshold(n, cfg.alpha, cfg.s, cfg.kappa)
    counts = [int((col > tau).sum()) for col in transformed.T]
    thetas = np.array([solve_theta(c, n, R_HAT, tau, cfg.alpha) for c in counts])
    a_hat = a_dir * thetas[None, :]
    return a_hat, spectral_measure_of(a_hat, cfg.alpha)


def estimate_two_step(batch: SampleBatch, cfg: TwoStepConfig):
    """Two-step estimate of the spectral measure.

    Returns (A_hat, measure, n_tau_tilde).  Any stage failure raises a typed
    error; callers treat that as a failed replicate.  The batch's model must
    have a square A (DimensionMismatchError).
    """
    spec = batch.spec
    if spec.d != spec.m:
        shape = f"got d={spec.d}, m={spec.m}"
        raise DimensionMismatchError(f"two-step needs a square A, {shape}")
    a_dir, n_tt = estimate_directions(batch, cfg)
    a_hat, measure = two_step_from_directions(batch, cfg, a_dir)
    return a_hat, measure, n_tt
