"""Shared numeric kernels: Lloyd k-means, small dense inverse, log-log OLS."""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDesignError,
    NearSingularError,
    TooFewPointsError,
)


@dataclass(frozen=True)
class KMeansConfig:
    k: int
    max_iters: int = 100
    tol: float = 1e-9
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.max_iters < 1 or self.tol <= 0 or self.restarts < 1:
            raise ValueError(f"invalid k-means config {self}")


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray
    weights: np.ndarray
    inertia: float
    history: tuple = field(default=(), compare=False)


def _assign_points(points, centers):
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(points.shape[0]), labels].sum())
    return labels.astype(np.int64), inertia


def _center_update(points, labels, k):
    d = points.shape[1]
    sums = np.zeros((k, d))
    counts = np.zeros(k, dtype=np.int64)
    np.add.at(sums, labels, points)
    np.add.at(counts, labels, 1)
    return sums, counts


def _kmeans_pp_seed(points, k, gen):
    """k-means++ D^2 seeding."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    idx = int(gen.integers(n))
    centers[0] = points[idx]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(gen.integers(n))
        else:
            r = gen.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, n - 1)
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _lloyd(points, centers, max_iters, tol):
    k = centers.shape[0]
    history = []
    labels = None
    inertia = np.inf
    for _ in range(max_iters):
        labels, inertia = _assign_points(points, centers)
        history.append(inertia)
        sums, counts = _center_update(points, labels, k)
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            # Reseed each empty cluster at the point farthest from its center.
            d2 = ((points - new_centers[labels]) ** 2).sum(axis=1)
            for c in np.nonzero(~nonempty)[0]:
                far = int(np.argmax(d2))
                new_centers[c] = points[far]
                d2[far] = -1.0
            labels, inertia = _assign_points(points, new_centers)
            history[-1] = inertia
            sums, counts = _center_update(points, labels, k)
            nonempty = counts > 0
            new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        move = np.abs(new_centers - centers).sum(axis=1).max()
        centers = new_centers
        if move <= tol:
            break
    labels, inertia = _assign_points(points, centers)
    _, counts = _center_update(points, labels, k)
    return centers, counts, inertia, history


def kmeans(points, cfg: KMeansConfig) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding, best of cfg.restarts runs.

    Deterministic given cfg.seed: restart r uses the Philox stream keyed by
    (cfg.seed, r).  Centers are returned sorted lexicographically with the
    matching cluster mass fractions.
    """
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    n = points.shape[0]
    if n < cfg.k:
        raise TooFewPointsError(f"{n} points for k={cfg.k}")
    best = None
    for r in range(cfg.restarts):
        gen = np.random.Generator(np.random.Philox(key=[cfg.seed & (2**64 - 1), r]))
        centers0 = _kmeans_pp_seed(points, cfg.k, gen)
        centers, counts, inertia, history = _lloyd(
            points, centers0, cfg.max_iters, cfg.tol
        )
        order = np.lexsort(
            tuple(centers[:, c] for c in range(centers.shape[1] - 1, -1, -1))
        )
        key = (inertia, centers[order].tobytes())
        if best is None or key < best[0]:
            best = (key, centers[order], counts[order], inertia, tuple(history))
    _, centers, counts, inertia, history = best
    weights = counts / counts.sum()
    centers.setflags(write=False)
    weights.setflags(write=False)
    return KMeansResult(
        centers=centers, weights=weights, inertia=float(inertia), history=history
    )


def invert_square_matrix(M, det_tol: float = 1e-10) -> np.ndarray:
    """Inverse by Gauss-Jordan elimination with partial pivoting.

    Raises NearSingularError when a pivot or the determinant falls below
    det_tol in magnitude.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    m = M.shape[0]
    aug = np.hstack([M.copy(), np.eye(m)])
    det = 1.0
    for col in range(m):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if abs(pivot) < det_tol:
            raise NearSingularError(f"pivot {pivot:.3e} below {det_tol:.1e}")
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
            det = -det
        det *= pivot
        aug[col] = aug[col] / pivot
        for row in range(m):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    if abs(det) < det_tol:
        raise NearSingularError(f"|det| = {abs(det):.3e} below {det_tol:.1e}")
    return aug[:, m:]


def fit_loglog_slope(ns, errs):
    """OLS of ln(err) on ln(n); returns (slope, intercept, r_squared)."""
    ns = np.asarray(ns, dtype=np.float64)
    errs = np.asarray(errs, dtype=np.float64)
    if ns.shape != errs.shape or ns.size < 2:
        raise ValueError("need equal-length lists with >= 2 entries")
    if np.any(ns <= 0) or np.any(errs <= 0):
        raise ValueError("log-log fit needs positive inputs")
    x = np.log(ns)
    y = np.log(errs)
    sxx = np.sum((x - x.mean()) ** 2)
    if sxx == 0:
        raise DegenerateDesignError("all sample sizes identical")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2
