"""Shared numeric kernels: counter-based random streams, k-means (exact on a
line, Lloyd otherwise), small dense inverse, log-log OLS."""

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateDesignError,
    DimensionMismatchError,
    InvalidAtomError,
    NearSingularError,
    TooFewPointsError,
)
from .measures import _lex_order, row_sums


# Lloyd's algorithm off the line: starts, iteration cap, l1 center-move stop.
LLOYD_RESTARTS = 10
LLOYD_MAX_ITERS = 100
LLOYD_TOL = 1e-9
# Smallest determinant magnitude invert_square_matrix accepts.
DET_TOL = 1e-10


@dataclass(frozen=True)
class RngStream:
    """Named (seed, stream_id) pair; distinct ids give independent streams."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        # A uint64 key: numpy reads a list holding a value >= 2^63 through
        # float64, which maps distinct seeds (-1 and 0, say) to one stream.
        # Masked as Python ints: np.int64(3) & (2**64 - 1) overflows.
        key = [operator.index(v) & (2**64 - 1) for v in (self.seed, self.stream_id)]
        return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray
    weights: np.ndarray
    inertia: float
    history: tuple = field(default=(), compare=False)


def _squared_distances(points, center):
    """Squared l2 distance of each row of ``points`` (n, d) to its center,
    with the bytes of ``row_sums((points - center) ** 2)``.  ``center[c]``
    is one number, or one per row: column c of the centers taken by label.

    The differences are formed column by column into one (n, d) array:
    broadcasting a (d,) center against (n, d) points runs numpy's inner
    loop once per row, as ``row_sums`` explains."""
    sq = np.empty(points.shape)
    for c in range(points.shape[1]):
        np.subtract(points[:, c], center[c], out=sq[:, c])
    sq *= sq
    return row_sums(sq)


def _by_label(centers, labels):
    """Column c of ``centers`` taken by ``labels``, for each column c."""
    return [np.take(col, labels) for col in centers.T]


def _assign_points(points, centers):
    """Label of each point's nearest center (the first of equal distances)
    and the inertia, one (n,) distance array per center: an argmin along
    the rows of an (n, k) matrix runs once per row."""
    best = _squared_distances(points, centers[0])
    labels = np.zeros(points.shape[0], dtype=np.intp)
    for c in range(1, centers.shape[0]):
        d2 = _squared_distances(points, centers[c])
        labels[d2 < best] = c
        np.minimum(best, d2, out=best)
    return labels, float(best.sum())


def _center_update(points, labels, k):
    sums = np.column_stack(
        [np.bincount(labels, weights=col, minlength=k) for col in points.T]
    )
    counts = np.bincount(labels, minlength=k)
    return sums, counts


def _kmeans_pp_seed(points, k, gen):
    """k-means++ D^2 seeding."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    idx = int(gen.integers(n))
    centers[0] = points[idx]
    d2 = _squared_distances(points, centers[0])
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(gen.integers(n))
        else:
            r = gen.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r))
            idx = min(idx, n - 1)
        centers[c] = points[idx]
        d2 = np.minimum(d2, _squared_distances(points, centers[c]))
    return centers


def _lloyd(points, centers):
    k = centers.shape[0]
    history = []
    labels = None
    inertia = np.inf
    for _ in range(LLOYD_MAX_ITERS):
        labels, inertia = _assign_points(points, centers)
        history.append(inertia)
        sums, counts = _center_update(points, labels, k)
        new_centers = centers.copy()
        nonempty = counts > 0
        new_centers[nonempty] = sums[nonempty] / counts[nonempty, None]
        if not nonempty.all():
            # Reseed each empty cluster at the point farthest from its center.
            d2 = _squared_distances(points, _by_label(new_centers, labels))
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
        if move <= LLOYD_TOL:
            break
    labels, inertia = _assign_points(points, centers)
    _, counts = _center_update(points, labels, k)
    return centers, counts, inertia, history


def _line_order(points):
    """The axis j that orders the points along the line they span, or None.

    The line runs through the extreme points of the widest coordinate j,
    the first of equal widths.  The points count as collinear when each
    lies within 2^10 machine epsilons (relative to the largest coordinate
    magnitude) of it, i.e. off the line by rounding only: coordinate c of
    a point's offset is (x_c - lo_c) - t span_c, t = (x_j - lo_j) / span_j.
    Every step takes one column at a time: a reduction along axis 0 of an
    (n, d) array, or a broadcast to one, runs numpy's inner loop once per row.
    """
    cols = points.T
    tops = np.array([col.max() for col in cols])
    bottoms = np.array([col.min() for col in cols])
    j = int(np.argmax(tops - bottoms))
    lo = points[np.argmin(cols[j])]
    span = points[np.argmax(cols[j])] - lo
    if span[j] > 0:
        t = (cols[j] - lo[j]) / span[j]
        top = max(np.abs(tops).max(), np.abs(bottoms).max())  # max |x|
        tol = 2**10 * np.finfo(np.float64).eps * top
        for c, col in enumerate(cols):
            off = col - lo[c]
            off -= t * span[c]
            if not np.abs(off).max() <= tol:
                return None
    return j


def _leftmost_argmin(vals, lens):
    """Flat index of the first minimum of each consecutive segment of vals."""
    starts = np.cumsum(lens) - lens
    low = np.repeat(np.minimum.reduceat(vals, starts), lens)
    hits = np.where(vals == low, np.arange(vals.size), vals.size)
    return np.minimum.reduceat(hits, starts)


def _best_boundaries(cost, u, k):
    """Boundaries 0 = b_0 < b_1 < ... < b_k = u of the least-cost partition
    of u ordered groups into k contiguous runs, cost(a, b) being the cost of
    groups a..b-1.

    Exact 1-D DP (Wang & Song, R Journal 2011): ``best[b]`` is the least cost
    of the first b groups in l runs.  Layers 2..k-1 use the monotone
    divide-and-conquer recursion (Groenlund et al., arXiv:1701.07204), one
    recursion level of all pending intervals per vectorized step; the last
    layer needs only b = u, one scan.  Every minimum is the leftmost, so
    ties go to the smallest split index.
    """
    best = np.full(u + 1, np.inf)
    best[1:] = cost(0, np.arange(1, u + 1))
    choice = []
    for layer in range(2, k):
        top = u - k + layer
        new, arg = np.full(u + 1, np.inf), np.zeros(u + 1, dtype=np.int64)
        # pending intervals: b in [b_lo, b_hi], split a in [a_lo, a_hi]
        b_lo, b_hi = np.array([layer]), np.array([top])
        a_lo, a_hi = np.array([layer - 1]), np.array([top - 1])
        while b_lo.size:
            mid = (b_lo + b_hi) // 2
            lens = np.minimum(a_hi, mid - 1) - a_lo + 1
            seg = np.repeat(np.arange(mid.size), lens)
            a = a_lo[seg] + np.arange(seg.size) - (np.cumsum(lens) - lens)[seg]
            vals = best[a] + cost(a, mid[seg])
            first = _leftmost_argmin(vals, lens)
            new[mid], arg[mid] = vals[first], a[first]
            left, right = b_lo < mid, mid < b_hi
            b_lo = np.concatenate([b_lo[left], mid[right] + 1])
            b_hi = np.concatenate([mid[left] - 1, b_hi[right]])
            a_lo = np.concatenate([a_lo[left], arg[mid][right]])
            a_hi = np.concatenate([arg[mid][left], a_hi[right]])
        best = new
        choice.append(arg)
    bounds = [u]
    if k > 1:
        a = np.arange(k - 1, u)
        bounds.append(int(a[np.argmin(best[a] + cost(a, u))]))
    for arg in reversed(choice):
        bounds.append(int(arg[bounds[-1]]))
    bounds.append(0)
    return np.array(bounds[::-1])


def _exact_line_labels(points, j, k):
    """Labels of the least-inertia partition of collinear points.

    Optimal clusters of points on a line are contiguous along it, and their
    inertia is that of coordinate j times a constant, so the search runs
    over contiguous runs of the values of coordinate j in sorted order,
    splitting only between distinct values.  A label counts the runs that
    start at or below the point's value.  Where every value is distinct,
    each group is one point, and the prefix sums are read as they are.
    """
    col = points[:, j]
    values = np.sort(col)
    cuts = np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1, [values.size]))
    u = cuts.size - 1
    if u < k:
        raise TooFewPointsError(f"{u} distinct positions along the line for k={k}")
    # Prefix sums of the values and of their squares at the group
    # boundaries; centering keeps the cancellation in the cost small.
    key = values - values.mean()
    s1 = np.concatenate(([0.0], np.cumsum(key)))
    s2 = np.concatenate(([0.0], np.cumsum(key * key)))
    distinct = u == values.size
    if not distinct:
        s1, s2 = s1[cuts], s2[cuts]

    def cost(a, b):
        size = b - a if distinct else cuts[b] - cuts[a]
        return (s2[b] - s2[a]) - (s1[b] - s1[a]) ** 2 / size

    bounds = _best_boundaries(cost, u, k)[1:-1]
    labels = np.zeros(col.size, dtype=np.intp)
    for start in values[bounds if distinct else cuts[bounds]]:
        labels += col >= start
    return labels


def kmeans(points, k: int) -> KMeansResult:
    """k-means with k clusters; exact when the points are collinear.

    When the points span at most one dimension (every d = 2 simplex cloud
    (x, 1-x) does), the optimal clusters are contiguous along the line and
    the least-inertia partition is found exactly from one sort and prefix
    sums; ``history`` is ().  Ties go to the smallest split, and clusters
    split only between distinct points.

    Otherwise it runs Lloyd's algorithm with k-means++ seeding, best of
    LLOYD_RESTARTS runs of at most LLOYD_MAX_ITERS iterations, stopping once
    no center moves more than LLOYD_TOL (l1); ``history`` holds the best
    run's inertia per iteration.  Deterministic: restart r draws from
    ``RngStream(0, r)``.

    Either way the centers are the means of the chosen clusters, summed in
    sample order, so both paths give the same bytes for the same partition.
    Centers are returned sorted lexicographically with the matching cluster
    mass fractions, none of them empty.  Fewer distinct points than k raise
    TooFewPointsError; on a line the count is of distinct positions along
    it, so rows apart only by rounding off the line count once.  k < 1
    raises ValueError, input other than an (n, d) array raises
    DimensionMismatchError, and a non-finite coordinate InvalidAtomError.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DimensionMismatchError(f"points of shape {points.shape}, need (n, d)")
    if not np.isfinite(points).all():
        raise InvalidAtomError("points must be finite")
    n = points.shape[0]
    if n < k:
        raise TooFewPointsError(f"{n} points for k={k}")
    j = _line_order(points)
    if j is not None:
        labels = _exact_line_labels(points, j, k)
        sums, counts = _center_update(points, labels, k)
        centers = sums / counts[:, None]
        inertia = float(_squared_distances(points, _by_label(centers, labels)).sum())
        order = _lex_order(centers)
        centers, counts, history = centers[order], counts[order], ()
    else:
        # Lloyd leaves clusters empty with fewer than k distinct points
        rows, new = _lex_order(points), np.zeros(n - 1, dtype=bool)
        for c in range(points.shape[1]):
            column = points[rows, c]
            new |= column[1:] != column[:-1]
        distinct = 1 + np.count_nonzero(new)
        if distinct < k:
            raise TooFewPointsError(f"{distinct} distinct points for k={k}")
        best = None
        for r in range(LLOYD_RESTARTS):
            gen = RngStream(0, r).generator()
            centers0 = _kmeans_pp_seed(points, k, gen)
            centers, counts, inertia, history = _lloyd(points, centers0)
            order = _lex_order(centers)
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


def invert_square_matrix(M) -> np.ndarray:
    """Inverse by numpy's LU; the determinant alone decides singularity.

    Raises NearSingularError unless |det| >= DET_TOL (a NaN determinant
    included), and ValueError for a matrix that is not square.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    det = np.linalg.det(M)
    if not abs(det) >= DET_TOL:
        raise NearSingularError(f"|det| = {abs(det):.3e} below {DET_TOL:.1e}")
    return np.linalg.inv(M)


def fit_loglog_slope(ns, errs):
    """OLS of ln(err) on ln(n); returns (slope, intercept, r_squared).
    DegenerateDesignError for a log that is not finite or all n equal."""
    ns = np.asarray(ns, dtype=np.float64)
    errs = np.asarray(errs, dtype=np.float64)
    if ns.shape != errs.shape or ns.size < 2:
        raise ValueError("need equal-length lists with >= 2 entries")
    with np.errstate(divide="ignore", invalid="ignore"):
        x, y = np.log(ns), np.log(errs)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DegenerateDesignError(f"a log of n={ns} or errors={errs} is not finite")
    sxx = np.sum((x - x.mean()) ** 2)
    if sxx == 0:
        raise DegenerateDesignError("all sample sizes identical")
    slope = float(np.sum((x - x.mean()) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    ss_res = float(np.sum((y - slope * x - intercept) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2
