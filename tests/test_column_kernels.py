"""The column kernels against the broadcast forms they replace.

Each (n, d) reduction, row broadcast and boolean row gather on the sweep
path is written one column at a time, or as an index gather, for speed.
The broadcast form each one replaced is kept here as its oracle: the two
must give the same bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailfactor.errors import NoExceedancesError
from tailfactor.estimators import _thresholded_points
from tailfactor.measures import ModelSpec, SampleBatch, _onto_simplex, divide_rows, row_sums
from tailfactor.numerics import _assign_points, _by_label, _line_order, _squared_distances
from tailfactor.transport import _l1_costs

UNIT = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


def _line_order_oracle(points):
    j = int(np.argmax(np.ptp(points, axis=0)))
    lo = points[np.argmin(points[:, j])]
    span = points[np.argmax(points[:, j])] - lo
    if span[j] > 0:
        off = (points - lo) - np.outer((points[:, j] - lo[j]) / span[j], span)
        tol = 2**10 * np.finfo(np.float64).eps * np.abs(points).max()
        if not np.abs(off).max() <= tol:
            return None
    return j


def _onto_simplex_oracle(rows, norms):
    big = np.isinf(norms)
    if big.any():
        rows, norms = rows.copy(), norms.copy()
        rows[big] /= rows[big].max(axis=1, keepdims=True)
        norms[big] = row_sums(rows[big])
    return rows / norms[:, None]


def _assign_points_oracle(points, centers):
    d2 = np.empty((points.shape[0], centers.shape[0]))
    for c, center in enumerate(centers):
        d2[:, c] = row_sums((points - center) ** 2)
    labels = np.argmin(d2, axis=1)
    return labels, float(d2[np.arange(points.shape[0]), labels].sum())


@st.composite
def sample_arrays(draw):
    """(n, d) arrays, d in 2, 3, 4, 8 and 9 (``row_sums`` sums 8 or more
    columns pairwise), n from 1: rows drawn with repeats from a small pool,
    so the widest coordinate ties; some columns constant; scaled up to
    1e308, where l1-norms and squares overflow; some or all columns negated.
    Every other array puts the pool on a line a + t b."""
    d = draw(st.sampled_from([2, 3, 4, 8, 9]))
    n = draw(st.integers(1, 24))
    pool = draw(st.integers(1, n))
    if draw(st.booleans()):
        t = draw(hnp.arrays(np.float64, (pool, 1), elements=UNIT))
        a, b = (draw(hnp.arrays(np.float64, d, elements=UNIT)) for _ in range(2))
        base = a + t * b
    else:
        base = draw(hnp.arrays(np.float64, (pool, d), elements=UNIT))
    rows = draw(hnp.arrays(np.int64, n, elements=st.integers(0, pool - 1)))
    xs = base[rows] * draw(st.sampled_from([1e-300, 1e-6, 1.0, 1e3, 1e308]))
    xs[:, draw(hnp.arrays(np.bool_, d))] = draw(st.sampled_from([0.0, 0.5]))
    signs = st.sampled_from([1.0, -1.0])  # k-means takes any sign
    xs *= draw(st.one_of(signs, hnp.arrays(np.float64, d, elements=signs)))
    return xs


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(sample_arrays(), st.integers(0, 24), st.integers(1, 4), st.data())
def test_column_kernels_match_their_broadcast_forms(xs, cut, k, data):
    n, d = xs.shape
    with np.errstate(all="ignore"):
        # kmeans: the line test and its axis, the widest coordinate's first index
        assert _line_order(xs) == _line_order_oracle(xs)
        # kmeans: distances to one center, to each row's center, labels
        centers = xs[data.draw(hnp.arrays(np.int64, k, elements=st.integers(0, n - 1)))]
        centers = centers + data.draw(st.sampled_from([0.0, 0.25]))
        labels = data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, k - 1)))
        for center in centers:
            assert _same(_squared_distances(xs, center), row_sums((xs - center) ** 2))
        assert _same(
            _squared_distances(xs, _by_label(centers, labels)),
            row_sums((xs - centers[labels]) ** 2),
        )
        got, want = _assign_points(xs, centers), _assign_points_oracle(xs, centers)
        assert _same(got[0], want[0]) and got[1] == want[1]
        # estimators: rows above tau, by index, onto the simplex
        norms = row_sums(xs)
        assert _same(divide_rows(xs, norms), xs / norms[:, None])
        assert _same(_onto_simplex(xs, norms), _onto_simplex_oracle(xs, norms))
        # a batch holds |xs|, since X = A Z >= 0
        batch = SampleBatch(ModelSpec(A=np.eye(d), alpha=1.0, s=0.2), 0, 0, np.abs(xs))
        norms = row_sums(batch.xs)
        tau = np.sort(norms)[cut] if cut < n else -1.0
        mask = norms > tau
        if not mask.any():
            with pytest.raises(NoExceedancesError):
                _thresholded_points(batch, tau)
        else:
            points, n_tau = _thresholded_points(batch, tau)
            assert n_tau == mask.sum()
            assert _same(points, _onto_simplex_oracle(batch.xs[mask], norms[mask]))
        # transport: the l1 cost matrix
        for xb in (xs, xs[::-1][: max(1, n // 2)] + 0.125):
            assert _same(_l1_costs(xs, xb), np.abs(xs[:, None, :] - xb[None, :, :]).sum(axis=2))


def test_line_order_tolerance_reads_the_largest_magnitude():
    # every coordinate <= 0, the column maxima 0: the tolerance comes from
    # the minima, and the rounding off the segment stays within it
    t = np.random.default_rng(7).uniform(0, 1, size=50)
    t[:2] = 0.0, 1.0
    for scale in (-3.0, -1e6):
        pts = scale * np.column_stack([t, 1.0 - t])
        want = _line_order_oracle(pts)
        assert want is not None and _line_order(pts) == want
