import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailfactor.errors import (
    DegenerateDesignError,
    DimensionMismatchError,
    InvalidAtomError,
    NearSingularError,
    TooFewPointsError,
)
from tailfactor.estimators import ConvConfig, TwoStepConfig
from tailfactor.harness import ExperimentConfig, emit_outputs, run_convergence_experiment
from tailfactor.numerics import (
    LLOYD_RESTARTS,
    _assign_points,
    _kmeans_pp_seed,
    _lloyd,
    fit_loglog_slope,
    invert_square_matrix,
    kmeans,
)

RNG = np.random.default_rng(31337)


def test_kmeans_two_well_separated_blobs():
    pts = np.concatenate(
        [
            RNG.normal([0.9, 0.1], 0.01, size=(60, 2)),
            RNG.normal([0.1, 0.9], 0.01, size=(40, 2)),
        ]
    )
    res = kmeans(pts, 2)
    # centers come back lexicographically sorted
    assert res.centers[0, 0] < res.centers[1, 0]
    assert np.allclose(res.centers[0], [0.1, 0.9], atol=0.02)
    assert np.allclose(res.centers[1], [0.9, 0.1], atol=0.02)
    assert np.allclose(sorted(res.weights), [0.4, 0.6], atol=1e-12)
    assert res.weights.sum() == pytest.approx(1.0)


def test_kmeans_k_equals_n_gives_zero_inertia():
    pts = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    res = kmeans(pts, 3)
    assert res.inertia == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(res.centers, pts[np.lexsort((pts[:, 1], pts[:, 0]))])


def test_kmeans_rejects_too_few_points():
    with pytest.raises(TooFewPointsError):
        kmeans(np.array([[1.0, 0.0]]), 2)
    with pytest.raises(ValueError, match="k >= 1"):
        kmeans(np.array([[1.0, 0.0]]), 0)
    # a non-finite point, which would make a non-finite center
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidAtomError):
            kmeans(np.array([[0.0, 1.0], [bad, 0.5], [1.0, 0.0]]), 2)
    # off a line too: three distinct points, one repeated, cannot fill k = 4
    with pytest.raises(TooFewPointsError, match="3 distinct points"):
        kmeans(np.array([[1e-6, 0.0], [0.0, 1e-6], [0.0, 0.0], [0.0, 0.0]]), 4)


def test_kmeans_rejects_one_dimensional_input():
    # Three scalars are not one point in R^3: the shape is named, not guessed.
    with pytest.raises(DimensionMismatchError, match=r"\(3,\)"):
        kmeans(np.array([0.1, 0.5, 0.9]), 2)


def test_kmeans_deterministic():
    pts = RNG.uniform(0, 1, size=(80, 3))
    a = kmeans(pts, 4)
    b = kmeans(pts, 4)
    assert a.centers.tobytes() == b.centers.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.inertia == b.inertia and a.history == b.history


def test_kmeans_inertia_nonincreasing_within_run():
    pts = RNG.uniform(0, 1, size=(200, 2))
    res = kmeans(pts, 3)
    hist = np.asarray(res.history)
    assert hist.size >= 1
    assert np.all(np.diff(hist) <= 1e-9)


def test_lloyd_reseeds_an_empty_cluster():
    # The third center is far from every point, so no point picks it at
    # first: Lloyd's update reseeds it at the point farthest from its center.
    pts = np.random.default_rng(5).uniform(0, 1, size=(50, 2))
    start = np.array([pts[0], pts[1], [100.0, 100.0]])
    centers, counts, inertia, history = _lloyd(pts, start.copy())
    assert (counts > 0).all() and counts.sum() == len(pts)
    assert np.abs(centers).max() <= 1.0
    again = _lloyd(pts, start.copy())
    assert (again[0].tobytes(), again[1].tobytes()) == (centers.tobytes(), counts.tobytes())
    assert (again[2], again[3]) == (inertia, history)


def test_kmeans_permutation_invariant_output():
    pts = RNG.uniform(0, 1, size=(50, 2))
    res = kmeans(pts, 3)
    perm = RNG.permutation(50)
    res_p = kmeans(pts[perm], 3)
    # same optimum found (point order only affects seeding draws, so compare
    # the achieved objective and the sorted centers at a loose tolerance)
    assert res_p.inertia == pytest.approx(res.inertia, rel=1e-6)
    assert np.allclose(res_p.centers, res.centers, atol=1e-6)


def _brute_force_kmeans(pts, k):
    """Least inertia over every labelling with k non-empty clusters, and the
    weights of that labelling ordered like kmeans's centers."""
    labels = np.array(list(itertools.product(range(k), repeat=len(pts))))
    sq = (pts**2).sum(axis=1)
    inertia = np.zeros(len(labels))
    counts = np.zeros((len(labels), k))
    for c in range(k):
        mask = (labels == c).astype(np.float64)
        counts[:, c] = mask.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            inertia += mask @ sq - ((mask @ pts) ** 2).sum(axis=1) / counts[:, c]
    inertia[(counts == 0).any(axis=1)] = np.inf
    best = int(np.argmin(inertia))
    centers = np.array([pts[labels[best] == c].mean(axis=0) for c in range(k)])
    order = np.lexsort(centers.T[::-1])
    return inertia[best], counts[best, order] / len(pts)


def _collinear_cloud(gen, n, d):
    """n points on a random line in R^d (the simplex segment when d = 2)."""
    x = gen.uniform(0, 1, size=n)
    if d == 2:
        return np.column_stack([x, 1.0 - x])
    return gen.uniform(-1, 1, size=d) + x[:, None] * gen.uniform(-1, 1, size=d)


@pytest.mark.parametrize("k, n_max", [(2, 12), (3, 10)])
def test_kmeans_exact_path_matches_brute_force(k, n_max):
    gen = np.random.default_rng(2011)
    for n in range(k, n_max + 1):
        for d in (2, 3):
            pts = _collinear_cloud(gen, n, d)
            res = kmeans(pts, k)
            inertia, weights = _brute_force_kmeans(pts, k)
            assert res.history == ()
            assert res.inertia == pytest.approx(inertia, abs=1e-12)
            assert np.array_equal(res.weights, weights)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_kmeans_exact_path_never_worse_than_lloyd(seed):
    # Simplex clouds shaped like the estimators' input: l1-normalized
    # heavy-tailed vectors.  Where a Lloyd run reaches the exact partition,
    # its centers and inertia must be the same bytes.
    gen = np.random.default_rng(seed)
    z = gen.pareto(2.0, size=(2000, 2))
    pts = z / z.sum(axis=1, keepdims=True)
    for k in (2, 3, 4):
        res = kmeans(pts, k)
        assert res.history == ()
        exact_labels, _ = _assign_points(pts, res.centers)
        for r in range(10):
            lloyd_gen = np.random.Generator(np.random.Philox(key=[seed, r]))
            centers0 = _kmeans_pp_seed(pts, k, lloyd_gen)
            centers, _, inertia, _ = _lloyd(pts, centers0)
            assert res.inertia <= inertia
            order = np.lexsort(centers.T[::-1])
            if np.array_equal(_assign_points(pts, centers[order])[0], exact_labels):
                assert np.array_equal(centers[order], res.centers)
                assert inertia == res.inertia


def test_kmeans_non_collinear_2d_cloud_runs_lloyd():
    x = RNG.uniform(0, 1, size=300)
    line = np.column_stack([x, 1.0 - x])
    # Rounding off the segment keeps the exact path; a perpendicular offset
    # far above rounding (1e-9 on unit coordinates) does not.
    z = RNG.pareto(2.0, size=(300, 2))
    assert kmeans(z / z.sum(axis=1, keepdims=True), 2).history == ()
    noisy = line + RNG.normal(0, 1e-9, size=line.shape)
    for pts in (RNG.uniform(0, 1, size=(300, 2)), noisy):
        assert len(kmeans(pts, 2).history) >= 1


def test_kmeans_exact_path_degenerate_input():
    a, b, c = [0.2, 0.8], [0.5, 0.5], [0.9, 0.1]
    # duplicates: k distinct points -> one cluster each, zero inertia
    res = kmeans(np.array([c, a, a, c, a, b]), 3)
    assert res.inertia == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(res.centers, np.array([a, b, c]), rtol=0, atol=1e-15)
    assert np.array_equal(res.weights, np.array([3, 1, 2]) / 6)
    # duplicates never split: both copies of b join one side
    res = kmeans(np.array([a, b, b, c]), 2)
    assert sorted(res.weights) == [0.25, 0.75]
    # a tie between two splits goes to the smaller split index
    res = kmeans(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]), 2)
    assert np.array_equal(res.weights, np.array([1, 2]) / 3)
    # fewer distinct points than clusters
    for pts, k in (([a, a, a], 2), ([a, b, a, b], 3)):
        with pytest.raises(TooFewPointsError):
            kmeans(np.array(pts), k)
    # three distinct rows, two of them apart by rounding off the line only:
    # the count names what it counts
    cloud = np.array([[1e6, 1e6], [1e6 + 2, 1e6 + 1], [1e6 + 2, 1e6 + 1 + 1e-7]])
    with pytest.raises(TooFewPointsError, match="2 distinct positions along the line"):
        kmeans(cloud, 3)
    # k = n with distinct points, and every cluster of a larger cloud
    # non-empty with finite centers
    x = RNG.uniform(0, 1, size=12)
    line = np.column_stack([x, 1.0 - x])
    for k in (2, 5, 12):
        res = kmeans(line, k)
        assert np.all(res.weights > 0) and np.all(np.isfinite(res.centers))
    assert kmeans(line, 12).inertia == pytest.approx(0.0, abs=1e-15)


FINITE = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
OFFSET = st.sampled_from([0.0, 1.0, -37.5, 1e3, 1e6, -1e6])


@st.composite
def clouds(draw, collinear=False):
    """Finite (n, d) clouds: rows drawn with repeats from a small pool, some
    columns constant, scaled, then shifted by offsets up to 1e6.  Collinear
    clouds put the pool on a line a + t b."""
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, 4))
    pool = draw(st.integers(1, n))
    if collinear:
        t = draw(hnp.arrays(np.float64, pool, elements=FINITE))
        b = draw(hnp.arrays(np.float64, d, elements=FINITE))
        base = t[:, None] * b
    else:
        base = draw(hnp.arrays(np.float64, (pool, d), elements=FINITE))
    rows = draw(hnp.arrays(np.int64, n, elements=st.integers(0, pool - 1)))
    pts = base[rows] * draw(st.sampled_from([1e-6, 1.0, 1e3]))
    if not collinear:
        pts[:, draw(hnp.arrays(np.bool_, d))] = 0.0
    return pts + np.array([draw(OFFSET) for _ in range(d)])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(clouds(), st.integers(1, 5))
def test_kmeans_property_full_weights_or_typed_error(pts, k):
    try:
        res = kmeans(pts, k)
    except TooFewPointsError:
        return
    assert res.centers.shape == (k, pts.shape[1])
    assert np.all(np.isfinite(res.centers)) and np.isfinite(res.inertia)
    assert np.all(res.weights > 0)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-12)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(clouds(collinear=True), st.integers(1, 5))
def test_kmeans_property_collinear_no_worse_than_lloyd(pts, k):
    try:
        res = kmeans(pts, k)
    except TooFewPointsError:
        return
    # The exact path ranks partitions by prefix-sum costs, which resolve
    # inertia to about n eps times the total sum of squares; below that two
    # partitions tie (say, sub-groups 1e-112 apart in a cloud 1e-6 wide).
    tss = ((pts - pts.mean(axis=0)) ** 2).sum()
    tol = 8 * len(pts) * np.finfo(np.float64).eps * tss
    for r in range(LLOYD_RESTARTS):
        gen = np.random.Generator(np.random.Philox(key=[0, r]))
        _, _, inertia, _ = _lloyd(pts, _kmeans_pp_seed(pts, k, gen))
        assert res.inertia <= inertia + tol



def _simplex_cloud(seed, n, d=3):
    """n l1-normalized Pareto(2) vectors in R^d, shaped like the estimators' input."""
    z = np.random.default_rng(seed).pareto(2.0, size=(n, d))
    return z / z.sum(axis=1, keepdims=True)


# sha256 prefixes of kmeans' centers, weights, inertia and history on three
# d = 3 simplex clouds: Lloyd's path, which no d = 2 cloud takes.
@pytest.mark.parametrize(
    "seed, n, k, iters, digest",
    [
        (0, 300, 2, 8, "816868339e06cac8"),
        (0, 300, 3, 5, "045aa638ae9585d9"),
        (0, 300, 4, 15, "b012cb8887adcaab"),
        (1, 700, 2, 14, "5791c5aae03a8f2c"),
        (1, 700, 3, 7, "9ed0b5a0c53555a1"),
        (1, 700, 4, 8, "df9efe08d65c040d"),
        (2, 1500, 2, 9, "dc978ad4b961bd95"),
        (2, 1500, 3, 11, "0fb3627e087f2909"),
        (2, 1500, 4, 11, "5dcfd66a2bd15e31"),
    ],
)
def test_lloyd_kmeans_pins_its_bytes(seed, n, k, iters, digest):
    res = kmeans(_simplex_cloud(seed, n), k)
    assert len(res.history) == iters
    raw = res.centers.tobytes() + res.weights.tobytes()
    raw += np.array([res.inertia, *res.history]).tobytes()
    assert hashlib.sha256(raw).hexdigest()[:16] == digest


def test_d3_sweep_pins_its_bytes(tmp_path):
    # Both estimators on a non-diagonal 3 x 3 model run Lloyd at k = 3.
    A = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, 0.4, 1.0]])
    cfg = ExperimentConfig(
        alpha=2.0,
        s=0.2,
        n_grid=(1024, 2048, 4096),
        replicates=2,
        base_seed=20240601,
        conv=ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.2),
        two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0),
        latent_kind="iid-pareto",
        fixed_A=A,
    )
    emit_outputs(run_convergence_experiment(cfg), tmp_path)
    digest = hashlib.sha256((tmp_path / "rows.csv").read_bytes()).hexdigest()
    assert digest == "f652b092d085c5a3d05854ce73c282e8c8466dcded2a6e6644c803dbdda52fe0"


def test_invert_identity_and_known_matrix():
    assert np.allclose(invert_square_matrix(np.eye(3)), np.eye(3))
    M = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.allclose(invert_square_matrix(M), [[1.0, -1.0], [-1.0, 2.0]])


def test_invert_random_well_conditioned_matrices():
    for _ in range(200):
        m = int(RNG.integers(2, 9))
        M = RNG.normal(size=(m, m)) + m * np.eye(m)
        inv = invert_square_matrix(M)
        assert np.abs(M @ inv - np.eye(m)).max() <= 1e-8
        assert np.abs(inv @ M - np.eye(m)).max() <= 1e-8


def test_invert_singular_raises():
    with pytest.raises(NearSingularError):
        invert_square_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(NearSingularError):
        invert_square_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))
    with pytest.raises(ValueError):
        invert_square_matrix(np.ones((2, 3)))


def test_loglog_fit_recovers_planted_power_law():
    ns = [10, 100, 1000, 10_000]
    errs = [3.0 * n ** (-0.42) for n in ns]
    slope, intercept, r2 = fit_loglog_slope(ns, errs)
    assert slope == pytest.approx(-0.42, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_loglog_fit_r2_below_one_with_noise():
    ns = np.array([10, 100, 1000, 10_000], dtype=float)
    errs = ns**-0.3 * np.exp(RNG.normal(0, 0.2, size=4))
    slope, _, r2 = fit_loglog_slope(ns, errs)
    assert r2 < 1.0
    assert -0.8 < slope < 0.0


def test_loglog_fit_input_validation():
    with pytest.raises(ValueError):
        fit_loglog_slope([10], [0.1])
    # an error with no finite logarithm is a typed error
    for bad in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(DegenerateDesignError):
            fit_loglog_slope([10, 100], [0.1, bad])
    with pytest.raises(DegenerateDesignError):
        fit_loglog_slope([10, 10, 10], [0.1, 0.2, 0.3])
