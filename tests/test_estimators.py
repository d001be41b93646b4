import hashlib
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailfactor import estimators, measures, numerics
from tailfactor.errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidAtomError,
    NoExceedancesError,
    NoSolutionError,
    TailFactorError,
    TooFewPointsError,
)
from tailfactor.estimators import (
    R_HAT,
    ConvConfig,
    TwoStepConfig,
    conventional_threshold,
    direction_threshold,
    empirical_angular_measure,
    estimate_conventional,
    estimate_directions,
    estimate_two_step,
    solve_theta,
    two_step_from_directions,
)
from tailfactor.measures import ModelSpec, SampleBatch, column_dot, spectral_measure_of
from tailfactor.numerics import invert_square_matrix
from tailfactor.sampling import generate_dataset, tail_threshold
from tailfactor.transport import wasserstein_p


def _rows_batch(rows):
    spec = ModelSpec(A=np.eye(2), alpha=2.0, s=0.2, latent_kind="iid-pareto")
    return SampleBatch(spec=spec, seed=0, stream_id=0, xs=np.array(rows))


def test_empirical_angular_measure_hand_count():
    batch = _rows_batch([[3.0, 1.0], [0.5, 0.5], [2.0, 2.0]])
    mu, n_tau = empirical_angular_measure(batch, 1.5)
    assert n_tau == 2  # (0.5, 0.5) has norm 1 <= 1.5 and drops out
    assert np.allclose(mu.atoms, [[0.5, 0.5], [0.75, 0.25]])
    assert np.allclose(mu.weights, [0.5, 0.5])


def test_empirical_angular_measure_no_exceedances():
    batch = _rows_batch([[0.2, 0.1], [0.1, 0.3]])
    with pytest.raises(NoExceedancesError):
        empirical_angular_measure(batch, 10.0)
    with pytest.raises(ValueError):
        empirical_angular_measure(batch, -1.0)
    # a non-finite row makes no batch, so it is never dropped as below the
    # threshold
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidAtomError):
            _rows_batch([[3.0, 1.0], [bad, 1.0]])


def test_row_with_overflowing_norm_keeps_its_direction():
    # the l1-norm of (1.5e308, 1.5e308) is inf: above every tau, direction (1/2, 1/2)
    rows = np.ones((100, 2))
    rows[::20] = 1.5e308
    batch = _rows_batch(rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu, n_tau = empirical_angular_measure(batch, 10.0)
        assert (n_tau, mu.atoms.tolist(), mu.weights.tolist()) == (5, [[0.5, 0.5]], [1.0])
        # one direction is too few for the model's two factors
        with pytest.raises(TooFewPointsError):
            estimate_conventional(batch, ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.2))
        with pytest.raises(TooFewPointsError):
            estimate_two_step(batch, TwoStepConfig(0.3, 1.0))
        # finite rows keep their arithmetic next to an overflowing one
        mu, n_tau = empirical_angular_measure(_rows_batch([[3.0, 1.0], [1.7e308, 0.4e308]]), 1.5)
    assert n_tau == 2 and mu.atoms[0].tolist() == [0.75, 0.25]
    assert np.allclose(mu.atoms[1], [17 / 21, 4 / 21], rtol=1e-15, atol=0)


# Rows of ones beside rows whose product with the inverse direction matrix
# overflows float64 (the second kind cancels to about 3.7e292 in the first column).
OVERFLOWING_PRODUCTS = [[1.0, 1.0]] * 1000 + [[1.5e308, 1.5e308]] * 3 + [[1.7e308, 0.4e308]] * 3


@pytest.mark.skipif(
    np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
    reason="needs a long double wider than float64",
)
def test_magnitude_stage_counts_overflowing_products_exactly():
    batch = _rows_batch(OVERFLOWING_PRODUCTS)
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_hat, _, _ = estimate_two_step(batch, cfg)
    # the per-column counts of an extended-precision product, which does not overflow
    a_dir, _ = estimate_directions(batch, cfg)
    wide = batch.xs.astype(np.longdouble) @ invert_square_matrix(a_dir).T.astype(np.longdouble)
    tau = tail_threshold(batch.n, 2.0, 0.2, 1.0)
    counts = (wide > tau).sum(axis=0).tolist()
    assert counts == [6, 3]
    thetas = [solve_theta(c, batch.n, R_HAT, tau, 2.0) for c in counts]
    assert np.array_equal(a_hat, a_dir * thetas)


def test_magnitude_stage_rescales_an_entry_whose_terms_overflow():
    # a_inv = [[3, -2], [-2, 3]]: both terms of (1.7e308, 1.5e308) . a_inv[k]
    # overflow, with opposite signs, so the entry reads nan.  Scaled by the
    # row's largest entry it is 2.1e308 and 1.1e308, above tau; a row of
    # ones gives 1, below tau (about 7.9).
    batch = _rows_batch([[1.0, 1.0]] * 1000 + [[1.7e308, 1.5e308]] * 3)
    a_dir = np.array([[0.6, 0.4], [0.4, 0.6]])
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0)
    tau = tail_threshold(batch.n, 2.0, 0.2, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a_hat, _ = two_step_from_directions(batch, cfg, a_dir)
    thetas = [solve_theta(3, batch.n, R_HAT, tau, 2.0)] * 2
    assert np.array_equal(a_hat, a_dir * thetas)


@pytest.mark.parametrize(
    "a_dir",
    [
        [[0.8, 0.3], [0.2, 0.7]],  # an inverse with negative entries
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.6, 0.1, 0.2], [0.3, 0.7, 0.2], [0.1, 0.2, 0.6]],
    ],
    ids=["2x2-negative-inverse", "identity", "3x3"],
)
def test_magnitude_stage_counts_match_the_matrix_product(a_dir):
    # the per-column counts of x . a_inv[k] > tau, against the whole product
    a_dir = np.array(a_dir)
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0)
    spec = ModelSpec(A=a_dir * 2.0, alpha=2.0, s=0.2, latent_kind="iid-pareto")
    a_inv = invert_square_matrix(a_dir)
    for seed in range(6):
        batch = generate_dataset(spec, 2 * 2**15 + 123, seed=seed)
        tau = tail_threshold(batch.n, 2.0, 0.2, 1.0)
        counts = (batch.xs @ a_inv.T > tau).sum(axis=0).tolist()
        thetas = [solve_theta(c, batch.n, R_HAT, tau, 2.0) for c in counts]
        a_hat, _ = two_step_from_directions(batch, cfg, a_dir)
        assert np.array_equal(a_hat, a_dir * thetas), (seed, counts)


def _whole_product_counts(batch, a_dir, tau):
    """Each coordinate's count of rows with x . a_inv[k] > tau, every row
    multiplied by column_dot; an entry that overflows is compared after
    scaling its row by its largest entry, tau scaled the same way."""
    counts = []
    for w in invert_square_matrix(a_dir):
        with np.errstate(over="ignore", invalid="ignore"):
            dot = column_dot(batch.xs, w)
        bad = ~np.isfinite(dot)
        scale = batch.xs[bad].max(axis=1)
        above = dot > tau
        above[bad] = column_dot(batch.xs[bad] / scale[:, None], w) > tau / scale
        counts.append(int(above.sum()))
    return counts


def _stage_counts(monkeypatch, batch, a_dir, kappa):
    """The counts the magnitude stage hands solve_theta, up to the first
    that has no solution."""
    seen = []

    def record(count, *args):
        seen.append(count)
        return solve_theta(count, *args)

    monkeypatch.setattr(estimators, "solve_theta", record)
    try:
        two_step_from_directions(batch, TwoStepConfig(kappa_tilde=0.3, kappa=kappa), a_dir)
    except TailFactorError:  # a count of 0, or an a_dir with negative entries
        pass
    return seen


def _rows_at_tau(a_dir, n, kappa=1.0):
    """For each row w of a_dir's inverse, rows x with x . w within a few
    ulps of tau on either side, padded with rows of ones to n rows: x on w's
    largest entry alone, where x . w <= max(w, 0) ||x||_1 is tight; with a
    fraction of an ulp of that entry on the next coordinate, which the row
    sum may round away while the product keeps it; and with a small entry
    where w is negative."""
    tau = tail_threshold(n, 2.0, 0.2, kappa)
    rows = []
    for w in invert_square_matrix(a_dir):
        j = int(np.argmax(w))
        x = np.zeros(len(w))
        x[j] = tau / w[j]
        for _ in range(5):
            x[j] = np.nextafter(x[j], 0.0)
        for _ in range(9):
            x[j] = np.nextafter(x[j], np.inf)
            for share in (0.0, 0.3, 0.45, 0.6, 0.9):
                y = x.copy()
                y[(j + 1) % len(w)] = share * np.spacing(x[j])
                rows.append(y)
            if w.min() < 0:
                y = x.copy()
                y[np.argmin(w)] = 1e-15 * x[j]
                rows.append(y)
    return np.vstack(rows + [np.ones(len(a_dir))] * (n - len(rows)))


def _square_batch(xs):
    spec = ModelSpec(A=np.eye(xs.shape[1]), alpha=2.0, s=0.2, latent_kind="iid-pareto")
    return SampleBatch(spec=spec, seed=0, stream_id=0, xs=xs)


def _drawn(A, seed):
    return generate_dataset(ModelSpec(A=A, alpha=2.0, s=0.2), 5000, seed=seed).xs


A3 = [[0.6, 0.1, 0.2], [0.3, 0.7, 0.2], [0.1, 0.2, 0.6]]
NEGATIVE_INVERSE = [[0.8, 0.3], [0.2, 0.7]]
NEAR_SINGULAR = [[0.501, 0.499], [0.499, 0.501]]  # inverse entries +-250
NON_POSITIVE_ROW = [[1.0, 0.5], [0.0, -1.0]]  # its own inverse: row 1 is (0, -1)
TIED_TOP = [[1 / 3, -0.5], [1 / 3, 0.5]]  # inverse row 0 is (1.5, 1.5)


@pytest.mark.parametrize(
    "a_dir, xs, kappa",
    [
        (NEAR_SINGULAR, _drawn(NEAR_SINGULAR, 3), 1.0),
        (NEAR_SINGULAR, _rows_at_tau(NEAR_SINGULAR, 1000), 1.0),
        (NEGATIVE_INVERSE, _rows_at_tau(NEGATIVE_INVERSE, 1000), 1.0),
        (np.eye(2), _rows_at_tau(np.eye(2), 1000), 1.0),
        (TIED_TOP, _rows_at_tau(TIED_TOP, 1000), 1.0),
        (NON_POSITIVE_ROW, _rows_at_tau(np.eye(2), 1000), 1.0),
        (A3, _rows_at_tau(A3, 1000), 1.0),
        (A3, _drawn(A3, 4), 1.0),
        (NEGATIVE_INVERSE, np.array(OVERFLOWING_PRODUCTS), 1.0),
        # tau below the normal range: every row is multiplied
        (np.eye(2), _rows_at_tau(np.eye(2), 4000, 1e-310), 1e-310),
    ],
    ids=[
        "large-negative-inverse", "large-negative-inverse-at-tau", "negative-inverse-at-tau",
        "identity-at-tau", "tied-top-at-tau", "all-non-positive-row", "d3-at-tau", "d3",
        "overflow", "subnormal-tau",
    ],
)
def test_magnitude_stage_screen_keeps_every_counted_row(monkeypatch, a_dir, xs, kappa):
    # the radius screen drops no row the whole product counts
    a_dir = np.array(a_dir, dtype=np.float64)
    batch = _square_batch(xs)
    tau = tail_threshold(batch.n, 2.0, 0.2, kappa)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = _stage_counts(monkeypatch, batch, a_dir, kappa)
    assert len(counts) == len(a_dir) and counts == _whole_product_counts(batch, a_dir, tau)


def test_magnitude_stage_counts_of_named_batches(monkeypatch):
    # the overflow batch keeps its counts [6, 3]; the row (0, -1) counts 0
    batch = _rows_batch(OVERFLOWING_PRODUCTS)
    a_dir, _ = estimate_directions(batch, TwoStepConfig(kappa_tilde=0.3, kappa=1.0))
    assert _stage_counts(monkeypatch, batch, a_dir, 1.0) == [6, 3]
    counts = _stage_counts(monkeypatch, _square_batch(_rows_at_tau(np.eye(2), 1000)),
                           np.array(NON_POSITIVE_ROW), 1.0)
    assert counts[1] == 0 and counts[0] > 0


def test_thresholds_take_no_row_sum_of_the_batch(monkeypatch):
    # the batch's l1-norms are summed once, when it is built; both
    # estimators' thresholds read them
    spec = ModelSpec(A=[[1.0, 0.4], [0.3, 1.0]], alpha=2.0, s=0.3)
    batch = generate_dataset(spec, 2**14, seed=11)
    sizes = []
    for module in (estimators, measures, numerics):
        real = module.row_sums
        monkeypatch.setattr(
            module, "row_sums", lambda xs, real=real: sizes.append(len(xs)) or real(xs)
        )
    estimate_conventional(batch, ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.3))
    estimate_two_step(batch, TwoStepConfig(kappa_tilde=0.3, kappa=1.0))
    assert sizes and max(sizes) < batch.n // 4


def test_conventional_threshold_regimes():
    # large-s regime: exponent 1/min(2+alpha, 3*alpha)
    cfg = ConvConfig(kappa_bar=2.0, alpha=2.0, s=0.4)
    assert conventional_threshold(16, cfg) == pytest.approx(2.0 * 16 ** (1.0 / 4.0))
    # alpha < 2/3 puts 3*alpha below 2+alpha
    cfg = ConvConfig(kappa_bar=1.0, alpha=0.5, s=0.4)
    assert conventional_threshold(16, cfg) == pytest.approx(16 ** (1.0 / 1.5))
    # small-s regime: exponent (1-2s)/alpha
    cfg = ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.1)
    assert conventional_threshold(16, cfg) == pytest.approx(16 ** (0.8 / 2.0))


def test_conventional_threshold_continuous_at_regime_boundary():
    for alpha in (1.0, 2.0, 3.5):
        s_c = 1.0 / (2.0 + max(1.0, alpha))
        below = ConvConfig(kappa_bar=1.0, alpha=alpha, s=s_c - 1e-9)
        at = ConvConfig(kappa_bar=1.0, alpha=alpha, s=s_c)
        assert conventional_threshold(4096, below) == pytest.approx(
            conventional_threshold(4096, at), rel=1e-6
        )


def test_direction_threshold_formula():
    n = 1000
    assert direction_threshold(n, 2.0, 0.5) == pytest.approx(0.5 * (n / np.log(n)) ** 0.5)
    with pytest.raises(TooFewPointsError):
        direction_threshold(2, 2.0, 0.5)
    # alpha arrives as a number here, not through a checked ModelSpec
    for alpha in (0.0, -1.0, math.nan, math.inf, True):
        with pytest.raises(InvalidAlphaError):
            direction_threshold(n, alpha, 0.5)


def test_solve_theta_closed_form_example():
    # count/n/r = 0.81, alpha = 2: (0.81)^(-1/2) - 1 = 1/9, theta = 9*tau
    theta = solve_theta(count=81, n=100, r_hat=1.0, tau=10.0, alpha=2.0)
    assert theta == pytest.approx(90.0, abs=1e-10)


def test_solve_theta_against_bisection_oracle():
    rng = np.random.default_rng(55)
    for _ in range(100):
        alpha = rng.uniform(0.3, 4.0)
        tau = rng.uniform(0.5, 50.0)
        n = int(rng.integers(100, 100_000))
        count = int(rng.integers(1, n // 2))
        r_hat = rng.uniform(0.5, 2.0)
        if count / (n * r_hat) >= 1.0:
            continue
        theta = solve_theta(count, n, r_hat, tau, alpha)

        def g(th):
            return r_hat * (1.0 + tau / th) ** (-alpha) - count / n

        lo, hi = 1e-12, 1e12
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert theta == pytest.approx(np.sqrt(lo * hi), rel=1e-6)


def test_solve_theta_error_cases():
    with pytest.raises(NoExceedancesError):
        solve_theta(0, 100, 1.0, 5.0, 2.0)
    with pytest.raises(NoSolutionError):
        solve_theta(100, 100, 1.0, 5.0, 2.0)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    st.integers(0, 2**53),
    st.integers(1, 2**53),
    st.floats(1e-3, 1e3),
    st.floats(1e-300, 1e300),
    st.floats(1e-300, 1e300),
)
@example(2**53 - 1, 2**53, 1.0, 1.0, 10.0)  # ratio^(-1/alpha) rounds to 1
@example(2**53 - 1, 2**53, 1.0, 1e-10, 1e300)  # ln(ratio)/alpha is subnormal
@example(1, 2**53, 1.0, 1e300, 1e-300)  # ratio^(-1/alpha) overflows
def test_solve_theta_property_solution_or_typed_error(count, n, r_hat, tau, alpha):
    try:
        theta = solve_theta(count, n, r_hat, tau, alpha)
    except (NoExceedancesError, NoSolutionError):
        return
    assert 0 < theta < math.inf
    # count/n = r_hat (1 + tau/theta)^-alpha, compared in logs
    lhs = math.log(count / (n * r_hat))
    assert -alpha * math.log1p(tau / theta) == pytest.approx(lhs, rel=1e-9)


def _batch(n, alpha=2.0, s=0.2, A=None, seed=101):
    if A is None:
        A = np.eye(2)
    spec = ModelSpec(A=A, alpha=alpha, s=s)
    return generate_dataset(spec, n, seed=seed)


def test_conventional_estimator_recovers_identity_model():
    batch = _batch(2**16)
    cfg = ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.2)
    mu, n_tau = estimate_conventional(batch, cfg)
    assert n_tau >= batch.spec.m
    truth = spectral_measure_of(np.eye(2), 2.0)
    assert wasserstein_p(mu, truth, 1.0) < 0.15


def test_conventional_estimator_clusters_into_the_models_factors():
    # a 2x3 model has three atoms, one per column of A
    A = np.array([[1.0, 0.2, 0.3], [0.1, 1.0, 0.2]])
    batch = _batch(2**14, A=A, seed=3)
    mu, n_tau = estimate_conventional(batch, ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.2))
    assert mu.n_atoms == 3 and n_tau >= 3
    assert wasserstein_p(mu, spectral_measure_of(A, 2.0), 1.0) < 0.15


def test_conventional_estimator_too_few_points():
    batch = _batch(8)
    # enormous kappa_bar pushes the threshold above every sample
    cfg = ConvConfig(kappa_bar=1e9, alpha=2.0, s=0.2)
    with pytest.raises((TooFewPointsError, NoExceedancesError)):
        estimate_conventional(batch, cfg)


def test_estimate_directions_unit_columns():
    batch = _batch(2**14, A=np.diag([2.0, 1.0]))
    cfg = TwoStepConfig(kappa_tilde=1.0, kappa=1.0)
    a_dir, n_tt = estimate_directions(batch, cfg)
    assert a_dir.shape == (2, 2)
    assert np.allclose(np.abs(a_dir).sum(axis=0), 1.0, atol=1e-12)
    assert n_tt >= batch.spec.m
    # diag model: direction columns approach the coordinate vertices
    off_diag = np.abs(a_dir - np.eye(2)[:, ::-1]).max()
    diag = np.abs(a_dir - np.eye(2)).max()
    assert min(off_diag, diag) < 0.15


def test_estimate_directions_zero_exceedances_maps_to_too_few_points():
    batch = _batch(64)
    cfg = TwoStepConfig(kappa_tilde=1e9, kappa=1.0)
    with pytest.raises(TooFewPointsError):
        estimate_directions(batch, cfg)


def test_two_step_recovers_diagonal_model():
    A = np.diag([1.3, 0.8])
    batch = _batch(2**16, A=A, s=0.3)
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0)
    a_hat, mu, n_tt = estimate_two_step(batch, cfg)
    truth = spectral_measure_of(A, 2.0)
    assert wasserstein_p(mu, truth, 1.0) < 0.1
    # recovered magnitudes in the right ballpark (columns sorted either way)
    mags = np.sort(np.abs(a_hat).sum(axis=0))
    assert np.allclose(mags, [0.8, 1.3], atol=0.25)


@pytest.mark.parametrize(
    "alpha, s, n_tt, digest",
    [(2.0, 0.3, 273, "4f803a2a74ea783b"), (3.0, 0.1, 757, "326b2a18630e9dbc")],
)
def test_two_step_at_the_batch_models_alpha_and_s_pins_its_bytes(alpha, s, n_tt, digest):
    # one config of tuning constants for both models: each estimate is the
    # one a config stating the batch model's alpha and s gave
    spec = ModelSpec(A=np.diag([1.3, 0.8]), alpha=alpha, s=s)
    batch = generate_dataset(spec, 2**16, seed=42)
    a_hat, mu, got = estimate_two_step(batch, TwoStepConfig(kappa_tilde=0.3, kappa=1.0))
    sha = hashlib.sha256(a_hat.tobytes() + mu.atoms.tobytes() + mu.weights.tobytes())
    assert (got, sha.hexdigest()[:16]) == (n_tt, digest)


def test_two_step_column_permutation_invariance():
    batch = _batch(2**13, A=np.diag([1.5, 0.7]), s=0.3)
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0)
    a_dir, _ = estimate_directions(batch, cfg)
    _, mu = two_step_from_directions(batch, cfg, a_dir)
    _, mu_p = two_step_from_directions(batch, cfg, a_dir[:, ::-1])
    assert np.allclose(mu.atoms, mu_p.atoms, atol=1e-12)
    assert np.allclose(mu.weights, mu_p.weights, atol=1e-12)


def test_two_step_requires_square_model():
    spec = ModelSpec(A=np.ones((2, 3)), alpha=2.0, s=0.2)
    batch = generate_dataset(spec, 100, seed=0)
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0)
    with pytest.raises(DimensionMismatchError, match="d=2, m=3"):
        estimate_two_step(batch, cfg)
    # n = 2 admits no direction threshold: a typed error, not a ValueError
    square = ModelSpec(A=np.eye(2), alpha=2.0, s=0.2)
    with pytest.raises(TooFewPointsError):
        estimate_two_step(generate_dataset(square, 2, seed=0), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        ConvConfig(kappa_bar=0.0, alpha=2.0, s=0.2)
    with pytest.raises(ValueError):
        TwoStepConfig(kappa_tilde=0.3, kappa=-1.0)
    # the two-step config holds its tuning constants only
    assert [f.name for f in fields(TwoStepConfig)] == ["kappa_tilde", "kappa"]
    # the ConvConfig's alpha and s are checked where it is built
    with pytest.raises(ValueError):
        ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.5)
    # NaN and inf fail the range checks too; an extreme finite alpha passes
    conv = dict(kappa_bar=1.0, alpha=2.0, s=0.2)
    two_step = dict(kappa_tilde=0.3, kappa=1.0)
    for bad in (math.nan, math.inf):
        for key in ("kappa_bar", "alpha"):
            with pytest.raises(ValueError):
                ConvConfig(**{**conv, key: bad})
        for key in ("kappa_tilde", "kappa"):
            with pytest.raises(ValueError):
                TwoStepConfig(**{**two_step, key: bad})
    ConvConfig(**{**conv, "alpha": 1e300})
    # a bool compares as 0 or 1, but it is not a number here
    for flag in (True, np.True_):
        for key in ("kappa_bar", "alpha"):
            with pytest.raises(ValueError, match="invalid conventional config"):
                ConvConfig(**{**conv, key: flag})
        for key in ("kappa_tilde", "kappa"):
            with pytest.raises(ValueError, match="invalid two-step config"):
                TwoStepConfig(**{**two_step, key: flag})
        with pytest.raises(InvalidAlphaError, match="got True"):
            ModelSpec(A=np.eye(2), alpha=flag, s=0.2)
