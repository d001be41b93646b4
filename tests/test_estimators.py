import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailfactor.errors import (
    DimensionMismatchError,
    InvalidAtomError,
    NoExceedancesError,
    NoSolutionError,
    TooFewPointsError,
)
from tailfactor.estimators import (
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
from tailfactor.measures import ModelSpec, SampleBatch, spectral_measure_of
from tailfactor.sampling import generate_dataset
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
    cfg = TwoStepConfig(kappa_tilde=0.5, kappa=1.0, alpha=2.0, s=0.2)
    n = 1000
    assert direction_threshold(n, cfg) == pytest.approx(
        0.5 * (n / np.log(n)) ** 0.5
    )
    with pytest.raises(TooFewPointsError):
        direction_threshold(2, cfg)


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
    cfg = TwoStepConfig(kappa_tilde=1.0, kappa=1.0, alpha=2.0, s=0.2)
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
    cfg = TwoStepConfig(kappa_tilde=1e9, kappa=1.0, alpha=2.0, s=0.2)
    with pytest.raises(TooFewPointsError):
        estimate_directions(batch, cfg)


def test_two_step_recovers_diagonal_model():
    A = np.diag([1.3, 0.8])
    batch = _batch(2**16, A=A, s=0.3)
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.3)
    a_hat, mu, n_tt = estimate_two_step(batch, cfg)
    truth = spectral_measure_of(A, 2.0)
    assert wasserstein_p(mu, truth, 1.0) < 0.1
    # recovered magnitudes in the right ballpark (columns sorted either way)
    mags = np.sort(np.abs(a_hat).sum(axis=0))
    assert np.allclose(mags, [0.8, 1.3], atol=0.25)


def test_two_step_column_permutation_invariance():
    batch = _batch(2**13, A=np.diag([1.5, 0.7]), s=0.3)
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.3)
    a_dir, _ = estimate_directions(batch, cfg)
    _, mu = two_step_from_directions(batch, cfg, a_dir)
    _, mu_p = two_step_from_directions(batch, cfg, a_dir[:, ::-1])
    assert np.allclose(mu.atoms, mu_p.atoms, atol=1e-12)
    assert np.allclose(mu.weights, mu_p.weights, atol=1e-12)


def test_two_step_requires_square_model():
    spec = ModelSpec(A=np.ones((2, 3)), alpha=2.0, s=0.2)
    batch = generate_dataset(spec, 100, seed=0)
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.2)
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
        TwoStepConfig(kappa_tilde=0.3, kappa=-1.0, alpha=2.0, s=0.2)
    # alpha and s are checked where the configs are built
    with pytest.raises(ValueError):
        ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.5)
    with pytest.raises(ValueError):
        TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=0.0, s=0.2)
    # NaN and inf fail the range checks too; an extreme finite alpha passes
    conv = dict(kappa_bar=1.0, alpha=2.0, s=0.2)
    two_step = dict(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.2)
    for bad in (math.nan, math.inf):
        for key in ("kappa_bar", "alpha"):
            with pytest.raises(ValueError):
                ConvConfig(**{**conv, key: bad})
        for key in ("kappa_tilde", "kappa", "alpha"):
            with pytest.raises(ValueError):
                TwoStepConfig(**{**two_step, key: bad})
    ConvConfig(**{**conv, "alpha": 1e300})
    TwoStepConfig(**{**two_step, "alpha": 1e300})
