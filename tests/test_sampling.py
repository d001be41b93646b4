import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from tailfactor.errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidAtomError,
    MaxTrialsExceededError,
    SampleOverflowError,
    SampleSizeError,
    TooFewPointsError,
    WorstCaseDimensionError,
    ZeroColumnError,
)
from tailfactor.measures import ModelSpec, SampleBatch
from tailfactor.sampling import (
    RngStream,
    check_sample_size,
    generate_dataset,
    pareto_quantile,
    read_batch,
    sample_conditional_pareto,
    sample_latent_batch,
    sample_pareto,
    tail_threshold,
    worst_case_tilts,
    write_batch,
)


def test_pareto_quantile_examples():
    # u = 0.75, alpha = 2: (1-u)^(-1/2) - 1 = 1
    assert pareto_quantile(0.75, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert pareto_quantile(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_pareto_sampler_matches_cdf(alpha):
    gen = RngStream(7, 0).generator()
    x = sample_pareto(alpha, gen, size=200_000)
    # CDF of the shifted Pareto: F(x) = 1 - (1+x)^(-alpha)
    stat, _ = stats.kstest(x, lambda t: 1.0 - (1.0 + t) ** (-alpha))
    assert stat < 0.01


def test_tilted_sampler_matches_cdf():
    # A = I/c divides every Pareto coordinate by c
    alpha, c = 2.0, 1.3
    spec = ModelSpec(A=np.eye(2) / c, alpha=alpha, s=0.2, latent_kind="iid-pareto")
    x = generate_dataset(spec, 100_000, seed=11).xs.ravel()
    stat, _ = stats.kstest(x, lambda t: 1.0 - (1.0 + c * t) ** (-alpha))
    assert stat < 0.01


def test_conditional_sampler_against_quadrature():
    # P(z1 > 10 | z1 + z2 >= 5) for two i.i.d. Pareto(2) components,
    # computed by numerical integration of the joint density.
    alpha, t, q = 2.0, 5.0, 10.0

    def dens(z1):
        return alpha * (1.0 + z1) ** (-alpha - 1.0)

    def tail(z2_lo):
        return (1.0 + max(z2_lo, 0.0)) ** (-alpha)

    # numerator: z1 > q implies the norm condition holds (q > t)
    num, _ = integrate.quad(lambda z: dens(z), q, np.inf)
    den1, _ = integrate.quad(lambda z: dens(z) * tail(t - z), 0, t)
    den2, _ = integrate.quad(lambda z: dens(z), t, np.inf)
    target = num / (den1 + den2)

    # 400 k draws put the 2 % tolerance at 4.6 standard errors of the
    # tail fraction (target 0.116).
    draws = sample_conditional_pareto(400_000, 2, alpha, t, RngStream(23, 0).generator())
    assert np.all(draws.sum(axis=1) >= t)
    frac = float((draws[:, 0] > q).mean())
    assert frac == pytest.approx(target, rel=0.02)


def test_conditional_sampler_max_trials_budget():
    # One proposal per vector cannot fill 1,000 vectors at an acceptance
    # rate near 1/4 (t = 1e12).
    with pytest.raises(MaxTrialsExceededError):
        sample_conditional_pareto(1000, 2, 2.0, 1e12, RngStream(1, 0).generator(), max_trials=1)
    # At the edge of the float range (t = inf, 1e308) part of the law lies
    # beyond float64 (about 31 % above 1.8e308 at t = 1e308), so a proposal
    # overflows: the sampler raises rather than return a truncated law,
    # whatever the budget.
    for t in (math.inf, 1e308):
        with pytest.raises(SampleOverflowError):
            sample_conditional_pareto(1000, 2, 2.0, t, RngStream(1, 0).generator(), max_trials=1)
    with pytest.raises(SampleOverflowError):
        sample_conditional_pareto(10, 2, 2.0, 1e308, RngStream(1, 0).generator())


def test_rejection_cost_scales_with_acceptance_probability():
    # Count the proposals the sampler draws per accepted vector.  Proposing
    # from the law conditioned on max(z) >= t/m accepts with probability at
    # least m^-(alpha+1) at every threshold, so the cost must stay below
    # that bound's inverse however rare the event {||z||_1 >= t} is.
    class CountingGen(np.random.Generator):
        def __init__(self, seed):
            super().__init__(RngStream(seed, 0).generator().bit_generator)
            self.rows = 0

        def random(self, size=None):
            if size is not None:
                self.rows += int(np.atleast_1d(size)[0])
            return super().random(size)

    alpha, m = 1.0, 2
    for t in (10.0, 100.0, 1e6):
        cg = CountingGen(5)
        out = sample_conditional_pareto(500, m, alpha, t, cg)
        assert out.shape == (500, m)
        assert np.all(out.sum(axis=1) >= t)
        assert cg.rows / 500 <= m ** (alpha + 1)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    st.integers(1, 5),
    st.sampled_from([2, 3]),
    st.floats(0.1, 10.0),
    st.floats(0.0, 1e308),
    st.integers(0, 2**32),
)
@example(0, 2, 1e300, 1.0, 0)  # m^(alpha+1) overflows: no budget, nothing to draw
@example(1, 2, 1e300, 1.0, 0)
def test_conditional_sampler_property_tail_vectors_or_typed_error(count, m, alpha, t, seed):
    try:
        out = sample_conditional_pareto(count, m, alpha, t, RngStream(seed, 0).generator())
    except (MaxTrialsExceededError, SampleOverflowError):
        return
    assert out.shape == (count, m)
    assert np.all(np.isfinite(out)) and np.all(out >= 0)
    with np.errstate(over="ignore"):
        assert np.all(out.sum(axis=1) >= t)


def test_extreme_alpha_raises_typed_errors():
    # n^((1-2s)/alpha) overflows float64
    with pytest.raises(InvalidAlphaError, match="overflows float64"):
        tail_threshold(256, 1e-300, 0.4)
    # (1-u)^(-1/alpha) overflows for most draws at alpha = 1e-3
    spec = ModelSpec(A=np.eye(2), alpha=1e-3, s=0.2, latent_kind="iid-pareto")
    with pytest.raises(SampleOverflowError, match="alpha=0.001"):
        generate_dataset(spec, 64, seed=1)
    # alpha <= 0 is no tail index; m = 0 is no vector
    for alpha in (-1.0, 0.0):
        with pytest.raises(InvalidAlphaError):
            sample_pareto(alpha, RngStream(1, 0).generator(), 8)
        with pytest.raises(InvalidAlphaError):
            pareto_quantile(0.5, alpha)  # -0.5 at alpha = -1, ZeroDivisionError at 0
        with pytest.raises(InvalidAlphaError):
            tail_threshold(256, alpha, 0.4)
    with pytest.raises(InvalidAlphaError):
        sample_conditional_pareto(3, 2, -2.0, 5.0, RngStream(1, 0).generator())
    with pytest.raises(ValueError, match="m >= 1"):
        sample_conditional_pareto(3, 0, 2.0, 5.0, RngStream(1, 0).generator())


def test_sample_batch_checks_its_rows():
    spec = ModelSpec(A=np.eye(2), alpha=2.0, s=0.2, latent_kind="iid-pareto")
    xs = np.array([[3.0, 1.0], [0.5, 0.5]])
    batch = SampleBatch(spec=spec, seed=0, stream_id=0, xs=xs)
    assert batch.xs.dtype == np.float64 and not batch.xs.flags.writeable
    assert xs.flags.writeable  # the caller's array is left as it was
    # a row of the wrong width, a 1-d sample, and entries X = A Z cannot take
    for bad in (np.ones((4, 3)), np.ones(4)):
        with pytest.raises(DimensionMismatchError, match="need 2 columns"):
            SampleBatch(spec=spec, seed=0, stream_id=0, xs=bad)
    for value in (-0.5, -5e-324, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidAtomError, match="negative or non-finite value"):
            SampleBatch(spec=spec, seed=0, stream_id=0, xs=[[3.0, 1.0], [value, 1.0]])


def test_negative_and_large_seeds_draw_distinct_streams():
    draws = {
        seed: RngStream(seed, 0).generator().random()
        for seed in (0, 1, -1, -2, 2**63, 2**63 + 1)
    }
    assert len(set(draws.values())) == len(draws)
    assert draws[-1] == RngStream(2**64 - 1, 0).generator().random()


def test_conditional_sampler_rare_event_costs_few_rounds():
    # alpha = 10, m = 3 accepts about one proposal in 6e4; rounds sized by
    # the acceptance rate seen so far draw them in a handful of calls.
    calls = []

    class CountingGen(np.random.Generator):
        def random(self, size=None):
            calls.append(size)
            return super().random(size)

    gen = CountingGen(RngStream(3, 0).generator().bit_generator)
    out = sample_conditional_pareto(2, 3, 10.0, 1e3, gen)
    assert np.all(out.sum(axis=1) >= 1e3)
    assert len(calls) <= 20
    # The vectors are the first accepted proposals of the stream, whatever
    # the rounds: fewer vectors from the same stream are a prefix.
    for m, alpha, t in ((2, 2.0, 50.0), (3, 10.0, 1e3), (3, 0.5, 1e6)):
        more = sample_conditional_pareto(7, m, alpha, t, RngStream(4, 0).generator())
        fewer = sample_conditional_pareto(3, m, alpha, t, RngStream(4, 0).generator())
        assert np.array_equal(more[:3], fewer)


def test_worst_case_tilts_and_threshold_formulas():
    c1, c2 = worst_case_tilts(10_000, 0.5)  # n^-0.5 = 0.01
    assert c1 == pytest.approx(1.01)
    assert c2 == pytest.approx(0.99)
    # at n = 1 the second tilt would vanish
    spec = ModelSpec(A=np.eye(2), alpha=2.0, s=0.4, latent_kind="tilted-worst-case")
    with pytest.raises(TooFewPointsError, match="n >= 2"):
        sample_latent_batch(spec, 1, RngStream(1, 0).generator())
    # at s = 1e-20 n^-s rounds to 1, and the second tilt is 0
    spec = ModelSpec(A=np.eye(2), alpha=2.0, s=1e-20, latent_kind="tilted-worst-case")
    with pytest.raises(ZeroColumnError, match="s=1e-20 is too small at n=256"):
        sample_latent_batch(spec, 256, RngStream(1, 0).generator())
    # scale * n^((1-2s)/alpha): n=256, s=0.25, alpha=1 -> 256^0.5 = 16
    assert tail_threshold(256, 1.0, 0.25, 1.0) == pytest.approx(16.0)
    assert tail_threshold(256, 1.0, 0.25, 2.0) == pytest.approx(32.0)


def test_worst_case_latent_needs_two_factors():
    with pytest.raises(WorstCaseDimensionError):
        ModelSpec(A=np.eye(3), alpha=2.0, s=0.2, latent_kind="tilted-worst-case")


def test_worst_case_batch_is_pareto_above_threshold():
    # Above t the worst-case law coincides with the untilted product law
    # conditioned on the norm; check the tails of z1 look Pareto(alpha).
    spec = ModelSpec(A=np.eye(2), alpha=2.0, s=0.4, latent_kind="tilted-worst-case")
    n = 200_000
    gen = RngStream(99, 0).generator()
    z = sample_latent_batch(spec, n, gen)
    assert z.shape == (n, 2)
    assert np.all(z >= 0)
    t = tail_threshold(n, 2.0, 0.4)
    sub = z[z.sum(axis=1) >= t]
    assert sub.shape[0] > 100  # threshold regime leaves a real tail


def test_generate_dataset_deterministic_and_stream_separated():
    spec = ModelSpec(A=np.diag([2.0, 1.0]), alpha=1.5, s=0.3)
    b1 = generate_dataset(spec, 500, seed=42, stream_id=0)
    b2 = generate_dataset(spec, 500, seed=42, stream_id=0)
    b3 = generate_dataset(spec, 500, seed=42, stream_id=1)
    assert np.array_equal(b1.xs, b2.xs)
    assert not np.array_equal(b1.xs, b3.xs)
    # X = A Z with A = diag(2, 1): column-0 marginal is twice a Pareto draw
    assert b1.xs.shape == (500, 2)
    assert not b1.xs.flags.writeable
    # Sizes below 1 or beyond numpy's index range fail before any draw.
    for n in (0, -3, 2**62):
        with pytest.raises(SampleSizeError):
            generate_dataset(spec, n, seed=42)
    # The widest of the n x d and n x m arrays counts; this only computes.
    check_sample_size(5 * 10**17, 2)
    with pytest.raises(SampleSizeError, match="n x 3"):
        check_sample_size(5 * 10**17, 3)


def test_batch_csv_round_trip(tmp_path):
    spec = ModelSpec(A=np.diag([1.5, 0.5]), alpha=2.0, s=0.2)
    batch = generate_dataset(spec, 64, seed=3, stream_id=7)
    path = tmp_path / "batch.csv"
    write_batch(batch, path)
    back = read_batch(path)
    assert np.array_equal(batch.xs, back.xs)
    assert back.seed == 3 and back.stream_id == 7
    assert back.spec.alpha == spec.alpha and back.spec.s == spec.s
    assert np.array_equal(back.spec.A, spec.A)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2"
    # The threshold scale is a constant: not written, but an older
    # sidecar's "zeta": 1 still loads.
    side = path.with_suffix(".json")
    doc = json.loads(side.read_text())
    assert "zeta" not in doc
    side.write_text(json.dumps({**doc, "zeta": 1}))
    assert np.array_equal(read_batch(path).xs, batch.xs)


def _edit_sidecar(edit):
    def spoil(path):
        side = path.with_suffix(".json")
        doc = json.loads(side.read_text())
        edit(doc)
        side.write_text(json.dumps(doc))

    return spoil


def _edit_csv(edit):
    def spoil(path):
        lines = path.read_text().splitlines()
        edit(lines)
        path.write_text("\n".join(lines) + "\n")

    return spoil


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_edit_csv(lambda lines: lines.__setitem__(3, "inf,1.0")), "non-finite value"),
        (_edit_csv(lambda lines: lines.__setitem__(3, "-0.5,1.0")), "negative or non-finite"),
        (_edit_csv(lambda lines: lines.pop()), "n = 64, d = 2, CSV (63, 2)"),
        (_edit_sidecar(lambda doc: doc.pop("latent_kind")), "sidecar lacks key 'latent_kind'"),
        (_edit_sidecar(lambda doc: doc.update(A=np.eye(3).tolist())), "d = 3, CSV (64, 2)"),
        (_edit_sidecar(lambda doc: doc.update(s=0.7)), "s must be in"),
        (_edit_sidecar(lambda doc: doc.update(alpha=True)), "must be numbers, not booleans"),
        (_edit_sidecar(lambda doc: doc.update(alpha=float("inf"))), "alpha must be finite"),
        (_edit_sidecar(lambda doc: doc.update(alpha=float("nan"))), "alpha must be finite"),
        (_edit_sidecar(lambda doc: doc.update(zeta=2)), "zeta must be 1.0, got 2"),
    ],
    ids=[
        "inf-cell", "negative-cell", "row-missing", "key-missing", "d-disagrees", "bad-model",
        "alpha-true", "alpha-inf", "alpha-nan", "zeta-2",
    ],
)
def test_read_batch_rejects_malformed_files(tmp_path, spoil, message):
    path = tmp_path / "batch.csv"
    write_batch(generate_dataset(ModelSpec(A=np.eye(2), alpha=2.0, s=0.2), 64, seed=3), path)
    spoil(path)
    with pytest.raises(ConfigError) as exc:
        read_batch(path)
    assert message in str(exc.value) and path.stem in str(exc.value)
