import dataclasses
import hashlib
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
from tailfactor.measures import ModelSpec, SampleBatch, row_sums
from tailfactor.sampling import (
    RngStream,
    check_sample_size,
    generate_dataset,
    model_at,
    pareto_draw,
    read_batch,
    sample_conditional_pareto,
    tail_threshold,
    worst_case_tilts,
    write_batch,
    _latent_in_place,
    _pareto_in_place,
    _skip_draws,
    _times_A,
)


def test_pareto_quantile_examples():
    # u = 0.75, alpha = 2: (1-u)^(-1/2) - 1 = 1
    u = np.array([0.75, 0.0, 1.0])
    assert _pareto_in_place(u, 2.0) is u
    assert u[:2] == pytest.approx([1.0, 0.0], abs=1e-15)
    assert u[2] == math.inf  # beyond float64: inf, with no warning
    assert _pareto_in_place(np.array([0.0]), 1.0)[0] == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_pareto_sampler_matches_cdf(alpha):
    x = pareto_draw(ModelSpec(np.eye(2), alpha, 0.2), 100_000, 7).ravel()
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
    draws = sample_conditional_pareto(400_000, alpha, t, RngStream(23, 0).generator())
    assert np.all(draws.sum(axis=1) >= t)
    frac = float((draws[:, 0] > q).mean())
    assert frac == pytest.approx(target, rel=0.02)


def test_conditional_sampler_max_trials_budget():
    # 2^(alpha+1) overflows float64 at alpha = 1e300: no floor sizes a
    # budget, so one missing vector raises before anything is drawn.
    gen = RngStream(1, 0).generator()
    with pytest.raises(MaxTrialsExceededError, match="accepted 0 of 1 vectors after 0"):
        sample_conditional_pareto(1, 1e300, 1.0, gen)
    assert gen.random() == RngStream(1, 0).generator().random()
    # At the edge of the float range (t = inf, 1e308) part of the law lies
    # beyond float64 (about 31 % above 1.8e308 at t = 1e308), so a proposal
    # overflows: the sampler raises rather than return a truncated law.
    for count, t in ((1000, math.inf), (1000, 1e308), (10, 1e308)):
        with pytest.raises(SampleOverflowError):
            sample_conditional_pareto(count, 2.0, t, RngStream(1, 0).generator())


def test_rejection_cost_scales_with_acceptance_probability():
    # Count the proposals the sampler draws per accepted vector.  Proposing
    # from the law conditioned on max(z) >= t/2 accepts with probability at
    # least 2^-(alpha+1) at every threshold, so the cost must stay below
    # that bound's inverse however rare the event {z_1 + z_2 >= t} is.
    class CountingGen(np.random.Generator):
        def __init__(self, seed):
            super().__init__(RngStream(seed, 0).generator().bit_generator)
            self.rows = 0

        def random(self, size=None):
            if size is not None:
                self.rows += int(np.atleast_1d(size)[0])
            return super().random(size)

    alpha = 1.0
    for t in (10.0, 100.0, 1e6):
        cg = CountingGen(5)
        out = sample_conditional_pareto(500, alpha, t, cg)
        assert out.shape == (500, 2)
        assert np.all(out.sum(axis=1) >= t)
        assert cg.rows / 500 <= 2 ** (alpha + 1)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    st.integers(1, 5),
    st.floats(0.1, 10.0),
    st.floats(0.0, 1e308),
    st.integers(0, 2**32),
)
@example(0, 1e300, 1.0, 0)  # 2^(alpha+1) overflows: no budget, nothing to draw
@example(1, 1e300, 1.0, 0)
def test_conditional_sampler_property_tail_vectors_or_typed_error(count, alpha, t, seed):
    try:
        out = sample_conditional_pareto(count, alpha, t, RngStream(seed, 0).generator())
    except (MaxTrialsExceededError, SampleOverflowError):
        return
    assert out.shape == (count, 2)
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
    # the worst case redraws a row whose i.i.d. draw overflows: that row is
    # above the threshold, so the batch is drawn from the law it defines
    n = 2**17
    A = np.diag(worst_case_tilts(n, 0.4))
    spec = ModelSpec(A=A, alpha=0.02, s=0.4, latent_kind="tilted-worst-case", law_n=n)
    assert np.isinf(pareto_draw(spec, n, 1, 5)).any()
    assert np.isfinite(generate_dataset(spec, n, 1, 5).xs).all()
    # the conditional sampler's power overflows too: a typed error, no warning
    with pytest.raises(SampleOverflowError, match="alpha=0.001"):
        sample_conditional_pareto(5, 1e-3, 1.0, RngStream(1, 0).generator())
    # alpha <= 0 is no tail index
    for alpha in (-1.0, 0.0):
        with pytest.raises(InvalidAlphaError):
            ModelSpec(A=np.eye(2), alpha=alpha, s=0.2)  # so no draw gets it
        with pytest.raises(InvalidAlphaError):
            tail_threshold(256, alpha, 0.4)
    with pytest.raises(InvalidAlphaError):
        sample_conditional_pareto(3, -2.0, 5.0, RngStream(1, 0).generator())
    # a NaN threshold is no event: rejected before any draw
    gen = RngStream(1, 0).generator()
    with pytest.raises(ValueError, match="need a threshold t, got nan"):
        sample_conditional_pareto(10, 2.0, float("nan"), gen)
    assert gen.random() == RngStream(1, 0).generator().random()


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


def test_sample_batch_carries_its_l1_norms():
    # derived once when built: row_sums(xs) to the byte, inf where a sum
    # overflows, read-only, no __init__ argument, and rebuilt by replace
    spec = ModelSpec(A=np.ones((3, 3)), alpha=1.0, s=0.2)
    batch = generate_dataset(spec, 4096, seed=5)
    assert batch.norms.tobytes() == row_sums(batch.xs).tobytes()
    assert not batch.norms.flags.writeable
    with pytest.raises(ValueError):
        batch.norms[0] = 0.0
    assert [f.name for f in dataclasses.fields(SampleBatch) if f.init] == [
        "spec", "seed", "stream_id", "xs"
    ]
    with pytest.raises(TypeError):
        SampleBatch(spec=spec, seed=0, stream_id=0, xs=batch.xs, norms=batch.norms)
    other = dataclasses.replace(batch, xs=batch.xs[::-1])
    assert other.norms.tobytes() == batch.norms[::-1].tobytes()
    huge = SampleBatch(spec, 0, 0, np.full((2, 3), 1.5e308))
    assert huge.norms.tolist() == [math.inf] * 2


def test_negative_and_large_seeds_draw_distinct_streams():
    draws = {
        seed: RngStream(seed, 0).generator().random()
        for seed in (0, 1, -1, -2, 2**63, 2**63 + 1)
    }
    assert len(set(draws.values())) == len(draws)
    assert draws[-1] == RngStream(2**64 - 1, 0).generator().random()
    # a numpy integer keys the stream of the same Python int
    assert draws[-1] == RngStream(np.int64(-1), np.uint64(0)).generator().random()
    spec = ModelSpec(A=np.eye(2), alpha=2.0, s=0.2)
    batch = generate_dataset(spec, 10, np.int64(3), stream_id=np.int64(1))
    assert (batch.seed, batch.stream_id) == (3, 1) and type(batch.seed) is int
    assert batch.xs.tobytes() == generate_dataset(spec, 10, 3, stream_id=1).xs.tobytes()


def test_conditional_sampler_rare_event_costs_few_rounds():
    # alpha = 10 at t = 1e3 accepts about one proposal in 1e3 (the bound is
    # 2^-11); rounds sized by the acceptance rate seen so far draw them in a
    # handful of calls.
    calls = []

    class CountingGen(np.random.Generator):
        def random(self, size=None):
            calls.append(size)
            return super().random(size)

    gen = CountingGen(RngStream(3, 0).generator().bit_generator)
    out = sample_conditional_pareto(2, 10.0, 1e3, gen)
    assert np.all(out.sum(axis=1) >= 1e3)
    assert len(calls) <= 20
    # The vectors are the first accepted proposals of the stream, whatever
    # the rounds: fewer vectors from the same stream are a prefix.
    for alpha, t in ((2.0, 50.0), (10.0, 1e3), (0.5, 1e6)):
        more = sample_conditional_pareto(7, alpha, t, RngStream(4, 0).generator())
        fewer = sample_conditional_pareto(3, alpha, t, RngStream(4, 0).generator())
        assert np.array_equal(more[:3], fewer)


def test_worst_case_tilts_and_threshold_formulas():
    c1, c2 = worst_case_tilts(10_000, 0.5)  # n^-0.5 = 0.01
    assert c1 == pytest.approx(1.01)
    assert c2 == pytest.approx(0.99)
    # The worst-case law is checked at its n when the spec is built.  At
    # n = 1 the second tilt would vanish; at s = 1e-20 n^-s rounds to 1, and
    # the second tilt is 0; with no n there are no tilts.
    worst = {"A": np.eye(2), "alpha": 2.0, "latent_kind": "tilted-worst-case"}
    with pytest.raises(TooFewPointsError, match="n >= 2"):
        ModelSpec(**worst, s=0.4, law_n=1)
    with pytest.raises(ZeroColumnError, match="s=1e-20 is too small at n=256"):
        ModelSpec(**worst, s=1e-20, law_n=256)
    with pytest.raises(SampleSizeError, match="needs its sample size law_n"):
        ModelSpec(**worst, s=0.4)
    with pytest.raises(TypeError, match="law_n must be an integer, got 1024.0"):
        ModelSpec(**worst, s=0.4, law_n=1024.0)
    assert type(ModelSpec(**worst, s=0.4, law_n=np.int64(1024)).law_n) is int
    # scale * n^((1-2s)/alpha): n=256, s=0.25, alpha=1 -> 256^0.5 = 16
    assert tail_threshold(256, 1.0, 0.25, 1.0) == pytest.approx(16.0)
    assert tail_threshold(256, 1.0, 0.25, 2.0) == pytest.approx(32.0)


def test_model_at_checks_alpha_and_s_before_the_tilts():
    # unchecked, s = -171 overflows n^-s, s = -0.1 and NaN read as a zero
    # tilt and s = 0.7 gives valid tilts: each is reported out of (0, 1/2)
    for s in (-0.1, -171.0, math.nan, 0.7):
        for A, kind in ((None, "tilted-worst-case"), (np.eye(2), "iid-pareto")):
            with pytest.raises(ValueError, match=r"s must be in \(0, 0.5\), got"):
                model_at(A, 2.0, s, kind, 64)
    for alpha in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidAlphaError):
            model_at(None, alpha, 0.2, "tilted-worst-case", 64)
    spec = model_at(None, 2.0, 0.2, "tilted-worst-case", 64)
    assert np.array_equal(spec.A, np.diag(worst_case_tilts(64, 0.2)))


def test_worst_case_latent_needs_two_factors():
    with pytest.raises(WorstCaseDimensionError):
        ModelSpec(A=np.eye(3), alpha=2.0, s=0.2, latent_kind="tilted-worst-case")


def test_worst_case_law_is_the_one_at_the_specs_n():
    # 4096 rows of the law at 1024: the tilts and the threshold are both
    # taken at 1024, never at the row count.
    spec = model_at(None, 2.0, 0.4, "tilted-worst-case", 1024)
    assert spec.law_n == 1024
    tilts = np.array(worst_case_tilts(1024, 0.4))
    t = tail_threshold(1024, 2.0, 0.4)
    draw = pareto_draw(spec, 4096, 1)
    xs = generate_dataset(spec, 4096, 1).xs
    kept = row_sums(draw / tilts) < t  # the latent rows left as drawn
    assert 0 < kept.sum() < 4096
    # A = diag(tilts) undoes the latent tilts: kept rows are the i.i.d. draw
    assert np.allclose(xs[kept], draw[kept], rtol=1e-15, atol=0)
    assert np.all(row_sums(xs[~kept] / tilts) >= t * (1 - 1e-15))
    # the law at 4096 would keep rows that the law at 1024 redraws
    tilts_4096 = np.array(worst_case_tilts(4096, 0.4))
    assert (row_sums(draw / tilts_4096) < tail_threshold(4096, 2.0, 0.4))[~kept].any()
    # a law that does not depend on n holds none
    assert model_at(np.eye(2), 2.0, 0.4, "iid-pareto", 1024).law_n is None


def test_worst_case_batch_is_pareto_above_threshold():
    # Above t the worst-case law coincides with the untilted product law
    # conditioned on the norm; check the tails of z1 look Pareto(alpha).
    n = 200_000
    spec = ModelSpec(A=np.eye(2), alpha=2.0, s=0.4, latent_kind="tilted-worst-case", law_n=n)
    z = generate_dataset(spec, n, 99).xs  # A = I: X is the latent batch
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


def test_skipping_draws_matches_the_sequential_stream():
    for k in (1, 2, 3, 4, 500, 999):
        gen = RngStream(7, 3).generator()
        gen.random(k)
        skipped = RngStream(7, 3).generator()
        _skip_draws(skipped, k)
        assert np.array_equal(skipped.random(9), gen.random(9)), k


def _models():
    iid = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, 0.4, 1.0]])
    for n in (1, 2, 3, 500, 999):
        yield n, ModelSpec(A=iid, alpha=1.3, s=0.25, latent_kind="iid-pareto")
        if n >= 2:
            A = np.diag(worst_case_tilts(n, 0.4))
            yield n, ModelSpec(A=A, alpha=2.0, s=0.4, latent_kind="tilted-worst-case", law_n=n)


def test_shared_draw_prefix_gives_the_batch_bytes():
    # The rows of a larger draw of the same stream stand in for the batch's
    # own draw; n * m is odd or 2 mod 4 for several n, so the generator
    # skips a part of a Philox block.
    for n, spec in _models():
        own = generate_dataset(spec, n, 20240601, stream_id=5).xs
        draw = pareto_draw(spec, 1000, 20240601, 5)
        assert np.array_equal(pareto_draw(spec, n, 20240601, 5), draw[:n])
        before = draw.copy()
        shared = generate_dataset(spec, n, 20240601, stream_id=5, draw=draw).xs
        assert shared.tobytes() == own.tobytes(), (n, spec.latent_kind)
        assert np.array_equal(draw, before)  # more rows than n: left as it was
        exact = draw[:n].copy()
        batch = generate_dataset(spec, n, 20240601, stream_id=5, draw=exact)
        assert batch.xs.tobytes() == own.tobytes()
        frozen = draw[:n].copy()
        frozen.setflags(write=False)
        assert generate_dataset(spec, n, 20240601, 5, draw=frozen).xs.tobytes() == own.tobytes()
        assert np.array_equal(frozen, before[:n])
    # n rows, writeable and a diagonal A: the batch is the draw itself
    spec = model_at(np.diag([2.0, 0.5]), 2.0, 0.4, "tilted-worst-case", 300)
    draw = pareto_draw(spec, 300, 3, 1)
    assert np.shares_memory(generate_dataset(spec, 300, 3, 1, draw=draw).xs, draw)
    assert not draw.flags.writeable  # the caller cannot change the batch


def test_shared_draw_of_another_shape_raises():
    spec = ModelSpec(A=np.eye(2), alpha=2.0, s=0.4)
    wrong = (np.ones((9, 2)), np.ones((20, 3)), np.ones(40), np.ones((20, 2), np.float32))
    for bad in (*wrong, [[1.0, 1.0]] * 20):
        with pytest.raises(DimensionMismatchError, match=r"need a float64 \(N >= 10, 2\) draw"):
            generate_dataset(spec, 10, seed=1, draw=bad)


def test_diagonal_A_scales_in_place_with_the_product_bytes():
    for kind, A in (
        ("tilted-worst-case", np.diag(worst_case_tilts(4096, 0.2))),
        ("iid-pareto", np.diag([3.0, 0.25, 1.0])),
    ):
        spec = ModelSpec(A=A, alpha=1.5, s=0.2, latent_kind=kind, law_n=4096)
        gen = RngStream(9, 2).generator()
        z = _latent_in_place(spec, _pareto_in_place(gen.random((4096, spec.m)), 1.5), gen)
        xs = generate_dataset(spec, 4096, 9, 2).xs
        assert xs.tobytes() == (z @ A.T).tobytes()
    # an entry of the scaled batch beyond the float64 range still raises
    spec = ModelSpec(A=np.diag([1e308, 1.0]), alpha=2.0, s=0.2, latent_kind="iid-pareto")
    with pytest.raises(SampleOverflowError, match="X = A Z overflowed"):
        generate_dataset(spec, 64, seed=1)
    draw = pareto_draw(spec, 64, 1)
    with pytest.raises(SampleOverflowError, match="X = A Z overflowed"):
        generate_dataset(spec, 64, seed=1, draw=draw)


def _left_to_right(z, A):
    """X = A Z in Python floats, each entry z_0 a_i0 + z_1 a_i1 + ... added
    left to right: every product and sum is correctly rounded, with no
    fused multiply-add."""
    out = []
    for zr in z.tolist():
        row = []
        for ar in A.tolist():
            acc = zr[0] * ar[0]
            for zj, aj in zip(zr[1:], ar[1:]):
                acc = acc + zj * aj
            row.append(acc)
        out.append(row)
    return np.array(out)


@pytest.mark.parametrize(
    "A",
    [
        [[1.0, 0.5], [0.3, 0.8]],
        [[0.7, 0.0, 1.9], [0.1, 2.5, 0.6]],
        [[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, 0.4, 1.0]],
        [[1.3, 0.0, 0.2, 0.9], [0.4, 1.1, 0.0, 0.3], [0.0, 0.6, 2.2, 0.1]],
        [[3.0, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 1.7]],
    ],
    ids=["2x2", "2x3", "3x3", "3x4", "diagonal-3x3"],
)
def test_times_A_sums_each_entry_left_to_right(A):
    A = np.array(A)
    z = _pareto_in_place(RngStream(3, A.size).generator().random((2000, A.shape[1])), 1.5)
    xs = _times_A(z.copy(), A)
    assert xs.shape == (2000, A.shape[0])
    assert xs.tobytes() == _left_to_right(z, A).tobytes()
    np.testing.assert_array_max_ulp(xs, z @ A.T, maxulp=4)


def test_times_A_zero_entry_times_an_overflowed_latent_raises():
    # inf * 0 = nan in X: a NaN is no overflow to inf, but still not finite
    A = np.array([[1.0, 0.0], [0.5, 1.0]])
    spec = ModelSpec(A=A, alpha=2.0, s=0.2, latent_kind="iid-pareto")
    draw = pareto_draw(spec, 64, 1)
    draw[5, 1] = np.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(_times_A(draw.copy(), spec.A)[5, 0])
    with pytest.raises(SampleOverflowError, match="X = A Z overflowed"):
        generate_dataset(spec, 64, seed=1, draw=draw)


def _digest(a):
    a = np.ascontiguousarray(a)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()[:16]


# sha256 prefixes of the shape and bytes of generate_dataset(spec, n,
# 20240601, stream_id).xs; the iid models take a non-diagonal 3 x 3 A and
# the worst case its diagonal A at n.
@pytest.mark.parametrize(
    "kind, alpha, s, n, stream_id, digest",
    [
        ("iid-pareto", 0.5, 0.2, 1000, 0, "236518eafacbb603"),
        ("iid-pareto", 2.0, 0.4, 4096, 3, "912df572112a758b"),
        ("iid-pareto", 1.3, 0.25, 777, 11, "d6c18d0103f89ec3"),
        ("tilted-worst-case", 2.0, 0.2, 2048, 0, "8bd64d4e422ba258"),
        ("tilted-worst-case", 1.0, 0.4, 8192, 5, "82b2c983f2391d96"),
        ("tilted-worst-case", 0.5, 0.25, 3000, 1, "0cca6b04b4192ab5"),
        ("tilted-worst-case", 2.0, 0.4, 131072, 7, "c95298dfd3a64c41"),
    ],
)
def test_generate_dataset_pins_its_bytes(kind, alpha, s, n, stream_id, digest):
    if kind == "iid-pareto":
        A = np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, 0.4, 1.0]])
    else:
        A = np.diag(worst_case_tilts(n, s))
    spec = ModelSpec(A=A, alpha=alpha, s=s, latent_kind=kind, law_n=n)
    assert _digest(generate_dataset(spec, n, 20240601, stream_id).xs) == digest


# The same for 300 conditional vectors drawn from RngStream(seed, int(t));
# t = 3.249 is the worst case's threshold at n = 2^17, alpha = 2, s = 0.4.
@pytest.mark.parametrize(
    "seed, alpha, t, digest",
    [
        (2, 2.0, 0.0, "da90eddcc1ec96d8"),
        (2, 2.0, 1.0, "d270d6f5f8cbb267"),
        (2, 2.0, 10.0, "ef7ab0fdcd857887"),
        (2, 2.0, 1e3, "301dd7f8d696f9f5"),
        (2, 1.0, 10.0, "c80b12bbd0c60c62"),
        (2, 0.5, 0.0, "a69937fdcb8b2b24"),
        (2, 0.5, 3.249, "0509a42b4ced7057"),
        (2, 0.5, 1e3, "f98a2804c7dc4ad3"),
        (2, 1.0, 0.0, "677df548878480b6"),
        (2, 1.0, 3.249, "77ccdbc72d4a332d"),
        (2, 1.0, 1e3, "d24284b347148bc2"),
        (2, 3.3, 0.0, "01b923bf735cb816"),
        (2, 3.3, 3.249, "c7e2e61dc4d74f27"),
        (2, 3.3, 1e3, "41d725b47c6b6430"),
    ],
)
def test_conditional_sampler_pins_its_bytes(seed, alpha, t, digest):
    out = sample_conditional_pareto(300, alpha, t, RngStream(seed, int(t)).generator())
    assert _digest(out) == digest


class _RecordingGen(np.random.Generator):
    """A Generator that records the size of each ``random`` call."""

    def __init__(self, bit_generator):
        super().__init__(bit_generator)
        self.sizes = []

    def random(self, size=None):
        self.sizes.append(size)
        return super().random(size)


def test_conditional_sampler_first_round_is_sized_by_the_acceptance_bound():
    # At the worst case's threshold at n = 2^17, s = 0.2, one proposal per
    # missing vector took three rounds (234, 636 and 8 proposals).
    n, s, alpha = 2**17, 0.2, 2.0
    t = tail_threshold(n, alpha, s)
    gen = _RecordingGen(RngStream(1, 0).generator().bit_generator)
    sample_conditional_pareto(234, alpha, t, gen)
    q_t, q_a = (1.0 + t) ** -alpha, (1.0 + t / 2) ** -alpha
    bound = (1.0 - (1.0 - q_t) ** 2) / (1.0 - (1.0 - q_a) ** 2)
    assert gen.sizes[0][0] == pytest.approx(234 / bound, abs=1.0)
    assert len(gen.sizes) <= 2


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
    # The sidecar's n is the row count, law_n the n of the law; a sidecar
    # written before law_n reads as the law at its own n.
    spec = model_at(None, 2.0, 0.4, "tilted-worst-case", 1024)
    write_batch(generate_dataset(spec, 300, seed=3), path)
    back = read_batch(path)
    assert (back.n, back.spec.law_n) == (300, 1024)
    doc = json.loads(side.read_text())
    del doc["law_n"]
    side.write_text(json.dumps(doc))
    assert (read_batch(path).n, read_batch(path).spec.law_n) == (300, 300)


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
        (
            _edit_sidecar(lambda doc: doc.update(alpha=True)),
            "alpha must be finite and > 0, got True",
        ),
        (_edit_sidecar(lambda doc: doc.update(alpha=float("inf"))), "alpha must be finite"),
        (_edit_sidecar(lambda doc: doc.update(alpha=float("nan"))), "alpha must be finite"),
        (_edit_sidecar(lambda doc: doc.update(zeta=2)), "zeta must be 1.0, got 2"),
        (_edit_sidecar(lambda doc: doc.update(seed="abc")), "seed must be an integer, got 'abc'"),
        (_edit_sidecar(lambda doc: doc.update(stream_id=[1])), "stream_id must be an integer"),
        (_edit_sidecar(lambda doc: doc.update(seed=True)), "seed must be an integer, got True"),
    ],
    ids=[
        "inf-cell", "negative-cell", "row-missing", "key-missing", "d-disagrees", "bad-model",
        "alpha-true", "alpha-inf", "alpha-nan", "zeta-2", "seed-string", "stream-id-list",
        "seed-bool",
    ],
)
def test_read_batch_rejects_malformed_files(tmp_path, spoil, message):
    path = tmp_path / "batch.csv"
    write_batch(generate_dataset(ModelSpec(A=np.eye(2), alpha=2.0, s=0.2), 64, seed=3), path)
    spoil(path)
    with pytest.raises(ConfigError) as exc:
        read_batch(path)
    assert message in str(exc.value) and path.stem in str(exc.value)
