"""Latent-factor samplers and dataset generation for X = A Z.

All randomness flows through counter-based Philox streams keyed by
(seed, stream_id), so replicates are independent, order-free and
bit-reproducible across platforms.
"""

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    InvalidAlphaError,
    InvalidAtomError,
    MaxTrialsExceededError,
    SampleOverflowError,
    SampleSizeError,
    TailFactorError,
    TooFewPointsError,
    ZeroColumnError,
)
from .measures import ModelSpec, SampleBatch, _fmt, check_alpha


@dataclass(frozen=True)
class RngStream:
    """Named (seed, stream_id) pair; distinct ids give independent streams."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        # A uint64 key: numpy reads a list holding a value >= 2^63 through
        # float64, which maps distinct seeds (-1 and 0, say) to one stream.
        key = [self.seed & (2**64 - 1), self.stream_id & (2**64 - 1)]
        return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def pareto_quantile(u, alpha: float):
    """Inverse CDF of the density alpha*(1+x)^-(alpha+1) on [0, inf).

    Raises InvalidAlphaError unless 0 < alpha < inf."""
    check_alpha(alpha)
    return (1.0 - np.asarray(u, dtype=np.float64)) ** (-1.0 / alpha) - 1.0


def sample_pareto(alpha: float, gen: np.random.Generator, size=None):
    """Draw from the Pareto law with density alpha*(1+x)^-(alpha+1) with the
    numpy Generator ``gen`` (``RngStream(...).generator()`` makes one).

    Raises InvalidAlphaError unless 0 < alpha < inf."""
    check_alpha(alpha)
    return pareto_quantile(gen.random(size), alpha)


# Largest round of the conditional sampler, unless more vectors are missing.
ROUND_ROWS = 2**16


def sample_conditional_pareto(count, m, alpha, t, gen, max_trials=None):
    """``count`` vectors of m i.i.d. Pareto(alpha) components given ||z||_1 >= t,
    drawn with the numpy Generator ``gen``.

    Exact rejection sampling.  Proposals come from the law conditioned on
    max(z) >= a with a = t/m, an event that contains ||z||_1 >= t, drawn by
    inverse CDF: the index J = 0..m-1 of the first coordinate at or above a
    has P(J = j) proportional to (1-q)^j with q = P(z_1 >= a) = (1+a)^-alpha;
    coordinates before J are truncated to [0, a), coordinate J is
    conditioned on z_J >= a and the ones after J are unconditioned.  A
    proposal is accepted if its norm reaches t.  The acceptance rate is at
    least m^-(alpha+1) for every t (single big jump: Asmussen & Kroese,
    Adv. Appl. Prob. 2006), so the default budget is 1000 * ceil(m^(alpha+1))
    proposals per vector, or 0 where m^(alpha+1) overflows float64.

    Proposals are drawn in rounds: one per missing vector at first, then
    that many over the acceptance rate seen so far (at most ROUND_ROWS), so
    a rare event costs a few rounds rather than one per proposal.  A round
    counts only its proposals up to the last vector it takes, which makes
    the result the first ``count`` accepted proposals of the stream,
    however the rounds fall.  Raises MaxTrialsExceededError once
    count * max_trials proposals leave vectors missing, and
    SampleOverflowError as soon as a counted proposal has a coordinate
    beyond the float64 range: dropping it would truncate the law.  Raises
    InvalidAlphaError unless 0 < alpha < inf, and ValueError for m < 1.
    """
    check_alpha(alpha)
    if m < 1:
        raise ValueError(f"need m >= 1 components, got {m}")
    if max_trials is None:
        try:
            max_trials = 1000 * math.ceil(m ** (alpha + 1.0))
        except OverflowError:  # no floor to size a budget by: none is drawn
            max_trials = 0
    budget = count * max_trials
    a = max(float(t), 0.0) / m
    q = (1.0 + a) ** (-alpha)
    cols = np.arange(m)
    first_cdf = np.cumsum((1.0 - q) ** cols)
    out = np.empty((count, m))
    filled = proposals = 0
    while filled < count:
        if proposals >= budget:
            raise MaxTrialsExceededError(
                f"accepted {filled} of {count} vectors after {proposals} "
                f"proposals (t={t}, m={m}, alpha={alpha})"
            )
        need = size = count - filled
        if proposals:
            rate = max(filled / proposals, m ** -(alpha + 1.0))
            size = max(need, math.ceil(min(need / rate, ROUND_ROWS)))
        u = gen.random((min(size, budget - proposals), m + 1))
        first = np.searchsorted(first_cdf, u[:, 0] * first_cdf[-1], side="right")
        first = np.minimum(first, m - 1)[:, None]
        z = pareto_quantile(u[:, 1:] * np.where(cols < first, 1.0 - q, 1.0), alpha)
        with np.errstate(over="ignore"):  # overflow raises below
            z = np.where(cols == first, (1.0 + a) * (1.0 + z) - 1.0, z)
            hits = np.flatnonzero(z.sum(axis=1) >= t)[:need]
        used = int(hits[-1]) + 1 if hits.size == need else len(z)
        finite = np.isfinite(z[:used]).all(axis=1)
        if not finite.all():
            raise SampleOverflowError(
                f"{used - int(finite.sum())} of {used} proposals overflowed "
                f"float64 (t={t}, m={m}, alpha={alpha})"
            )
        out[filled : filled + hits.size] = z[hits]
        filled += hits.size
        proposals += used
    return out


def worst_case_tilts(n: int, s: float):
    """Per-coordinate tilts (1 + n^-s, 1 - n^-s) of the two-factor worst case.

    Raises TooFewPointsError for n < 2, where the second tilt vanishes, and
    ZeroColumnError when s is so small that n^-s rounds to 1: the second
    tilt, a column of the worst-case matrix, is then 0.
    """
    if n < 2:
        raise TooFewPointsError(f"the worst-case model needs n >= 2, got {n}")
    eps = float(n) ** (-s)
    if not eps < 1.0:
        raise ZeroColumnError(f"s={s} is too small at n={n}: the tilt 1 - n^-s is 0")
    return 1.0 + eps, 1.0 - eps


def scaled_power(scale: float, base: float, exponent: float) -> float:
    """scale * base^exponent, every threshold's form; InvalidAlphaError where
    it overflows float64, as exponents ~ 1/alpha do for alpha near 0."""
    try:
        return scale * base**exponent
    except OverflowError:
        msg = f"the threshold {base:.6g}^{exponent:.6g} overflows float64"
        raise InvalidAlphaError(msg) from None


def tail_threshold(n: int, alpha: float, s: float, scale: float = 1.0) -> float:
    """Radial level scale * n^((1-2s)/alpha); the model's own has scale ModelSpec.zeta.

    Raises InvalidAlphaError unless 0 < alpha < inf."""
    check_alpha(alpha)
    return scaled_power(scale, float(n), (1.0 - 2.0 * s) / alpha)


def sample_latent_batch(spec: ModelSpec, n: int, gen) -> np.ndarray:
    """n latent vectors in R^m_+ per the spec's latent kind.

    Coordinates are i.i.d. Pareto(alpha) for "iid-pareto".  The worst case
    divides coordinate j by its tilt and redraws the rows with l1-norm at or
    above the tail threshold from the untilted law above it; its tilts and
    threshold depend on the sample size n.
    """
    z = sample_pareto(spec.alpha, gen, (n, spec.m))
    if spec.latent_kind == "tilted-worst-case":  # ModelSpec ensures m = 2
        z /= np.array(worst_case_tilts(n, spec.s))
        t = tail_threshold(n, spec.alpha, spec.s, spec.zeta)
        mask = z.sum(axis=1) >= t
        z[mask] = sample_conditional_pareto(int(mask.sum()), 2, spec.alpha, t, gen)
    return z


def check_sample_size(n: int, width: int) -> None:
    """SampleSizeError unless n >= 1 and numpy can index an n x width
    float64 array.  It allocates nothing."""
    if n < 1:
        raise SampleSizeError(f"need n >= 1, got {n}")
    if n * width * 8 > np.iinfo(np.intp).max:
        raise SampleSizeError(f"an n x {width} float64 array is too large to index")


def generate_dataset(
    spec: ModelSpec, n: int, seed: int, stream_id: int = 0
) -> SampleBatch:
    """n observations X = A Z, bit-reproducible given (seed, stream_id);
    SampleOverflowError if one leaves the float64 range (alpha near 0)."""
    check_sample_size(n, max(spec.A.shape))
    gen = RngStream(seed, stream_id).generator()
    with np.errstate(over="ignore", invalid="ignore"):  # raises below
        xs = sample_latent_batch(spec, n, gen) @ spec.A.T
    try:
        return SampleBatch(spec=spec, seed=seed, stream_id=stream_id, xs=xs)
    except InvalidAtomError:  # A, Z >= 0: only an overflow makes an entry invalid
        raise SampleOverflowError(f"X = A Z overflowed at alpha={spec.alpha}") from None


# ---------------------------------------------------------------------------
# CSV + sidecar persistence


def write_batch(batch: SampleBatch, csv_path) -> None:
    csv_path = Path(csv_path)
    d = batch.xs.shape[1]
    lines = [",".join(f"x{j + 1}" for j in range(d))]
    for row in batch.xs:
        lines.append(",".join(_fmt(v) for v in row))
    csv_path.write_text("\n".join(lines) + "\n")

    # The sidecar holds the ModelSpec fields, which read_batch rebuilds it from.
    spec = batch.spec
    sidecar = {f.name: getattr(spec, f.name) for f in fields(ModelSpec)}
    sidecar["A"] = spec.A.tolist()
    sidecar.update(seed=batch.seed, stream_id=batch.stream_id, n=batch.n)
    csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def read_batch(csv_path) -> SampleBatch:
    """Load a batch written by ``write_batch``.

    A CSV value that is not a finite number >= 0, or a sidecar that lacks a
    key, holds an invalid model, a boolean alpha or s, a zeta other than 1
    or disagrees with the CSV on n or d, raises ConfigError naming the file.
    """
    csv_path = Path(csv_path)
    try:
        xs = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        doc = json.loads(csv_path.with_suffix(".json").read_text())
        spec = ModelSpec(**{f.name: doc[f.name] for f in fields(ModelSpec)})
        if any(isinstance(doc[k], bool) for k in ("alpha", "s")):
            raise ValueError("alpha and s must be numbers, not booleans")
        if doc.get("zeta", spec.zeta) != spec.zeta:  # older sidecars carry zeta = 1
            raise ValueError(f"zeta must be {spec.zeta}, got {doc['zeta']!r}")
        if (doc["n"], spec.d) != xs.shape:
            raise ValueError(f"sidecar n = {doc['n']}, d = {spec.d}, CSV {xs.shape}")
        return SampleBatch(spec=spec, seed=doc["seed"], stream_id=doc["stream_id"], xs=xs)
    except KeyError as exc:
        raise ConfigError(f"batch {csv_path}: sidecar lacks key {exc}") from exc
    except (TypeError, ValueError, TailFactorError) as exc:
        raise ConfigError(f"batch {csv_path}: {exc}") from exc
