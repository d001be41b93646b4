"""Latent-factor samplers and dataset generation for X = A Z.

All randomness flows through counter-based Philox streams keyed by
(seed, stream_id), so replicates are independent and order-free.  X = A Z
is summed column by column in a fixed order, with no BLAS call, so a
batch's bytes do not depend on which BLAS kernel the CPU selects.
"""

import json
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidAtomError,
    MaxTrialsExceededError,
    SampleOverflowError,
    SampleSizeError,
    TailFactorError,
)
from .measures import ModelSpec, SampleBatch, _fmt, check_alpha, check_radius, check_s
from .measures import check_every_row, column_dot, row_sums, worst_case_tilts
from .numerics import RngStream


def _pareto_in_place(u: np.ndarray, alpha: float) -> np.ndarray:
    """Inverse CDF of the density alpha*(1+x)^-(alpha+1) on [0, inf),
    written over the float64 array of uniforms ``u``: one pass each for
    1 - u, the power and the - 1, and no temporary.  A quantile beyond the
    float64 range (u = 1, or alpha near 0) reads inf, with no warning.
    Its callers check alpha."""
    with np.errstate(over="ignore", divide="ignore"):
        np.subtract(1.0, u, out=u)
        u **= -1.0 / alpha
        u -= 1.0
    return u


def uniform_draw(spec: ModelSpec, n: int, seed: int, stream_id: int = 0) -> np.ndarray:
    """The first n * spec.m uniforms of the stream (seed, stream_id) as an
    (n, spec.m) array: the draw a batch of n rows of `generate_dataset`
    starts from.  It is the first n rows of the draw at any larger n."""
    return RngStream(seed, stream_id).generator().random((n, spec.m))


def _skip_draws(gen: np.random.Generator, k: int) -> None:
    """Move the fresh Philox generator ``gen`` past its next k doubles, as
    if ``gen.random(k)`` had run: each counter step yields four of them."""
    gen.bit_generator.advance(k // 4)
    gen.bit_generator.random_raw(k % 4)


def _max_tail(x: float, alpha: float) -> float:
    """P(max z >= x) for two i.i.d. Pareto(alpha) components, x >= 0."""
    q = (1.0 + x) ** -alpha
    return -math.expm1(2.0 * math.log1p(-q)) if q < 1.0 else 1.0


# Largest round of the conditional sampler, unless more vectors are missing.
ROUND_ROWS = 2**16


def sample_conditional_pareto(count, alpha, t, gen):
    """``count`` vectors z of two i.i.d. Pareto(alpha) components given
    z_1 + z_2 >= t, drawn with the numpy Generator ``gen``: the worst-case
    law's redraw above its tail threshold.

    Exact rejection sampling.  Proposals come from the law conditioned on
    max(z) >= a with a = t/2, an event that contains z_1 + z_2 >= t, drawn
    by inverse CDF: z_2 is the first coordinate at or above a (J = 1) with
    probability (1-q)/(2-q), q = P(z_1 >= a) = (1+a)^-alpha; then z_1 is
    truncated to [0, a) and z_2 conditioned on z_2 >= a, else z_1 is
    conditioned on z_1 >= a and z_2 unconditioned.  A proposal is accepted
    if z_1 + z_2 reaches t.  The acceptance rate is at least 2^-(alpha+1)
    for every t (single big jump: Asmussen & Kroese, Adv. Appl. Prob.
    2006), so the budget, 1000 * ceil(2^(alpha+1)) proposals per vector or
    0 where 2^(alpha+1) overflows float64, only guards against a defect.

    Proposals are drawn in rounds of the missing vectors' count over a
    lower bound on the acceptance rate (at most ROUND_ROWS rows): at first
    the larger of 2^-(alpha+1) and P(max z >= t | max z >= a), as
    max(z) >= t implies z_1 + z_2 >= t; later the acceptance rate seen so
    far, if higher.  So most calls take one round.  A round counts only its
    proposals up to the last vector it takes, which makes the result the
    first ``count`` accepted proposals of the stream, however the rounds
    fall.  A round's uniforms are transposed once, so each step on a
    coordinate is one long vector op on a contiguous row, and the accepted
    proposals are taken into the output by index.  Raises
    MaxTrialsExceededError where vectors are still missing once the counted
    proposals reach the budget (checked before each round, so the last
    round may pass it), and SampleOverflowError as soon as a counted
    proposal has a coordinate beyond the float64 range: dropping it would
    truncate the law.  Raises InvalidAlphaError unless 0 < alpha < inf, and
    ValueError for a NaN t.
    """
    check_alpha(alpha)
    if math.isnan(t):
        raise ValueError(f"need a threshold t, got {t}")
    try:
        budget = count * 1000 * math.ceil(2 ** (alpha + 1.0))
    except OverflowError:  # no floor to size a budget by: none is drawn
        budget = 0
    level = max(float(t), 0.0)
    a = level / 2
    q = (1.0 + a) ** (-alpha)
    above_a = _max_tail(a, alpha)
    floor = max(2 ** -(alpha + 1.0), _max_tail(level, alpha) / above_a if above_a else 0.0)
    out = np.empty((count, 2))
    filled = proposals = 0
    while filled < count:
        if proposals >= budget:
            raise MaxTrialsExceededError(
                f"accepted {filled} of {count} vectors after {proposals} "
                f"proposals (t={t}, alpha={alpha})"
            )
        need = count - filled
        rate = max(filled / proposals, floor) if proposals else floor
        size = max(need, math.ceil(min(need / rate, ROUND_ROWS))) if rate else need
        u = gen.random((size, 3)).T.copy()  # proposal i is column i
        second = u[0] * (1.0 + (1.0 - q)) >= 1.0  # J = 1, w.p. (1 - q) / (2 - q)
        jumps = np.flatnonzero(~second), np.flatnonzero(second)  # z_1, z_2 >= a
        z = u[1:]  # coordinate j is built in row j + 1 of u
        with np.errstate(over="ignore"):  # overflow raises below
            z[0, jumps[1]] *= 1.0 - q  # truncated to [0, a)
            for coord, at in zip(z, jumps):
                _pareto_in_place(coord, alpha)
                coord[at] = (1.0 + a) * (1.0 + coord[at]) - 1.0  # conditioned on >= a
            hits = np.flatnonzero(z[0] + z[1] >= t)[:need]
        used = int(hits[-1]) + 1 if hits.size == need else size
        finite = np.isfinite(z[:, :used]).all(axis=0)
        if not finite.all():
            msg = f"{used - np.count_nonzero(finite)} of {used} proposals overflowed float64"
            raise SampleOverflowError(f"{msg} (t={t}, alpha={alpha})")
        out[filled : filled + hits.size] = z[:, hits].T
        filled += hits.size
        proposals += used
    return out


def model_at(A, alpha: float, s: float, latent_kind: str, n: int) -> ModelSpec:
    """The model at sample size n, its law stated at n (``ModelSpec.law_n``):
    the loading matrix ``A``, or diag(worst_case_tilts(n, s)) where ``A`` is None.

    alpha and s are checked first (InvalidAlphaError, ValueError), then the
    tilts at n (TooFewPointsError, ZeroColumnError); ModelSpec checks the rest."""
    check_alpha(alpha)
    check_s(s)
    if A is None:
        A = np.diag(worst_case_tilts(n, s))
    return ModelSpec(A=A, alpha=alpha, s=s, latent_kind=latent_kind, law_n=n)


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


def _latent_in_place(spec: ModelSpec, z: np.ndarray, gen) -> np.ndarray:
    """The latent vectors in R^m_+ of the spec's latent law, one per row of
    their i.i.d. Pareto(alpha) draw ``z`` (N, m), built in it one column at
    a time; ``gen`` stands just past z's uniforms.

    That draw is the latent batch for "iid-pareto".  The worst case divides
    coordinate j by its tilt and redraws the rows with l1-norm at or above
    the tail threshold from the untilted law above it, a row whose i.i.d.
    draw overflowed among them.  Its tilts and threshold are those at the
    spec's n, ``spec.law_n``, whatever the row count N.
    """
    if spec.latent_kind == "tilted-worst-case":  # ModelSpec ensures m = 2 and law_n
        for j, tilt in enumerate(worst_case_tilts(spec.law_n, spec.s)):
            z[:, j] /= tilt
        t = tail_threshold(spec.law_n, spec.alpha, spec.s, spec.zeta)
        rows = np.flatnonzero(row_sums(z) >= t)
        redrawn = sample_conditional_pareto(rows.size, spec.alpha, t, gen)
        for j in range(2):
            z[rows, j] = redrawn[:, j]
    return z


def _times_A(z: np.ndarray, A: np.ndarray) -> np.ndarray:
    """X = A Z for the latent rows ``z``, with no BLAS call: column i of X
    is ``column_dot(z, A[i])``, so its bytes do not depend on the CPU.  A
    diagonal A scales z's columns in place with the same bytes: there each
    other term is z_k * 0 = +0, which changes no float."""
    if A.shape[0] == A.shape[1] and np.array_equal(A, np.diag(np.diagonal(A))):
        for j, a in enumerate(np.diagonal(A)):
            z[:, j] *= a
        return z
    x = np.empty((len(z), A.shape[0]))
    for i, row in enumerate(A):
        column_dot(z, row, out=x[:, i])
    return x


def check_sample_size(n: int, width: int) -> None:
    """SampleSizeError unless n >= 1 and numpy can index an n x width
    float64 array.  It allocates nothing."""
    if n < 1:
        raise SampleSizeError(f"need n >= 1, got {n}")
    if n * width * 8 > np.iinfo(np.intp).max:
        raise SampleSizeError(f"an n x {width} float64 array is too large to index")


# Relative slack of the tail screen's bound, far above the few roundings
# between a row's largest Pareto value and its latent sum or l1-norm.
SCREEN_SLACK = 2.0**-20
TINY = np.finfo(np.float64).tiny


def _screen_level(spec: ModelSpec, radius: float) -> float:
    """The level c such that a row of uniforms whose entries are all below
    c is neither redrawn by the worst case nor at or above ``radius`` > 0.

    Let y = z / tilts be a row's latent vector (tilts of 1 and no redraw
    for "iid-pareto"), so its l1-norm is sum_j colsum_j(A) y_j.  With
    b = min(t / sum_j (1 / tilt_j), radius / sum_j (colsum_j(A) / tilt_j))
    (t the worst case's tail threshold, inf for "iid-pareto"), a row with
    max z < b has a latent sum below t and a norm below the radius.  b is
    shrunk by SCREEN_SLACK, which covers the roundings of the tilt divide,
    the sums and X = A Z, and capped at the largest float, so a row whose
    quantile overflows always passes.  The Pareto quantile
    (1 - u)^(-1/alpha) - 1 stays below b for u < 1 - (1 + b)^-alpha; c is
    that level with (1 + b)^-alpha raised by a relative margin
    SCREEN_SLACK * max(1, alpha), which covers a quantile off by a few ulps
    (its exponent -1/alpha rounded, the power's own error, the - 1).  Where
    b or the radius is below the normal range, c is 0 and every row passes.
    """
    tilts = (1.0,) * spec.m
    level = math.inf
    if spec.latent_kind == "tilted-worst-case":
        tilts = worst_case_tilts(spec.law_n, spec.s)
        t = tail_threshold(spec.law_n, spec.alpha, spec.s, spec.zeta)
        level = t / sum(1.0 / tilt for tilt in tilts)
    colsums = spec.A.sum(axis=0).tolist()
    bound = min(level, radius / sum(c / tilt for c, tilt in zip(colsums, tilts)))
    b = min(bound * (1.0 - SCREEN_SLACK), np.finfo(np.float64).max)
    if not min(b, radius) >= TINY:
        return 0.0
    return 1.0 - (1.0 + b) ** -spec.alpha * (1.0 + SCREEN_SLACK * max(1.0, spec.alpha))


def _tail_rows(spec: ModelSpec, u: np.ndarray, radius: float) -> np.ndarray:
    """The rows of the uniforms ``u`` (n, m) whose largest entry is at or
    above ``_screen_level(spec, radius)``, in order: every row the worst
    case redraws or whose observation reaches the radius."""
    top = u[:, 0]
    for j in range(1, u.shape[1]):
        top = np.maximum(top, u[:, j])
    return np.take(u, np.flatnonzero(top >= _screen_level(spec, radius)), axis=0)


def generate_dataset(
    spec: ModelSpec, n: int, seed: int, stream_id: int = 0, *, draw=None, radius=0.0
) -> SampleBatch:
    """n observations X = A Z of the spec's law (for the worst case, the law
    at spec.law_n, whatever n is), bit-reproducible given (seed, stream_id);
    SampleOverflowError if one leaves the float64 range (alpha near 0).

    At ``radius`` > 0 the batch holds only the rows whose l1-norm is at or
    above it (`SampleBatch`), the same rows to the byte.  Every step of a
    row (quantile, tilt, redraw test, X = A Z, norm) reads that row alone,
    so only the rows `_screen_level` cannot rule out are built: among them
    every row the worst case redraws, in the same order, so the conditional
    sampler draws the same vectors, and every row that overflows, so the
    same error is raised.

    The latent batch starts from ``uniform_draw(spec, n, seed, stream_id)``.
    That draw is the first n rows of the one at any larger size, so a
    caller that needs the stream at several n can take it once and pass it
    as ``draw``: ``uniform_draw(spec, N, seed, stream_id)`` with N >= n.
    Its first n rows then stand in for the batch's own draw, and the batch
    is the same to the byte: the Pareto quantile runs entry by entry on the
    rows it keeps, and the worst case's conditional draws come from a
    generator moved past the n * m uniforms of those rows.
    When ``draw`` has exactly n rows, radius is 0 and it is writeable, the
    batch is built in it: it is overwritten and made read-only, as the
    batch may share its memory.  Otherwise it is left as it was.  A draw
    of another shape raises DimensionMismatchError, a negative radius
    ValueError.
    X is summed in column order with no BLAS call (``_times_A``); a
    diagonal A scales the latent columns in place instead of forming a
    second n x m array.
    """
    check_sample_size(n, max(spec.A.shape))
    check_radius(radius)
    if draw is None:
        draw = uniform_draw(spec, n, seed, stream_id)
    elif not (
        isinstance(draw, np.ndarray)
        and draw.dtype == np.float64
        and draw.ndim == 2
        and draw.shape[1] == spec.m
        and len(draw) >= n
    ):
        got = f"{getattr(draw, 'dtype', type(draw).__name__)} {np.shape(draw)}"
        raise DimensionMismatchError(f"need a float64 (N >= {n}, {spec.m}) draw, got {got}")
    if radius > 0:
        z = _tail_rows(spec, draw[:n], radius)
    else:
        z = draw if len(draw) == n and draw.flags.writeable else draw[:n].copy()
    _pareto_in_place(z, spec.alpha)
    gen = RngStream(seed, stream_id).generator()
    _skip_draws(gen, n * spec.m)
    with np.errstate(over="ignore", invalid="ignore"):  # raises below
        xs = _times_A(_latent_in_place(spec, z, gen), spec.A)
    if z is draw:
        draw.setflags(write=False)
    try:
        return SampleBatch(spec, seed, stream_id, xs, n=n, radius=radius)
    except InvalidAtomError:  # A, Z >= 0: only an overflow makes an entry invalid
        raise SampleOverflowError(f"X = A Z overflowed at alpha={spec.alpha}") from None


# ---------------------------------------------------------------------------
# CSV + sidecar persistence


def write_batch(batch: SampleBatch, csv_path) -> None:
    check_every_row(batch, "write_batch")
    csv_path = Path(csv_path)
    d = batch.xs.shape[1]
    lines = [",".join(f"x{j + 1}" for j in range(d))]
    for row in batch.xs:
        lines.append(",".join(_fmt(v) for v in row))
    csv_path.write_text("\n".join(lines) + "\n")

    # The sidecar holds the ModelSpec fields, law_n among them, and n, the row count.
    spec = batch.spec
    sidecar = {f.name: getattr(spec, f.name) for f in fields(ModelSpec)}
    sidecar["A"] = spec.A.tolist()
    sidecar.update(seed=batch.seed, stream_id=batch.stream_id, n=batch.n)
    csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def read_batch(csv_path) -> SampleBatch:
    """Load a batch written by ``write_batch``.

    A CSV with no rows or with a value that is not a finite number >= 0, or
    a sidecar that lacks a key, holds an invalid model, a seed or stream_id
    that is not an integer, a zeta other than 1 or disagrees with the CSV
    on n or d, raises ConfigError naming the file.  A sidecar with no law_n
    predates it, and its batch is the law at its own n, as simulate drew it.
    """
    csv_path = Path(csv_path)
    try:
        with warnings.catch_warnings():  # a file with no rows raises below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            xs = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        if not xs.size:
            raise ValueError("the CSV holds no rows")
        doc = json.loads(csv_path.with_suffix(".json").read_text())
        doc = {"law_n": doc["n"], **doc}
        spec = ModelSpec(**{f.name: doc[f.name] for f in fields(ModelSpec)})
        if doc.get("zeta", spec.zeta) != spec.zeta:  # older sidecars carry zeta = 1
            raise ValueError(f"zeta must be {spec.zeta}, got {doc['zeta']!r}")
        if (doc["n"], spec.d) != xs.shape:
            raise ValueError(f"sidecar n = {doc['n']}, d = {spec.d}, CSV {xs.shape}")
        return SampleBatch(spec=spec, seed=doc["seed"], stream_id=doc["stream_id"], xs=xs)
    except KeyError as exc:
        raise ConfigError(f"batch {csv_path}: sidecar lacks key {exc}") from exc
    except (TypeError, ValueError, TailFactorError) as exc:
        raise ConfigError(f"batch {csv_path}: {exc}") from exc
