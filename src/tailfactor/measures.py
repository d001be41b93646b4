"""Core domain types: discrete measures on the l1-simplex and model specs.

The limiting angular measure of a non-negative linear factor model X = A Z
with heavy-tailed i.i.d. factors is a finite mixture of Diracs sitting at
the normalized columns of A, weighted by the alpha-th power of the column
norms.  ``spectral_measure_of`` builds that measure in canonical form.
"""

import operator
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidAtomError,
    SampleSizeError,
    TooFewPointsError,
    WorstCaseDimensionError,
    ZeroColumnError,
)

MERGE_TOL = 1e-9
SIMPLEX_TOL = 1e-9
MASS_TOL = 1e-9


def _frozen(values) -> np.ndarray:
    """A read-only float64 view of ``values``; the caller's array keeps its flags."""
    out = np.asarray(values, dtype=np.float64).view()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on the positive l1-simplex.

    ``atoms`` has shape (k, d) with rows on the simplex, ``weights`` has
    shape (k,) and sums to one.  Construction checks k >= 1 and that every
    entry is finite and >= 0; ``validate_measure`` checks the rest.
    Instances built through ``make_measure`` are canonical: duplicate atoms
    merged, rows sorted lexicographically.
    """

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms, weights = _frozen(self.atoms), _frozen(self.weights)
        if atoms.ndim != 2 or weights.shape != atoms.shape[:1] or not len(weights):
            shapes = f"atoms {atoms.shape}, weights {weights.shape}"
            raise DimensionMismatchError(f"need (k, d) and (k,), k >= 1, got {shapes}")
        for name, values in (("atom", atoms), ("weight", weights)):
            valid = np.isfinite(values) & (values >= 0)
            if not valid.all():
                bad = int(np.argmin(valid.reshape(len(values), -1).all(axis=1)))
                got = values[bad].tolist()
                raise InvalidAtomError(f"{name} {bad} is {got}, need finite >= 0")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]


def _lex_order(atoms: np.ndarray) -> np.ndarray:
    # np.lexsort sorts by the last key first; feed columns reversed so the
    # first coordinate is the primary key.
    return np.lexsort(tuple(atoms[:, c] for c in range(atoms.shape[1] - 1, -1, -1)))


def _close_pairs(atoms: np.ndarray):
    """Index pairs (i, j), i < j, of lexicographically sorted atoms within
    MERGE_TOL in l1-distance.  Only atoms whose first coordinates lie within
    MERGE_TOL of each other are compared."""
    first = atoms[:, 0]
    ends = np.searchsorted(first, first + MERGE_TOL, side="right")
    lens = ends - np.arange(first.size) - 1
    i = np.repeat(np.arange(first.size), lens)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(lens) - lens, lens)
    close = np.abs(atoms[i] - atoms[j]).sum(axis=1) <= MERGE_TOL
    return i[close], j[close]


def _merge_close(atoms: np.ndarray, weights: np.ndarray):
    """Sort the atoms lexicographically and merge every group linked by
    pairs within MERGE_TOL into its weight-averaged atom (the first atom of
    a group of zero weight), until no pair is within MERGE_TOL."""
    while True:
        order = _lex_order(atoms)
        atoms, weights = atoms[order], weights[order]
        i, j = _close_pairs(atoms)
        if i.size == 0:
            return atoms, weights
        # Spread the least index along the pairs: each chain of close
        # pairs ends up labelled by its first atom.
        group = np.arange(len(atoms))
        while np.any(group[i] != group[j]):
            low = np.minimum(group[i], group[j])
            np.minimum.at(group, i, low)
            np.minimum.at(group, j, low)
        first, group = np.unique(group, return_inverse=True)
        total = np.bincount(group, weights=weights)
        sums = np.column_stack(
            [np.bincount(group, weights=weights * col) for col in atoms.T]
        )
        merged = atoms[first].copy()
        mass = total > 0
        merged[mass] = sums[mass] / total[mass, None]
        atoms, weights = merged, total


def row_sums(xs: np.ndarray) -> np.ndarray:
    """Row sums of an (n, d) array, adding its columns in column order.

    One vector add per column instead of numpy's per-row reduction loop,
    with the bytes of ``xs.sum(axis=1)``, which also adds up to 7 entries
    left to right.  An overflowing row gives inf under the caller's errstate.
    """
    d = xs.shape[1]
    if d >= 8:  # numpy's pairwise sum regroups 8 or more entries: keep its bytes
        return xs.sum(axis=1)
    out = xs[:, 0] + xs[:, 1] if d > 1 else xs[:, 0].copy()
    for j in range(2, d):
        out += xs[:, j]
    out += 0.0  # numpy's sum starts at +0.0: a row of -0.0 sums to +0.0
    return out


def column_dot(xs: np.ndarray, w, out=None) -> np.ndarray:
    """``xs @ w`` for an (n, d) array and d weights, with no BLAS call.

    ``xs[:, 0] * w[0]``, then ``+= xs[:, j] * w[j]`` for j = 1, 2, ... in
    that order: each product and each sum is rounded on its own, with no
    fused multiply-add, so the bytes do not depend on the CPU.  Written
    into ``out`` (n,) when given.  An overflowing entry gives inf under the
    caller's errstate.
    """
    out = np.multiply(xs[:, 0], w[0], out=out)
    for j in range(1, len(w)):
        out += xs[:, j] * w[j]
    return out


def divide_rows(rows: np.ndarray, divisors: np.ndarray) -> np.ndarray:
    """``rows / divisors[:, None]`` for an (n, d) array and n divisors, one
    ``np.divide`` per column into one new C-order array: the broadcast runs
    numpy's inner loop once per row, as ``row_sums`` explains."""
    out = np.empty(rows.shape)
    for j in range(rows.shape[1]):
        np.divide(rows[:, j], divisors, out=out[:, j])
    return out


def _onto_simplex(rows: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``rows`` divided by their l1-norms ``norms`` (> 0, from ``row_sums``),
    column by column (``divide_rows``).

    A row whose norm overflowed to inf is scaled by its largest entry first
    and summed again, so it keeps its direction; other rows are divided as
    they are."""
    if np.isinf(norms).any():
        big = np.flatnonzero(np.isinf(norms))
        rows, norms = rows.copy(), norms.copy()
        scaled = np.take(rows, big, axis=0)
        scaled = divide_rows(scaled, scaled.max(axis=1))
        rows[big] = scaled
        norms[big] = row_sums(scaled)
    return divide_rows(rows, norms)


def make_measure(atoms, weights) -> DiscreteMeasure:
    """Build a canonical DiscreteMeasure: normalize, merge near-duplicates, sort.

    A negative or non-finite entry raises InvalidAtomError.  Atoms are
    scaled onto the simplex by their coordinate sum; a sum of 0 raises
    ZeroColumnError (columns of a loading matrix become atoms).  Atoms
    linked by a chain of pairs within MERGE_TOL in l1-distance collapse into
    one, their weight-averaged location, with their weights summed, so no
    two atoms of the result are within MERGE_TOL.  Atoms are sorted
    lexicographically.
    """
    raw = DiscreteMeasure(np.atleast_2d(atoms), np.ravel(weights))
    with np.errstate(over="ignore"):
        norms = row_sums(raw.atoms)
    if not np.all(norms > 0):
        bad = int(np.argmin(norms > 0))
        raise ZeroColumnError(f"atom {bad} has coordinate sum {norms[bad]}, need > 0")
    atoms, weights = _merge_close(_onto_simplex(raw.atoms, norms), raw.weights)
    return DiscreteMeasure(atoms=atoms, weights=weights)


def validate_measure(mu: DiscreteMeasure) -> bool:
    """Check the invariants construction leaves open: atoms on the simplex,
    unit mass and no two atoms within MERGE_TOL in l1-distance, found by
    the search ``make_measure`` merges by."""
    atoms = mu.atoms
    if np.any(np.abs(row_sums(atoms) - 1.0) > SIMPLEX_TOL):
        return False
    if abs(mu.weights.sum() - 1.0) > MASS_TOL:
        return False
    close, _ = _close_pairs(atoms[_lex_order(atoms)])
    return close.size == 0


def _is_bool(value) -> bool:
    """True for a Python or numpy bool, which compares as the number 0 or 1."""
    return isinstance(value, (bool, np.bool_))


def check_alpha(alpha: float) -> None:
    """Raise InvalidAlphaError unless the tail index is a number, not a
    bool, in (0, inf)."""
    if _is_bool(alpha) or not 0 < alpha < np.inf:
        raise InvalidAlphaError(f"alpha must be finite and > 0, got {alpha}")


def check_s(s: float) -> None:
    """Raise ValueError unless the deviation parameter is in (0, 1/2)."""
    if not 0 < s < 0.5:
        raise ValueError(f"s must be in (0, 0.5), got {s}")


def spectral_measure_of(A, alpha: float) -> DiscreteMeasure:
    """Closed-form limiting spectral measure of the factor model X = A Z.

    Atoms are the l1-normalized columns of ``A``; the weight of column i is
    its l1-norm to the power ``alpha`` (scaled by the largest if the powers
    leave the float range), normalized over columns.  Columns pointing in
    the same direction collapse to a single atom.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    check_alpha(alpha)
    norms = np.abs(A).sum(axis=0)
    if np.any(norms == 0):
        raise ZeroColumnError("loading matrix has a zero column")
    atoms = (A / norms).T
    with np.errstate(over="ignore"):
        weights = norms**alpha
    if not 0 < weights.sum() < np.inf:
        weights = (norms / norms.max()) ** alpha
    weights = weights / weights.sum()
    return make_measure(atoms, weights)


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


LATENT_KINDS = ("iid-pareto", "tilted-worst-case")


@dataclass(frozen=True)
class ModelSpec:
    """One member of the heavy-tailed linear factor model class.

    ``A`` is a non-negative d-by-m loading matrix of integers or floats
    (ValueError for bools or strings), ``alpha`` the tail index,
    ``s`` the deviation parameter in (0, 1/2) and ``latent_kind`` selects the
    latent-factor law, one of LATENT_KINDS.  ``law_n`` is the sample size
    of a law that depends on it: "tilted-worst-case" requires it and takes
    its tilts and tail threshold at it; "iid-pareto" holds None.
    """

    A: np.ndarray
    alpha: float
    s: float
    latent_kind: str = "iid-pareto"
    law_n: Optional[int] = None
    zeta: ClassVar[float] = 1.0  # tail-threshold scale; perfbench's tracer reads it too

    def __post_init__(self):
        A = np.atleast_2d(self.A)
        if A.dtype.kind not in "iuf":  # bools and strings are no loadings
            raise ValueError(f"loading matrix must hold integers or floats, got {A.dtype}")
        object.__setattr__(self, "A", _frozen(A))
        law_n = self.law_n if self.latent_kind == "tilted-worst-case" else None
        object.__setattr__(self, "law_n", law_n if law_n is None else _as_int("law_n", law_n))
        validate_model_spec(self)

    @property
    def d(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]


def validate_model_spec(spec: ModelSpec) -> None:
    d, m = spec.A.shape
    if d < 2:
        raise DimensionMismatchError(f"need d >= 2, got d={d}")
    if m < d:
        raise DimensionMismatchError(f"need m >= d, got d={d}, m={m}")
    if not np.all(np.isfinite(spec.A) & (spec.A >= 0)):
        raise ValueError("loading matrix must be finite and entry-wise non-negative")
    if np.any(spec.A.sum(axis=0) == 0):
        raise ZeroColumnError("loading matrix has a zero column")
    check_alpha(spec.alpha)
    check_s(spec.s)
    if spec.latent_kind not in LATENT_KINDS:
        kinds = list(LATENT_KINDS)
        raise ValueError(f"latent kind {spec.latent_kind!r} is not one of {kinds}")
    if spec.latent_kind == "tilted-worst-case":
        if m != 2:
            raise WorstCaseDimensionError(f"worst-case latent law needs m=2, got m={m}")
        if spec.law_n is None:
            raise SampleSizeError("the worst-case latent law needs its sample size law_n")
        worst_case_tilts(spec.law_n, spec.s)


def _as_int(name: str, value) -> int:
    """``value`` as a Python int, numpy integers included; TypeError naming
    ``name`` for a bool or a value with no exact integer meaning (a float)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def check_radius(radius: float) -> None:
    """Raise ValueError unless a batch's radius is a number >= 0."""
    if not radius >= 0:
        raise ValueError(f"need a radius >= 0, got {radius}")


@dataclass(frozen=True)
class SampleBatch:
    """The observations X = A Z of an n-row sample whose l1-norm reaches
    ``radius``, in sample order, plus the spec and seed that generated them.

    At radius 0, the default, that is every row, and n defaults to their
    count.  At radius > 0, ``xs`` may be any rows of the sample, in sample
    order, that include every row at or above the radius, and the batch
    keeps those alone: readers of the rows above a threshold >= radius see
    what the whole sample gives them.  ``seed``, ``stream_id`` and ``n``
    are Python ints, not booleans; ``xs`` is a read-only float64
    (rows, spec.d) array, finite and >= 0; ``norms``, derived and read by
    every threshold, is a read-only ``row_sums(xs)``, inf on overflow.
    Raises ValueError for a negative radius or for an n below the rows
    given, or other than their count at radius 0."""

    spec: ModelSpec
    seed: int
    stream_id: int
    xs: np.ndarray = field(repr=False)
    n: Optional[int] = None
    radius: float = 0.0
    norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        xs = _frozen(self.xs)
        if xs.ndim != 2 or xs.shape[1] != self.spec.d:
            raise DimensionMismatchError(f"need {self.spec.d} columns, got {xs.shape}")
        lo, hi = xs.min(initial=0.0), xs.max(initial=0.0)
        if not (0 <= lo and hi < np.inf):
            raise InvalidAtomError(f"negative or non-finite value: min {lo}, max {hi}")
        check_radius(self.radius)
        n = len(xs) if self.n is None else _as_int("n", self.n)
        if n < len(xs) or (self.radius == 0 and n != len(xs)):
            raise ValueError(f"n = {n} for {len(xs)} rows at radius {self.radius}")
        with np.errstate(over="ignore"):
            norms = row_sums(xs)
        if self.radius > 0:
            kept = np.flatnonzero(norms >= self.radius)
            xs, norms = _frozen(np.take(xs, kept, axis=0)), np.take(norms, kept)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "norms", _frozen(norms))


def check_every_row(batch: SampleBatch, reader: str) -> None:
    """ValueError unless ``batch`` holds every row of its sample (radius 0):
    ``reader`` needs them all."""
    if batch.radius > 0:
        raise ValueError(f"{reader} needs every row, got a batch above radius {batch.radius}")


# ---------------------------------------------------------------------------
# JSON serialization.  Floats are written with 17 significant digits so the
# files round-trip bit-exactly and diff cleanly.


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def measure_to_json(mu: DiscreteMeasure) -> str:
    rows = ["[" + ", ".join(_fmt(v) for v in atom) + "]" for atom in mu.atoms]
    atoms = "[" + ", ".join(rows) + "]"
    weights = "[" + ", ".join(_fmt(w) for w in mu.weights) + "]"
    return '{"atoms": ' + atoms + ', "weights": ' + weights + "}"


def measure_from_json(text: str) -> DiscreteMeasure:
    import json

    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != {"atoms", "weights"}:
        raise DimensionMismatchError("measure JSON must have atoms and weights keys")
    return DiscreteMeasure(np.atleast_2d(doc["atoms"]), np.ravel(doc["weights"]))
