"""Core domain types: discrete measures on the l1-simplex and model specs.

The limiting angular measure of a non-negative linear factor model X = A Z
with heavy-tailed i.i.d. factors is a finite mixture of Diracs sitting at
the normalized columns of A, weighted by the alpha-th power of the column
norms.  ``spectral_measure_of`` builds that measure in canonical form.
"""

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidAtomError,
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
    atoms = raw.atoms
    with np.errstate(over="ignore"):
        norms = atoms.sum(axis=1)
    big = np.isinf(norms)
    if big.any():  # a sum beyond the float range: scale by the largest first
        atoms = atoms.copy()
        atoms[big] /= atoms[big].max(axis=1, keepdims=True)
        norms = atoms.sum(axis=1)
    if not np.all(norms > 0):
        bad = int(np.argmin(norms > 0))
        raise ZeroColumnError(f"atom {bad} has coordinate sum {norms[bad]}, need > 0")
    atoms, weights = _merge_close(atoms / norms[:, None], raw.weights)
    return DiscreteMeasure(atoms=atoms, weights=weights)


def validate_measure(mu: DiscreteMeasure) -> bool:
    """Check the invariants construction leaves open: atoms on the simplex,
    unit mass and no two atoms within MERGE_TOL."""
    atoms, weights, k = mu.atoms, mu.weights, mu.n_atoms
    if np.any(np.abs(atoms.sum(axis=1) - 1.0) > SIMPLEX_TOL):
        return False
    if abs(weights.sum() - 1.0) > MASS_TOL:
        return False
    if k > 1:
        dist = np.abs(atoms[:, None, :] - atoms[None, :, :]).sum(axis=2)
        dist[np.diag_indices(k)] = np.inf
        if dist.min() < MERGE_TOL:
            return False
    return True


def check_alpha(alpha: float) -> None:
    """Raise InvalidAlphaError unless the tail index is in (0, inf)."""
    if not 0 < alpha < np.inf:
        raise InvalidAlphaError(f"alpha must be finite and > 0, got {alpha}")


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


LATENT_KINDS = ("iid-pareto", "tilted-worst-case")


@dataclass(frozen=True)
class ModelSpec:
    """One member of the heavy-tailed linear factor model class.

    ``A`` is a non-negative d-by-m loading matrix, ``alpha`` the tail index,
    ``s`` the deviation parameter in (0, 1/2) and ``latent_kind`` selects the
    latent-factor law, one of LATENT_KINDS.
    """

    A: np.ndarray
    alpha: float
    s: float
    latent_kind: str = "iid-pareto"
    zeta: ClassVar[float] = 1.0  # tail-threshold scale; perfbench's tracer reads it too

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen(np.atleast_2d(self.A)))
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
    if not (0 < spec.s < 0.5):
        raise ValueError(f"s must be in (0, 0.5), got {spec.s}")
    if spec.latent_kind not in LATENT_KINDS:
        raise ValueError(f"unknown latent kind {spec.latent_kind!r}")
    if spec.latent_kind == "tilted-worst-case" and m != 2:
        raise WorstCaseDimensionError(f"worst-case latent law needs m=2, got m={m}")


@dataclass(frozen=True)
class SampleBatch:
    """n observations X = A Z plus the spec and seed that generated them;
    ``xs`` is a read-only float64 (n, spec.d) array, finite and >= 0."""

    spec: ModelSpec
    seed: int
    stream_id: int
    xs: np.ndarray = field(repr=False)

    def __post_init__(self):
        xs = _frozen(self.xs)
        if xs.ndim != 2 or xs.shape[1] != self.spec.d:
            raise DimensionMismatchError(f"need {self.spec.d} columns, got {xs.shape}")
        lo, hi = xs.min(initial=0.0), xs.max(initial=0.0)
        if not (0 <= lo and hi < np.inf):
            raise InvalidAtomError(f"negative or non-finite value: min {lo}, max {hi}")
        object.__setattr__(self, "xs", xs)

    @property
    def n(self) -> int:
        return self.xs.shape[0]


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
