"""Core domain types: discrete measures on the l1-simplex and model specs.

The limiting angular measure of a non-negative linear factor model X = A Z
with heavy-tailed i.i.d. factors is a finite mixture of Diracs sitting at
the normalized columns of A, weighted by the alpha-th power of the column
norms.  ``spectral_measure_of`` builds that measure in canonical form.
"""

from dataclasses import dataclass, field

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
COORD_TOL = 1e-12
MASS_TOL = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on the positive l1-simplex.

    ``atoms`` has shape (k, d) with rows on the simplex, ``weights`` has
    shape (k,) and sums to one.  Instances built through ``make_measure``
    are canonical: duplicate atoms merged, rows sorted lexicographically.
    """

    atoms: np.ndarray
    weights: np.ndarray

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

    A negative or non-finite coordinate raises InvalidAtomError.  Atoms are
    scaled onto the simplex by their coordinate sum; a sum of 0 raises
    ZeroColumnError (columns of a loading matrix become atoms).  Atoms
    linked by a chain of pairs within MERGE_TOL in l1-distance collapse into
    one, their weight-averaged location, with their weights summed, so no
    two atoms of the result are within MERGE_TOL.  Atoms are sorted
    lexicographically.
    """
    atoms = np.atleast_2d(np.asarray(atoms, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if atoms.shape[0] != weights.shape[0]:
        raise DimensionMismatchError(
            f"{atoms.shape[0]} atoms vs {weights.shape[0]} weights"
        )
    valid = (np.isfinite(atoms) & (atoms >= 0)).all(axis=1)
    if not valid.all():
        bad = int(np.argmin(valid))
        raise InvalidAtomError(f"atom {bad} is {atoms[bad].tolist()}, need finite >= 0")
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
    atoms, weights = _merge_close(atoms / norms[:, None], weights)
    atoms.setflags(write=False)
    weights.setflags(write=False)
    return DiscreteMeasure(atoms=atoms, weights=weights)


def validate_measure(mu: DiscreteMeasure) -> bool:
    """Check all DiscreteMeasure invariants without mutating the input."""
    atoms = np.asarray(mu.atoms, dtype=np.float64)
    weights = np.asarray(mu.weights, dtype=np.float64)
    if atoms.ndim != 2 or weights.ndim != 1:
        return False
    k = atoms.shape[0]
    if k < 1 or weights.shape[0] != k:
        return False
    if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(weights)):
        return False
    if np.any(atoms < -COORD_TOL):
        return False
    if np.any(np.abs(atoms.sum(axis=1) - 1.0) > SIMPLEX_TOL):
        return False
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > MASS_TOL:
        return False
    if k > 1:
        dist = np.abs(atoms[:, None, :] - atoms[None, :, :]).sum(axis=2)
        dist[np.diag_indices(k)] = np.inf
        if dist.min() < MERGE_TOL:
            return False
    return True


def spectral_measure_of(A, alpha: float) -> DiscreteMeasure:
    """Closed-form limiting spectral measure of the factor model X = A Z.

    Atoms are the l1-normalized columns of ``A``; the weight of column i is
    its l1-norm to the power ``alpha`` (scaled by the largest if the powers
    leave the float range), normalized over columns.  Columns pointing in
    the same direction collapse to a single atom.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    if alpha <= 0:
        raise InvalidAlphaError(f"alpha must be > 0, got {alpha}")
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
    latent-factor law, one of LATENT_KINDS.  ``zeta`` scales the tail
    threshold.
    """

    A: np.ndarray
    alpha: float
    s: float
    latent_kind: str = "iid-pareto"
    zeta: float = 1.0

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=np.float64))
        A.setflags(write=False)
        object.__setattr__(self, "A", A)
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
    if spec.alpha <= 0:
        raise InvalidAlphaError(f"alpha must be > 0, got {spec.alpha}")
    if not (0 < spec.s < 0.5):
        raise ValueError(f"s must be in (0, 0.5), got {spec.s}")
    if spec.zeta <= 0:
        raise ValueError(f"zeta must be > 0, got {spec.zeta}")
    if spec.latent_kind not in LATENT_KINDS:
        raise ValueError(f"unknown latent kind {spec.latent_kind!r}")
    if spec.latent_kind == "tilted-worst-case" and m != 2:
        raise WorstCaseDimensionError(f"worst-case latent law needs m=2, got m={m}")


@dataclass(frozen=True)
class SampleBatch:
    """n observations X = A Z plus the spec and seed that generated them."""

    spec: ModelSpec
    seed: int
    stream_id: int
    xs: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.xs.shape[0]


# ---------------------------------------------------------------------------
# JSON serialization.  Floats are written with 17 significant digits so the
# files round-trip bit-exactly and diff cleanly.


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def measure_to_json(mu: DiscreteMeasure) -> str:
    rows = [
        "[" + ", ".join(_fmt(v) for v in atom) + "]" for atom in np.asarray(mu.atoms)
    ]
    atoms = "[" + ", ".join(rows) + "]"
    weights = "[" + ", ".join(_fmt(w) for w in np.asarray(mu.weights)) + "]"
    return '{"atoms": ' + atoms + ', "weights": ' + weights + "}"


def measure_from_json(text: str) -> DiscreteMeasure:
    import json

    doc = json.loads(text)
    if not isinstance(doc, dict) or set(doc) != {"atoms", "weights"}:
        raise DimensionMismatchError("measure JSON must have atoms and weights keys")
    atoms = np.asarray(doc["atoms"], dtype=np.float64)
    weights = np.asarray(doc["weights"], dtype=np.float64)
    atoms.setflags(write=False)
    weights.setflags(write=False)
    return DiscreteMeasure(atoms=np.atleast_2d(atoms), weights=weights.ravel())
