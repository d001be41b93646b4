import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailfactor.errors import (
    DimensionMismatchError,
    InvalidAlphaError,
    InvalidAtomError,
    ZeroColumnError,
)
from tailfactor.measures import (
    DiscreteMeasure,
    ModelSpec,
    make_measure,
    measure_from_json,
    measure_to_json,
    spectral_measure_of,
    validate_measure,
)

RNG = np.random.default_rng(1234)


def test_identity_columns_give_symmetric_measure():
    mu = spectral_measure_of(np.eye(2), alpha=2.0)
    assert np.allclose(mu.atoms, [[0, 1], [1, 0]])
    assert np.allclose(mu.weights, [0.5, 0.5])


def test_diagonal_column_norms_weight_by_alpha_power():
    # column norms 2 and 1, alpha=1 -> weights 2/3 and 1/3
    mu = spectral_measure_of(np.diag([2.0, 1.0]), alpha=1.0)
    assert np.allclose(mu.atoms, [[0, 1], [1, 0]])
    assert np.allclose(mu.weights, [1 / 3, 2 / 3])


def test_coincident_directions_merge_into_one_atom():
    mu = spectral_measure_of(np.array([[1.0, 1.0], [0.0, 0.0]]), alpha=2.0)
    assert mu.n_atoms == 1
    assert np.allclose(mu.atoms, [[1, 0]])
    assert np.allclose(mu.weights, [1.0])


def test_zero_column_rejected():
    with pytest.raises(ZeroColumnError):
        spectral_measure_of(np.array([[1.0, 0.0], [1.0, 0.0]]), alpha=1.0)


def test_nonpositive_alpha_rejected():
    for alpha in (0.0, np.nan, np.inf):
        with pytest.raises(InvalidAlphaError):
            spectral_measure_of(np.diag([1.3, 0.7]), alpha=alpha)
    # Extreme but finite: the largest column takes all the weight.
    assert np.array_equal(spectral_measure_of(np.diag([1.3, 0.7]), 1e300).weights, [0, 1])


def test_total_column_scaling_leaves_measure_unchanged():
    for _ in range(50):
        A = RNG.uniform(0.1, 3.0, size=(3, 4))
        alpha = RNG.uniform(0.3, 3.0)
        t = RNG.uniform(0.1, 10.0)
        mu = spectral_measure_of(A, alpha)
        mu_t = spectral_measure_of(t * A, alpha)
        assert np.allclose(mu.atoms, mu_t.atoms, atol=1e-12)
        assert np.allclose(mu.weights, mu_t.weights, atol=1e-12)


def test_column_permutation_invariance():
    for _ in range(50):
        A = RNG.uniform(0.1, 3.0, size=(2, 5))
        alpha = RNG.uniform(0.3, 3.0)
        perm = RNG.permutation(5)
        mu = spectral_measure_of(A, alpha)
        mu_p = spectral_measure_of(A[:, perm], alpha)
        assert np.allclose(mu.atoms, mu_p.atoms, atol=1e-12)
        assert np.allclose(mu.weights, mu_p.weights, atol=1e-12)


def test_weights_sum_to_one_on_random_matrices():
    for _ in range(200):
        d = int(RNG.integers(2, 5))
        m = int(RNG.integers(d, d + 4))
        A = RNG.uniform(0.01, 5.0, size=(d, m))
        mu = spectral_measure_of(A, RNG.uniform(0.2, 4.0))
        assert abs(np.sum(mu.weights) - 1.0) <= 1e-12


def test_validate_measure_accepts_single_vertex():
    mu = make_measure([[1.0, 0.0]], [1.0])
    assert validate_measure(mu)


def test_validate_measure_rejects_mass_deficit():
    mu = DiscreteMeasure(atoms=np.array([[0.5, 0.5]]), weights=np.array([0.9]))
    assert not validate_measure(mu)


def test_validate_measure_rejects_off_simplex_atom():
    mu = DiscreteMeasure(atoms=np.array([[0.6, 0.5]]), weights=np.array([1.0]))
    assert not validate_measure(mu)


def test_discrete_measure_checks_its_entries_when_built():
    atoms, weights = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.5, 0.5])
    mu = DiscreteMeasure(atoms, weights)
    assert not (mu.atoms.flags.writeable or mu.weights.flags.writeable)
    assert atoms.flags.writeable  # the caller's array is left as it was
    # no atom, or shapes that do not pair k atoms with k weights
    for bad_atoms, bad_weights in (
        (np.empty((0, 2)), np.empty(0)),
        (atoms, np.array([1.0])),
        (np.array([1.0, 0.0]), np.array([1.0])),
        (atoms, np.array([[0.5, 0.5]])),
    ):
        with pytest.raises(DimensionMismatchError):
            DiscreteMeasure(bad_atoms, bad_weights)
    # a coordinate just below 0 is off the positive simplex; the first bad
    # atom or weight is named
    with pytest.raises(InvalidAtomError, match="atom 1 is"):
        DiscreteMeasure(np.array([[1.0, 0.0], [-1e-13, 1.0 + 1e-13]]), weights)
    with pytest.raises(InvalidAtomError, match="weight 0 is nan"):
        DiscreteMeasure(atoms, np.array([np.nan, -1.0]))
    with pytest.raises(InvalidAtomError, match="weight 1 is -0.5"):
        make_measure(atoms, [1.5, -0.5])


def test_make_measure_merges_near_duplicates():
    mu = make_measure([[1.0, 0.0], [1.0 - 1e-12, 1e-12]], [0.4, 0.6])
    assert mu.n_atoms == 1
    assert np.isclose(mu.weights[0], 1.0)


def test_make_measure_merges_pairs_that_are_not_lexicographic_neighbours():
    # atoms 0 and 2 lie 4e-12 apart, with atom 1 between them in
    # lexicographic order
    atoms = [
        [0.3, 0.3, 0.4],
        [0.3 + 1e-12, 0.1, 0.6 - 1e-12],
        [0.3 + 2e-12, 0.3, 0.4 - 2e-12],
    ]
    mu = make_measure(atoms, [1 / 3] * 3)
    assert mu.n_atoms == 2 and validate_measure(mu)
    assert np.allclose(mu.weights, [1 / 3, 2 / 3])


def test_make_measure_rejects_zero_atom():
    with pytest.raises(ZeroColumnError):
        make_measure([[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5])


@st.composite
def atom_clouds(draw):
    """(k, d) atoms, d = 2..4, and k weights summing to 1: a few base rows,
    each repeated with offsets spread by up to 2e-9, then scaled as a whole
    from the subnormal range up to where row sums overflow.  One cloud in
    four has a coordinate set to a negative or non-finite value."""
    d = draw(st.integers(2, 4))
    shape = (draw(st.integers(1, 5)), d)
    base = draw(hnp.arrays(np.float64, shape, elements=st.floats(0, 1)))
    picks = st.integers(0, len(base) - 1)
    rows = draw(hnp.arrays(np.int64, draw(st.integers(1, 12)), elements=picks))
    noise = draw(hnp.arrays(np.float64, (len(rows), d), elements=st.floats(-1, 1)))
    spread = draw(st.sampled_from([0.0, 1e-16, 1e-13, 1e-11, 3e-10, 1e-9, 2e-9]))
    scale = draw(st.sampled_from([1e-300, 1e-6, 1.0, 1e300, 1e308]))
    atoms = np.abs(base[rows] + spread * noise) * scale
    bad = draw(st.sampled_from([-0.5, -5e-324, np.nan, np.inf, -np.inf] + [None] * 15))
    if bad is not None:
        atoms[draw(st.integers(0, len(atoms) - 1)), draw(st.integers(0, d - 1))] = bad
    w = draw(hnp.arrays(np.float64, len(atoms), elements=st.floats(0.01, 1)))
    return atoms, w / w.sum()


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(atom_clouds())
@example((np.array([[-0.5, 1.5], [0.5, 0.5]]), np.array([0.5, 0.5])))
@example((np.array([[np.nan, 1.0], [0.5, 0.5]]), np.array([0.5, 0.5])))
def test_make_measure_property_valid_measure_or_typed_error(cloud):
    atoms, w = cloud
    off = ~(np.isfinite(atoms) & (atoms >= 0)).all(axis=1)
    try:
        mu = make_measure(atoms, w)
    except InvalidAtomError as exc:
        assert off.any() and f"atom {np.argmax(off)} " in str(exc)
        return
    except ZeroColumnError:
        assert not off.any() and np.any(atoms.sum(axis=1) == 0)
        return
    assert not off.any()
    assert validate_measure(mu)
    assert abs(mu.weights.sum() - w.sum()) <= 1e-12


def test_json_round_trip_is_exact():
    mu = spectral_measure_of(RNG.uniform(0.1, 2.0, size=(3, 3)), 1.7)
    text = measure_to_json(mu)
    back = measure_from_json(text)
    assert np.array_equal(np.asarray(mu.atoms), np.asarray(back.atoms))
    assert np.array_equal(np.asarray(mu.weights), np.asarray(back.weights))
    doc = json.loads(text)
    assert set(doc) == {"atoms", "weights"}


def test_model_spec_validation():
    with pytest.raises(Exception):
        ModelSpec(A=np.eye(2), alpha=1.0, s=0.7)  # s out of range
    with pytest.raises(Exception):
        ModelSpec(A=np.ones((3, 2)), alpha=1.0, s=0.2)  # m < d
    for alpha in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidAlphaError):
            ModelSpec(A=np.eye(2), alpha=alpha, s=0.2)
    assert ModelSpec(A=np.eye(2), alpha=1e300, s=0.2).alpha == 1e300
    spec = ModelSpec(A=np.eye(2), alpha=1.0, s=0.2)
    assert spec.d == 2 and spec.m == 2
