import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailfactor import transport
from tailfactor.errors import CostRangeError, DimensionMismatchError, InvalidAtomError
from tailfactor.estimators import empirical_angular_measure
from tailfactor.measures import DiscreteMeasure, ModelSpec, make_measure
from tailfactor.sampling import generate_dataset
from tailfactor.transport import (
    solve_transport,
    wasserstein_p,
    wasserstein_pp,
)
from transport_oracles import line_cost, linprog_cost, linprog_plan_cost

RNG = np.random.default_rng(777)


def _random_measure(k, d):
    pts = RNG.uniform(0, 1, size=(k, d))
    pts = pts / pts.sum(axis=1, keepdims=True)
    w = RNG.uniform(0.1, 1.0, size=k)
    return make_measure(pts, w / w.sum())


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf"), True])
def test_order_outside_one_to_inf_rejected(p):
    # a bool compares as 0 or 1, but it is not an order
    mu = _random_measure(10, 3)
    nu = _random_measure(12, 3)
    for distance in (wasserstein_pp, wasserstein_p):
        with pytest.raises(ValueError, match=f"1 <= p < inf, got {p}"):
            distance(mu, nu, p)


def test_w1_two_atom_example():
    # Move 0.3 of mass across the full diagonal of the 2-simplex:
    # W1 = 0.3 * |(1,0)-(0,1)|_1 = 0.6
    mu = make_measure([[1.0, 0.0], [0.0, 1.0]], [0.8, 0.2])
    nu = make_measure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    assert wasserstein_p(mu, nu, 1.0) == pytest.approx(0.6, abs=1e-12)


def test_w1_dirac_to_dirac():
    mu = make_measure([[1.0, 0.0]], [1.0])
    nu = make_measure([[0.0, 1.0]], [1.0])
    assert wasserstein_p(mu, nu, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_w2_between_vertex_mixtures():
    # Half the mass moves between opposite vertices at l1-distance 2:
    # W2^2 = 0.5 * 2^2 = 2, W2 = sqrt(2)
    mu = make_measure([[1.0, 0.0]], [1.0])
    nu = make_measure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    obj, _ = wasserstein_pp(mu, nu, 2.0)
    assert obj == pytest.approx(2.0, abs=1e-12)
    assert wasserstein_p(mu, nu, 2.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # At p = 1100 and 2000, 2^p overflows float64: W_p = 2 * 0.5^(1/p) stays
    # exact, and W_p^p = 0.5 * 2^p raises the typed error.
    for p in (1100.0, 2000.0):
        assert wasserstein_p(mu, nu, p) == pytest.approx(2.0 * 0.5 ** (1 / p), rel=1e-15)
        with pytest.raises(CostRangeError, match="W_p\\^p"):
            wasserstein_pp(mu, nu, p)
    # Off the vertices, costs 0.2 and 0.4: both p-th powers underflow at
    # p = 1100.  The scaled costs keep W_p = (0.5 * 0.2^p + 0.5 * 0.4^p)^(1/p).
    mu = make_measure([[0.6, 0.4], [0.3, 0.7]], [0.5, 0.5])
    nu = make_measure([[0.5, 0.5]], [1.0])
    assert wasserstein_p(mu, nu, 1100.0) == pytest.approx(0.4 * 0.5 ** (1 / 1100), rel=1e-15)
    # Here the plan pays only the cost 0.2^1100 = 0 beside a largest cost
    # 1.2^1100 in range: the objective reads 0 though W_p is about 0.19987.
    mu = make_measure([[0.5, 0.5], [1.0, 0.0]], [0.5, 0.5])
    nu = make_measure([[0.4, 0.6], [1.0, 0.0]], [0.5, 0.5])
    for distance in (wasserstein_p, wasserstein_pp):
        with pytest.raises(CostRangeError, match="underflows at p=1100"):
            distance(mu, nu, 1100.0)


def test_identity_of_indiscernibles_and_symmetry():
    for _ in range(20):
        mu = _random_measure(int(RNG.integers(1, 7)), 3)
        nu = _random_measure(int(RNG.integers(1, 7)), 3)
        assert wasserstein_p(mu, mu, 1.0) == pytest.approx(0.0, abs=1e-10)
        d1 = wasserstein_p(mu, nu, 1.0)
        d2 = wasserstein_p(nu, mu, 1.0)
        assert d1 == pytest.approx(d2, abs=1e-10)
        assert d1 >= 0


def test_triangle_inequality():
    for _ in range(30):
        mu = _random_measure(int(RNG.integers(2, 6)), 2)
        nu = _random_measure(int(RNG.integers(2, 6)), 2)
        rho = _random_measure(int(RNG.integers(2, 6)), 2)
        assert wasserstein_p(mu, nu, 1.0) <= (
            wasserstein_p(mu, rho, 1.0) + wasserstein_p(rho, nu, 1.0) + 1e-10
        )


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_against_linprog_oracle(p):
    for _ in range(25):
        mu = _random_measure(int(RNG.integers(2, 9)), int(RNG.integers(2, 4)))
        nu = _random_measure(int(RNG.integers(2, 9)), mu.dim)
        obj, gamma = wasserstein_pp(mu, nu, p)
        assert obj == pytest.approx(linprog_cost(mu, nu, p), abs=1e-8)
        # plan feasibility
        assert gamma.shape == (mu.n_atoms, nu.n_atoms)
        assert gamma.min() >= -1e-12
        assert np.allclose(gamma.sum(axis=1), mu.weights, atol=1e-9)
        assert np.allclose(gamma.sum(axis=0), nu.weights, atol=1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_against_line_oracle(p):
    # Atoms sorted as make_measure sorts them make the northwest-corner
    # start optimal on a line; atoms in draw order make the solver pivot.
    rng = np.random.default_rng(int(p))
    for _ in range(20):
        sizes = rng.integers(2, 40, size=2)
        xa, xb = (rng.uniform(0, 1, size=k) for k in sizes)
        wa, wb = (rng.uniform(0.05, 1.0, size=k) for k in sizes)
        wa, wb = wa / wa.sum(), wb / wb.sum()
        pa, pb = np.column_stack([xa, 1 - xa]), np.column_stack([xb, 1 - xb])
        cost = np.abs(pa[:, None, :] - pb[None, :, :]).sum(axis=2) ** p
        _, obj = solve_transport(wa, wb, cost)
        assert obj == pytest.approx(line_cost(xa, wa, xb, wb, p), abs=1e-12)


def test_total_variation_upper_bound():
    # Measures on the simplex live in an l1-ball of diameter 2, so
    # W_p^p <= 2^p * TV for measures sharing the same atom list.
    for p in (1.0, 2.0, 3.0):
        for _ in range(20):
            k = int(RNG.integers(2, 6))
            pts = RNG.uniform(0, 1, size=(k, 3))
            pts = pts / pts.sum(axis=1, keepdims=True)
            wa = RNG.uniform(0.05, 1.0, size=k)
            wb = RNG.uniform(0.05, 1.0, size=k)
            wa, wb = wa / wa.sum(), wb / wb.sum()
            mu = make_measure(pts, wa)
            nu = make_measure(pts, wb)
            tv = 0.5 * np.abs(np.asarray(mu.weights) - np.asarray(nu.weights)).sum()
            obj, _ = wasserstein_pp(mu, nu, p)
            assert obj <= 2.0**p * tv + 1e-9


def test_dimension_mismatch_rejected():
    mu = make_measure([[1.0, 0.0]], [1.0])
    nu = make_measure([[1.0, 0.0, 0.0]], [1.0])
    with pytest.raises(DimensionMismatchError):
        wasserstein_p(mu, nu)


@pytest.mark.parametrize(
    "weights, atoms",
    [
        ([math.nan, 0.5], [[1.0, 0.0], [0.0, 1.0]]),
        ([-0.5, 1.5], [[1.0, 0.0], [0.0, 1.0]]),
        ([math.inf, 1.0], [[1.0, 0.0], [0.0, 1.0]]),
        ([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
        ([0.5, 0.5], [[math.nan, 0.0], [0.0, 1.0]]),
        ([0.5, 0.5], [[1.5, -0.5], [0.0, 1.0]]),
    ],
)
def test_invalid_measure_rejected(weights, atoms):
    # A negative or non-finite entry makes no DiscreteMeasure; weights
    # summing to 0 do, and the solver must not read a number off them.
    if sum(weights) != 0:
        with pytest.raises(InvalidAtomError):
            DiscreteMeasure(np.array(atoms), np.array(weights))
        return
    mu = DiscreteMeasure(np.array(atoms), np.array(weights))
    nu = make_measure([[1.0, 0.0]], [1.0])
    for a, b in ((mu, nu), (nu, mu)):
        with pytest.raises(InvalidAtomError):
            wasserstein_p(a, b)


def test_solver_handles_degenerate_ties():
    # Equal supplies/demands with tied costs exercise degenerate pivots.
    a = np.full(6, 1.0 / 6)
    b = np.full(6, 1.0 / 6)
    cost = np.ones((6, 6))
    cost[np.diag_indices(6)] = 0.0
    flow, obj = solve_transport(a, b, cost)
    assert obj == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.diag(flow), 1.0 / 6)


# W_1^1 and W_2^2 between the three pairs of d = 3 angular measures below,
# as a full walk of the basis tree at every pivot computes them; each solve
# makes 114-196 pivots.  A change to the pricing, the leaving-cell rule or
# the float operations that set the duals can move these bytes.
D3_PINNED = [
    ("0x1.df80d13784ef4p-4", "0x1.d070694c2f6b6p-4"),
    ("0x1.73ab7f8de69cap-5", "0x1.566b653ea9496p-6"),
    ("0x1.40858be745995p-4", "0x1.bbde32f976e59p-5"),
]
# sha256 of the optimal couplings' bytes (gamma.tobytes()) of the same
# solves: a change to how the flow is stored or updated can move these.
D3_COUPLINGS_PINNED = [
    (
        "24b2bd8d327b9f0cf2fdeb4ff7630d5e5c2734fe52248d9b0de390e97cb84a27",
        "811ad9cf2abfb6c3530866adf2342662bf9d1e3bc34ba3fbc5ecda2acde43121",
    ),
    (
        "21abdb7de6ed23c3a73f4066fb822410e36a4ea0b3e7499c1c5fc5d5fd325583",
        "7630a17c2521c5c5dbc80ed20fc47c141f837718c3b77eb3411498308f785818",
    ),
    (
        "9f961bf7f1bc79c7fdc8adbb18455d75e0ffb1ac22437d019a62ba69682c0e48",
        "9c46ae7790b4cd972b2df49760081b7b7fd7a0a03a17ce292aeca8ca7f926535",
    ),
]


def test_d3_pivoting_solves_are_pinned():
    # alpha = 1, iid Pareto factors; each measure keeps the top 1/64 of a
    # sample's l1-norms, so 64 and 72 atoms.
    A = np.array([[1.0, 0.3, 0.2], [0.2, 1.0, 0.4], [0.1, 0.3, 1.0]])
    spec = ModelSpec(A=A, alpha=1.0, s=0.2, latent_kind="iid-pareto")
    for j, (pinned, couplings) in enumerate(zip(D3_PINNED, D3_COUPLINGS_PINNED)):
        pair = []
        for k, n in enumerate((4096, 4608)):
            batch = generate_dataset(spec, n, seed=7, stream_id=2 * j + k)
            tau = float(np.quantile(batch.xs.sum(axis=1), 1.0 - 1.0 / 64.0))
            pair.append(empirical_angular_measure(batch, tau)[0])
        mu, nu = pair
        assert (mu.n_atoms, nu.n_atoms) == (64, 72)
        for p, expected, coupling in zip((1.0, 2.0), pinned, couplings):
            obj, gamma = wasserstein_pp(mu, nu, p)
            assert obj.hex() == expected
            assert hashlib.sha256(gamma.tobytes()).hexdigest() == coupling
            assert obj == pytest.approx(linprog_cost(mu, nu, p), rel=1e-8)


def _strongly_feasible(m, flow, adj, parent):
    """Every basic cell of zero flow hangs its row below its column."""
    return all(parent[i] == col for i in range(m) for col in adj[i] if flow[i][col - m] == 0)


def _tree_cells(m, adj):
    """The basis tree's edges as sorted flat cell indices i*n + j."""
    n = len(adj) - m
    return sorted(i * n + col - m for i in range(m) for col in adj[i])


def _balanced(a, b):
    """Integer supplies and demands, each times the other side's total: the
    totals agree exactly, so solve_transport keeps them as they are."""
    return a * b.sum(), b * a.sum()


@st.composite
def transport_problems(draw):
    """(a, b, cost): the weights of two measures of 2-40 atoms in d = 2 or
    3 and their l1 costs to the power 1 or 2, or, tie-heavy, uniform or
    integer weights with integer costs in {0, 1, 2}.  Every weight is
    positive and far from rounding, so the start is strongly feasible."""
    m, n = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["uniform", "integer", "measures"]))
    if kind != "measures":
        cost = draw(hnp.arrays(np.float64, (m, n), elements=st.sampled_from([0.0, 1.0, 2.0])))
        if kind == "uniform":
            return np.full(m, 1.0 / m), np.full(n, 1.0 / n), cost
        units = st.sampled_from([1.0, 2.0, 3.0])
        a, b = (draw(hnp.arrays(np.float64, k, elements=units)) for k in (m, n))
        return (*_balanced(a, b), cost)
    d = draw(st.sampled_from([2, 3]))
    unit = st.floats(0.01, 1.0)
    mu, nu = (
        make_measure(
            draw(hnp.arrays(np.float64, (k, d), elements=unit)),
            draw(hnp.arrays(np.float64, k, elements=unit)),
        )
        for k in (m, n)
    )
    cost = np.abs(mu.atoms[:, None, :] - nu.atoms[None, :, :]).sum(axis=2)
    return mu.weights, nu.weights, cost ** draw(st.sampled_from([1.0, 2.0]))


def test_subtree_rehang_matches_the_lp_oracle(monkeypatch):
    # Spy on the walks.  After each pivot one walk starts at the entering
    # cell's end in the cut-off subtree; the duals, parents and depths it
    # leaves must equal those of a full walk from row 0.  A flow that the
    # pivot left unchanged marks a zero-theta pivot.  The tree must be
    # strongly feasible after the start and after every pivot, and the
    # basic index array must hold exactly its m+n-1 edges.
    seen = set()
    corner, walk = transport._northwest_corner, transport._walk
    flows, basics = [], []

    def spy_corner(a, b):
        flow, basic, adj = corner(a, b)
        flows[:] = [flow, [row[:] for row in flow]]
        basics[:] = [basic]
        return flow, basic, adj

    def spy_walk(m, cost, adj, tree, start):
        reached = walk(m, cost, adj, tree, start)
        assert _strongly_feasible(m, flows[0], adj, tree[1])
        assert sorted(basics[0].tolist()) == _tree_cells(m, adj)
        if tree[1][start] >= 0:  # not the first walk, from row 0
            size = len(adj)
            full = ([0.0] * size, [-1] * size, [0] * size)
            assert walk(m, cost, adj, full, 0) == size
            assert (list(tree[0]), tree[1], tree[2]) == full
            flow, before = flows
            seen.add("row end" if start < m else "column end")
            seen.update({"single leaf"} if reached == 1 else ())
            seen.update({"zero theta"} if flow == before else ())
            flows[1] = [row[:] for row in flow]
        return reached

    monkeypatch.setattr(transport, "_northwest_corner", spy_corner)
    monkeypatch.setattr(transport, "_walk", spy_walk)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(transport_problems())
    def check(problem):
        a, b, cost = problem
        _, obj = solve_transport(a, b, cost)
        assert obj == pytest.approx(linprog_plan_cost(a, b, cost), abs=1e-8)

    check()
    assert seen == {"row end", "column end", "single leaf", "zero theta"}


def test_northwest_corner_start_is_strongly_feasible_where_documented():
    # Exact supplies and demands, some 0: the start is strongly feasible
    # exactly where a[0] and every demand are positive.  From a start that
    # is not, the solve still certifies its optimum.
    rng = np.random.default_rng(17)
    seen = set()
    for _ in range(400):
        m, n = (int(k) for k in rng.integers(2, 8, size=2))
        a, b = _balanced(*(rng.integers(0, 4, size=k).astype(float) for k in (m, n)))
        if not (a.sum() > 0 and b.sum() > 0):
            continue
        flow, basic, adj = transport._northwest_corner(a, b)
        assert sorted(basic.tolist()) == _tree_cells(m, adj)
        tree = ([0.0] * (m + n), [-1] * (m + n), [0] * (m + n))
        assert transport._walk(m, np.zeros((m, n)).tolist(), adj, tree, 0) == m + n
        documented = bool(a[0] > 0 and b.min() > 0)
        assert _strongly_feasible(m, flow, adj, tree[1]) == documented, (a, b)
        seen.add(documented)
        if not documented:
            cost = rng.integers(0, 3, size=(m, n)).astype(float)
            _, obj = solve_transport(a, b, cost)
            assert obj == pytest.approx(linprog_plan_cost(a, b, cost), abs=1e-8)
    assert seen == {True, False}
