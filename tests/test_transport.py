import numpy as np
import pytest

from tailfactor.errors import CostRangeError, DimensionMismatchError
from tailfactor.measures import make_measure
from tailfactor.transport import (
    solve_transport,
    wasserstein_p,
    wasserstein_pp,
)
from transport_oracles import line_cost, linprog_cost

RNG = np.random.default_rng(777)


def _random_measure(k, d):
    pts = RNG.uniform(0, 1, size=(k, d))
    pts = pts / pts.sum(axis=1, keepdims=True)
    w = RNG.uniform(0.1, 1.0, size=k)
    return make_measure(pts, w / w.sum())


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_order_outside_one_to_inf_rejected(p):
    mu = _random_measure(10, 3)
    nu = _random_measure(12, 3)
    with pytest.raises(ValueError, match="1 <= p < inf"):
        wasserstein_pp(mu, nu, p)


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


def test_solver_handles_degenerate_ties():
    # Equal supplies/demands with tied costs exercise degenerate pivots.
    a = np.full(6, 1.0 / 6)
    b = np.full(6, 1.0 / 6)
    cost = np.ones((6, 6))
    cost[np.diag_indices(6)] = 0.0
    flow, obj = solve_transport(a, b, cost)
    assert obj == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(np.diag(flow), 1.0 / 6)
