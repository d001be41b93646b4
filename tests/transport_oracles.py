"""Independent oracles for the exact transport objective W_p^p, l1 ground cost."""

import numpy as np
from scipy.optimize import linprog


def linprog_cost(mu, nu, p):
    """W_p^p between two discrete measures from the HiGHS LP solver."""
    cost = (
        np.abs(np.asarray(mu.atoms)[:, None, :] - np.asarray(nu.atoms)[None, :, :])
        .sum(axis=2)
        ** p
    )
    return linprog_plan_cost(mu.weights, nu.weights, cost)


def linprog_plan_cost(a, b, cost):
    """Optimal cost for supplies a, demands b (rescaled to a's mass) and an
    m-by-n cost matrix, from the HiGHS LP solver."""
    a = np.asarray(a)
    b = np.asarray(b)
    b = b * (a.sum() / b.sum())
    m, n = cost.shape
    A_eq = np.zeros((m + n, m * n))
    for i in range(m):
        A_eq[i, i * n : (i + 1) * n] = 1.0
    for j in range(n):
        A_eq[m + j, j::n] = 1.0
    res = linprog(
        cost.ravel(),
        A_eq=A_eq[:-1],  # drop one redundant constraint
        b_eq=np.concatenate([a, b])[:-1],
        bounds=(0, None),
        method="highs",
        # Tightened from HiGHS's 1e-7 defaults, which leave the objective
        # off by up to about 5e-8 relative on 64-by-72 problems.
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success
    return float(res.fun)


def line_cost(xa, wa, xb, wb, p):
    """W_p^p between measures on the segment {(x, 1 - x)}, with no LP solver.

    There the l1 cost is 2|x - x'|, so W_p^p is 2^p times the integral over
    (0, 1) of |F^-1 - G^-1|^p.  Both quantile functions are step functions;
    on each piece between the merged cumulative weights both are constant.
    """
    oa, ob = np.argsort(xa), np.argsort(xb)
    xa, xb = np.asarray(xa)[oa], np.asarray(xb)[ob]
    ca, cb = np.cumsum(np.asarray(wa)[oa]), np.cumsum(np.asarray(wb)[ob])
    cuts = np.union1d(ca, cb)
    lo = np.concatenate([[0.0], cuts[:-1]])
    mid = (lo + cuts) / 2
    qa = xa[np.minimum(np.searchsorted(ca, mid), len(xa) - 1)]
    qb = xb[np.minimum(np.searchsorted(cb, mid), len(xb) - 1)]
    return float(np.sum((cuts - lo) * (2.0 * np.abs(qa - qb)) ** p))
