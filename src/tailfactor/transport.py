"""Exact p-Wasserstein distance between discrete measures, l1 ground cost.

Solves the transportation linear program with a dense transportation
simplex: northwest-corner start, Dantzig pricing over the full
reduced-cost matrix, cycle pivots.  The basis is one spanning tree over the
row and column nodes, kept as a cell mask for pricing and as adjacency
lists that each pivot updates in place.  One breadth-first walk of that
tree per pivot yields the MODI duals and each node's parent and depth, and
the entering cell's cycle is the tree path from its row and its column up
to their lowest common ancestor.  Supports here stay in the low hundreds of
atoms, so no approximation is needed; the returned optimum is certified
against the dual solution.

Where the largest cost's p-th power leaves [TINY, inf), as it does for p
in the thousands, the costs are divided by the largest one before the
power and the scale is multiplied back after the p-th root.
"""

import math

import numpy as np

from .errors import (
    CostRangeError,
    DimensionMismatchError,
    InvalidAtomError,
    SolverFailureError,
)
from .measures import DiscreteMeasure

WEIGHT_DROP = 1e-15
OPT_TOL = 1e-8
TINY = np.finfo(np.float64).tiny


def _northwest_corner(a, b):
    """Initial basic feasible solution with exactly m+n-1 basic cells.

    Returns the flow, the basic-cell mask and the basis tree's adjacency
    lists (nodes 0..m-1 are rows, m.. columns).
    """
    m, n = len(a), len(b)
    flow = np.zeros((m, n))
    basic = np.zeros((m, n), dtype=bool)
    adj = [[] for _ in range(m + n)]
    ra = a.copy()
    rb = b.copy()
    i = j = 0
    while i < m and j < n:
        q = min(ra[i], rb[j])
        flow[i, j] = q
        basic[i, j] = True
        adj[i].append(m + j)
        adj[m + j].append(i)
        ra[i] -= q
        rb[j] -= q
        if i == m - 1 and j == n - 1:
            break
        # On ties advance only one index so the basis stays a spanning tree.
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        else:
            j += 1
    return flow, basic, adj


def _walk(m, cost, adj):
    """Breadth-first walk of the basis tree from row 0.

    ``cost`` is a nested list.  Returns the duals (u, v) with u[0] = 0,
    each set from its parent along the unique tree path, and every node's
    parent and depth.
    """
    size = len(adj)
    pot = [0.0] * size
    parent = [-1] * size
    depth = [-1] * size
    depth[0] = 0
    order = [0]
    for node in order:  # grows as the walk goes: a FIFO queue
        below = depth[node] + 1
        for nxt in adj[node]:
            if depth[nxt] >= 0:
                continue
            depth[nxt] = below
            parent[nxt] = node
            if node < m:  # row -> col
                pot[nxt] = cost[node][nxt - m] - pot[node]
            else:  # col -> row
                pot[nxt] = cost[nxt][node - m] - pot[node]
            order.append(nxt)
    if len(order) < size:
        raise SolverFailureError("basis graph is not a spanning tree")
    return np.array(pot[:m]), np.array(pot[m:]), parent, depth


def _cycle(m, parent, depth, i0, j0):
    """Cells on the tree path row i0 -> col j0, in path order from i0."""
    a, b = i0, m + j0
    up, down = [a], [b]
    while a != b:  # climb the deeper end until both meet at the ancestor
        if depth[a] >= depth[b]:
            a = parent[a]
            up.append(a)
        else:
            b = parent[b]
            down.append(b)
    path = up + down[-2::-1]
    return [(x, y - m) if x < m else (y, x - m) for x, y in zip(path, path[1:])]


def solve_transport(a, b, cost):
    """Exact min-cost transportation plan for supplies a, demands b.

    Returns (gamma, objective).  Raises SolverFailureError if optimality
    cannot be certified; that signals a bug, not bad input.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    m, n = cost.shape
    b = b * (a.sum() / b.sum())  # enforce exact balance
    flow, basic, adj = _northwest_corner(a, b)
    # Python floats: cheaper scalar reads in the walk, same float64 arithmetic.
    cost_rows = cost.tolist()
    for _ in range(100 * (m + n) ** 2 + 1000):
        u, v, parent, depth = _walk(m, cost_rows, adj)
        reduced = cost - u[:, None] - v[None, :]
        reduced[basic] = 0.0
        i0, j0 = divmod(int(np.argmin(reduced)), n)
        if reduced[i0, j0] >= -1e-12:
            break
        cycle = _cycle(m, parent, depth, i0, j0)
        # Entering cell gets +theta; path cells alternate starting with -.
        minus = cycle[0::2]
        theta = min(flow[e] for e in minus)
        li, lj = next(e for e in minus if flow[e] <= theta)
        flow[i0, j0] += theta
        for k, e in enumerate(cycle):
            flow[e] += theta if k % 2 == 1 else -theta
        basic[li, lj] = False
        basic[i0, j0] = True
        adj[li].remove(m + lj)
        adj[m + lj].remove(li)
        adj[i0].append(m + j0)
        adj[m + j0].append(i0)
    else:
        raise SolverFailureError("pivot limit reached without optimality")

    # Certify with the final basis's duals: dual feasibility and
    # complementary slackness.
    reduced = cost - u[:, None] - v[None, :]
    if reduced.min() < -OPT_TOL:
        raise SolverFailureError(f"dual infeasibility {reduced.min():.3e}")
    if np.abs(reduced[flow > OPT_TOL]).max(initial=0.0) > OPT_TOL:
        raise SolverFailureError("complementary slackness violated")
    if (
        np.abs(flow.sum(axis=1) - a).max() > 1e-9
        or np.abs(flow.sum(axis=0) - b).max() > 1e-9
        or flow.min() < -1e-12
    ):
        raise SolverFailureError("primal infeasibility in final plan")
    return flow, float((flow * cost).sum())


def _optimum(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float):
    """Optimal plan for the l1 costs over ``scale``, to the power p.

    Returns (objective, gamma, scale), gamma of shape (mu.n_atoms,
    nu.n_atoms).  ``scale`` is 1 unless the largest cost's p-th power leaves
    [TINY, inf); then it is the largest cost.  Raises CostRangeError where
    the objective reads 0 although the plan moves mass a positive distance:
    every cost it pays underflowed, and InvalidAtomError for a measure with
    no weight >= WEIGHT_DROP (as where the weights sum to 0).
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"dims {mu.dim} vs {nu.dim}")
    if not 1 <= p < math.inf:
        raise ValueError(f"need 1 <= p < inf, got {p}")
    p = float(p)
    keep_a = np.nonzero(mu.weights >= WEIGHT_DROP)[0]
    keep_b = np.nonzero(nu.weights >= WEIGHT_DROP)[0]
    if not (keep_a.size and keep_b.size):
        raise InvalidAtomError(f"a measure has no weight >= {WEIGHT_DROP}")
    xa, xb = mu.atoms[keep_a], nu.atoms[keep_b]
    dist = np.abs(xa[:, None, :] - xb[None, :, :]).sum(axis=2)
    top = dist.max(initial=0.0)
    with np.errstate(over="ignore"):
        scale = float(top) if top > 0 and not TINY <= top**p < math.inf else 1.0
    cost = dist if scale == 1.0 else dist / scale
    if p != 1.0:
        cost = cost**p
    flow, obj = solve_transport(mu.weights[keep_a], nu.weights[keep_b], cost)
    if obj == 0.0 and (flow[dist > 0] > 0).any():
        raise CostRangeError(f"every cost the optimal plan pays underflows at p={p}")
    gamma = np.zeros((mu.n_atoms, nu.n_atoms))
    gamma[np.ix_(keep_a, keep_b)] = flow
    return obj, gamma, scale


def wasserstein_pp(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0):
    """Exact W_p^p between two discrete measures, and an optimal coupling.

    Returns (objective, gamma), gamma of shape (mu.n_atoms, nu.n_atoms).
    Raises ValueError unless 1 <= p < inf, and CostRangeError where W_p^p
    is positive but reads 0 or inf in float64.
    """
    obj, gamma, scale = _optimum(mu, nu, p)
    with np.errstate(over="ignore", under="ignore"):
        value = float(obj * np.float64(scale) ** p)
    if obj > 0 and not 0 < value < math.inf:
        raise CostRangeError(f"W_p^p leaves the float64 range at p={p}")
    return value, gamma


def wasserstein_p(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0) -> float:
    """Exact W_p distance (the p-th root of the transport objective).

    Where W_p^p leaves the float64 range, the root is taken of the scaled
    objective and multiplied by the scale.
    """
    # Every solve goes through wasserstein_pp, the function perfbench's
    # transport span wraps; only an out-of-range W_p^p solves a second time.
    try:
        obj, _ = wasserstein_pp(mu, nu, p)
    except CostRangeError:  # raises again if the scaled objective underflowed
        obj, _, scale = _optimum(mu, nu, p)
        return scale * obj ** (1.0 / p)
    return obj ** (1.0 / p)
