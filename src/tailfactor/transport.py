"""Exact p-Wasserstein distance between discrete measures, l1 ground cost.

Solves the transportation linear program with a dense transportation
simplex (northwest-corner start, MODI duals, cycle pivots).  Supports here
stay in the low hundreds of atoms, so no approximation is needed; the
returned optimum is certified against the dual solution.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SolverFailureError
from .measures import DiscreteMeasure

WEIGHT_DROP = 1e-15
OPT_TOL = 1e-8


@dataclass(frozen=True)
class TransportPlan:
    """Optimal coupling between two discrete measures."""

    rows: int
    cols: int
    gamma: np.ndarray
    cost: float


def ground_cost(w, w2, p: float = 1.0) -> float:
    """l1 ground distance raised to the power p."""
    w = np.asarray(w, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if w.shape != w2.shape:
        raise DimensionMismatchError(f"shapes {w.shape} vs {w2.shape}")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    return float(np.abs(w - w2).sum() ** p)


def _l1_cost_matrix(xs, ys, p):
    diff = np.abs(xs[:, None, :] - ys[None, :, :]).sum(axis=2)
    if p != 1.0:
        diff = diff**p
    return diff


def _northwest_corner(a, b):
    """Initial basic feasible solution with exactly m+n-1 basic cells."""
    m, n = len(a), len(b)
    flow = np.zeros((m, n))
    basis = []
    ra = a.copy()
    rb = b.copy()
    i = j = 0
    while i < m and j < n:
        q = min(ra[i], rb[j])
        flow[i, j] = q
        basis.append((i, j))
        ra[i] -= q
        rb[j] -= q
        if i == m - 1 and j == n - 1:
            break
        # On ties advance only one index so the basis stays a spanning tree.
        if ra[i] <= rb[j] and i < m - 1:
            i += 1
        else:
            j += 1
    return flow, basis


def _compute_duals(m, n, cost, basis):
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    adj = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append(m + j)
        adj[m + j].append(i)
    u[0] = 0.0
    seen = np.zeros(m + n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for nxt in adj[node]:
            if seen[nxt]:
                continue
            seen[nxt] = True
            if node < m:  # row -> col
                v[nxt - m] = cost[node, nxt - m] - u[node]
            else:  # col -> row
                u[nxt] = cost[nxt, node - m] - v[node - m]
            queue.append(nxt)
    if not seen.all():
        raise SolverFailureError("basis graph is not a spanning tree")
    return u, v


def _find_cycle(m, basis, i0, j0):
    """Unique alternating path row i0 -> col j0 through the basis tree."""
    adj = {}
    for i, j in basis:
        adj.setdefault(i, []).append(m + j)
        adj.setdefault(m + j, []).append(i)
    parent = {i0: None}
    queue = deque([i0])
    target = m + j0
    while queue:
        node = queue.popleft()
        if node == target:
            break
        for nxt in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    if target not in parent:
        raise SolverFailureError("entering edge closes no cycle")
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()  # i0 ... m+j0, alternating row/col nodes
    edges = []
    for aa, bb in zip(path, path[1:]):
        if aa < m:
            edges.append((aa, bb - m))
        else:
            edges.append((bb, aa - m))
    return edges


def solve_transport(a, b, cost, max_iters=None):
    """Exact min-cost transportation plan for supplies a, demands b.

    Returns (gamma, objective).  Raises SolverFailureError if optimality
    cannot be certified; that signals a bug, not bad input.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    m, n = cost.shape
    b = b * (a.sum() / b.sum())  # enforce exact balance
    flow, basis = _northwest_corner(a, b)
    if max_iters is None:
        max_iters = 100 * (m + n) ** 2 + 1000
    basis_set = set(basis)
    for _ in range(max_iters):
        u, v = _compute_duals(m, n, cost, basis)
        reduced = cost - u[:, None] - v[None, :]
        for i, j in basis:
            reduced[i, j] = 0.0
        flat = np.argmin(reduced)
        i0, j0 = divmod(int(flat), n)
        if reduced[i0, j0] >= -1e-12:
            break
        cycle_path = _find_cycle(m, basis, i0, j0)
        # Entering edge gets +theta; path edges alternate starting with -.
        minus_edges = cycle_path[0::2]
        theta = min(flow[e] for e in minus_edges)
        leaving = next(e for e in minus_edges if flow[e] <= theta)
        flow[i0, j0] += theta
        for k, e in enumerate(cycle_path):
            flow[e] += theta if k % 2 == 1 else -theta
        basis_set.discard(leaving)
        basis_set.add((i0, j0))
        basis = sorted(basis_set)
    else:
        raise SolverFailureError("pivot limit reached without optimality")

    # Certify: dual feasibility and complementary slackness.
    u, v = _compute_duals(m, n, cost, basis)
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


def wasserstein_pp(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0):
    """Exact W_p^p between two discrete measures plus an optimal plan."""
    if mu.dim != nu.dim:
        raise DimensionMismatchError(f"dims {mu.dim} vs {nu.dim}")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    wa = np.asarray(mu.weights, dtype=np.float64)
    wb = np.asarray(nu.weights, dtype=np.float64)
    keep_a = np.nonzero(wa >= WEIGHT_DROP)[0]
    keep_b = np.nonzero(wb >= WEIGHT_DROP)[0]
    xa = np.ascontiguousarray(np.asarray(mu.atoms, dtype=np.float64)[keep_a])
    xb = np.ascontiguousarray(np.asarray(nu.atoms, dtype=np.float64)[keep_b])
    cost = _l1_cost_matrix(xa, xb, float(p))
    flow, obj = solve_transport(wa[keep_a], wb[keep_b], cost)
    gamma = np.zeros((mu.n_atoms, nu.n_atoms))
    gamma[np.ix_(keep_a, keep_b)] = flow
    plan = TransportPlan(rows=mu.n_atoms, cols=nu.n_atoms, gamma=gamma, cost=obj)
    return obj, plan


def wasserstein_p(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 1.0) -> float:
    """Exact W_p distance (the p-th root of the transport objective)."""
    obj, _ = wasserstein_pp(mu, nu, p)
    return obj ** (1.0 / p)
