"""Correctness gates, evaluated on the outputs of a run's passes.

Each gate returns a list of human-readable failures; an empty list passes.
Slope windows are the Tier-1 acceptance windows of the same cells.
"""

import math

import numpy as np

RTOL = 1e-8
# workload -> estimator -> (target slope, tolerance)
SLOPE_WINDOWS = {
    "conv-sampler": {"conv": (-0.2, 0.10)},
    "two-step-threads": {"two-step": (-0.4, 0.12)},
}


def linprog_wpp(mu, nu, p):
    """W_p^p from scipy's HiGHS LP solver, the oracle for the exact solver.

    Feasibility tolerances are tightened from HiGHS's 1e-7 default so the
    oracle itself is accurate to well below RTOL.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    a = np.asarray(mu.weights, dtype=np.float64)
    b = np.asarray(nu.weights, dtype=np.float64)
    b = b * (a.sum() / b.sum())
    xa = np.asarray(mu.atoms, dtype=np.float64)
    xb = np.asarray(nu.atoms, dtype=np.float64)
    cost = np.abs(xa[:, None, :] - xb[None, :, :]).sum(axis=2) ** p
    m, n = cost.shape
    row_sums = sparse.kron(sparse.eye(m), np.ones((1, n)))
    col_sums = sparse.kron(np.ones((1, m)), sparse.eye(n))
    res = linprog(
        cost.ravel(),
        A_eq=sparse.vstack([row_sums, col_sums]).tocsr()[:-1],
        b_eq=np.concatenate([a, b])[:-1],
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)


def transport_mismatches(objectives, references, rtol=RTOL):
    """Solves whose W_p^p is not within rtol (relative) of the LP oracle."""
    if len(objectives) != len(references):
        return [f"{len(objectives)} objectives vs {len(references)} references"]
    return [
        f"solve {i}: W_p^p={obj!r} vs linprog {ref!r}"
        for i, (obj, ref) in enumerate(zip(objectives, references))
        if not abs(obj - ref) <= rtol * abs(ref)
    ]


def digest_mismatches(got: dict, want: dict, what: str):
    """Output files whose bytes (by digest) differ between two runs."""
    return [f"{what}: {name} differs" for name in sorted(set(got) | set(want)) if got.get(name) != want.get(name)]


def gate_failures(workload: str, passes, reference) -> list:
    """Every gate of the workload, over all passes of one run.

    All passes run on the same inputs, so each must produce the bytes of the
    first, and each is checked against the one untimed ``reference``.
    """
    out = []
    first = passes[0]
    for rec in passes:
        where = f"pass {rec['index']}"
        out += digest_mismatches(rec["digests"], first["digests"], f"{where} vs pass {first['index']}")
        if not rec["all_finite"]:
            out.append(f"{where}: non-finite result")
        for tag, (target, tol) in SLOPE_WINDOWS.get(workload, {}).items():
            slope = rec["slopes"][tag]
            if not abs(slope - target) <= tol:
                out.append(f"{where}: {tag} slope {slope:.4f} outside {target} +/- {tol}")
        if workload == "two-step-threads":
            ts, conv = rec["last_error"]["two-step"], rec["last_error"]["conv"]
            if not ts < conv:
                out.append(f"{where}: two-step error {ts:.5f} not below conv {conv:.5f} at the largest n")
            out += digest_mismatches(rec["digests"], reference["serial_digests"], f"{where}: threads 2 vs 1")
        if workload == "transport-d3":
            out += transport_mismatches(rec["objectives"], reference["linprog"])
    return out


def finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
