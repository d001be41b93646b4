"""Acceptance suite: one test per shipped claim, one [PASS]/[FAIL] line each.

Golden runs use base_seed 20240601, the worst-case generator, the sample
grid 2^11 .. 2^17 with 30 replicates and median aggregation.  Slope checks
compare the fitted log-log rate against the theoretical target with the
stated stochastic slack.

Criterion 1's target is the fitted slope, over the same grid, of the rate
curve the POT estimator attains: n^-s below the critical deviation
s* = 1/(2 + max(1, alpha)), n^-s* at or above it, and n^-s* ln n at
alpha = 1.  There the off-axis bias of the angular measure above tau,
tau^-1 times the integral of P(Z > z) over [0, tau], is ln(1 + tau)/tau.

Criterion 2 splits the two-step error into its two stages on the same
replicates.  The magnitude stage (tail-frequency equation given the true
directions) carries the n^-s rate and must match it within the slack.  The
direction stage (k-means centers above the O(log n) threshold, with the
true magnitudes) is of lower order: it may decay faster than n^-s but not
slower.  On this grid it is not small, so the full two-step slope alone
measures a mix of both stages; the full error of the shipped estimator
is held to the same one-sided bound.  The stage decomposition is
tailfactor.harness.run_staged_experiment, which tools/diagnose_rate_cells.py
runs too.
"""

import hashlib
import time
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from tailfactor import (
    ConvConfig,
    ExperimentConfig,
    ModelSpec,
    TwoStepConfig,
    emit_outputs,
    fit_loglog_slope,
    make_measure,
    run_convergence_experiment,
    solve_theta,
    spectral_measure_of,
    wasserstein_p,
    wasserstein_pp,
)
from tailfactor.cli import experiment_config_from, load_config, main
from tailfactor.harness import run_staged_experiment
from tailfactor.sampling import RngStream, sample_conditional_pareto, uniform_draw
from tailfactor.sampling import _pareto_in_place
from transport_oracles import linprog_cost

BASE_SEED = 20240601
GRID = tuple(2**k for k in range(11, 18))
REPLICATES = 30
THREADS = 8

# kappa_bar tuned per (alpha, s) cell over the allowed {0.5, 1} menu.
KAPPA_BAR = {
    (0.5, 0.2): 1.0,
    (0.5, 0.4): 1.0,
    (1.0, 0.2): 1.0,
    (1.0, 0.4): 1.0,
    (2.0, 0.2): 0.5,
    (2.0, 0.4): 1.0,
}


def _report(num: int, label: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({label}): {detail}")
    return ok


def _conv_rate_target(alpha: float, s: float):
    """Fitted log-log slope over GRID of the POT rate curve, and its label.

    The ln n factor at alpha = 1 is derived here, not quoted from the paper:
    the off-axis bias above tau is tau^-1 times the truncated mean
    ln(1 + tau) of the Lomax latent law, and tau = n^(1/3) at alpha = 1.
    PAPER.md holds only the abstract and does not state the alpha = 1 bound.
    """
    critical = 1.0 / (2.0 + max(1.0, alpha))
    ns = np.asarray(GRID, dtype=np.float64)
    if s < critical:
        curve, label = ns**-s, f"n^-{s:g}"
    else:
        curve, label = ns**-critical, f"n^-1/{2.0 + max(1.0, alpha):g}"
        if alpha == 1.0:
            curve, label = curve * np.log(ns), label + " ln n"
    return fit_loglog_slope(GRID, curve)[0], label


def _conv_cell_config(alpha: float, s: float, kappa_bar: float):
    return ExperimentConfig(
        alpha=alpha,
        s=s,
        n_grid=GRID,
        replicates=REPLICATES,
        base_seed=BASE_SEED,
        conv=ConvConfig(kappa_bar=kappa_bar, alpha=alpha, s=s),
    )


@lru_cache(maxsize=32)
def _run_conv_cell(alpha: float, s: float, kappa_bar: float):
    cfg = _conv_cell_config(alpha, s, kappa_bar)
    res = run_convergence_experiment(cfg, threads=THREADS)
    return res.slope_fits["conv"][0], res


@lru_cache(maxsize=32)
def _run_two_step_cell(alpha: float, with_conv: bool):
    """Experiment result plus the median stage errors per grid point.

    One sweep gives every row and the stage errors of each completed
    two-step replicate.  A failed magnitude stage reads nan and is left out
    of its median.
    """
    s = 0.4
    cfg = ExperimentConfig(
        alpha=alpha,
        s=s,
        n_grid=GRID,
        replicates=REPLICATES,
        base_seed=BASE_SEED,
        conv=ConvConfig(kappa_bar=KAPPA_BAR[(alpha, s)], alpha=alpha, s=s)
        if with_conv
        else None,
        two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0),
    )
    res, stages = run_staged_experiment(cfg, threads=THREADS)
    medians = [np.nanmedian(stages[n], axis=0) for n in GRID]
    magnitude = tuple(float(m[0]) for m in medians)
    direction = tuple(float(m[1]) for m in medians)
    return res, magnitude, direction


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("s", [0.2, 0.4])
def test_criterion_1_conventional_rates(alpha, s):
    kappa_bar = KAPPA_BAR[(alpha, s)]
    slope, _ = _run_conv_cell(alpha, s, kappa_bar)
    target, curve = _conv_rate_target(alpha, s)
    ok = abs(slope - target) <= 0.10
    assert _report(
        1,
        f"conv rate alpha={alpha} s={s}",
        ok,
        f"slope={slope:.3f} target={target:.3f} ({curve} over grid) tol=0.10 "
        f"kappa_bar={kappa_bar}",
    )


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_criterion_2_two_step_rates(alpha):
    res, magnitude, direction = _run_two_step_cell(alpha, with_conv=(alpha == 2.0))
    full_slope = res.slope_fits["two-step"][0]
    mag_slope = fit_loglog_slope(GRID, magnitude)[0]
    dir_slope = fit_loglog_slope(GRID, direction)[0]
    bound = -0.400 + 0.12
    mag_ok = abs(mag_slope - (-0.400)) <= 0.12
    ok = mag_ok and dir_slope <= bound and full_slope <= bound
    detail = (
        f"full slope={full_slope:.3f} bound<={bound:.3f}; magnitude stage "
        f"slope={mag_slope:.3f} target=-0.400 tol=0.12; direction stage "
        f"slope={dir_slope:.3f} bound<={bound:.3f}"
    )
    if alpha == 2.0:
        n_max = GRID[-1]
        conv_err = res.aggregated["conv"][1][-1]
        ts_err = res.aggregated["two-step"][1][-1]
        ordered = ts_err < conv_err
        ok = ok and ordered
        detail += (
            f"; at n={n_max} two-step={ts_err:.4f} "
            f"{'<' if ordered else '>='} conv={conv_err:.4f}"
        )
    assert _report(2, f"two-step rate alpha={alpha}", ok, detail)


def test_criterion_3_kappa_bar_sensitivity():
    slope_small, _ = _run_conv_cell(2.0, 0.2, 0.1)
    slope_big, _ = _run_conv_cell(2.0, 0.2, 1.0)
    ok = slope_big <= slope_small - 0.05
    assert _report(
        3,
        "kappa_bar sensitivity",
        ok,
        f"kappa_bar=1: {slope_big:.3f}, kappa_bar=0.1: {slope_small:.3f}",
    )


def test_shipped_table2_config_is_criterion_3s_kappa_bar_1_arm():
    # configs/table2_a2_s02.json runs the alpha = 2, s = 0.2 cell at
    # kappa_bar = 1, criterion 3's kappa_bar = 1 arm; criterion 1 runs the
    # same cell at KAPPA_BAR[(2.0, 0.2)] = 0.5
    path = Path(__file__).parents[1] / "configs" / "table2_a2_s02.json"
    assert experiment_config_from(load_config(path)) == _conv_cell_config(2.0, 0.2, 1.0)


# sha256 of rows.csv and slopes.csv, written by emit_outputs, for each sweep
# that criteria 1-3 run.  A change that moves these bytes updates the digests
# and says why.
SWEEP_DIGESTS = {
    ("conv", 0.5, 0.2, 1.0): (
        "42d3a320809ad085fef2b3b6c2875c947870cc9f6ca37588a5145f39623af280",
        "0e99902bb84b77706af59f0cf7a844bffafefa88b53f461dd67a8b669af765d6",
    ),
    ("conv", 0.5, 0.4, 1.0): (
        "9da37bdd853db8f0434c1cbc34df52f1a6a988e08196828147d68b3814c3eab6",
        "d9e9ecda524f13938a2d26afd571ecc55b36cf11c4d4581c8cfa08b67a3c883a",
    ),
    ("conv", 1.0, 0.2, 1.0): (
        "2e996b9e8a5b9461948c427a77c50c83d10bae7c1e2454c401ddb11bda8485e0",
        "ad8d1d2c56302eabacbfe387f1f16bc518cadb3a27fcd49370daf6e2d9691314",
    ),
    ("conv", 1.0, 0.4, 1.0): (
        "3695393dc2a76fa44165e2bc659306d63f4c184476b52fd410e39b192b185dcf",
        "4412729982a88fb2b8bce3da7055f876ec0c0942a8a5b47507c49c184397cd96",
    ),
    ("conv", 2.0, 0.2, 0.5): (
        "94596ec7f51447625b91b205aad588da5209e2e31058fded781e26c16af48e5b",
        "214d151adbf9536a71587b82bd0b85aa88f395752b46275f158f705d219c8139",
    ),
    ("conv", 2.0, 0.4, 1.0): (
        "08835bb41c6a0c8239e8a92468af657ee159bdb68503a245a69ebddf14fe4164",
        "67d6efb092c1ccd2f453cd8ef60d416e2feda5f8bc957b90ce9922fb6b418845",
    ),
    ("conv", 2.0, 0.2, 0.1): (
        "31d3395b2b86658ca44698d1548c5c8bb532f1992f746c9ac6c4409eaa2ecffd",
        "21e872a3124f3da21915c20cc5605e501126611208effdb9a1abdf5b7bd2e0fd",
    ),
    ("conv", 2.0, 0.2, 1.0): (
        "181143727625a5dbc4786dec4f97bb782ee60c1b378747611fd244f3b2501c96",
        "afc5c2fcfe891884e8fbcd864bc5d2081d96845638a2ab3adf6cd0f3d74470fd",
    ),
    ("two-step", 0.5, False): (
        "a839531e0488db507e856a80d212bd342ae8bc65ee9c75824de3d54f4ad032ae",
        "a5eb0c82a79fec425b583b48e792d1a00353732ff3921cb734e8507e1c50d1af",
    ),
    ("two-step", 1.0, False): (
        "9e08359ce72ea73d26b2350fd9085a04bc5072ef50a759813492723ff6013733",
        "7af63b115e397fde1bfb99a263a3664cd5128fa2ebe0ad9306056ec1fda3d20b",
    ),
    ("two-step", 2.0, True): (
        "ecc736e24b39378a7d6d5eca9596302a6df81cde0417dc373ec226caf1b4047f",
        "a43bf0b91aef9a934e88020e16cbad70a758690486ad088fc007e2cd6be96057",
    ),
}


def test_acceptance_sweeps_pin_golden_bytes(tmp_path):
    """The sweeps are the cached ones of criteria 1-3, so this writes files
    but runs no sweep of its own when those criteria ran first."""
    moved = []
    for key, golden in SWEEP_DIGESTS.items():
        if key[0] == "conv":
            _, res = _run_conv_cell(*key[1:])
        else:
            res, _, _ = _run_two_step_cell(key[1], with_conv=key[2])
        out = tmp_path / "_".join(map(str, key))
        out.mkdir()
        emit_outputs(res, out)
        digests = tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("rows.csv", "slopes.csv")
        )
        if digests != golden:
            moved.append((key, digests))
    assert not moved, moved


# float.hex of criterion 2's median magnitude and direction stage errors per
# grid point, read from the same cached sweeps.
STAGE_MEDIANS = {
    0.5: (
        ("0x1.5c01741091990p-6", "0x1.b3c56c7262d00p-7", "0x1.0a94ee4ea4bc0p-6",
         "0x1.6f870530f35c0p-7", "0x1.01b48ca9c3f20p-7", "0x1.a4baa1e2dc180p-8",
         "0x1.696c2156a5900p-8"),
        ("0x1.20100271888d4p-9", "0x1.371bbe8a91947p-11", "0x1.261375ecc0e7ep-13",
         "0x1.08a161e93c86ap-14", "0x1.da1010040bfbcp-16", "0x1.0cd1fbbd8ad1cp-17",
         "0x1.68c965a639bd7p-19"),
    ),
    1.0: (
        ("0x1.30014f5e43138p-5", "0x1.28f87488602a0p-6", "0x1.e3e7a9d8558e0p-7",
         "0x1.5d3cb912810a0p-7", "0x1.0babcee9260c0p-7", "0x1.b436b20b27400p-8",
         "0x1.5fc11111eae40p-8"),
        ("0x1.d71219b8d2648p-5", "0x1.19e9b41020f27p-5", "0x1.0bf8d2987ba7ap-6",
         "0x1.4cc5803045192p-7", "0x1.9c7a8df705127p-8", "0x1.c83257c8f8b49p-9",
         "0x1.d289eaab4fbf9p-10"),
    ),
    2.0: (
        ("0x1.eca4b18337ae0p-5", "0x1.64650da152410p-5", "0x1.9c18c8ec4c540p-6",
         "0x1.4115102146f40p-6", "0x1.0030e1c12adc0p-6", "0x1.85003bf573740p-7",
         "0x1.39c1f35cc9940p-7"),
        ("0x1.f526041d19bb6p-3", "0x1.a157cfcf8219cp-3", "0x1.4c6a286d49ca3p-3",
         "0x1.0b8d8709a062bp-3", "0x1.81c7307440b7bp-4", "0x1.1905efb3b8305p-4",
         "0x1.a1c41e9ef6033p-5"),
    ),
}


@pytest.mark.parametrize("alpha", sorted(STAGE_MEDIANS))
def test_criterion_2_stage_medians_pin_their_bytes(alpha):
    _, magnitude, direction = _run_two_step_cell(alpha, with_conv=(alpha == 2.0))
    got = tuple(m.hex() for m in magnitude), tuple(d.hex() for d in direction)
    assert got == STAGE_MEDIANS[alpha]


def _random_measure(rng, max_atoms, d=2):
    k = int(rng.integers(1, max_atoms + 1))
    pts = rng.uniform(0, 1, size=(k, d))
    pts = pts / pts.sum(axis=1, keepdims=True)
    w = rng.uniform(0.05, 1.0, size=k)
    return make_measure(pts, w / w.sum())


def test_criterion_4_ot_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        mu = _random_measure(rng, 3)
        nu = _random_measure(rng, 3)
        obj, _ = wasserstein_pp(mu, nu, 1.0)
        worst = max(worst, abs(obj - linprog_cost(mu, nu, 1.0)))
    axiom_slack = 0.0
    for _ in range(500):
        mu = _random_measure(rng, 6)
        nu = _random_measure(rng, 6)
        rho = _random_measure(rng, 6)
        d_mn = wasserstein_p(mu, nu, 1.0)
        axiom_slack = max(
            axiom_slack,
            wasserstein_p(mu, mu, 1.0),
            abs(d_mn - wasserstein_p(nu, mu, 1.0)),
            d_mn - wasserstein_p(mu, rho, 1.0) - wasserstein_p(rho, nu, 1.0),
        )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and axiom_slack <= 1e-8 and elapsed <= 30.0
    assert _report(
        4,
        "OT exactness",
        ok,
        f"max LP deviation={worst:.2e}, axiom slack={axiom_slack:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_sampler_fidelity():
    start = time.monotonic()
    worst_ks = 0.0
    for alpha in (0.5, 1.0, 2.0):
        spec = ModelSpec(np.eye(2), alpha, 0.2)
        x = _pareto_in_place(uniform_draw(spec, 50_000, 505, int(10 * alpha)), alpha).ravel()
        stat, _ = stats.kstest(x, lambda t, a=alpha: 1.0 - (1.0 + t) ** (-a))
        worst_ks = max(worst_ks, stat)

    alpha, t, q = 2.0, 5.0, 10.0
    dens = lambda z: alpha * (1.0 + z) ** (-alpha - 1.0)
    num, _ = integrate.quad(dens, q, np.inf)
    den1, _ = integrate.quad(
        lambda z: dens(z) * (1.0 + max(t - z, 0.0)) ** (-alpha), 0, t
    )
    den2, _ = integrate.quad(dens, t, np.inf)
    target = num / (den1 + den2)
    # 400 k draws: the 2 % tolerance is 4.6 standard errors of the fraction.
    draws = sample_conditional_pareto(400_000, alpha, t, RngStream(506, 0).generator())
    frac = float((draws[:, 0] > q).mean())
    rel = abs(frac - target) / target
    elapsed = time.monotonic() - start
    ok = worst_ks < 0.01 and rel < 0.02 and elapsed <= 60.0
    assert _report(
        5,
        "sampler fidelity",
        ok,
        f"max KS={worst_ks:.4f}, conditional tail rel err={rel:.3%}, {elapsed:.1f}s",
    )


def test_criterion_6_estimating_equation_round_trip():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.5, 2.0)
        tau = rng.uniform(0.5, 50.0)
        alpha = rng.uniform(0.3, 4.0)
        r_hat = rng.uniform(0.5, 2.0)
        n = 1_000_000
        count = n * r_hat * (1.0 + tau / theta) ** (-alpha)
        back = solve_theta(count, n, r_hat, tau, alpha)
        worst = max(worst, abs(back - theta) / theta)
    ok = worst <= 1e-10
    assert _report(6, "estimating equation", ok, f"max relative error={worst:.2e}")


def test_criterion_7_spectral_measure_identities():
    mu = spectral_measure_of(np.eye(2), 2.0)
    exact = np.allclose(mu.atoms, [[0, 1], [1, 0]]) and np.allclose(
        mu.weights, [0.5, 0.5]
    )
    rng = np.random.default_rng(707)
    A = rng.uniform(0.1, 2.0, size=(2, 4))
    perm_ok = True
    mu_a = spectral_measure_of(A, 1.5)
    mu_p = spectral_measure_of(A[:, rng.permutation(4)], 1.5)
    perm_ok = np.allclose(mu_a.atoms, mu_p.atoms) and np.allclose(
        mu_a.weights, mu_p.weights
    )
    mu_d = spectral_measure_of(np.array([[1.0, 2.0], [0.0, 0.0]]), 1.0)
    merge_ok = mu_d.n_atoms == 1 and np.isclose(mu_d.weights[0], 1.0)
    worst_mass = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(d, d + 4))
        mu_r = spectral_measure_of(
            rng.uniform(0.01, 5.0, size=(d, m)), rng.uniform(0.2, 4.0)
        )
        worst_mass = max(worst_mass, abs(float(np.sum(mu_r.weights)) - 1.0))
    ok = exact and perm_ok and merge_ok and worst_mass <= 1e-12
    assert _report(
        7,
        "spectral identities",
        ok,
        f"symmetry={exact}, permutation={perm_ok}, merge={merge_ok}, "
        f"max mass defect={worst_mass:.2e}",
    )


def test_criterion_8_thread_determinism(tmp_path):
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        rc = main(
            [
                "--threads",
                str(threads),
                "experiment",
                "--config",
                "configs/smoke.json",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs[threads] = out
    same_rows = (
        (outs[1] / "rows.csv").read_bytes() == (outs[8] / "rows.csv").read_bytes()
    )
    same_slopes = (
        (outs[1] / "slopes.csv").read_bytes() == (outs[8] / "slopes.csv").read_bytes()
    )
    ok = same_rows and same_slopes
    assert _report(
        8,
        "thread determinism",
        ok,
        f"rows.csv identical={same_rows}, slopes.csv identical={same_slopes}",
    )


def test_criterion_9_harness_smoke(tmp_path):
    start = time.monotonic()
    out = tmp_path / "smoke"
    rc = main(["experiment", "--config", "configs/smoke.json", "--out", str(out)])
    elapsed = time.monotonic() - start
    files = [
        "rows.csv",
        "slopes.csv",
        "error_loglog.svg",
        "diag_counts_conv.svg",
        "diag_counts_two_step.svg",
    ]
    present = all((out / f).exists() for f in files)
    ok = rc == 0 and present and elapsed < 10.0
    assert _report(
        9,
        "harness smoke",
        ok,
        f"exit={rc}, all files={present}, {elapsed:.1f}s",
    )
