import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tailfactor.errors import ConfigError, ExperimentAbortedError, IoError
from tailfactor.errors import TooFewPointsError
from tailfactor.estimators import ConvConfig, TwoStepConfig
from tailfactor.harness import (
    ExperimentConfig,
    diagnostic_counts,
    emit_outputs,
    run_convergence_experiment,
    run_staged_experiment,
)

ROOT = Path(__file__).resolve().parents[1]


def _cfg(**kw):
    base = dict(
        alpha=2.0,
        s=0.4,
        n_grid=(256, 512, 1024),
        replicates=3,
        base_seed=11,
        conv=ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.4),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_ground_truth_weights():
    # the worst-case model at n = 10^4 and the truth the sweep measures against
    seen = {}

    def runner(tag, batch, truth):
        seen[batch.n] = batch.spec, truth
        return 1.0 / batch.n, 1, None

    cfg = _cfg(n_grid=(2_500, 5_000, 10_000), replicates=1)
    run_convergence_experiment(cfg, runner=runner)
    spec, mu = seen[10_000]
    eps = 10_000.0**-0.4
    assert np.allclose(spec.A, np.diag([1.0 + eps, 1.0 - eps]))
    w_big = (1.0 + eps) ** 2 / ((1.0 + eps) ** 2 + (1.0 - eps) ** 2)
    assert w_big == pytest.approx(0.525113, abs=1e-5)
    # atoms sorted lexicographically: (0,1) carries the small-tilt weight
    assert np.allclose(mu.atoms, [[0.0, 1.0], [1.0, 0.0]])
    assert mu.weights[0] == pytest.approx(1.0 - w_big, abs=1e-12)
    assert mu.weights[1] == pytest.approx(w_big, abs=1e-12)


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg(n_grid=(256, 512))  # too short
    with pytest.raises(ConfigError):
        _cfg(n_grid=(512, 256, 1024))  # not increasing
    with pytest.raises(ConfigError):
        _cfg(replicates=0)
    with pytest.raises(ConfigError):
        _cfg(conv=None)  # no estimator at all
    with pytest.raises(ConfigError):
        _cfg(n_grid=(2, 512, 1024))  # direction threshold needs n >= 3
    with pytest.raises(ConfigError):
        _cfg(p=0.5)  # Wasserstein order below 1
    # the model is checked before the sweep, not inside a worker
    with pytest.raises(ConfigError, match="n=256"):
        _cfg(latent_kind="custom")  # not a latent kind
    with pytest.raises(ConfigError, match="non-negative"):
        _cfg(fixed_A=np.array([[1.0, 0.5], [-0.1, 1.0]]))
    # an estimator runs at the model's alpha and s
    with pytest.raises(ConfigError, match="ConvConfig has alpha=0.5"):
        _cfg(conv=ConvConfig(kappa_bar=1.0, alpha=0.5, s=0.4))
    with pytest.raises(ConfigError, match="TwoStepConfig has alpha=2.0, s=0.1"):
        _cfg(two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.1))
    # two-step needs a square A: two rows, three factors
    A = np.array([[1.0, 0.2, 0.3], [0.1, 1.0, 0.2]])
    two_step = TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.4)
    with pytest.raises(ConfigError, match="square A, but the model has d=2, m=3"):
        _cfg(fixed_A=A, latent_kind="iid-pareto", two_step=two_step)
    _cfg(fixed_A=A, latent_kind="iid-pareto")  # the POT estimator takes any A


def test_planted_power_law_recovers_exact_slope():
    cfg = _cfg(n_grid=(100, 1000, 10_000, 100_000), replicates=2)

    def runner(tag, batch, truth):
        return float(batch.n) ** -0.3, 1, None

    res = run_convergence_experiment(cfg, runner=runner)
    slope, intercept, r2, n_points = res.slope_fits["conv"]
    assert slope == pytest.approx(-0.3, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    assert n_points == 4
    assert res.failure_rate["conv"] == 0.0


def test_serial_and_threaded_runs_identical():
    cfg = _cfg()
    r1 = run_convergence_experiment(cfg, threads=1)
    r8 = run_convergence_experiment(cfg, threads=8)
    assert r1.rows == r8.rows
    assert r1.slope_fits == r8.slope_fits


def test_failed_replicates_counted_not_fatal():
    cfg = _cfg(replicates=4)
    calls = {"i": 0}

    def runner(tag, batch, truth):
        calls["i"] += 1
        if batch.stream_id == 0:
            raise TooFewPointsError("synthetic failure")
        return float(batch.n) ** -0.5, 1, None

    res = run_convergence_experiment(cfg, runner=runner)
    assert res.failure_rate["conv"] == pytest.approx(0.25)
    failed = [r for r in res.rows if r.failed]
    assert len(failed) == 3  # one per grid point
    assert all(r.failure_kind == "TooFewPointsError" for r in failed)
    assert all(np.isnan(r.error) for r in failed)


def test_all_replicates_failing_aborts():
    cfg = _cfg(replicates=2)

    def runner(tag, batch, truth):
        raise TooFewPointsError("always")

    with pytest.raises(ExperimentAbortedError):
        run_convergence_experiment(cfg, runner=runner)


def test_both_estimators_run_and_diagnostics_split(tmp_path):
    cfg = _cfg(
        two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.4),
    )
    res = run_convergence_experiment(cfg, threads=4)
    assert set(res.slope_fits) == {"conv", "two-step"}
    diag = diagnostic_counts(res)
    tags = {t for _, _, t, _ in diag}
    assert tags <= {"conv", "two-step"}
    for n, rep, tag, count in diag:
        assert count >= 1
        assert n in cfg.n_grid


def test_emit_outputs_files_and_determinism(tmp_path):
    cfg = _cfg(
        two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.4),
    )
    res = run_convergence_experiment(cfg)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    emit_outputs(res, d1)
    emit_outputs(res, d2)
    names = [
        "rows.csv",
        "slopes.csv",
        "error_loglog.svg",
        "diag_counts_conv.svg",
        "diag_counts_two_step.svg",
    ]
    for name in names:
        assert (d1 / name).exists(), name
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    header = (d1 / "rows.csv").read_text().splitlines()[0]
    assert header == "n,replicate,estimator,error,n_tau,n_tau_tilde,failed"
    slopes = (d1 / "slopes.csv").read_text().splitlines()
    assert slopes[0] == "estimator,slope,intercept,r2,n_points"
    assert len(slopes) == 3
    svg = (d1 / "error_loglog.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")


def test_emit_outputs_missing_directory_raises(tmp_path):
    cfg = _cfg()
    res = run_convergence_experiment(cfg)
    with pytest.raises(IoError):
        emit_outputs(res, tmp_path / "does-not-exist")


def test_fixed_loading_matrix_used_as_ground_truth():
    A = np.diag([2.0, 1.0])
    cfg = _cfg(fixed_A=A, latent_kind="iid-pareto")
    seen = []

    def runner(tag, batch, truth):
        seen.append((batch.spec.A.copy(), truth))
        return 1.0 / batch.n, 1, None

    run_convergence_experiment(cfg, runner=runner)
    for A_used, truth in seen:
        assert np.array_equal(A_used, A)
        # weights proportional to column norms^alpha: 4/5 and 1/5
        assert np.allclose(sorted(truth.weights), [0.2, 0.8])


def test_staged_sweep_matches_default_rows_for_any_thread_count():
    cfg = _cfg(two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.4))
    res, stages = run_staged_experiment(cfg)
    assert res.rows == run_convergence_experiment(cfg).rows
    res2, stages2 = run_staged_experiment(cfg, threads=2)
    assert res2.rows == res.rows
    assert stages2.keys() == stages.keys() == set(cfg.n_grid)
    for n in cfg.n_grid:
        np.testing.assert_array_equal(stages2[n], stages[n])  # nan equals nan
        done = [r for r in res.rows if r.n == n and r.estimator == "two-step"]
        assert len(stages[n]) == sum(not r.failed for r in done)
        assert all(len(pair) == 2 for pair in stages[n])


def test_diagnose_tool_imports_and_parses_arguments():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    tool = ROOT / "tools" / "diagnose_rate_cells.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "--kmax" in proc.stdout
