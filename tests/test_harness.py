import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from tailfactor.errors import ConfigError, ExperimentAbortedError, IoError
from tailfactor.errors import NearSingularError, TooFewPointsError
from tailfactor import estimators, harness
from tailfactor.estimators import ConvConfig, TwoStepConfig
from tailfactor.harness import (
    ExperimentConfig,
    diagnostic_counts,
    emit_outputs,
    run_convergence_experiment,
    run_staged_experiment,
)
from tailfactor.svg import line_chart

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
        return 1.0 / batch.n, 1

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


def test_replicates_share_the_model_built_once_per_grid_point(monkeypatch):
    cfg = _cfg(replicates=4)
    calls = []
    build = harness._model_at
    monkeypatch.setattr(harness, "_model_at", lambda cfg, n: calls.append(n) or build(cfg, n))
    seen = {}

    def runner(tag, batch, truth):
        seen.setdefault(batch.n, []).append((batch.spec, truth))
        return 1.0 / batch.n, 1

    run_convergence_experiment(cfg, threads=2, runner=runner)
    assert calls == list(cfg.n_grid)
    for models in seen.values():
        assert len(models) == 4
        assert all(spec is models[0][0] and mu is models[0][1] for spec, mu in models)


TWO_STEP = TwoStepConfig(kappa_tilde=0.3, kappa=1.0)
ODD_GRID = (257, 515, 1029)  # n * m is 2 or 3 mod 4 for m = 2 and 3


@pytest.mark.parametrize(
    "model",
    [
        dict(two_step=TWO_STEP),
        dict(two_step=TWO_STEP, n_grid=ODD_GRID),
        dict(two_step=TWO_STEP, fixed_A=np.array([[1.0, 0.3], [0.2, 0.9]])),
        dict(
            two_step=TWO_STEP,
            n_grid=ODD_GRID,
            latent_kind="iid-pareto",
            fixed_A=np.array([[1.0, 0.5, 0.0], [0.2, 1.0, 0.3], [0.0, 0.4, 1.0]]),
        ),
    ],
    ids=["worst-case", "worst-case-odd-n", "tilted-2x2", "iid-3x3-odd-n"],
)
@pytest.mark.parametrize("threads, replicates", [(1, 3), (2, 3), (2, 1)])
def test_shared_draw_gives_the_rows_of_per_grid_point_draws(monkeypatch, model, threads, replicates):
    cfg = _cfg(replicates=replicates, **model)
    shared = run_convergence_experiment(cfg, threads=threads)
    own = harness.generate_dataset  # each (n, replicate) draws its own sample
    monkeypatch.setattr(harness, "generate_dataset", lambda *a, draw, **k: own(*a, **k))
    assert shared.rows == run_convergence_experiment(cfg).rows
    assert [(r.n, r.replicate) for r in shared.rows[:: len(cfg.tags)]] == [
        (n, rep) for n in cfg.n_grid for rep in range(replicates)
    ]


def test_sweep_raises_the_first_error_in_grid_order():
    # Replicate 0 fails at the largest n, replicate 2 at the middle one: the
    # per-replicate tasks raise the error of (512, 2), which comes first in
    # (n, replicate) order.
    def runner(tag, batch, truth):
        if (batch.n, batch.stream_id) == (1024, 0):
            raise RuntimeError("late")
        if (batch.n, batch.stream_id) == (512, 2):
            raise KeyError("first")
        return 1.0 / batch.n, 1

    for threads in (1, 2):
        with pytest.raises(KeyError, match="first"):
            run_convergence_experiment(_cfg(), threads=threads, runner=runner)


def test_sweep_imports_no_numpy_ma(tmp_path):
    # np.median's first call imports numpy.ma, a cost inside every sweep.
    code = (
        "import sys\n"
        "from tailfactor import ConvConfig, ExperimentConfig, TwoStepConfig\n"
        "from tailfactor import emit_outputs, run_convergence_experiment\n"
        "cfg = ExperimentConfig(alpha=2.0, s=0.4, n_grid=(256, 512, 1024), replicates=3,\n"
        "    base_seed=11, conv=ConvConfig(kappa_bar=1.0, alpha=2.0, s=0.4),\n"
        "    two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0))\n"
        f"emit_outputs(run_convergence_experiment(cfg, threads=2), {str(tmp_path)!r})\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "diag_counts_two_step.svg").exists()


def test_median_matches_numpy_to_the_byte():
    rng = np.random.default_rng(3)
    for size in (1, 2, 3, 4, 7, 30):
        values = list(rng.pareto(1.5, size)) + [1e308] * (size % 3 == 0)
        assert harness._median(values) == float(np.median(values))
        counts = [int(c) for c in rng.integers(1, 10**6, size)]
        assert harness._median(counts) == float(np.median(counts))
    assert harness._median([1e308, 1e308]) == np.inf  # (a + b) / 2 overflows, as np.median's
    assert math.isnan(harness._median([1.0, math.nan, 2.0]))


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
    # a bool compares as 0 or 1, but it is not a number here
    for flag in (True, np.True_):
        with pytest.raises(ConfigError, match="need 1 <= p < inf, got True"):
            _cfg(p=flag)
        conv = ConvConfig(kappa_bar=1.0, alpha=1.0, s=0.4)
        with pytest.raises(ConfigError, match="alpha must be finite and > 0, got True"):
            _cfg(alpha=flag, conv=conv)
    # the model is checked before the sweep, not inside a worker
    with pytest.raises(ConfigError, match="n=256"):
        _cfg(latent_kind="custom")  # not a latent kind
    with pytest.raises(ConfigError, match="non-negative"):
        _cfg(fixed_A=np.array([[1.0, 0.5], [-0.1, 1.0]]))
    # the POT estimator runs at the model's alpha and s
    with pytest.raises(ConfigError, match="ConvConfig has alpha=0.5"):
        _cfg(conv=ConvConfig(kappa_bar=1.0, alpha=0.5, s=0.4))
    # two-step needs a square A: two rows, three factors
    A = np.array([[1.0, 0.2, 0.3], [0.1, 1.0, 0.2]])
    two_step = TwoStepConfig(kappa_tilde=0.3, kappa=1.0)
    with pytest.raises(ConfigError, match="square A, got d=2, m=3"):
        _cfg(fixed_A=A, latent_kind="iid-pareto", two_step=two_step)
    _cfg(fixed_A=A, latent_kind="iid-pareto")  # the POT estimator takes any A
    # a fixed A under the tilted law still needs both tilts at the first size
    tiny = ConvConfig(kappa_bar=1.0, alpha=2.0, s=1e-20)
    with pytest.raises(ConfigError, match="s=1e-20 is too small at n=256"):
        _cfg(fixed_A=np.eye(2), latent_kind="tilted-worst-case", s=1e-20, conv=tiny)
    # numpy cannot index the largest size's arrays
    with pytest.raises(ConfigError, match="n_grid: an n x 2 float64 array is too large"):
        _cfg(n_grid=(256, 512, 2**62))
    # integer fields refuse a float or a bool and read a numpy integer as an int
    for bad in (
        dict(replicates=2.5),
        dict(replicates=True),
        dict(base_seed=1.5),
        dict(n_grid=(256.7, 512, 1024)),
    ):
        with pytest.raises(ConfigError, match="must be an integer"):
            _cfg(**bad)
    cfg = _cfg(n_grid=np.array([256, 512, 1024]), replicates=np.int64(3), base_seed=np.int64(3))
    assert (cfg.n_grid, cfg.replicates, cfg.base_seed) == ((256, 512, 1024), 3, 3)
    assert {type(v) for v in (*cfg.n_grid, cfg.replicates, cfg.base_seed)} == {int}
    same = _cfg(base_seed=3)
    assert run_convergence_experiment(cfg).rows == run_convergence_experiment(same).rows


def test_planted_power_law_recovers_exact_slope():
    cfg = _cfg(n_grid=(100, 1000, 10_000, 100_000), replicates=2)

    def runner(tag, batch, truth):
        return float(batch.n) ** -0.3, 1

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


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_pool_threads_never_outnumber_the_usable_cpus(monkeypatch):
    # --threads is an upper bound: the pool starts min(threads, replicates,
    # usable CPUs) workers, and the rows stay the serial run's
    cfg = _cfg(replicates=8)
    serial = run_convergence_experiment(cfg, threads=1).rows
    for cpus in (None, 1, 2):
        if cpus is not None:  # the CPUs this process may run on
            affinity = set(range(cpus))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
        workers = set()
        default = harness._default_runner(cfg)

        def runner(tag, batch, truth):
            workers.add(threading.get_ident())
            time.sleep(0.002)  # each task yields, so an idle worker would take the next
            return default(tag, batch, truth)

        assert run_convergence_experiment(cfg, threads=8, runner=runner).rows == serial
        assert len(workers) <= _usable_cpus()


def test_failed_replicates_counted_not_fatal(tmp_path):
    cfg = _cfg(replicates=4, two_step=TWO_STEP)
    calls = {"i": 0}

    def runner(tag, batch, truth):
        calls["i"] += 1
        if batch.stream_id == 0 and tag == "conv":
            raise TooFewPointsError("synthetic failure")
        return float(batch.n) ** -0.5, batch.n // 4 + (tag == "two-step")

    res = run_convergence_experiment(cfg, runner=runner)
    assert res.failure_rate["conv"] == pytest.approx(0.25)
    assert res.failure_rate["two-step"] == 0.0
    failed = [r for r in res.rows if r.failed]
    assert len(failed) == 3  # one per grid point
    assert all(r.failure_kind == "TooFewPointsError" for r in failed)
    assert all(np.isnan(r.error) for r in failed)
    # a failed row gives no diagnostic count, even one that carries a count
    rows = tuple(dataclasses.replace(r, count=7) if r.failed else r for r in res.rows)
    diag = diagnostic_counts(dataclasses.replace(res, rows=rows))
    assert [(n, rep) for n, rep, _, _ in diag] == [
        (r.n, r.replicate) for r in res.rows if not r.failed
    ]
    # rows.csv: each estimator's count under its own column, and a failed
    # row with empty error and count cells
    emit_outputs(res, tmp_path)
    header, *lines = (tmp_path / "rows.csv").read_text().splitlines()
    assert header == "n,replicate,estimator,error,n_tau,n_tau_tilde,failed"
    cells = {tuple(line.split(",")[:3]): line.split(",")[3:] for line in lines}
    assert cells["256", "0", "conv"] == ["", "", "", "1"]
    assert cells["256", "0", "two-step"][1:] == ["", "65", "0"]
    assert cells["256", "1", "conv"][1:] == ["64", "", "0"]


def test_all_replicates_failing_aborts():
    cfg = _cfg(replicates=2)

    def runner(tag, batch, truth):
        raise TooFewPointsError("always")

    with pytest.raises(ExperimentAbortedError):
        run_convergence_experiment(cfg, runner=runner)


def test_both_estimators_run_and_diagnostics_split(tmp_path):
    cfg = _cfg(
        two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0),
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
        two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0),
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


def test_emit_outputs_of_an_empty_result_writes_only_the_tables(tmp_path):
    emit_outputs(harness.ExperimentResult((), {}, {}, {}), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rows.csv", "slopes.csv"]
    rows = "n,replicate,estimator,error,n_tau,n_tau_tilde,failed\n"
    assert (tmp_path / "rows.csv").read_text() == rows
    assert (tmp_path / "slopes.csv").read_text() == "estimator,slope,intercept,r2,n_points\n"


def test_fixed_loading_matrix_used_as_ground_truth():
    A = np.diag([2.0, 1.0])
    cfg = _cfg(fixed_A=A, latent_kind="iid-pareto")
    seen = []

    def runner(tag, batch, truth):
        seen.append((batch.spec.A.copy(), truth))
        return 1.0 / batch.n, 1

    run_convergence_experiment(cfg, runner=runner)
    for A_used, truth in seen:
        assert np.array_equal(A_used, A)
        # weights proportional to column norms^alpha: 4/5 and 1/5
        assert np.allclose(sorted(truth.weights), [0.2, 0.8])


def test_staged_sweep_matches_default_rows_for_any_thread_count(monkeypatch):
    cfg = _cfg(two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0))
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

    # a magnitude stage that raises a typed error reads nan; the rest stands.
    # The worst case's A is diagonal, so its true directions are the identity.
    fit = harness.two_step_from_directions

    def singular(batch, ts_cfg, a_dir):
        if np.array_equal(a_dir, np.eye(2)):
            raise NearSingularError("synthetic")
        return fit(batch, ts_cfg, a_dir)

    monkeypatch.setattr(harness, "two_step_from_directions", singular)
    res3, stages3 = run_staged_experiment(cfg)
    assert res3.rows == res.rows
    for n in cfg.n_grid:
        assert [d for _, d in stages3[n]] == [d for _, d in stages[n]]
        assert all(math.isnan(m) for m, _ in stages3[n])


def test_staged_sweep_fits_each_replicates_directions_once(monkeypatch):
    # the stages reuse the full fit's direction matrix: no second k-means
    calls = []
    kmeans = estimators.kmeans

    def counting(*args, **kwargs):
        calls.append(1)
        return kmeans(*args, **kwargs)

    monkeypatch.setattr(estimators, "kmeans", counting)
    cfg = _cfg(replicates=2, conv=None, two_step=TwoStepConfig(kappa_tilde=0.3, kappa=1.0))
    run_convergence_experiment(cfg)
    plain = len(calls)
    run_staged_experiment(cfg)
    assert plain == 6 and len(calls) - plain == plain  # 2 replicates at 3 grid points


def test_line_chart_widens_a_flat_range():
    # one point: both ranges are widened by 0.5 each way, so it sits centred
    svg = line_chart([("a", [2.0], [5.0])], "t", "x", "y")
    assert '<circle cx="425.00" cy="295.00" r="3"' in svg
    assert ">1.5</text>" in svg and ">5.5</text>" in svg


def test_diagnose_tool_imports_and_parses_arguments(capsys):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    tool = ROOT / "tools" / "diagnose_rate_cells.py"
    proc = subprocess.run(
        [sys.executable, str(tool), "--help"], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "--kmax" in proc.stdout
    # each fitted slope is labelled by the grid it used
    spec = importlib.util.spec_from_file_location("diagnose_rate_cells", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = [(13, ["2^11..2^13"]), (17, ["2^11..2^17"]), (19, ["2^11..2^17", "2^11..2^19"])]
    for kmax, spans in cases:
        ns = [2**k for k in range(11, kmax + 1)]
        module._fits(ns, [("rate", [n**-0.5 for n in ns])])
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"  fitted slope over {span}: rate -0.500" for span in spans]
