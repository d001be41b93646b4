import contextlib
import copy
import hashlib
import io
import json
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailfactor import cli
from tailfactor.cli import experiment_config_from, load_config, main
from tailfactor.estimators import TwoStepConfig, estimate_two_step
from tailfactor.measures import (
    make_measure,
    measure_from_json,
    measure_to_json,
    spectral_measure_of,
)
from tailfactor.sampling import read_batch
from tailfactor.transport import wasserstein_p


def _write(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def _sim_config(tmp_path, n=256, **model_extra):
    model = {
        "A": [[1.0, 0.0], [0.0, 1.0]],
        "alpha": 2.0,
        "s": 0.2,
        "latent": "iid-pareto",
        "n": n,
        "seed": 7,
    }
    model.update(model_extra)
    return _write(tmp_path / "sim.json", {"model": model})


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "simulate" in capsys.readouterr().out


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_simulate_writes_batch(tmp_path):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "batch.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists() and out.with_suffix(".json").exists()
    lines = out.read_text().splitlines()
    assert lines[0] == "x1,x2"
    assert len(lines) == 257


def test_simulate_seed_override_changes_data(tmp_path):
    cfg = _sim_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["--seed-override", "99", "simulate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_text() != b.read_text()


def test_missing_model_alpha_names_field(tmp_path, capsys):
    cfg = _write(
        tmp_path / "bad.json",
        {"model": {"A": [[1, 0], [0, 1]], "s": 0.2, "n": 16, "seed": 1}},
    )
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "model.alpha" in err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    doc = json.loads((tmp_path / "sim.json").read_text())
    doc["model"]["bogus"] = 1
    cfg = _write(tmp_path / "sim2.json", doc)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_estimate_conv_round_trip(tmp_path):
    sim = _sim_config(tmp_path, n=4096)
    batch = tmp_path / "batch.csv"
    assert main(["simulate", "--config", sim, "--out", str(batch)]) == 0
    est = _write(
        tmp_path / "est.json",
        {"estimator": {"conv": {"kappa_bar": 1.0}}},
    )
    out = tmp_path / "measure.json"
    assert main(["estimate", "conv", str(batch), "--config", est, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"atoms", "weights"}
    assert abs(sum(doc["weights"]) - 1.0) < 1e-9


def test_estimate_ground_truth_prints_distance(tmp_path, capsys):
    sim = _sim_config(tmp_path, n=4096)
    batch = tmp_path / "batch.csv"
    main(["simulate", "--config", sim, "--out", str(batch)])
    est = _write(
        tmp_path / "est.json",
        {"estimator": {"conv": {"kappa_bar": 1.0}}},
    )
    out = tmp_path / "measure.json"
    assert main(["estimate", "conv", str(batch), "--config", est, "--out", str(out)]) == 0
    # W_1 to the spectral measure of the sidecar's A = I at alpha = 2
    printed = capsys.readouterr().out.strip()
    truth = spectral_measure_of(np.eye(2), 2.0)
    expected = wasserstein_p(measure_from_json(out.read_text()), truth, 1.0)
    assert float(printed) == expected and 0.0 <= expected < 0.5


def test_estimate_two_step_zero_exceedances_exits_one(tmp_path, capsys):
    sim = _sim_config(tmp_path, n=64)
    batch = tmp_path / "batch.csv"
    main(["simulate", "--config", sim, "--out", str(batch)])
    est = _write(
        tmp_path / "est.json",
        {"estimator": {"two_step": {"kappa_tilde": 1e9, "kappa": 1.0}}},
    )
    rc = main(
        ["estimate", "two-step", str(batch), "--config", est, "--out", str(tmp_path / "m.json")]
    )
    assert rc == 1
    assert "TooFewPoints" in capsys.readouterr().err


def test_wasserstein_hand_example(tmp_path, capsys):
    mu = make_measure([[1.0, 0.0], [0.0, 1.0]], [0.8, 0.2])
    nu = make_measure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    f1 = tmp_path / "mu.json"
    f2 = tmp_path / "nu.json"
    f1.write_text(measure_to_json(mu))
    f2.write_text(measure_to_json(nu))
    assert main(["wasserstein", str(f1), str(f2)]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.6, abs=1e-12)
    # 2^2000 overflows float64; the scaled costs give W = 2 * 0.3^(1/2000).
    assert main(["wasserstein", str(f1), str(f2), "--p", "2000"]) == 0
    w = float(capsys.readouterr().out.strip())
    assert w == pytest.approx(2.0 * 0.3 ** (1 / 2000), rel=1e-12)


def test_wasserstein_invalid_measure_is_config_error(tmp_path, capsys):
    f1 = tmp_path / "mu.json"
    f1.write_text('{"atoms": [[0.7, 0.7]], "weights": [1.0]}')
    rc = main(["wasserstein", str(f1), str(f1)])
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err


def test_experiment_smoke_runs_fast_and_emits_files(tmp_path, capsys):
    start = time.monotonic()
    out = tmp_path / "out"
    rc = main(["experiment", "--config", "configs/smoke.json", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert rc == 0
    assert elapsed < 10.0
    for name in (
        "rows.csv",
        "slopes.csv",
        "error_loglog.svg",
        "diag_counts_conv.svg",
        "diag_counts_two_step.svg",
    ):
        assert (out / name).exists(), name
    stdout = capsys.readouterr().out
    assert "conv: slope=" in stdout and "two-step: slope=" in stdout


def test_experiment_seed_override_sets_the_base_seed(tmp_path):
    # --seed-override gives the rows of the config with that base_seed
    rows = {}
    for name, seed, override in (
        ("own", 1, []),
        ("override", 1, ["--seed-override", "99"]),
        ("config", 99, []),
    ):
        run = tmp_path / name
        run.mkdir()
        argv = _experiment(lambda d: d["experiment"].update(base_seed=seed))(run)
        assert main(override + argv) == 0
        rows[name] = (run / "out" / "rows.csv").read_bytes()
    assert rows["override"] == rows["config"] != rows["own"]


def test_experiment_unwritable_out_dir_exits_one(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(
        ["experiment", "--config", "configs/smoke.json", "--out", str(blocker / "sub")]
    )
    assert rc == 1
    assert "IoError" in capsys.readouterr().err


def test_config_file_not_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    rc = main(["experiment", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err


def test_memory_error_is_one_line_exit_one(tmp_path, capsys, monkeypatch):
    # A size numpy can index but the machine cannot hold; nothing is allocated.
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(cli, "generate_dataset", too_big)
    rc = main(["simulate", "--config", _sim_config(tmp_path), "--out", str(tmp_path / "b.csv")])
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert lines == ["MemoryError: Unable to allocate 8.00 TiB"]


def test_shipped_configs_load():
    # every configs/*.json, read as `experiment` reads it
    paths = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
    assert {"smoke.json", "table2_a2_s02.json"} <= {path.name for path in paths}
    for path in paths:
        doc = load_config(path)
        cfg = experiment_config_from(doc)
        assert set(cfg.tags) == set(doc["experiment"]["estimators"])
        assert cfg.n_grid == tuple(doc["experiment"]["n_grid"])
        model = doc["model"]
        assert (cfg.alpha, cfg.s, cfg.latent_kind) == (model["alpha"], model["s"], model["latent"])
        for est in (cfg.conv, cfg.two_step):
            assert est is None or (est.alpha, est.s) == (cfg.alpha, cfg.s)


def test_smoke_outputs_pin_golden_bytes(tmp_path):
    # A change that moves these bytes updates the digests and says so.
    golden = {
        "rows.csv": "e7c804fca2b5350b82e7406970eb0bb25d7d136406950a0029f6cd349675295d",
        "slopes.csv": "02074e2b85aa5b25e0dba174a5cdc3f1358178c2706b139b2137e06b084a3e3d",
    }
    for threads in ("1", "2"):
        out = tmp_path / threads
        argv = ["--threads", threads, "experiment", "--config", "configs/smoke.json"]
        assert main(argv + ["--out", str(out)]) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def _experiment(edit):
    def argv(tmp_path):
        doc = {
            "model": {"A": "worst-case-diag", "alpha": 2.0, "s": 0.4},
            "estimator": {
                "conv": {"kappa_bar": 1.0},
                "two_step": {"kappa_tilde": 0.3, "kappa": 1.0},
            },
            "experiment": {"n_grid": [256, 512, 1024], "replicates": 1, "base_seed": 1},
        }
        edit(doc)
        cfg = _write(tmp_path / "exp.json", doc)
        return ["experiment", "--config", cfg, "--out", str(tmp_path / "out")]

    return argv


def _simulate(**model):
    def argv(tmp_path):
        cfg = _sim_config(tmp_path, **{"n": 64, **model})
        return ["simulate", "--config", cfg, "--out", str(tmp_path / "b.csv")]

    return argv


def _estimate(kind="conv", edit=lambda doc: None, spoil_batch=lambda csv: None, **model):
    def argv(tmp_path):
        batch = tmp_path / "batch.csv"
        sim = _sim_config(tmp_path, n=4096, **model)
        assert main(["simulate", "--config", sim, "--out", str(batch)]) == 0
        spoil_batch(batch)
        doc = {
            "estimator": {
                "conv": {"kappa_bar": 1.0},
                "two_step": {"kappa_tilde": 0.3, "kappa": 1.0},
            },
        }
        edit(doc)
        cfg = _write(tmp_path / "est.json", doc)
        return ["estimate", kind, str(batch), "--config", cfg, "--out", str(tmp_path / "m.json")]

    return argv


def _wasserstein(p):
    def argv(tmp_path):
        paths = []
        for name, weights in (("mu", [0.8, 0.2]), ("nu", [0.5, 0.5])):
            path = tmp_path / f"{name}.json"
            path.write_text(measure_to_json(make_measure(np.eye(2), weights)))
            paths.append(str(path))
        return ["wasserstein", *paths, "--p", p]

    return argv


def _drop_sidecar_alpha(csv):
    doc = json.loads(csv.with_suffix(".json").read_text())
    del doc["alpha"]
    _write(csv.with_suffix(".json"), doc)


def _sidecar(**values):
    def spoil(csv):
        doc = json.loads(csv.with_suffix(".json").read_text())
        _write(csv.with_suffix(".json"), {**doc, **values})

    return spoil


def _cell(value):
    def spoil(csv):
        lines = csv.read_text().splitlines()
        lines[5] = value + "," + lines[5].split(",")[1]
        csv.write_text("\n".join(lines) + "\n")

    return spoil


def _header_only(csv):
    csv.write_text(csv.read_text().splitlines()[0] + "\n")


def _wasserstein_file(atoms):
    def argv(tmp_path):
        mu = tmp_path / "mu.json"
        mu.write_text(json.dumps({"atoms": atoms, "weights": [0.5, 0.5]}))
        nu = tmp_path / "nu.json"
        nu.write_text(measure_to_json(make_measure(np.eye(2), [0.5, 0.5])))
        return ["wasserstein", str(mu), str(nu)]

    return argv


def _threads(count):
    def argv(tmp_path):
        return ["--threads", count, *_experiment(lambda d: None)(tmp_path)]

    return argv


NAN = float("nan")
A_2X3 = [[1.0, 0.2, 0.3], [0.1, 1.0, 0.2]]
MALFORMED = {
    # (argv builder, fragment the one-line ConfigError must contain)
    "fixed-A-negative": (
        _experiment(lambda d: d["model"].update(A=[[1.0, 0.5], [-0.1, 1.0]], latent="iid-pareto")),
        "model: loading matrix must be finite and entry-wise non-negative",
    ),
    "latent-custom": (
        _experiment(lambda d: d["model"].update(latent="custom")),
        "latent kind 'custom' is not one of",
    ),
    "worst-case-law-on-3x3-A": (
        _experiment(lambda d: d["model"].update(A=np.eye(3).tolist())),
        "worst-case latent law needs m=2",
    ),
    "alpha-nan": (_experiment(lambda d: d["model"].update(alpha=NAN)), "model.alpha"),
    "s-nan": (_experiment(lambda d: d["model"].update(s=NAN)), "model.s"),
    # The model's ranges are the library's: the CLI checks only the types.
    "alpha-minus-1": (
        _experiment(lambda d: d["model"].update(alpha=-1)),
        "model: alpha must be finite and > 0, got -1.0",
    ),
    "s-0.7": (
        _experiment(lambda d: d["model"].update(s=0.7)),
        "model: s must be in (0, 0.5), got 0.7",
    ),
    "s-minus-0.1": (
        _experiment(lambda d: d["model"].update(s=-0.1)),
        "model: s must be in (0, 0.5), got -0.1",
    ),
    "simulate-n-0-fixed-A": (_simulate(n=0), "model.n: need n >= 1, got 0"),
    "simulate-n-0-worst-case-diag": (
        _simulate(n=0, A="worst-case-diag", latent="tilted-worst-case"),
        "model: the worst-case model needs n >= 2, got 0",
    ),
    "kmeans-k-string": (
        _estimate(edit=lambda d: d["estimator"]["conv"].update(kmeans={"k": "abc"})),
        "estimator.conv: unknown key(s) ['kmeans']",
    ),
    "conv-alpha-string": (
        _estimate(edit=lambda d: d["estimator"]["conv"].update(alpha="two")),
        "estimator.conv: unknown key(s) ['alpha']",
    ),
    "ground-truth-alpha-string": (
        _estimate(edit=lambda d: d["estimator"].update(ground_truth={"alpha": "x"})),
        "estimator: unknown key(s) ['ground_truth']",
    ),
    "simulate-ragged-A": (_simulate(A=[[1.0, 0.0], [0.0]]), "model.A"),
    # The factor count is the model's m; older configs may still name it.
    "two-step-m-3-on-d-2": (
        _estimate("two-step", edit=lambda d: d["estimator"]["two_step"].update(m=3)),
        "estimator.two_step.m: must be the model's m",
    ),
    "collapse_k-3": (
        _estimate(edit=lambda d: d["estimator"]["conv"].update(collapse_k=3)),
        "estimator.conv.collapse_k: must be the model's m",
    ),
    "sidecar-without-alpha": (_estimate(spoil_batch=_drop_sidecar_alpha), "lacks key 'alpha'"),
    "misspelled-estimator-tag": (
        _experiment(lambda d: d["experiment"].update(estimators=["conv", "twostep"])),
        "experiment.estimators",
    ),
    "no-estimator-tag": (
        _experiment(lambda d: d["experiment"].update(estimators=[])),
        "experiment.estimators: at least one estimator must be configured",
    ),
    "kmeans-k-7": (
        _estimate(edit=lambda d: d["estimator"]["conv"].update(kmeans={"k": 7})),
        "estimator.conv: unknown key(s) ['kmeans']",
    ),
    "two-step-det-tol": (
        _estimate("two-step", edit=lambda d: d["estimator"]["two_step"].update(det_tol=1e-8)),
        "estimator.two_step: unknown key(s) ['det_tol']",
    ),
    "simulate-n-1-fixed-A": (
        _simulate(n=1, latent="tilted-worst-case"),
        "model: the worst-case model needs n >= 2, got 1",
    ),
    "simulate-n-1-worst-case-diag": (
        _simulate(n=1, A="worst-case-diag", latent="tilted-worst-case"),
        "model: the worst-case model needs n >= 2, got 1",
    ),
    "wasserstein-p-half": (_wasserstein("0.5"), "--p"),
    "wasserstein-p-nan": (_wasserstein("nan"), "--p"),
    "wasserstein-p-inf": (_wasserstein("inf"), "--p"),
    "ground-truth-A-negative": (
        _estimate(edit=lambda d: d["estimator"].update(ground_truth={"A": [[1.0, -0.2], [0.0, 1.0]]})),
        "estimator: unknown key(s) ['ground_truth']",
    ),
    "estimate-model-section": (
        _estimate(edit=lambda d: d.update(model={"alpha": 0.5, "s": 0.2})),
        "model: estimate reads the model from the batch sidecar",
    ),
    "two-step-s-in-section": (
        _estimate("two-step", edit=lambda d: d["estimator"]["two_step"].update(s=0.1)),
        "estimator.two_step: unknown key(s) ['s']",
    ),
    "two-step-r-hat": (
        _estimate("two-step", edit=lambda d: d["estimator"]["two_step"].update(r_hat=1.0)),
        "estimator.two_step: unknown key(s) ['r_hat']",
    ),
    "two-step-on-2x3-A": (
        _experiment(lambda d: d["model"].update(A=A_2X3, latent="iid-pareto")),
        "two-step needs a square A, but the model has d=2, m=3",
    ),
    "simulate-latent-custom": (
        _simulate(latent={"custom": [1.0, 4.0]}),
        "latent kind {'custom': [1.0, 4.0]} is not one of",
    ),
    "simulate-A-nan": (_simulate(A=[[1.0, NAN], [0.0, 1.0]]), "model.A"),
    "batch-csv-nan": (_estimate(spoil_batch=_cell("nan")), "batch.csv"),
    # X = A Z >= 0, so a negative entry is a defect of the file
    "batch-csv-negative": (_estimate(spoil_batch=_cell("-0.5")), "batch.csv"),
    "batch-csv-header-only": (
        _estimate(spoil_batch=_header_only),
        "batch.csv: the CSV holds no rows",
    ),
    "wasserstein-coordinate-minus-1e-13": (
        _wasserstein_file([[-1e-13, 1.0 + 1e-13], [1.0, 0.0]]),
        "cannot load measure: atom 0 is",
    ),
    "wasserstein-near-duplicate-atoms": (
        _wasserstein_file([[0.5, 0.5], [0.5 + 2.5e-10, 0.5 - 2.5e-10]]),
        "input measure violates simplex-measure invariants",
    ),
    # Only simulate draws one sample of size model.n from (seed, stream_id).
    "experiment-model-n": (
        _experiment(lambda d: d["model"].update(n=7)),
        "model: unknown key(s) ['n']",
    ),
    "experiment-model-seed": (
        _experiment(lambda d: d["model"].update(seed=3)),
        "model: unknown key(s) ['seed']",
    ),
    "experiment-model-stream-id": (
        _experiment(lambda d: d["model"].update(stream_id=9)),
        "model: unknown key(s) ['stream_id']",
    ),
    "sidecar-alpha-infinity": (
        _estimate(spoil_batch=_sidecar(alpha=float("inf"))),
        "alpha must be finite and > 0, got inf",
    ),
    "kappa-bar-infinity": (
        _experiment(lambda d: d["estimator"]["conv"].update(kappa_bar=float("inf"))),
        "estimator.conv.kappa_bar",
    ),
    "p-nan": (_experiment(lambda d: d["experiment"].update(p=NAN)), "experiment.p"),
    # The tail-threshold scale is the constant ModelSpec.zeta; the median is
    # the only aggregate, and older configs may still name it.
    "model-zeta": (
        _experiment(lambda d: d["model"].update(zeta=1.0)),
        "model: unknown key(s) ['zeta']",
    ),
    "aggregate-mean": (
        _experiment(lambda d: d["experiment"].update(aggregate="mean")),
        "experiment.aggregate",
    ),
    "threads-0": (_threads("0"), "--threads"),
    "threads-minus-1": (_threads("-1"), "--threads"),
    "experiment-s-tiny": (
        _experiment(lambda d: d["model"].update(s=1e-20)),
        "model: s=1e-20 is too small at n=256",
    ),
    "simulate-s-tiny": (
        _simulate(s=1e-20, A="worst-case-diag"),
        "model: s=1e-20 is too small at n=64",
    ),
    "simulate-s-tiny-fixed-A": (
        _simulate(s=1e-20, latent="tilted-worst-case"),
        "model: s=1e-20 is too small at n=64",
    ),
    "n-grid-bool": (
        _experiment(lambda d: d["experiment"].update(n_grid=[True, 2, 3])),
        "experiment.n_grid.0",
    ),
    "n-grid-not-a-list": (
        _experiment(lambda d: d["experiment"].update(n_grid=1024)),
        "experiment.n_grid: expected a list of integers",
    ),
    # Sizes numpy cannot index, rejected before any allocation.
    "simulate-n-1e300": (_simulate(n=1e300), "model.n"),
    "simulate-n-2-62": (_simulate(n=2**62, A="worst-case-diag"), "model.n"),
    "n-grid-1e300": (
        _experiment(lambda d: d["experiment"].update(n_grid=[256, 512, 1e300])),
        "experiment.n_grid: an n x 2 float64 array is too large to index",
    ),
    "n-grid-2-62": (
        _experiment(lambda d: d["experiment"].update(n_grid=[256, 512, 2**62])),
        "experiment.n_grid: an n x 2 float64 array is too large to index",
    ),
    "replicates-0": (
        _experiment(lambda d: d["experiment"].update(replicates=0)),
        "experiment.replicates: replicates must be >= 1",
    ),
    "p-0.5": (
        _experiment(lambda d: d["experiment"].update(p=0.5)),
        "experiment.p: need 1 <= p < inf, got 0.5",
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_line_config_error(case, tmp_path, capsys):
    make_argv, fragment = MALFORMED[case]
    argv = make_argv(tmp_path)
    capsys.readouterr()
    rc = main(argv)
    lines = capsys.readouterr().err.splitlines()
    assert rc == 2, lines
    assert len(lines) == 1 and lines[0].startswith("ConfigError: "), lines
    assert fragment in lines[0]


def test_estimate_two_step_on_2x3_batch_exits_one(tmp_path, capsys):
    # the model of the batch has three factors in two dimensions
    rc = main(_estimate("two-step", A=A_2X3)(tmp_path))
    lines = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(lines) == 1 and lines[0].startswith("DimensionMismatchError: "), lines
    assert "two-step needs a square A, got d=2, m=3" in lines[0]


def _overflowing_rows(csv):
    # rows whose l1-norm overflows float64; read_batch accepts them
    lines = csv.read_text().splitlines()
    lines[1:6] = ["1.5e308,1.5e308"] * 5
    csv.write_text("\n".join(lines) + "\n")


def test_estimate_conv_on_overflowing_rows_warns_nothing(tmp_path):
    argv = _estimate(spoil_batch=_overflowing_rows)(tmp_path)
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    lines = stderr.getvalue().splitlines()
    assert not caught, [str(w.message) for w in caught]
    assert (rc, lines) == (0, []) or (rc == 1 and len(lines) == 1), (rc, lines)


def _overflowing_products(csv):
    # rows of ones beside rows whose product with the inverse direction
    # matrix overflows float64; read_batch accepts them
    rows = ["1,1"] * 1000 + ["1.5e308,1.5e308"] * 3 + ["1.7e308,4e307"] * 3
    csv.write_text("x1,x2\n" + "\n".join(rows) + "\n")
    _sidecar(n=len(rows))(csv)


def test_estimate_two_step_on_overflowing_products_warns_nothing(tmp_path):
    argv = _estimate("two-step", spoil_batch=_overflowing_products)(tmp_path)
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    lines = stderr.getvalue().splitlines()
    assert not caught, [str(w.message) for w in caught]
    assert (rc, lines) == (0, []), lines
    # the measure the API estimates from the same file
    cfg = TwoStepConfig(kappa_tilde=0.3, kappa=1.0, alpha=2.0, s=0.2)
    _, mu, _ = estimate_two_step(read_batch(tmp_path / "batch.csv"), cfg)
    assert (tmp_path / "m.json").read_text() == measure_to_json(mu) + "\n"


def test_experiment_two_step_on_3x3_model(tmp_path, capsys):
    # both estimators take the model's three factors
    def edit(doc):
        doc["model"].update(A=np.eye(3).tolist(), latent="iid-pareto")
        doc["experiment"]["replicates"] = 3

    assert main(_experiment(edit)(tmp_path)) == 0
    rows = (tmp_path / "out" / "rows.csv").read_text().splitlines()[1:]
    tags = [row.split(",")[2] for row in rows]
    assert tags.count("conv") == tags.count("two-step") == 9
    stdout = capsys.readouterr().out
    assert "conv: slope=" in stdout and "two-step: slope=" in stdout


# Small valid inputs for the property below, named "<subcommand>[-<case>]".
# An estimate case names the estimator; a wasserstein input is the first
# measure file.
_ESTIMATORS = {
    "conv": {"kappa_bar": 1.0, "collapse_k": 2},
    "two_step": {"kappa_tilde": 0.3, "kappa": 1.0, "m": 2},
}
BASES = {
    "simulate": {
        "model": {
            "A": [[1.0, 0.0], [0.0, 1.0]],
            "alpha": 2.0,
            "s": 0.2,
            "latent": "iid-pareto",
            "n": 64,
            "seed": 7,
        }
    },
    "simulate-worst-case": {
        "model": {"A": "worst-case-diag", "alpha": 2.0, "s": 0.2, "n": 64, "seed": 7}
    },
    "estimate-conv": {"estimator": _ESTIMATORS},
    "estimate-two-step": {"estimator": _ESTIMATORS},
    "experiment": {
        "model": {
            "A": "worst-case-diag",
            "alpha": 2.0,
            "s": 0.4,
            "latent": "tilted-worst-case",
        },
        "estimator": _ESTIMATORS,
        "experiment": {
            "n_grid": [64, 128, 256],
            "replicates": 1,
            "base_seed": 1,
            "aggregate": "median",
        },
    },
    "wasserstein": {"atoms": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.8, 0.2]},
}
DELETE = object()
VALUES = [
    DELETE, 0, -1, 1, 3, 0.5, 1e-300, 5e-324, 1e300, 2**63, 10**400, NAN,
    float("inf"), True, None, "x", [], {}, "worst-case-diag", "iid-pareto",
    "tilted-worst-case", {"custom": [1.0, 4.0]}, [[1.0, 0.0], [0.0, 1.0]],
    [[5e-324, 0.0], [0.0, 1.0]], [[1e308, 0.0], [0.0, 1.0]], A_2X3, ["conv"],
]
# Sizes only cost time and memory: n, the grid and the replicate count take
# small values.
SIZE_KEYS = {"n", "n_grid", "replicates"}
SIZES = [DELETE, -1, 0, 1, 2, 3, 2.5, True, "x", [3], [3, 4, 5], [256, 128, 512]]


def _slots(doc, prefix=()):
    """Paths to every key of ``doc``'s objects, and to an unknown or
    removed key in each."""
    out = [prefix + (k,) for k in (*doc, "bogus", "alpha", "model")]
    for key, value in doc.items():
        if isinstance(value, dict):
            out += _slots(value, prefix + (key,))
    return sorted(set(out))


@st.composite
def cli_edits(draw):
    """(input name, path of the edited key, its new value or DELETE)."""
    name = draw(st.sampled_from(sorted(BASES)))
    path = draw(st.sampled_from(_slots(BASES[name])))
    if path[-1] in SIZE_KEYS:
        return name, path, draw(st.sampled_from(SIZES))
    return name, path, draw(st.one_of(st.sampled_from(VALUES), st.floats()))


@pytest.fixture(scope="module")
def property_batch(tmp_path_factory):
    out = tmp_path_factory.mktemp("batch") / "batch.csv"
    assert main(["simulate", "--config", _sim_config(out.parent, n=512), "--out", str(out)]) == 0
    return out


def _edited(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        parent.pop(path[-1], None)
    else:
        parent[path[-1]] = value
    return doc


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(cli_edits())
@example(("experiment", ("model", "alpha"), 1e-300))
@example(("experiment", ("model", "alpha"), 1e300))
@example(("experiment", ("model", "A"), [[5e-324, 0.0], [0.0, 1.0]]))
@example(("experiment", ("model", "A"), A_2X3))
@example(("estimate-conv", ("model",), {"alpha": 0.5, "s": 0.2}))
@example(("simulate", ("model", "latent"), {"custom": [1.0, 4.0]}))
@example(("simulate", ("model", "seed"), -1))
@example(("wasserstein", ("atoms",), {}))
@example(("wasserstein", ("atoms",), 10**400))
@example(("experiment", ("experiment",), 0))
@example(("simulate-worst-case", ("model", "s"), -171))
@example(("experiment", ("model", "s"), 0.5))
@example(("experiment", ("model", "alpha"), 0))
def test_cli_property_exit_code_and_one_line(property_batch, edit):
    """Any single-key edit of a small valid input exits 0, 1 or 2 with at
    most one line on stderr and no warning or traceback."""
    name, path, value = edit
    command, _, case = name.partition("-")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = _write(tmp / "doc.json", _edited(BASES[name], path, value))
        if command == "wasserstein":
            nu = _write(tmp / "nu.json", {"atoms": [[1.0, 0.0]], "weights": [1.0]})
            argv = ["wasserstein", doc, nu]
        elif command == "estimate":
            argv = ["estimate", case, str(property_batch), "--config", doc]
        else:
            argv = [command, "--config", doc]
        if command != "wasserstein":
            argv += ["--out", str(tmp / "out")]
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
    lines = stderr.getvalue().splitlines()
    assert rc in (0, 1, 2), lines
    assert len(lines) <= 1 and not caught, (lines, [str(w.message) for w in caught])
