import hashlib
import json
import time

import numpy as np
import pytest

from tailfactor.cli import main
from tailfactor.measures import make_measure, measure_to_json


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
        {
            "model": {"alpha": 2.0, "s": 0.2},
            "estimator": {"conv": {"kappa_bar": 1.0}},
        },
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
        {
            "model": {"alpha": 2.0, "s": 0.2},
            "estimator": {
                "conv": {"kappa_bar": 1.0},
                "ground_truth": {"A": [[1.0, 0.0], [0.0, 1.0]]},
            },
        },
    )
    out = tmp_path / "measure.json"
    assert main(["estimate", "conv", str(batch), "--config", est, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.strip()
    assert 0.0 <= float(printed) < 0.5


def test_estimate_two_step_zero_exceedances_exits_one(tmp_path, capsys):
    sim = _sim_config(tmp_path, n=64)
    batch = tmp_path / "batch.csv"
    main(["simulate", "--config", sim, "--out", str(batch)])
    est = _write(
        tmp_path / "est.json",
        {
            "model": {"alpha": 2.0, "s": 0.2},
            "estimator": {
                "two_step": {"kappa_tilde": 1e9, "kappa": 1.0},
            },
        },
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


def _estimate(kind="conv", edit=lambda doc: None, spoil_batch=lambda csv: None):
    def argv(tmp_path):
        batch = tmp_path / "batch.csv"
        assert main(["simulate", "--config", _sim_config(tmp_path, n=4096), "--out", str(batch)]) == 0
        spoil_batch(batch)
        doc = {
            "model": {"alpha": 2.0, "s": 0.2},
            "estimator": {
                "conv": {"kappa_bar": 1.0},
                "two_step": {"kappa_tilde": 0.3, "kappa": 1.0},
                "ground_truth": {"A": [[1.0, 0.0], [0.0, 1.0]]},
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


def _nan_cell(csv):
    lines = csv.read_text().splitlines()
    lines[5] = "nan," + lines[5].split(",")[1]
    csv.write_text("\n".join(lines) + "\n")


def _threads(count):
    def argv(tmp_path):
        return ["--threads", count, *_experiment(lambda d: None)(tmp_path)]

    return argv


NAN = float("nan")
MALFORMED = {
    # (argv builder, fragment the one-line ConfigError must contain)
    "fixed-A-negative": (
        _experiment(lambda d: d["model"].update(A=[[1.0, 0.5], [-0.1, 1.0]], latent="iid-pareto")),
        "model.A",
    ),
    "two-step-on-d-3-model": (
        _experiment(
            lambda d: d["model"].update(A=np.eye(3).tolist(), latent="iid-pareto")
        ),
        "two-step m=2 but model d=3",
    ),
    "latent-custom": (_experiment(lambda d: d["model"].update(latent="custom")), "model.latent"),
    "worst-case-law-on-3x3-A": (
        _experiment(lambda d: d["model"].update(A=np.eye(3).tolist())),
        "worst-case latent law needs m=2",
    ),
    "alpha-nan": (_experiment(lambda d: d["model"].update(alpha=NAN)), "model.alpha"),
    "s-nan": (_experiment(lambda d: d["model"].update(s=NAN)), "model.s"),
    "kmeans-k-string": (
        _estimate(edit=lambda d: d["estimator"]["conv"].update(kmeans={"k": "abc"})),
        "estimator.conv: unknown key(s) ['kmeans']",
    ),
    "conv-alpha-string": (
        _estimate(edit=lambda d: d["estimator"]["conv"].update(alpha="two")),
        "estimator.conv.alpha",
    ),
    "ground-truth-alpha-string": (
        _estimate(edit=lambda d: d["estimator"]["ground_truth"].update(alpha="x")),
        "estimator.ground_truth.alpha",
    ),
    "simulate-ragged-A": (_simulate(A=[[1.0, 0.0], [0.0]]), "model.A"),
    "two-step-m-3-on-d-2": (
        _estimate("two-step", edit=lambda d: d["estimator"]["two_step"].update(m=3)),
        "estimator.two_step.m",
    ),
    "sidecar-without-alpha": (_estimate(spoil_batch=_drop_sidecar_alpha), "lacks key 'alpha'"),
    "misspelled-estimator-tag": (
        _experiment(lambda d: d["experiment"].update(estimators=["conv", "twostep"])),
        "experiment.estimators",
    ),
    "kmeans-k-7": (
        _estimate(edit=lambda d: d["estimator"]["conv"].update(kmeans={"k": 7})),
        "estimator.conv: unknown key(s) ['kmeans']",
    ),
    "two-step-det-tol": (
        _estimate("two-step", edit=lambda d: d["estimator"]["two_step"].update(det_tol=1e-8)),
        "estimator.two_step: unknown key(s) ['det_tol']",
    ),
    "simulate-n-1-fixed-A": (_simulate(n=1, latent="tilted-worst-case"), "model.n"),
    "simulate-n-1-worst-case-diag": (
        _simulate(n=1, A="worst-case-diag", latent="tilted-worst-case"),
        "model.n",
    ),
    "wasserstein-p-half": (_wasserstein("0.5"), "--p"),
    "wasserstein-p-nan": (_wasserstein("nan"), "--p"),
    "wasserstein-p-inf": (_wasserstein("inf"), "--p"),
    "ground-truth-A-negative": (
        _estimate(edit=lambda d: d["estimator"]["ground_truth"].update(A=[[1.0, -0.2], [0.0, 1.0]])),
        "estimator.ground_truth.A",
    ),
    "simulate-A-nan": (_simulate(A=[[1.0, NAN], [0.0, 1.0]]), "model.A"),
    "batch-csv-nan": (_estimate(spoil_batch=_nan_cell), "batch.csv"),
    "kappa-bar-infinity": (
        _experiment(lambda d: d["estimator"]["conv"].update(kappa_bar=float("inf"))),
        "estimator.conv.kappa_bar",
    ),
    "p-nan": (_experiment(lambda d: d["experiment"].update(p=NAN)), "experiment.p"),
    "threads-0": (_threads("0"), "--threads"),
    "threads-minus-1": (_threads("-1"), "--threads"),
    "experiment-s-tiny": (_experiment(lambda d: d["model"].update(s=1e-20)), "model.s"),
    "simulate-s-tiny": (_simulate(s=1e-20, A="worst-case-diag"), "model.s"),
    "simulate-s-tiny-fixed-A": (_simulate(s=1e-20, latent="tilted-worst-case"), "model.s"),
    "n-grid-bool": (
        _experiment(lambda d: d["experiment"].update(n_grid=[True, 2, 3])),
        "experiment.n_grid.0",
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
