"""Command-line interface: simulate, estimate, experiment, wasserstein.

Exit codes: 0 success, 1 runtime/domain error, 2 config or usage error.
"""

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, TailFactorError
from .estimators import (
    ConvConfig,
    TwoStepConfig,
    estimate_conventional,
    estimate_two_step,
)
from .harness import (
    ESTIMATOR_TAGS,
    ExperimentConfig,
    check_estimators,
    check_n_grid,
    check_replicates,
    emit_outputs,
    run_convergence_experiment,
)
from .measures import (
    ModelSpec,
    measure_from_json,
    measure_to_json,
    spectral_measure_of,
    validate_measure,
    _fmt,
)
from .sampling import (
    check_sample_size,
    generate_dataset,
    model_at,
    read_batch,
    write_batch,
)
from .transport import check_p, wasserstein_p

TOP_KEYS = {"model", "estimator", "experiment"}
MODEL_KEYS = {"A", "alpha", "s", "latent"}
# The sample's size and stream: only simulate draws one sample, so only it
# takes these keys; experiment takes its sizes and seeds from its own section.
SAMPLE_KEYS = {"n": MISSING, "seed": MISSING, "stream_id": 0}  # key -> default
ESTIMATORS = {"conv": ConvConfig, "two_step": TwoStepConfig}
# The factor count each section may still name; older configs send it, and
# it must be the model's m.
FACTOR_KEYS = {"conv": "collapse_k", "two_step": "m"}


def _check_keys(doc, allowed, path: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    return doc


def _require(doc, key: str, path: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ConfigError(f"{path}.{key}: missing required field")
    return doc[key]


def _is_finite_number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float64 range
        return False


def _number(doc, key, path, integer=False, default=MISSING):
    """``doc[key]`` as a finite number, of any range; ``default`` when absent."""
    if key not in doc and default is not MISSING:
        return default
    v = _require(doc, key, path)
    if not _is_finite_number(v):
        raise ConfigError(f"{path}.{key}: expected a finite number, got {v!r}")
    if integer and int(v) != v:
        raise ConfigError(f"{path}.{key}: expected an integer, got {v!r}")
    return int(v) if integer else float(v)


def _array(v, path: str) -> np.ndarray:
    """Nested lists of finite numbers, a 2-d array."""
    cells = np.array(v, dtype=object)
    numbers = all(_is_finite_number(c) for c in cells.flat)
    if cells.ndim != 2 or cells.size == 0 or not numbers:
        raise ConfigError(f"{path}: expected a 2-d array of finite numbers")
    return cells.astype(np.float64)


def _fields(doc, path: str, cls, extra=(), **given) -> dict:
    """Keyword arguments for ``cls`` read from the JSON object ``doc``.

    ``given`` holds the caller's fields, which ``doc`` may not set.  ``doc``
    may set the other int and float fields of ``cls``, each read by
    ``_number``, and the keys in ``extra``, which the caller reads.  Other
    absent fields keep the class default.
    """
    numbers = [f for f in fields(cls) if f.type in (int, float) and f.name not in given]
    _check_keys(doc, {*(f.name for f in numbers), *extra}, path)
    out = dict(given)
    for f in numbers:
        out[f.name] = _number(doc, f.name, path, f.type is int, f.default)
    return out


def _build(path: str, ctor, *args, **kwargs):
    """ctor(*args, **kwargs).  The config constructors validate their fields;
    a domain error they raise becomes a ConfigError at the config path."""
    try:
        return ctor(*args, **kwargs)
    except (ValueError, TailFactorError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not JSON
        raise ConfigError(f"cannot load config {path}: {exc}") from exc
    return _check_keys(doc, TOP_KEYS, "config")


def read_model(cfg: dict, sample=False) -> tuple:
    """The ``model`` section as ``model_at``'s (A, alpha, s, latent_kind),
    then n, seed and stream_id if ``sample`` (they are unknown keys
    otherwise).  ``A`` is None for "worst-case-diag", whose matrix depends
    on n."""
    keys = MODEL_KEYS | SAMPLE_KEYS.keys() if sample else MODEL_KEYS
    model = _check_keys(_require(cfg, "model", "config"), keys, "model")
    A = model.get("A", "worst-case-diag")
    out = (
        None if A == "worst-case-diag" else _array(A, "model.A"),
        _number(model, "alpha", "model"),
        _number(model, "s", "model"),
        model.get("latent", "tilted-worst-case"),
    )
    if sample:
        out += tuple(_number(model, k, "model", True, v) for k, v in SAMPLE_KEYS.items())
    return out


def estimator_config(cfg: dict, key: str, spec: ModelSpec):
    """ConvConfig (at the model ``spec``'s alpha and s) or TwoStepConfig of
    ``estimator.<key>``; the section sets only the tuning constants, and
    names the factor count only as spec.m."""
    est = _check_keys(_require(cfg, "estimator", "config"), ESTIMATORS, "estimator")
    cls, path, factors = ESTIMATORS[key], f"estimator.{key}", FACTOR_KEYS[key]
    section = _require(est, key, "estimator")
    model = {"alpha": spec.alpha, "s": spec.s} if cls is ConvConfig else {}
    kw = _fields(section, path, cls, (factors,), **model)
    if section.get(factors, spec.m) != spec.m:
        got = section[factors]
        raise ConfigError(f"{path}.{factors}: must be the model's m={spec.m}, got {got!r}")
    return _build(path, cls, **kw)


def experiment_config_from(cfg: dict, seed_override=None) -> ExperimentConfig:
    A, alpha, s, latent_kind = read_model(cfg)
    exp = _require(cfg, "experiment", "config")
    grid = _require(exp, "n_grid", "experiment")
    if not isinstance(grid, list):
        raise ConfigError("experiment.n_grid: expected a list of integers")
    grid = dict(enumerate(grid))
    n_grid = tuple(_number(grid, i, "experiment.n_grid", integer=True) for i in grid)
    _build("experiment.n_grid", check_n_grid, n_grid)
    # the estimator configs take the model's m (ConvConfig its alpha and s) at n_grid[0]
    spec = _build("model", model_at, A, alpha, s, latent_kind, n_grid[0])
    _build("experiment.n_grid", check_sample_size, n_grid[-1], max(spec.A.shape))
    tags = exp.get("estimators", list(ESTIMATOR_TAGS))
    if not isinstance(tags, list) or any(t not in ESTIMATOR_TAGS for t in tags):
        raise ConfigError(f"experiment.estimators: {tags!r} is not a list of tags")
    _build("experiment.estimators", check_estimators, tags)
    aggregate = exp.get("aggregate", "median")  # older configs name the only one
    if aggregate != "median":
        raise ConfigError(f"experiment.aggregate: only 'median', got {aggregate!r}")
    kw = _fields(
        exp,
        "experiment",
        ExperimentConfig,
        ("n_grid", "aggregate", "estimators"),
        n_grid=n_grid,
        conv=estimator_config(cfg, "conv", spec) if "conv" in tags else None,
        two_step=estimator_config(cfg, "two_step", spec) if "two-step" in tags else None,
        fixed_A=A,
        alpha=alpha,
        s=s,
        latent_kind=latent_kind,
    )
    _build("experiment.replicates", check_replicates, kw["replicates"])
    _build("experiment.p", check_p, kw["p"])
    if seed_override is not None:
        kw["base_seed"] = seed_override
    return _build("experiment", ExperimentConfig, **kw)


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_simulate(args) -> int:
    *at, n, seed, stream_id = read_model(load_config(args.config), sample=True)
    spec = _build("model", model_at, *at, n)
    _build("model.n", check_sample_size, n, max(spec.A.shape))
    seed = seed if args.seed_override is None else args.seed_override
    write_batch(generate_dataset(spec, n, seed, stream_id), args.out)
    return 0


def cmd_estimate(args) -> int:
    cfg = load_config(args.config)
    if "model" in cfg:
        raise ConfigError("model: estimate reads the model from the batch sidecar")
    batch = read_batch(args.batch)
    spec = batch.spec
    est_cfg = estimator_config(cfg, args.kind.replace("-", "_"), spec)
    if args.kind == "conv":
        mu, _ = estimate_conventional(batch, est_cfg)
    else:
        _, mu, _ = estimate_two_step(batch, est_cfg)
    Path(args.out).write_text(measure_to_json(mu) + "\n")
    print(_fmt(wasserstein_p(mu, spectral_measure_of(spec.A, spec.alpha), 1.0)))
    return 0


def cmd_experiment(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads: need an integer >= 1, got {args.threads}")
    cfg = load_config(args.config)
    exp_cfg = experiment_config_from(cfg, seed_override=args.seed_override)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # OSError exits 1 as IoError
    result = run_convergence_experiment(exp_cfg, threads=args.threads)
    emit_outputs(result, out_dir)
    for tag, (slope, _, r2, _) in sorted(result.slope_fits.items()):
        print(f"{tag}: slope={_fmt(slope)} r2={_fmt(r2)}")
    return 0


def cmd_wasserstein(args) -> int:
    try:
        mu = measure_from_json(Path(args.mu).read_text())
        nu = measure_from_json(Path(args.nu).read_text())
    except (ArithmeticError, OSError, TypeError, ValueError, TailFactorError) as exc:
        raise ConfigError(f"cannot load measure: {exc}") from exc
    if not validate_measure(mu) or not validate_measure(nu):
        raise ConfigError("input measure violates simplex-measure invariants")
    _build("--p", check_p, args.p)
    print(_fmt(wasserstein_p(mu, nu, args.p)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailfactor",
        description="Heavy-tailed factor models: simulation, spectral-measure "
        "estimation and convergence-rate experiments.",
    )
    parser.add_argument("--seed-override", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1, help="sweep threads, >= 1")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a sample batch CSV")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_est = sub.add_parser("estimate", help="estimate the spectral measure")
    p_est.add_argument("kind", choices=["conv", "two-step"])
    p_est.add_argument("batch", help="sample batch CSV (with JSON sidecar)")
    p_est.add_argument("--config", required=True)
    p_est.add_argument("--out", required=True)
    p_est.set_defaults(func=cmd_estimate)

    p_exp = sub.add_parser("experiment", help="run a convergence-rate sweep")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.set_defaults(func=cmd_experiment)

    p_w = sub.add_parser("wasserstein", help="W_p between two measure JSONs")
    p_w.add_argument("mu")
    p_w.add_argument("nu")
    p_w.add_argument("--p", type=float, default=1.0)
    p_w.set_defaults(func=cmd_wasserstein)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"ConfigError: {exc}", file=sys.stderr)
        return 2
    except TailFactorError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"IoError: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size numpy can index but the machine cannot hold
        print(f"MemoryError: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
