"""tailfactor benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload conv-sampler --seed 20240601 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Each pass runs in a fresh interpreter (``worker.py``), as a CLI user would
pay for it.  Passes repeat on the same inputs until ``--seconds`` is used
up; timings are medians over passes.  With ``--trace 1`` untraced and
traced passes alternate, and the per-layer metrics come from the traced
ones.  After the timed window, one untimed reference pass gives what the
correctness gates compare against.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it, ``detail {...}``, holds the run context (machine,
versions, BLAS threads, commit, seed), failures by kind, gate failures and
output digests.  Spans of the last traced pass go to ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 20240601
RUN_LIMIT_S = 170.0  # hard cap on one run, passes and reference included

sys.path.insert(0, str(HERE))
from checks import finite_number, gate_failures  # noqa: E402

WORKLOADS = ("conv-sampler", "conv-kmeans", "two-step-threads", "transport-d3")


class BenchError(Exception):
    """A pass could not run; the benchmark prints no result."""


def _worker(args, run_dir: Path, mode: str, index: int, deadline: float) -> dict:
    pass_dir = run_dir / f"{mode}-{index:03d}"
    pass_dir.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(pass_dir), mode]
    if args.tiny:
        cmd.append("--tiny")
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - spawn, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} pass exceeded the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    record["index"] = index
    record["setup_s"] = record.pop("ready") - spawn
    record["process_s"] = time.monotonic() - spawn
    return record


def _measure(args, run_dir: Path, t_start: float):
    """Alternate modes until --seconds is used up; at least one pass each."""
    modes = ("pass", "trace") if args.trace else ("pass",)
    window_end = t_start + args.seconds
    hard_end = t_start + RUN_LIMIT_S
    records = {m: [] for m in modes}
    index = 0
    while True:
        mode = modes[index % len(modes)]
        done = records[mode]
        if all(records.values()):
            expected = max(r["process_s"] for r in done)
            if time.monotonic() + expected > window_end:
                break
        done.append(_worker(args, run_dir, mode, index, hard_end))
        index += 1
    return records, index, hard_end


def _median(records, key):
    return statistics.median(r[key] for r in records)


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_benchmark(args):
    """Run one workload; return the result object and the detail report."""
    if not (ROOT / "src" / "tailfactor" / "__init__.py").is_file():
        raise BenchError(f"tailfactor sources not found under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t_start = time.monotonic()
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        records, n_passes, hard_end = _measure(args, run_dir, t_start)
        reference = _worker(args, run_dir, "reference", n_passes, hard_end)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    plain = records["pass"]
    every = [r for rs in records.values() for r in rs]
    gates = gate_failures(args.workload, every, reference)

    if args.trace:
        traced = records["trace"]
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values["trace.overhead_s"] = _median(traced, "wall_s") - _median(plain, "wall_s")
        wanted = spec["per_layer"]
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.spans.json"
        spans_path.write_text(json.dumps(traced[-1]["spans"]) + "\n")
    else:
        values = {
            "setup_s": _median(plain, "setup_s"),
            "wall_s": _median(plain, "wall_s"),
            "cpu_s": _median(plain, "cpu_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if not finite_number(values.get(m["name"]))]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    failures = Counter()
    for r in every:
        failures.update(r["failures"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": {mode: len(rs) for mode, rs in records.items()},
        "wall_s_by_pass": {mode: [r["wall_s"] for r in rs] for mode, rs in records.items()},
        "failed_share": failed / attempted,
        **{f"harness.failed.{kind}": n for kind, n in sorted(failures.items())},
        "gate_failures": gates,
        "digests": every[0]["digests"],
        "slopes": every[0].get("slopes"),
        "context": {**every[0]["context"], "git_commit": _git_commit(), "source_sha256": _source_digest()},
        "run_s": time.monotonic() - t_start,
    }
    result = {"correct": not gates, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    p.set_defaults(tiny=False)  # the self-test runs workloads with tiny inputs
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main()
    try:
        result, detail = run_benchmark(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    for gate in detail["gate_failures"]:
        print(f"GATE FAILED: {gate}")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
