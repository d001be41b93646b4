"""Self-test of the benchmark at a tiny size: python3 perfbench/run.py --self-test

Checks that every metric named in BENCHMARK.json is emitted with its unit
for every workload, traced and untraced; that the transport checker rejects
a perturbed objective; and that the determinism checker rejects differing
output bytes.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run
from checks import digest_mismatches, finite_number, linprog_wpp, transport_mismatches

sys.path.insert(0, str(run.ROOT / "src"))


def _metrics_emitted(spec) -> list:
    problems = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=0.0, trace=trace, tiny=True)
            result, _ = run.run_benchmark(args)
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            if set(got) != {m["name"] for m in wanted}:
                problems.append(f"{workload} trace={trace}: metric names {sorted(got)}")
            for m in wanted:
                entry = got.get(m["name"], {})
                if entry.get("unit") != m["unit"] or not finite_number(entry.get("value")):
                    problems.append(f"{workload} trace={trace}: {m['name']} -> {entry}")
            if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
                problems.append(f"{workload} trace={trace}: attempted={result['attempted']}")
    return problems


def _transport_checker() -> list:
    import tailfactor
    from workloads import TransportD3

    problems = []
    mu, nu, p = TransportD3(7, None, True).problems()[1]
    obj, _ = tailfactor.wasserstein_pp(mu, nu, p)
    ref = linprog_wpp(mu, nu, p)
    if transport_mismatches([obj], [ref]):
        problems.append(f"exact objective {obj!r} rejected against linprog {ref!r}")
    if not transport_mismatches([obj * (1 + 1e-6)], [ref]):
        problems.append("objective perturbed by 1e-6 relative was accepted")
    return problems


def _determinism_checker() -> list:
    from workloads import _digests

    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        dirs = [Path(tmp) / name for name in ("a", "b", "c")]
        for d, last in zip(dirs, ("1\n", "1\n", "2\n")):
            d.mkdir()
            (d / "rows.csv").write_text("n,error\n2048,0.5\n")
            (d / "slopes.csv").write_text("estimator,slope\nconv,-0." + last)
        a, b, c = (_digests(d) for d in dirs)
    problems = []
    if digest_mismatches(a, b, "a vs b"):
        problems.append("identical bytes reported as differing")
    if not digest_mismatches(a, c, "a vs c"):
        problems.append("differing bytes were accepted")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failed = False
    for name, check in (
        ("metrics emitted with units", lambda: _metrics_emitted(spec)),
        ("transport checker rejects a perturbed objective", _transport_checker),
        ("determinism checker rejects differing bytes", _determinism_checker),
    ):
        problems = check()
        print(f"[{'FAIL' if problems else 'PASS'}] {name}")
        for p in problems:
            print(f"    {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0
