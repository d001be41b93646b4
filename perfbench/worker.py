"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED WORK_DIR MODE [--tiny]

MODE is ``pass`` (timed, tracing off), ``trace`` (spans at every layer
boundary) or ``reference`` (the untimed outputs the gates compare with).
The caller times interpreter start; this process reports the monotonic
time at which import and workload construction finished.
"""

import json
import os
import platform
import resource
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tailfactor  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_context():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "backend": getattr(tailfactor, "BACKEND", None),
        "tailfactor_file": tailfactor.__file__,
    }


def main(argv):
    name, seed, work_dir, mode = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    tiny = "--tiny" in argv
    tracer = Tracer(full=(mode == "trace"))
    tracer.install()
    workload = WORKLOADS[name](seed, work_dir, tiny)
    ready = time.monotonic()
    if mode == "reference":
        return {"ready": ready, **workload.reference()}

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    workload.run()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    record = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    }
    if tracer.full:
        record["layers"] = layer_metrics(tracer.spans, workload.threads)
        record["spans"] = tracer.spans
    record.update(workload.summary(tracer))
    record["context"] = run_context()
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
