"""The environment a measurement came from.

Only process-level timers (``time.perf_counter``, ``time.monotonic``)
and ``resource.getrusage`` are used.  There is no system-wide tracing
and there are no hardware counters.
"""

import ctypes
import os
import platform
from pathlib import Path

MEASUREMENT = ("process-level timers (time.perf_counter, time.monotonic) and "
               "resource.getrusage only; no system-wide tracing, no hardware "
               "counters")

# The benchmark runs single-threaded; these pin BLAS and OpenMP pools.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine():
    """Facts about the host, readable without numpy."""
    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "measurement": MEASUREMENT,
    }


def _blas_threads():
    """Thread count OpenBLAS reports, from the library numpy loaded."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return "unknown"
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def runtime():
    """Library versions and the BLAS thread count in this process."""
    import numpy
    import scipy

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            **{k: os.environ.get(k, "") for k in THREAD_ENV}}
