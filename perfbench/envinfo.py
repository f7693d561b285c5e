"""The environment a result was measured in.

The BLAS thread count moves every timing a lot (cv_estimate runs far
faster with one OpenBLAS thread than with two on a 2-core machine), so
each result records the thread variables and what the loaded BLAS
libraries report.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy
import scipy

_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas_build() -> dict:
    try:
        config = numpy.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints
        return {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    counts = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib_path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(lib_path))
            for symbol in _THREAD_SYMBOLS:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    counts[f"{package.__name__}:{lib_path.name}"] = fn()
                    break
    return counts


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "blas_threads": _blas_threads(),
    }
