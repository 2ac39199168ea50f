"""The software and hardware a result was measured on."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys

import numpy as np
import scipy


def _blas():
    """(name and configuration, thread count) of the BLAS numpy uses."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        info = {}
    name = info.get("openblas configuration") or info.get("name") or "unknown"
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas_", "openblas_"):
            get_threads = getattr(handle, f"{prefix}get_num_threads64_", None)
            get_config = getattr(handle, f"{prefix}get_config64_", None)
            if get_threads is not None:
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                threads = int(get_threads())
            if get_config is not None:
                # the configuration the library chose at run time (core type)
                get_config.restype, get_config.argtypes = ctypes.c_char_p, []
                name = get_config().decode()
    return name, threads


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas, threads = _blas()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_requested": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
    }
