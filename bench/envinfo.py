"""The environment a run was measured in: interpreter, numpy, scipy, BLAS
library and its thread count, usable CPUs and cache sizes."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

# glibc sysconf names (bits/confname.h); Python's os.sysconf lacks them
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def _sysconf(name: int):
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        value = libc.sysconf(name)
    except (OSError, AttributeError):
        return None
    return value if value > 0 else None


def _blas() -> dict:
    info = {"name": None, "version": None, "threads": None,
            "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = dep.get("name"), dep.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    # numpy's wheels bundle OpenBLAS; ask the loaded library for its threads
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def collect() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _sysconf(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _sysconf(_SC_LEVEL3_CACHE_SIZE),
        "machine": platform.machine(),
    }
