"""Run-configuration header: what the run found, never what it set.

The benchmark runs the program as users run it, so it pins no BLAS
thread count and sets no tuning environment variable.  It records the
CPU count, each OpenBLAS the process loaded (vendor, version, effective
threads read through ``ctypes``), interpreter and library versions and
the repository revision, so every figure can be traced back to the
configuration it was measured under.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from typing import Any

# Environment variables that change the program's threading if a user
# sets them; recorded as found.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_threads(path: str) -> int | None:
    """Effective thread count of the OpenBLAS at ``path`` (already loaded)."""
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for symbol in _THREAD_SYMBOLS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _blas(module) -> dict[str, Any]:
    """BLAS build info of ``numpy`` or ``scipy`` plus its live thread count."""
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        deps = {}
    libdir = os.path.join(os.path.dirname(os.path.dirname(module.__file__)),
                          f"{module.__name__}.libs")
    libs = sorted(glob.glob(os.path.join(libdir, "*openblas*")))
    return {
        "name": deps.get("name"),
        "version": deps.get("version"),
        "config": deps.get("openblas configuration"),
        "threads": _openblas_threads(libs[0]) if libs else None,
    }


def _git_sha(root: str) -> str | None:
    """Revision of the checkout from ``.git`` if there is one (no subprocess)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return None


def run_config(root: str, **service: Any) -> dict[str, Any]:
    """The header printed before every result (``service`` adds e.g.
    ``pool_size`` / ``fsync`` for the service workload)."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - loads scipy's own BLAS

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        usable = os.cpu_count()
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": usable,
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": _git_sha(root),
        **service,
    }
