"""Thread control of numpy's bundled OpenBLAS, without third-party helpers.

numpy wheels ship a private OpenBLAS (``numpy.libs/`` on Linux,
``numpy/.dylibs/`` on macOS) whose thread-count entry points are plain C
symbols, reachable through :mod:`ctypes`.  Campaign workers use them to
split the host's cores between processes instead of letting every worker
start one BLAS thread per core.  When no such library is found (a numpy
built against a system BLAS, say) both functions report that nothing is
controllable and change nothing.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from typing import Any, Optional, Tuple

import numpy as np

__all__ = ["blas_threads", "limit_blas_threads"]

#: ``(getter, setter)`` symbol pairs across OpenBLAS builds: the ILP64 and
#: LP64 scipy-openblas wheels, then older unprefixed builds.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.lru_cache(maxsize=None)
def _openblas() -> Optional[Tuple[Any, Any]]:
    """``(get, set)`` thread functions of numpy's OpenBLAS, or None."""
    package = os.path.dirname(np.__file__)
    patterns = (
        os.path.join(package, os.pardir, "numpy.libs", "*openblas*"),
        os.path.join(package, ".dylibs", "*openblas*"),
    )
    for path in sorted(p for pattern in patterns for p in glob.glob(pattern)):
        try:
            # dlopen of an already-loaded file returns numpy's own handle.
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for getter, setter in _SYMBOLS:
            if hasattr(library, getter) and hasattr(library, setter):
                get, set_ = getattr(library, getter), getattr(library, setter)
                get.argtypes = []
                get.restype = ctypes.c_int
                set_.argtypes = [ctypes.c_int]
                set_.restype = None
                return get, set_
    return None


def blas_threads() -> Optional[int]:
    """Threads numpy's OpenBLAS may use, or None when it is not controllable."""
    functions = _openblas()
    return None if functions is None else int(functions[0]())


def limit_blas_threads(threads: int) -> bool:
    """Cap numpy's OpenBLAS at ``threads`` threads; False when not controllable.

    Setting the count a forked process already has is skipped: OpenBLAS
    answers any set after a fork by re-creating its thread pool at full
    width, whose idle helpers then spin on the cores for a while.
    """
    functions = _openblas()
    if functions is None:
        return False
    get, set_ = functions
    threads = max(1, int(threads))
    if get() != threads:
        set_(threads)
    return True
