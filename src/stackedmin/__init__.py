"""Numerical node-opening construction of stacked minimal surfaces in T x R."""

import ctypes
import os

__version__ = "0.1.0"


def _fix_malloc_thresholds(libc) -> None:
    """Fix glibc's mmap (-3) and trim (-1) thresholds at 4 and 16 MiB; without
    mallopt, keep the defaults.  Under the dynamic thresholds the residual
    evaluator's 0.1-0.5 MB arrays grew and trimmed the heap per chunk: about
    35,000-70,000 minor faults per K = 8 pair solve, under 100 with these."""
    for param, value in ((-3, 4 << 20), (-1, 16 << 20)):
        getattr(libc, "mallopt", lambda *_: 0)(param, value)


_fix_malloc_thresholds(ctypes.CDLL(None) if os.name == "posix" else None)
