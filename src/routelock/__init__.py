"""Route-locked dual-expert decoder, exact-gradient verification lab, leakage harness.

Importing the package pins glibc's malloc thresholds for the whole process (see ``_pin_malloc``).
"""

import ctypes

__version__ = "0.1.0"


def _pin_malloc() -> None:
    """Fix glibc's heap-trim and mmap thresholds; a no-op where libc or its ``mallopt`` is missing.

    Left dynamic, glibc raises both thresholds to the largest block freed so far, so whether a
    training step's temporaries come from the heap or are page-faulted in anew after each trim
    depends on the process's allocation history, down to the length of its file paths. Pinned,
    a demo-size training epoch takes hundreds of minor faults instead of tens of thousands.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: return the heap top to the system only past 256 MiB free
    mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD: serve blocks below 64 MiB from the heap


_pin_malloc()
