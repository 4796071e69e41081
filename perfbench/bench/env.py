"""Environment stamp stored in every record.

Results from different engine lanes (NumPy or the ``REPRO_NO_NUMPY=1``
scalar engine) or different service hashers measure different code and
are not comparable; :func:`comparable` says whether two stamps may be
compared.
"""

from __future__ import annotations

import os
import platform
import sys


def stamp() -> dict:
    from repro.core import cellbank
    from repro.service.defaults import SERVICE_HASHER

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "numpy": numpy_version,
        "lane": "numpy" if cellbank.NUMPY_LANE else "scalar",
        "service_hasher": SERVICE_HASHER,
        "machine": platform.machine(),
    }


COMPARABLE_KEYS = ("lane", "service_hasher", "nproc", "python")


def comparable(a: dict, b: dict) -> bool:
    """True when two records ran the same engine lane, hasher and host shape."""
    return all(a.get(key) == b.get(key) for key in COMPARABLE_KEYS)
