"""Process set-up shared by the benchmark's entry points.

``prepare()`` must run before numpy is imported: BLAS and OpenMP read their
thread count once, when they load.  It then puts the checkout's own ``src``
first on the import path, so the benchmark always measures the sources next
to it and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no submax sources to benchmark."""


def prepare() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    package = SRC / "submax"
    if not (package / "__init__.py").is_file():
        raise MissingProgram(f"no submax sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import submax
    if Path(submax.__file__).resolve().parent != package:
        raise MissingProgram(
            f"submax was imported from {submax.__file__}, not from {package}")


def environment() -> dict:
    """What the timings depend on, recorded with every result."""
    import numpy as np
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": sys.version.split()[0]}
