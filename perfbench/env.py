"""Process environment of the benchmark: BLAS pinning and the program import.

Import this module, and call :func:`pin_blas`, before anything imports numpy.
OpenBLAS reads its thread count once, when numpy loads it; forked pool
workers inherit both the variables and the already-initialised library.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path
from types import SimpleNamespace

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class ProgramMissing(RuntimeError):
    """The checkout holds no corridor-kit sources to benchmark."""


def pin_blas() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


MODULES = (
    "analysis", "fixture", "fleet", "lp", "mga", "network", "pathway",
    "reduction", "runner", "scenarios", "simplex", "translate",
)


def import_program() -> SimpleNamespace:
    """Import corridor-kit's modules from this checkout's ``src``, never from elsewhere.

    Returns one attribute per module (``ck.translate`` is the module, which the
    package namespace shadows with the function of the same name).
    """
    init = SRC / "corridor_kit" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no corridor_kit sources at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("corridor_kit")
    if Path(package.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"corridor_kit imported from {package.__file__}, not {init}")
    return SimpleNamespace(**{name: importlib.import_module(f"corridor_kit.{name}") for name in MODULES})


def describe() -> dict:
    """The facts a reader needs to compare two runs of the benchmark."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
