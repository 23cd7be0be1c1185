"""Process set-up shared by the benchmark entry points.

Imports nothing outside the standard library, so it runs before numpy is
loaded: the BLAS thread pin only takes effect if it is set before the
first numpy import.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class MissingSource(RuntimeError):
    """The checkout holds no facilab sources to benchmark."""


def prepare() -> Path:
    """Pin BLAS to one thread and put the checkout's ``src`` first on the path.

    The package is always imported from this checkout, never from an
    installed copy, so a checkout without ``src/facilab`` is an error.
    """
    if not (SRC / "facilab" / "__init__.py").is_file():
        raise MissingSource(f"no facilab sources under {SRC}")
    os.environ.update(BLAS_PIN)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return ROOT


def check_imported_from_checkout(module) -> None:
    path = Path(module.__file__).resolve()
    if SRC not in path.parents:
        raise MissingSource(f"facilab was imported from {path}, not from {SRC}")
