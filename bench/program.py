"""Loads the zonegraph package from the checkout the benchmark runs in.

The benchmark is run from the root of a source checkout, never from an
installed copy, so that it measures the commit it sits in. Import this
module before numpy: it pins the BLAS and OpenMP pools to one thread first.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# `--workers` must mean what it says; this variable would cap it.
os.environ.pop("ZONEGRAPH_THREADS", None)

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent


class MissingProgram(RuntimeError):
    pass


def load():
    """Import zonegraph from ./src and return the package."""
    if not (SRC / "zonegraph" / "__init__.py").is_file():
        raise MissingProgram(f"no zonegraph sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import zonegraph

    if Path(zonegraph.__file__).resolve().parent != (SRC / "zonegraph").resolve():
        raise MissingProgram(f"imported zonegraph from {zonegraph.__file__}, not from {SRC}")
    return zonegraph
