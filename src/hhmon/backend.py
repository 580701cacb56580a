"""Kernel backend selection.

The flow solver's inner loop exists twice: a hand-written C library bound
through ctypes (`_accel`, present once `setup.py build_ext --inplace` has
compiled it) and a pure numpy fallback with identical semantics.  The
compiled one wins when present; set HHMON_PURE_PY=1 to force the fallback.
Both take (P, H, W) stacks of planes, as `_purekernels` describes.
"""

from __future__ import annotations

import os

if os.environ.get("HHMON_PURE_PY", "0") not in ("", "0"):
    from . import _purekernels as kernels

    BACKEND = "pure"
else:
    try:
        from . import _accel

        kernels = _accel.CompiledKernels(os.path.dirname(_accel.__file__))  # type: ignore[assignment]
        BACKEND = "compiled"
    except (OSError, ImportError):
        from . import _purekernels as kernels  # type: ignore[no-redef]

        BACKEND = "pure"

warp_bilinear = kernels.warp_bilinear
tvl1_iterations = kernels.tvl1_iterations
