"""Kernel backend selection.

The flow solver's inner loop exists twice: a hand-written C library bound
through ctypes (`_accel`, present once `setup.py build_ext --inplace` has
compiled it) and a pure numpy fallback with identical semantics.  The
compiled one is used whenever the library is present, the fallback
otherwise.  Both take (P, H, W) stacks of planes, as `_purekernels`
describes.
"""

from __future__ import annotations

import os

try:
    from . import _accel

    kernels = _accel.CompiledKernels(os.path.dirname(_accel.__file__))
    BACKEND = "compiled"
except (OSError, ImportError):
    from . import _purekernels as kernels  # type: ignore[no-redef]

    BACKEND = "pure"

warp_coords = kernels.warp_coords
warp_bilinear = kernels.warp_bilinear
tvl1_iterations = kernels.tvl1_iterations
