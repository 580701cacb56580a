"""Kernel backend selection.

The flow solver's inner loop exists twice: a hand-written C library bound
through ctypes (`_accel`) and a pure numpy fallback with identical
semantics (`_purekernels`).  On import this module loads the C library from
beside its source, `_accel/flowkernels-<key>.so`, and compiles it there
first when it is missing: once per checkout or install and per edit of the
C or its flags, about 0.4 s on that import (`_accel.build`).  Any failure
(no C compiler, a directory it cannot write, a failed compile, a library
that does not load) selects the pure kernels, which give the same bits but
for the sign of a NaN, as `_purekernels` says.
`BACKEND` names the selected one.  Both take (P, H, W) stacks of planes, as
`_purekernels` describes.
"""

from __future__ import annotations

# Imported on both backends, so that both leave the same allocation history:
# the peak RSS of a later train --stream rgb moves by megabytes with it
# (glibc's dynamic mmap threshold).
from . import _purekernels

try:
    from . import _accel

    kernels = _accel.CompiledKernels(_accel.build())
    BACKEND = "compiled"
except (ImportError, OSError, AttributeError):
    kernels = _purekernels
    BACKEND = "pure"

warp_coords = kernels.warp_coords
warp_bilinear = kernels.warp_bilinear
tvl1_iterations = kernels.tvl1_iterations
