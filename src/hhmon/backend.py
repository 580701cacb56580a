"""Kernel backend selection.

The flow solver's kernels exist twice: a hand-written C library bound
through ctypes (`_accel`) and a pure numpy fallback with identical
semantics (`_purekernels`).  On import this module loads the C library from
beside its source, `_accel/flowkernels-<key>.so`, and compiles it there
first when it is missing: once per checkout or install and per edit of the
C or its flags, about 0.8 s on that import (`_accel.build`).  Any failure
(no C compiler, a directory it cannot write, a failed compile, a library
that does not load) selects the pure kernels, which give the same bits but
for the sign of a NaN, as `_purekernels` says.
`BACKEND` names the selected one, and `KERNELS` the entry points that
both offer and this module exports.  Both take (P, H, W) stacks of planes,
as `_purekernels` describes.
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

KERNELS = ("warp_coords", "warp_bilinear", "gaussian_blur", "data_terms", "tvl1_iterations")

warp_coords = kernels.warp_coords
warp_bilinear = kernels.warp_bilinear
gaussian_blur = kernels.gaussian_blur
data_terms = kernels.data_terms
tvl1_iterations = kernels.tvl1_iterations
