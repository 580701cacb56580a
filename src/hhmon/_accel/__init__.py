"""Compiled build of the flow-solver kernels: a ctypes binding of flowkernels.c.

`setup.py build_ext` compiles flowkernels.c into a shared library;
`CompiledKernels(directory)` loads it from that directory (raising OSError
when it is not there) and offers the two `_purekernels` entry points with
the same arguments and return values: (P, H, W) stacks of planes in, one
ctypes call per stack, and for `tvl1_iterations` the largest iteration
count over the planes as the last element.  Every array is checked here,
before a pointer reaches C, because the C code trusts its buffers and sizes.
"""

from __future__ import annotations

import ctypes

import numpy as np

# Arrays go to C as bare addresses: _checked_shape has vetted them, and an
# ndpointer argtype would check each one again, at about 3 us per array and
# call, which the solver's small pyramid levels pay dozens of times a scene.
_ADDR = ctypes.c_void_p


def _checked_shape(name: str, *arrays) -> tuple[int, int, int]:
    """The common shape of 3-D C-contiguous float32 arrays, else ValueError."""
    shape = np.shape(arrays[0])
    for k, a in enumerate(arrays):
        if not (isinstance(a, np.ndarray) and a.ndim == 3 and a.dtype == np.float32
                and a.flags.c_contiguous):
            raise ValueError(f"{name}: argument {k} must be a 3-D C-contiguous float32 "
                             f"array, got {getattr(a, 'dtype', type(a).__name__)} "
                             f"with shape {np.shape(a)}")
        if a.shape != shape:
            raise ValueError(f"{name}: argument {k} has shape {a.shape}, "
                             f"argument 0 has {shape}")
    return shape


class CompiledKernels:
    def __init__(self, directory: str):
        lib = np.ctypeslib.load_library("flowkernels", directory)
        lib.warp_bilinear.argtypes = [_ADDR] * 4 + [ctypes.c_int] * 3
        lib.warp_bilinear.restype = None
        lib.tvl1_iterations.argtypes = ([_ADDR] * 12 + [ctypes.c_int] * 3
                                        + [ctypes.c_double] * 3
                                        + [ctypes.c_int, ctypes.c_double])
        lib.tvl1_iterations.restype = ctypes.c_int
        self._lib = lib

    def warp_bilinear(self, img, u, v) -> np.ndarray:
        """Sample img at (x + u, y + v) with bilinear weights, clamping to borders."""
        shape = _checked_shape("warp_bilinear", img, u, v)
        out = np.empty(shape, dtype=np.float32)
        self._lib.warp_bilinear(*(a.ctypes.data for a in (img, u, v, out)), *shape)
        return out

    def tvl1_iterations(self, I1wx, I1wy, rho_c, grad, u1, u2, p11, p12, p21, p22,
                        lam, theta, tau, n_iters, stop_eps2) -> tuple:
        """Primal-dual fixed-point loop for one warp of the flow solver.

        Each plane stops on its own.  Updates the flow and dual fields in
        place and returns them with the largest iteration count of any plane.
        """
        fields = (I1wx, I1wy, rho_c, grad, u1, u2, p11, p12, p21, p22)
        shape = _checked_shape("tvl1_iterations", *fields)
        u1n, u2n = np.empty_like(u1), np.empty_like(u2)
        planes = (I1wx, I1wy, rho_c, grad, u1, u2, u1n, u2n, p11, p12, p21, p22)
        done = self._lib.tvl1_iterations(
            *(a.ctypes.data for a in planes), *shape,
            float(lam), float(theta), float(tau), int(n_iters), float(stop_eps2))
        return u1, u2, p11, p12, p21, p22, done
