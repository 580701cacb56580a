"""Compiled build of the flow-solver kernels: a ctypes binding of flowkernels.c.

`build(directory)` returns the path of the shared library compiled from
flowkernels.c with FLAGS, `flowkernels-<key>.so`, where the key hashes the
source and the flags: a library built from other C or with other flags is
never loaded, and neither is one of another name.  When that file is
missing, `build` compiles it once with the C compiler Python was built
with, into a temp file unique to the process, and moves it into place, so
concurrent first builds leave one whole library.  It then removes the
libraries of other keys from the directory, which every edit of the C or
its flags would otherwise leave behind.  A hit reads and hashes
the 11 KB source and nothing more: `subprocess` and `sysconfig` are imported
only to compile.  `backend` builds into this directory on import.

`CompiledKernels(path)` loads that library (raising OSError when it does not
load, AttributeError when it lacks an entry point) and offers the three
`_purekernels` entry points with the same arguments and return values, bit
for bit but for the sign of a NaN (see `_purekernels`):
(P, H, W) stacks of planes in, one ctypes call per stack, and for
`tvl1_iterations` the largest iteration count over the planes as the last
element.  Every array is checked here, before a pointer reaches C, because
the C code trusts its buffers and sizes.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import re

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(HERE, "flowkernels.c")
_LIBRARY = re.compile(r"flowkernels-[0-9a-f]{16}\.so")
# No FMA contraction and no -ffast-math: the kernels must round exactly like
# their numpy twins, element for element.  -fno-math-errno lets sqrtf
# vectorize and -fno-trapping-math lets the primal step's selects; neither
# changes a value, as flowkernels.c's header says.
FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fno-trapping-math", "-fPIC",
         "-shared")

# Arrays go to C as bare addresses: _checked_shape has vetted them, and an
# ndpointer argtype would check each one again, at about 3 us per array and
# call, which the solver's small pyramid levels pay dozens of times a scene.
_ADDR = ctypes.c_void_p


# The dtypes of the coordinate arrays warp_coords returns: four corner
# indices, then two weights.
_COORD_DTYPES = (np.dtype(np.intp),) * 4 + (np.dtype(np.float64),) * 2


def _checked_shape(name: str, arrays, dtypes=None) -> tuple[int, int, int]:
    """The common shape of 3-D C-contiguous arrays, of the given dtypes
    (float32 where none are given), else ValueError."""
    shape = np.shape(arrays[0])
    for k, a in enumerate(arrays):
        dtype = dtypes[k] if dtypes else np.dtype(np.float32)
        if not (isinstance(a, np.ndarray) and a.ndim == 3 and a.dtype == dtype
                and a.flags.c_contiguous):
            raise ValueError(f"{name}: argument {k} must be a 3-D C-contiguous {dtype} "
                             f"array, got {getattr(a, 'dtype', type(a).__name__)} "
                             f"with shape {np.shape(a)}")
        if a.shape != shape:
            raise ValueError(f"{name}: argument {k} has shape {a.shape}, "
                             f"argument 0 has {shape}")
    return shape


def library_path(directory: str, source: str = SOURCE, flags=FLAGS) -> str:
    """Where the library compiled from `source` with `flags` lives in directory."""
    with open(source, "rb") as fh:
        key = hashlib.sha256(fh.read())
    key.update("\0".join(flags).encode())
    return os.path.join(directory, f"flowkernels-{key.hexdigest()[:16]}.so")


def compiler() -> list[str]:
    """The command of the C compiler Python was built with, else `cc`."""
    import sysconfig

    return (sysconfig.get_config_var("CC") or "cc").split()


def build(directory: str = HERE, source: str = SOURCE, flags=FLAGS) -> str:
    """The path of the keyed library in directory, compiled there first if missing.

    A compile removes every other `flowkernels-<key>.so` in directory; a
    process that has loaded one keeps its mapping.  Raises OSError when it
    cannot be built: no compiler, a failed compile or a directory it cannot
    write.
    """
    path = library_path(directory, source, flags)
    if os.path.exists(path):
        return path
    import subprocess

    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        done = subprocess.run([*compiler(), *flags, "-o", tmp, source, "-lm"],
                              capture_output=True, text=True, timeout=300)
        if done.returncode:
            raise OSError(f"compiling {source} failed:\n{done.stderr}")
        os.replace(tmp, path)
    except subprocess.TimeoutExpired as exc:
        raise OSError(f"compiling {source} timed out") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    for name in os.listdir(directory):
        if _LIBRARY.fullmatch(name) and name != os.path.basename(path):
            with contextlib.suppress(FileNotFoundError):  # a concurrent build removed it
                os.remove(os.path.join(directory, name))
    return path


class CompiledKernels:
    def __init__(self, path: str):
        lib = ctypes.CDLL(path)
        lib.warp_coords.argtypes = [_ADDR] * 8 + [ctypes.c_int] * 3
        lib.warp_coords.restype = None
        lib.warp_bilinear.argtypes = [_ADDR] * 8 + [ctypes.c_int] * 3
        lib.warp_bilinear.restype = ctypes.c_int
        lib.tvl1_iterations.argtypes = ([_ADDR] * 12 + [ctypes.c_int] * 3
                                        + [ctypes.c_double] * 3
                                        + [ctypes.c_int, ctypes.c_double])
        lib.tvl1_iterations.restype = ctypes.c_int
        self._lib = lib

    def warp_coords(self, u, v) -> tuple:
        """Where bilinear sampling at (x + u, y + v) reads each pixel of a stack."""
        shape = _checked_shape("warp_coords", (u, v))
        coords = tuple(np.empty(shape, dtype=d) for d in _COORD_DTYPES)
        self._lib.warp_coords(*(a.ctypes.data for a in (u, v, *coords)), *shape)
        return coords

    def warp_bilinear(self, img, coords) -> np.ndarray:
        """Sample img with bilinear weights at the coordinates `warp_coords` found.

        The six coordinate arrays count as arguments 1 to 6 in errors.
        """
        if not (isinstance(coords, tuple) and len(coords) == len(_COORD_DTYPES)):
            raise ValueError("warp_bilinear: coords must be the 6-tuple warp_coords returns")
        shape = _checked_shape("warp_bilinear", (img, *coords),
                               (np.dtype(np.float32), *_COORD_DTYPES))
        out = np.empty(shape, dtype=np.float32)
        if self._lib.warp_bilinear(*(a.ctypes.data for a in (img, *coords, out)), *shape):
            raise ValueError("warp_bilinear: a coordinate index falls outside the stack")
        return out

    def tvl1_iterations(self, I1wx, I1wy, rho_c, grad, u1, u2, p11, p12, p21, p22,
                        lam, theta, tau, n_iters, stop_eps2) -> tuple:
        """Primal-dual fixed-point loop for one warp of the flow solver.

        Each plane stops on its own.  Updates the flow and dual fields in
        place and returns them with the largest iteration count of any plane.
        """
        fields = (I1wx, I1wy, rho_c, grad, u1, u2, p11, p12, p21, p22)
        shape = _checked_shape("tvl1_iterations", fields)
        if not (shape[1] and shape[2]):
            raise ValueError(f"tvl1_iterations: planes of shape {shape[1:]} have no pixel")
        u1n, u2n = np.empty_like(u1), np.empty_like(u2)
        planes = (I1wx, I1wy, rho_c, grad, u1, u2, u1n, u2n, p11, p12, p21, p22)
        done = self._lib.tvl1_iterations(
            *(a.ctypes.data for a in planes), *shape,
            float(lam), float(theta), float(tau), int(n_iters), float(stop_eps2))
        if done < 0:
            raise MemoryError("tvl1_iterations: cannot allocate a row of zeros")
        return u1, u2, p11, p12, p21, p22, done
