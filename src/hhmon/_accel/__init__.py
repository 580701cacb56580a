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
the 15 KB source and nothing more: `subprocess` and `sysconfig` are imported
only to compile.  `backend` builds into this directory on import.

`CompiledKernels(path)` loads that library (raising OSError when it does not
load, AttributeError when it lacks an entry point) and offers the
`_purekernels` entry points, `backend.KERNELS`, with the same arguments and
return values, bit for bit but for the sign of a NaN (see `_purekernels`):
(P, H, W) stacks of planes in, one ctypes call per stack, and for
`tvl1_iterations` the largest iteration count over the planes as the last
element.  Every array is checked here, before a pointer reaches C, because
the C code trusts its buffers and sizes; a warp's stack may hold at most
2^31 - 1 pixels, which its int32 index reaches, and a larger one raises
ValueError.  The hot loops of the library come in a baseline and an AVX2
build, and the loader picks one for the host.  The sampler has a scalar
body and, on x86-64, an AVX-512F one that a CPU check picks once, when the
library loads; `CompiledKernels.sampler` names the one it runs ("avx512f"
or "scalar").  All of them give the same bits (see flowkernels.c).  A
library built without the AVX-512F body (on another architecture or
compiler, or with `BASELINE_FLAGS`, which builds baseline x86-64 code
alone, to compare the dispatched build against) loads all the same and
runs the scalar sampler.
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
# The same library without the AVX2 clones and the AVX-512F sampler.
BASELINE_FLAGS = (*FLAGS, "-DHHMON_BASELINE")

# Arrays go to C as bare addresses: _checked_shape has vetted them, and an
# ndpointer argtype would check each one again, at about 3 us per array and
# call, which the solver's small pyramid levels pay dozens of times a scene.
_ADDR = ctypes.c_void_p


def _address(a: np.ndarray) -> int:
    """The address of a's data: through ctypes' buffer protocol, 0.55 us
    against 2.3 for `a.ctypes.data`, which serves the read-only and the
    empty arrays that a writable ctypes buffer refuses."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


# The dtypes of the coordinate arrays warp_coords returns: the top-left
# index, the corner bits, then the two fractions.
_COORD_DTYPES = (np.dtype(np.int32), np.dtype(np.uint8), np.dtype(np.float32),
                 np.dtype(np.float32))
_MAX_PIXELS = 2**31 - 1  # the stack an int32 index reaches


def _checked_pixels(name: str, shape) -> None:
    """ValueError when a warp's stack has more pixels than its index reaches."""
    if shape[0] * shape[1] * shape[2] > _MAX_PIXELS:
        raise ValueError(f"{name}: a stack of shape {shape} has more than 2**31 - 1 pixels, "
                         "which the int32 index cannot reach")


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
        lib.warp_coords.argtypes = [_ADDR] * 6 + [ctypes.c_int] * 3
        lib.warp_coords.restype = None
        lib.warp_bilinear.argtypes = [_ADDR] * 6 + [ctypes.c_int] * 3
        lib.warp_bilinear.restype = ctypes.c_int
        lib.warp_sampler.argtypes = []
        lib.warp_sampler.restype = ctypes.c_char_p
        lib.gaussian_blur.argtypes = [_ADDR, _ADDR, ctypes.c_int, _ADDR] + [ctypes.c_int] * 3
        lib.gaussian_blur.restype = ctypes.c_int
        lib.data_terms.argtypes = [_ADDR] * 8 + [ctypes.c_size_t]
        lib.data_terms.restype = None
        lib.tvl1_iterations.argtypes = ([_ADDR] * 12 + [ctypes.c_int] * 3
                                        + [ctypes.c_double] * 3
                                        + [ctypes.c_int, ctypes.c_double])
        lib.tvl1_iterations.restype = ctypes.c_int
        self._lib = lib
        self.sampler = lib.warp_sampler().decode()

    def warp_coords(self, u, v) -> tuple:
        """Where bilinear sampling at (x + u, y + v) reads each pixel of a stack."""
        shape = _checked_shape("warp_coords", (u, v))
        _checked_pixels("warp_coords", shape)
        coords = tuple(np.empty(shape, dtype=d) for d in _COORD_DTYPES)
        self._lib.warp_coords(*map(_address, (u, v, *coords)), *shape)
        return coords

    def warp_bilinear(self, img, coords) -> np.ndarray:
        """Sample img with bilinear weights at the coordinates `warp_coords` found.

        The four coordinate arrays count as arguments 1 to 4 in errors.
        """
        if not (isinstance(coords, tuple) and len(coords) == len(_COORD_DTYPES)):
            raise ValueError("warp_bilinear: coords must be the 4-tuple warp_coords returns")
        shape = _checked_shape("warp_bilinear", (img, *coords),
                               (np.dtype(np.float32), *_COORD_DTYPES))
        _checked_pixels("warp_bilinear", shape)
        out = np.empty(shape, dtype=np.float32)
        if self._lib.warp_bilinear(*map(_address, (img, *coords, out)), *shape):
            raise ValueError("warp_bilinear: a coordinate index falls outside the stack")
        return out

    def gaussian_blur(self, img, taps) -> np.ndarray:
        """Separable blur of each plane of a stack with odd float64 taps,
        edges replicated."""
        shape = _checked_shape("gaussian_blur", (img,))
        if not (isinstance(taps, np.ndarray) and taps.dtype == np.float64 and taps.ndim == 1
                and taps.size % 2 and taps.flags.c_contiguous):
            raise ValueError("gaussian_blur: taps must be an odd-length 1-D float64 array")
        if not (shape[1] and shape[2]):
            raise ValueError(f"gaussian_blur: planes of shape {shape[1:]} have no pixel")
        out = np.empty(shape, dtype=np.float32)
        if self._lib.gaussian_blur(_address(img), _address(taps), taps.size, _address(out),
                                   *shape):
            raise MemoryError("gaussian_blur: cannot allocate a scratch plane")
        return out

    def data_terms(self, I0, I1w, I1wx, I1wy, u1, u2) -> tuple:
        """(grad, rho_c) of one warp's linearization."""
        shape = _checked_shape("data_terms", (I0, I1w, I1wx, I1wy, u1, u2))
        grad, rho_c = np.empty(shape, dtype=np.float32), np.empty(shape, dtype=np.float32)
        self._lib.data_terms(*map(_address, (I0, I1w, I1wx, I1wy, u1, u2, grad, rho_c)),
                             grad.size)
        return grad, rho_c

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
            *map(_address, planes), *shape,
            float(lam), float(theta), float(tau), int(n_iters), float(stop_eps2))
        if done < 0:
            raise MemoryError("tvl1_iterations: cannot allocate a row of zeros")
        return u1, u2, p11, p12, p21, p22, done
