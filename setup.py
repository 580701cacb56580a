"""Build script for the optional compiled flow-solver kernels.

`src/hhmon/_accel/flowkernels.c` is plain C, loaded through ctypes: building
it needs a C compiler and nothing else.  The package works without it (a
pure-numpy fallback is selected at import time), so a failed native build
downgrades to a warning instead of aborting the install.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, etc.
            warnings.warn(f"skipping native kernels, using pure-python fallback: {exc}")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping {ext.name}: {exc}")


# No FMA contraction and no -ffast-math: the kernels must round exactly like
# their numpy twins, element for element.
kernels = Extension(
    "hhmon._accel.flowkernels",
    ["src/hhmon/_accel/flowkernels.c"],
    extra_compile_args=["-O3", "-ffp-contract=off"],
)

setup(ext_modules=[kernels], cmdclass={"build_ext": OptionalBuildExt})
