"""Compiled and pure kernels must be interchangeable, bit for bit."""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from helpers import smooth_texture

from hhmon import _accel, _purekernels, backend
from hhmon.tvl1 import TvL1Params, _centered_gradient, tvl1_flow

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def accel(tmp_path_factory):
    """The C kernels, built by setup.py with its own flags into a temp dir.

    Never into src/: a library there would switch the package, and the
    benchmark run on this checkout, to the compiled backend.
    """
    cc = (sysconfig.get_config_var("CC") or "cc").split()[0]
    if shutil.which(cc) is None:
        pytest.skip(f"no C compiler ({cc})")
    out = tmp_path_factory.mktemp("accel")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out),
         "--build-temp", str(out)],
        cwd=REPO, capture_output=True, text=True)
    try:
        return _accel.CompiledKernels(str(out / "hhmon" / "_accel"))
    except OSError as exc:
        pytest.fail(f"build produced no kernel library ({exc}):\n{build.stdout}{build.stderr}")


def random_problem(rng, h=40, w=52):
    I1 = (smooth_texture(rng, h=h, w=w) * 255.0).astype(np.float32)
    I0 = np.roll(I1, 1, axis=1)
    I1x, I1y = _centered_gradient(I1)
    u1 = rng.normal(0, 0.5, (h, w)).astype(np.float32)
    u2 = rng.normal(0, 0.5, (h, w)).astype(np.float32)
    I1w = _purekernels.warp_bilinear(I1, u1, u2)
    I1wx = _purekernels.warp_bilinear(I1x, u1, u2)
    I1wy = _purekernels.warp_bilinear(I1y, u1, u2)
    grad = I1wx * I1wx + I1wy * I1wy
    rho_c = I1w - I1wx * u1 - I1wy * u2 - I0
    ps = [rng.normal(0, 0.1, (h, w)).astype(np.float32) for _ in range(4)]
    return I1wx, I1wy, rho_c, grad, u1, u2, ps


def test_warp_matches_pure_kernel(rng, accel):
    for trial in range(20):
        h, w = int(rng.integers(8, 40)), int(rng.integers(8, 40))
        img = rng.random((h, w)).astype(np.float32) * 255.0
        u = rng.normal(0, 3.0, (h, w)).astype(np.float32)
        v = rng.normal(0, 3.0, (h, w)).astype(np.float32)
        a = accel.warp_bilinear(img, u, v)
        b = _purekernels.warp_bilinear(img, u, v)
        assert np.array_equal(a, b), f"trial {trial}"


def test_iterations_match_pure_kernel(rng, accel):
    for trial in range(10):
        I1wx, I1wy, rho_c, grad, u1, u2, ps = random_problem(rng)
        args = (0.15, 0.3, 0.25, 12, 0.0)
        got = accel.tvl1_iterations(
            I1wx, I1wy, rho_c, grad, u1.copy(), u2.copy(),
            *(p.copy() for p in ps), *args)
        want = _purekernels.tvl1_iterations(
            I1wx, I1wy, rho_c, grad, u1.copy(), u2.copy(),
            *(p.copy() for p in ps), *args)
        assert got[6] == want[6]
        for k, (a, b) in enumerate(zip(got[:6], want[:6])):
            assert np.array_equal(a, b), f"trial {trial} field {k}"


def test_early_stop_agrees(rng, accel):
    I1wx, I1wy, rho_c, grad, u1, u2, ps = random_problem(rng)
    args = (0.15, 0.3, 0.25, 200, 1e-4)
    got = accel.tvl1_iterations(
        I1wx, I1wy, rho_c, grad, u1.copy(), u2.copy(),
        *(p.copy() for p in ps), *args)
    want = _purekernels.tvl1_iterations(
        I1wx, I1wy, rho_c, grad, u1.copy(), u2.copy(),
        *(p.copy() for p in ps), *args)
    assert got[6] == want[6] < 200
    for a, b in zip(got[:6], want[:6]):
        assert np.array_equal(a, b)


BAD_INPUTS = {
    "not 2-D": lambda a: a[None],
    "not float32": lambda a: a.astype(np.float64),
    "not C-contiguous": np.asfortranarray,
    "another shape": lambda a: a[:4, :4].copy(),
}


@pytest.mark.parametrize("fault", BAD_INPUTS)
def test_compiled_kernels_reject_bad_arrays(rng, accel, fault):
    img = rng.random((64, 64), dtype=np.float32)
    warp_args = [img, img.copy(), img.copy()]
    I1wx, I1wy, rho_c, grad, u1, u2, ps = random_problem(rng)
    iter_args = [I1wx, I1wy, rho_c, grad, u1, u2, *ps]
    for kernel, arrays, scalars in ((accel.warp_bilinear, warp_args, ()),
                                    (accel.tvl1_iterations, iter_args,
                                     (0.15, 0.3, 0.25, 12, 0.0))):
        for k in range(len(arrays)):
            bad = list(arrays)
            bad[k] = BAD_INPUTS[fault](bad[k])
            with pytest.raises(ValueError, match=rf"argument {k}\b"):
                kernel(*bad, *scalars)


def test_compiled_warp_clamps_nan_displacements_into_the_image(rng, accel):
    img = rng.random((12, 16), dtype=np.float32)
    u = np.full(img.shape, np.nan, dtype=np.float32)
    out = accel.warp_bilinear(img, u, np.zeros_like(u))
    assert np.array_equal(out, np.repeat(img[:, :1], 16, axis=1))


def test_full_solver_identical_across_backends(rng, monkeypatch, accel):
    tex = smooth_texture(rng)
    moved = np.roll(tex, 1, axis=1)
    monkeypatch.setattr(backend, "warp_bilinear", accel.warp_bilinear)
    monkeypatch.setattr(backend, "tvl1_iterations", accel.tvl1_iterations)
    compiled = tvl1_flow(tex, moved)

    monkeypatch.setattr(backend, "warp_bilinear", _purekernels.warp_bilinear)
    monkeypatch.setattr(backend, "tvl1_iterations", _purekernels.tvl1_iterations)
    pure = tvl1_flow(tex, moved)

    assert np.array_equal(compiled.flow, pure.flow)
    assert compiled.energies == pure.energies


def test_env_var_forces_pure_backend():
    code = "import hhmon.backend as b; print(b.BACKEND)"
    env = dict(os.environ, HHMON_PURE_PY="1")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "pure"


def test_selected_backend_is_reported():
    assert backend.BACKEND in ("compiled", "pure")
    assert callable(backend.warp_bilinear)
    assert callable(backend.tvl1_iterations)
