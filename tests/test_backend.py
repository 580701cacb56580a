"""Compiled and pure kernels must be interchangeable, bit for bit, and the
package must build the compiled ones itself, or fall back to pure.

Both take (P, H, W) stacks of planes; the single-plane tests lift their
planes to stacks of one.
"""

import os
import platform
import re
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import (expand_coords, gaussian_blur_oracle, smooth_texture, spy_warp_energies,
                     tree_bytes, tvl1_iterations_oracle, use_kernels, warp_bilinear_oracle,
                     warp_coords_oracle)

from hhmon import _accel, _purekernels, artifacts, backend, frameio, pipeline, synth, tvl1
from hhmon.config import PipelineConfig
from hhmon.frameio import FrameSequence
from hhmon.tvl1 import TvL1Params, _centered_gradient, flow_frames, sequence_flow, tvl1_flow

REPO = Path(__file__).resolve().parents[1]


HAS_CC = shutil.which(_accel.compiler()[0]) is not None
needs_cc = pytest.mark.skipif(not HAS_CC, reason="no C compiler")


@pytest.fixture(scope="module")
def accel(tmp_path_factory):
    """The C kernels, built by the package's builder into a temp dir."""
    if not HAS_CC:
        pytest.skip(f"no C compiler ({_accel.compiler()[0]})")
    return _accel.CompiledKernels(_accel.build(str(tmp_path_factory.mktemp("accel"))))


def random_problem(rng, h=40, w=52):
    I1 = (smooth_texture(rng, h=h, w=w) * 255.0).astype(np.float32)[None]
    I0 = np.roll(I1, 1, axis=2)
    I1x, I1y = _centered_gradient(I1)
    u1 = rng.normal(0, 0.5, (1, h, w)).astype(np.float32)
    u2 = rng.normal(0, 0.5, (1, h, w)).astype(np.float32)
    at = _purekernels.warp_coords(u1, u2)
    I1w, I1wx, I1wy = (_purekernels.warp_bilinear(img, at) for img in (I1, I1x, I1y))
    grad, rho_c = _purekernels.data_terms(I0, I1w, I1wx, I1wy, u1, u2)
    ps = [rng.normal(0, 0.1, (1, h, w)).astype(np.float32) for _ in range(4)]
    return I1wx, I1wy, rho_c, grad, u1, u2, ps


def test_warp_matches_pure_kernel(rng, accel):
    for trial in range(20):
        h, w = int(rng.integers(8, 40)), int(rng.integers(8, 40))
        img = rng.random((1, h, w)).astype(np.float32) * 255.0
        u = rng.normal(0, 3.0, (1, h, w)).astype(np.float32)
        v = rng.normal(0, 3.0, (1, h, w)).astype(np.float32)
        at = accel.warp_coords(u, v)
        for a, b in zip(at, _purekernels.warp_coords(u, v)):
            assert a.dtype == b.dtype and np.array_equal(a, b), f"trial {trial}"
        a = accel.warp_bilinear(img, at)
        b = _purekernels.warp_bilinear(img, at)
        assert np.array_equal(a, b), f"trial {trial}"


def oracle_warp(img, u, v):
    """Bilinear sampling one pixel at a time, the clamping rule spelled out."""
    out = np.empty_like(img)
    _, h, w = img.shape
    for k, y, x in np.ndindex(img.shape):
        xx = np.float32(x) + u[k, y, x]
        yy = np.float32(y) + v[k, y, x]
        xx = min(xx, np.float32(w - 1)) if xx >= 0 else np.float32(0)
        yy = min(yy, np.float32(h - 1)) if yy >= 0 else np.float32(0)
        x0, y0 = int(xx), int(yy)
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        fx, fy = float(xx) - x0, float(yy) - y0
        row0, row1 = img[k, y0], img[k, y1]
        top = float(row0[x0]) + fx * float(row0[x1] - row0[x0])
        bot = float(row1[x0]) + fx * float(row1[x1] - row1[x0])
        out[k, y, x] = np.float32(top + fy * (bot - top))
    return out


def test_one_coordinate_pass_warps_k_images_like_k_single_warps(rng, accel):
    # three images of a 2-plane stack share one coordinate pass and equal
    # the per-pixel oracle, NaN displacements (sampling column or row 0)
    # and displacements past every border included
    shape = (2, 7, 9)
    u = rng.normal(0, 6.0, shape).astype(np.float32)
    v = rng.normal(0, 6.0, shape).astype(np.float32)
    u[0, 2, :4] = np.nan
    v[1, :3, 5] = np.nan
    u[1, 4, 4], v[0, 6, 8] = np.inf, -np.inf
    images = [rng.random(shape, dtype=np.float32) * 255 - 100 for _ in range(3)]
    for kernels in (_purekernels, accel):
        at = kernels.warp_coords(u, v)
        for img in images:
            want = oracle_warp(img, u, v)
            assert np.array_equal(kernels.warp_bilinear(img, at), want)
            assert np.array_equal(kernels.warp_bilinear(img, kernels.warp_coords(u, v)), want)


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



def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def special_warp(rng, shape):
    """(u, v, img) of one shape: displacements of std 3 with NaN, +-inf,
    -0.0 and ones far outside the frame in a fifth of the cells, and ones
    that land exactly on the last column and row in a tenth; an image
    with -0.0 pixels."""
    p, h, w = shape
    u, v = (rng.normal(0, 3.0, shape).astype(np.float32) for _ in range(2))
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 1e30, -1e30, 5e3, -5e3],
                        dtype=np.float32)
    for a in (u, v):
        cells = rng.random(shape) < 0.2
        a[cells] = rng.choice(specials, int(cells.sum()))
    last = rng.random(shape) < 0.1
    y, x = np.mgrid[:h, :w].astype(np.float32)
    u[last] = np.broadcast_to(w - 1 - x, shape)[last]
    v[last] = np.broadcast_to(h - 1 - y, shape)[last]
    img = rng.random(shape, dtype=np.float32) * 255 - 100
    img[:, ::4, ::3] = -0.0
    return u, v, img


# a 1x144x192 plane has more than 8,192 pixels, where numpy's float64 sums buffer
@pytest.mark.parametrize("shape", [(3, 7, 9), (2, 31, 17), (1, 144, 192)])
def test_pure_warp_equals_its_first_version_bit_for_bit(rng, shape):
    u, v, img = special_warp(rng, shape)
    at, want_at = _purekernels.warp_coords(u, v), warp_coords_oracle(u, v)
    assert [a.dtype for a in at] == [np.int32, np.uint8, np.float32, np.float32]
    assert all(same_bits(a, b) for a, b in zip(expand_coords(at, shape[2]), want_at))
    for image in (img, *_centered_gradient(img)):
        assert same_bits(_purekernels.warp_bilinear(image, at),
                         warp_bilinear_oracle(image, want_at))


@pytest.mark.parametrize("shape", [(3, 7, 9), (2, 31, 17), (1, 1, 5), (2, 4, 1), (1, 144, 192)])
def test_compiled_warp_equals_pure_on_special_displacements(rng, accel, shape):
    u, v, img = special_warp(rng, shape)
    at = accel.warp_coords(u, v)
    assert all(same_bits(a, b) for a, b in zip(at, _purekernels.warp_coords(u, v)))
    for image in (img, np.ascontiguousarray(img[::-1, ::-1])):
        assert same_bits(accel.warp_bilinear(image, at), _purekernels.warp_bilinear(image, at))


# odd sizes, planes narrower and shorter than the kernel, one plane and many
BLUR_SHAPES = [(1, 1, 1), (1, 2, 3), (3, 5, 7), (2, 9, 4), (1, 13, 17), (12, 6, 2)]


@pytest.mark.parametrize("factor", [0.25, 0.5, 0.8])  # 13, 7 and 3 taps
def test_pure_blur_equals_a_scalar_oracle(rng, factor):
    taps = tvl1._blur_taps(factor)
    assert taps.dtype == np.float64 and len(taps) == {0.25: 13, 0.5: 7, 0.8: 3}[factor]
    for shape in BLUR_SHAPES:
        img = rng.random(shape, dtype=np.float32) * 255 - 100
        img.reshape(-1)[::5] = -0.0
        assert same_bits(_purekernels.gaussian_blur(img, taps), gaussian_blur_oracle(img, taps))


@pytest.mark.parametrize("factor", [0.25, 0.5, 0.8])
def test_compiled_blur_equals_pure(rng, accel, factor):
    taps = tvl1._blur_taps(factor)
    for shape in [*BLUR_SHAPES, (23, 72, 96)]:
        img = rng.random(shape, dtype=np.float32) * 255 - 100
        img.reshape(-1)[::5] = -0.0
        assert same_bits(accel.gaussian_blur(img, taps), _purekernels.gaussian_blur(img, taps))
        img.reshape(-1)[::7] = np.inf  # inf - inf: NaN
        img.reshape(-1)[::11] = -np.inf
        with np.errstate(invalid="ignore"):
            assert same_bits_but_nan_signs(accel.gaussian_blur(img, taps),
                                           _purekernels.gaussian_blur(img, taps))


def special_data(rng, shape):
    """The six data_terms arguments with NaN, +-inf and -0.0 in a sixth of
    the cells of each."""
    arrays = [rng.normal(0, 50.0, shape).astype(np.float32) for _ in range(6)]
    specials = np.array([np.nan, np.inf, -np.inf, -0.0], dtype=np.float32)
    for a in arrays:
        cells = rng.random(shape) < 0.16
        a[cells] = rng.choice(specials, int(cells.sum()))
    return arrays


def test_data_terms_keep_numpy_order_on_both_backends(rng, accel):
    for shape in ((1, 1, 1), (2, 9, 11), (1, 144, 192)):
        I0, I1w, I1wx, I1wy, u1, u2 = arrays = special_data(rng, shape)
        with np.errstate(invalid="ignore", over="ignore"):
            want = (I1wx * I1wx + I1wy * I1wy, I1w - I1wx * u1 - I1wy * u2 - I0)
            pure, compiled = _purekernels.data_terms(*arrays), accel.data_terms(*arrays)
        for w, p, c in zip(want, pure, compiled):
            assert same_bits(p, w)
            assert same_bits_but_nan_signs(c, w)


@pytest.mark.parametrize("planes", [2, 0])
def test_read_only_and_empty_stacks_pass_the_binding(rng, accel, planes):
    # ctypes takes a writable buffer's address; a read-only or an empty
    # array goes through numpy's
    shape = (planes, 9, 11)
    arrays = [rng.normal(0, 2.0, shape).astype(np.float32) for _ in range(6)]
    taps = tvl1._blur_taps(0.5)
    for a in (*arrays, taps):
        a.setflags(write=False)
    u, v, img, I1wx, I1wy, rho_c = arrays
    grad = I1wx * I1wx + I1wy * I1wy
    grad.setflags(write=False)
    outs = []
    for kernels in (_purekernels, accel):
        at = kernels.warp_coords(u, v)
        for a in at:
            a.setflags(write=False)
        state = [u.copy(), v.copy(), *(np.zeros(shape, dtype=np.float32) for _ in range(4))]
        done = kernels.tvl1_iterations(I1wx, I1wy, rho_c, grad, *state, 0.15, 0.3, 0.25, 5, 0.0)
        outs.append([*at, kernels.warp_bilinear(img, at), kernels.gaussian_blur(img, taps),
                     *kernels.data_terms(*arrays), *done[:6]])
        assert done[6] == (5 if planes else 0)
    assert all(same_bits(a, b) for a, b in zip(*outs))


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The C kernels built with _accel.BASELINE_FLAGS: baseline x86-64 code
    alone, without the AVX2 clones and the AVX-512F sampler."""
    if not HAS_CC:
        pytest.skip(f"no C compiler ({_accel.compiler()[0]})")
    root = str(tmp_path_factory.mktemp("baseline"))
    return _accel.CompiledKernels(_accel.build(root, flags=_accel.BASELINE_FLAGS))


@pytest.fixture(scope="module")
def avx512(accel):
    """The dispatched build, on a host where it samples with its AVX-512F body."""
    if accel.sampler != "avx512f":
        pytest.skip("the host has no AVX-512F, so the dispatched library runs the scalar "
                    "sampler and only the scalar and pure ones can be compared")
    return accel


def test_the_dispatched_library_holds_both_builds(accel, baseline):
    # the loader picks the AVX2 clones on a host that has AVX2, so there
    # the two libraries below run different code
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        pytest.skip("target_clones needs x86-64 glibc")
    for kernels, dispatched in ((accel, True), (baseline, False)):
        symbols = Path(kernels._lib._name).read_bytes()
        for name in (b"warp_coords", b"gaussian_blur", b"data_terms", b"primal_row",
                     b"dual_step", b"add_row_error"):
            assert (name + b".avx2" in symbols) == dispatched, name
        # the sampler has no clone: its vector body is written by hand
        assert b"warp_bilinear.avx2" not in symbols
        assert (b"warp_bilinear_avx512" in symbols) == dispatched
    assert baseline.sampler == "scalar"


def test_the_sampler_runs_its_avx512_body_where_the_host_has_avx512f(accel):
    cpuinfo = Path("/proc/cpuinfo")
    if platform.machine() != "x86_64" or not cpuinfo.exists():
        pytest.skip("the CPU's flags are read from /proc/cpuinfo on x86-64")
    assert accel.sampler == ("avx512f" if "avx512f" in cpuinfo.read_text().split() else "scalar")


def smooth_flow(rng, shape, amplitude=4.0):
    """(u, v) of one shape, smooth like the solver's: textures around 0."""
    p, h, w = shape
    return [np.stack([(smooth_texture(rng, h=h, w=w) - np.float32(0.5)) * np.float32(amplitude)
                      for _ in range(p)]).astype(np.float32) for _ in range(2)]


# pixel counts around and off a multiple of the vector body's 16 lanes
@pytest.mark.parametrize("shape", [(1, 7, 9), (2, 31, 9), (1, 2, 8), (1, 3, 17), (3, 16, 17),
                                   (1, 144, 192)])
@pytest.mark.parametrize("flow", ["special", "random", "smooth"])
def test_the_avx512_scalar_and_pure_samplers_agree_bit_for_bit(rng, avx512, baseline, shape,
                                                               flow):
    u, v, img = special_warp(rng, shape)
    if flow == "random":
        u, v = (rng.normal(0, 2.0, shape).astype(np.float32) for _ in range(2))
    elif flow == "smooth":
        u, v = smooth_flow(rng, shape)
    at = _purekernels.warp_coords(u, v)
    for kernels in (avx512, baseline):
        assert all(same_bits(a, b) for a, b in zip(kernels.warp_coords(u, v), at))
    for image in (img, *_centered_gradient(img)):
        want = _purekernels.warp_bilinear(image, at)
        assert same_bits(avx512.warp_bilinear(image, at), want)
        assert same_bits(baseline.warp_bilinear(image, at), want)


@pytest.mark.parametrize("shape", [(3, 7, 9), (1, 2, 17), (2, 31, 9)])
def test_the_baseline_build_gives_the_bits_of_the_dispatched_one_and_pure(rng, accel, baseline,
                                                                         shape):
    u, v, img = special_warp(rng, shape)
    taps = tvl1._blur_taps(0.5)
    data = special_data(rng, shape)
    problems = [special_problem(rng, *shape, special, 3) for special in SPECIALS]
    outs = []
    for kernels in (_purekernels, accel, baseline):
        at = kernels.warp_coords(u, v)
        out = [*at, kernels.warp_bilinear(img, at), kernels.gaussian_blur(img, taps)]
        with np.errstate(invalid="ignore", over="ignore"):
            out += kernels.data_terms(*data)
            for problem in problems:
                state = [a.copy() for a in (*problem[4:6], *problem[6])]
                done = kernels.tvl1_iterations(*problem[:4], *state, 0.15, 0.3, 0.25, 30, 1e-3)
                out += [*done[:6], np.array(done[6])]
        outs.append(out)
    same = lambda a, b: (same_bits_but_nan_signs(a, b) if a.dtype == np.float32  # noqa: E731
                         else same_bits(a, b))
    for pure, dispatched, base in zip(*outs):
        assert same(dispatched, pure) and same(base, pure)


def test_the_solver_gives_the_same_bits_on_every_build(rng, monkeypatch, accel, baseline):
    # at 35x47 no pyramid level has a multiple of the AVX-512F sampler's 16 lanes
    for h, w in ((36, 48), (35, 47)):
        tex = smooth_texture(rng, h=h, w=w)
        frames = np.stack([np.roll(tex, i, axis=1) for i in range(4)])[..., None].repeat(3, -1)
        flows = []
        for kernels in (_purekernels, accel, baseline):
            use_kernels(monkeypatch, kernels)
            flows.append(np.stack(sequence_flow(frames, TvL1Params())))
        assert same_bits(flows[1], flows[0]) and same_bits(flows[2], flows[0]), (h, w)


def edge_problem(rng, n_planes, h, w):
    """A tvl1_iterations stack whose planes start from u = 0, so that the
    first iteration's rho is rho_c, with cells on every edge of the select:
    grad <= 1e-10, +inf grad, rho == +-lam * theta * grad exactly, -0.0,
    +-inf and NaN residuals; the NaN plane never converges."""
    problems = [random_problem(rng, h, w) for _ in range(n_planes)]
    I1wx, I1wy, rho_c, grad, u1, u2 = (np.concatenate(parts)
                                       for parts in zip(*[p[:6] for p in problems]))
    ps = [np.concatenate(parts) for parts in zip(*[p[6] for p in problems])]
    u1[:], u2[:] = 0, 0
    # edge columns of grad cross edge rows of rho_c
    for col, g in enumerate((1e-10, 0, 1e-12, 1e-45, np.inf)):
        grad[:, :, col] = g
    th = np.float32(0.15 * 0.3) * grad
    rho_c[:, 4:8] = th[:, 4:8]
    rho_c[:, 8:12] = -th[:, 8:12]
    rho_c[:, 12] = -0.0
    rho_c[:, 13, ::2] = np.inf
    rho_c[:, 13, 1::2] = -np.inf
    rho_c[-1, 14, 7] = np.nan
    return I1wx, I1wy, rho_c, grad, u1, u2, ps


@pytest.mark.parametrize("case", ["stack of 3", "static plane", "1x144x192"])
def test_pure_iterations_equal_their_first_version_bit_for_bit(rng, case):
    if case == "stack of 3":
        # random problems stop after 33, 33 and 35 iterations at 1e-3
        problems = [random_problem(rng) for _ in range(3)]
        stack = [np.concatenate(parts) for parts in zip(*[p[:6] for p in problems])]
        duals = [np.concatenate(parts) for parts in zip(*[p[6] for p in problems])]
        runs = [(*stack, duals, 34, 1e-3), (*edge_problem(rng, 3, 40, 52), 40, 1e-3)]
    elif case == "static plane":
        # plane 0 has nothing to fit and stops after one iteration; after
        # one iteration from zero duals, u holds step * I1w, even where the
        # step is as small as the -rho / grad a tiny grad must not give
        I1wx, I1wy, rho_c, grad, u1, u2, ps = edge_problem(rng, 2, 24, 20)
        rho_c[0] = 0
        runs = [(I1wx, I1wy, rho_c, grad, u1, u2, [p * 0 for p in ps], n, 1e-6)
                for n in (1, 10)]
    else:
        runs = [(*random_problem(rng, 144, 192), 6, 0.0),
                (*edge_problem(rng, 1, 144, 192), 6, 1e-2)]
    for I1wx, I1wy, rho_c, grad, u1, u2, ps, n_iters, eps in runs:
        args = (0.15, 0.3, 0.25, n_iters, eps)
        with np.errstate(invalid="ignore"):  # inf / inf, on purpose
            got, want = [fn(I1wx, I1wy, rho_c, grad, u1.copy(), u2.copy(),
                            *(p.copy() for p in ps), *args)
                         for fn in (_purekernels.tvl1_iterations, tvl1_iterations_oracle)]
        assert got[6] == want[6]
        for k, (a, b) in enumerate(zip(got[:6], want[:6])):
            assert same_bits(a, b), f"{case}: field {k}"


def test_threshold_edges_agree_bit_for_bit(rng, accel):
    # cells where grad <= 1e-10 (no division) and cells where rho sits
    # exactly on +-lam * theta * grad (the middle step); the flow starts at
    # 0, so the first iteration's rho is rho_c; bits compared, so -0.0 != 0.0
    lam, theta = 0.15, 0.3
    I1wx, I1wy, rho_c, grad, u1, u2, ps = random_problem(rng)
    u1[:], u2[:] = 0, 0
    grad[0, :4] = np.float32(1e-10)
    grad[0, 4:8] = 0
    grad[0, 8:10, ::2] = np.float32(1e-12)
    th = np.float32(lam * theta) * grad
    for rows, sign in ((slice(0, 10, 3), 1), (slice(1, 10, 3), -1), (slice(10, 20), 1),
                       (slice(20, 30), -1)):
        rho_c[0, rows] = sign * th[0, rows]
    for n_iters in (1, 5):
        got, want = (k.tvl1_iterations(I1wx, I1wy, rho_c, grad, u1.copy(), u2.copy(),
                                       *(p.copy() for p in ps), lam, theta, 0.25, n_iters, 0.0)
                     for k in (accel, _purekernels))
        assert got[6] == want[6] == n_iters
        for k, (a, b) in enumerate(zip(got[:6], want[:6])):
            assert np.array_equal(a.view(np.int32), b.view(np.int32)), f"{n_iters} field {k}"


# values put on the borders and the lanes of a stack: residuals and dual
# fields (NaN, +-inf, -0.0), residuals on the edges of the threshold, and
# gradients too small to divide by
SPECIALS = ["nan", "inf", "-inf", "-0.0", "+th", "-th", "grad 0", "grad 1e-10"]


def same_bits_but_nan_signs(a, b):
    """Equal bits, except that a NaN matches a NaN of either sign: which of
    two NaN operands a sum or a product passes on depends on the operand
    order the compiler picks, for numpy's loops as for the C."""
    nan = np.isnan(a)
    return (np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int32), b[~nan].view(np.int32)))


def special_problem(rng, p, h, w, special, lane):
    """A (p, h, w) tvl1_iterations stack from u = 0, so that the first
    iteration's rho is rho_c, with `special` in column 0, in the last
    column, and at every x % 8 == lane of the first and the middle row."""
    shape = (p, h, w)
    I1wx, I1wy, rho_c = (rng.normal(0, 3.0, shape).astype(np.float32) for _ in range(3))
    grad = I1wx * I1wx + I1wy * I1wy
    ps = [rng.normal(0, 0.1, shape).astype(np.float32) for _ in range(4)]
    cells = np.zeros((h, w), dtype=bool)
    cells[:, [0, -1]] = True
    cells[[0, h // 2], lane::8] = True
    th = np.float32(0.15 * 0.3) * grad
    if special in ("+th", "-th"):
        rho_c[:, cells] = th[:, cells] if special == "+th" else -th[:, cells]
    elif special.startswith("grad"):
        grad[:, cells] = np.float32(special.split()[1])
    else:
        for a in (rho_c, *ps):
            a[:, cells] = np.float32(special)
    zeros = np.zeros(shape, dtype=np.float32)
    return I1wx, I1wy, rho_c, grad, zeros, zeros.copy(), ps


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("h", [1, 2, 3])
@pytest.mark.parametrize("w", [1, 2, 7, 8, 9, 17])
def test_compiled_iterations_equal_pure_on_every_border_and_lane(rng, accel, p, h, w):
    # the C peels column 0, reads a zero row above row 0, peels the last
    # column of the dual step and sums the error in 8 lanes: every width
    # around a block of 8, with and without early stop
    stopped_early = 0
    for special in SPECIALS:
        for lane in range(min(w, 8)):
            I1wx, I1wy, rho_c, grad, u1, u2, ps = special_problem(rng, p, h, w, special, lane)
            for n_iters, eps in ((5, 0.0), (30, 1e-3)):
                with np.errstate(invalid="ignore", over="ignore"):
                    got, want = (k.tvl1_iterations(I1wx, I1wy, rho_c, grad, u1.copy(),
                                                   u2.copy(), *(a.copy() for a in ps),
                                                   0.15, 0.3, 0.25, n_iters, eps)
                                 for k in (accel, _purekernels))
                assert got[6] == want[6], (special, lane, n_iters)
                stopped_early += got[6] < n_iters
                for k, (a, b) in enumerate(zip(got[:6], want[:6])):
                    assert same_bits_but_nan_signs(a, b), (special, lane, n_iters, k)
    assert stopped_early


BAD_INPUTS = {
    "not 3-D": lambda a: a[0],
    "another dtype": lambda a: a.astype(np.float64 if a.dtype == np.float32 else np.float32),
    "not C-contiguous": np.asfortranarray,
    "another shape": lambda a: a[:, :4, :4].copy(),
    "another plane count": lambda a: np.concatenate([a, a]),
}


@pytest.mark.parametrize("fault", BAD_INPUTS)
def test_compiled_kernels_reject_bad_arrays(rng, accel, fault):
    # the sampler's four coordinate arrays count as its arguments 1 to 4
    I1wx, I1wy, rho_c, grad, u1, u2, ps = random_problem(rng)
    taps = tvl1._blur_taps(0.5)
    calls = (
        (lambda a: accel.warp_coords(*a), [u1, u2]),
        (lambda a: accel.warp_bilinear(a[0], tuple(a[1:])),
         [I1wx, *accel.warp_coords(u1, u2)]),
        (lambda a: accel.gaussian_blur(a[0], taps), [I1wx]),
        (lambda a: accel.data_terms(*a), [rho_c, I1wx, I1wx, I1wy, u1, u2]),
        (lambda a: accel.tvl1_iterations(*a, 0.15, 0.3, 0.25, 12, 0.0),
         [I1wx, I1wy, rho_c, grad, u1, u2, *ps]),
    )
    for call, arrays in calls:
        if len(arrays) == 1 and fault in ("another shape", "another plane count"):
            continue  # the blur's one image sets the shape
        for k in range(len(arrays)):
            bad = list(arrays)
            bad[k] = BAD_INPUTS[fault](bad[k])
            with pytest.raises(ValueError, match=rf"argument {k}\b"):
                call(bad)


def test_compiled_iterations_reject_planes_without_pixels(accel):
    # the C peels the first and the last column of every row, and the blur
    # replicates them
    for shape in ((1, 0, 5), (1, 5, 0)):
        fields = [np.zeros(shape, dtype=np.float32) for _ in range(10)]
        with pytest.raises(ValueError, match="have no pixel"):
            accel.tvl1_iterations(*fields, 0.15, 0.3, 0.25, 3, 1e-3)
        with pytest.raises(ValueError, match="have no pixel"):
            accel.gaussian_blur(fields[0], tvl1._blur_taps(0.5))


@pytest.mark.parametrize("taps", [np.ones(4) / 4, np.ones(3, dtype=np.float32) / 3,
                                  np.ones((1, 3)) / 3, (np.ones(6) / 3)[::2], [0.25, 0.5, 0.25]],
                         ids=["even", "float32", "2-D", "strided", "list"])
def test_compiled_blur_rejects_bad_taps(rng, accel, taps):
    with pytest.raises(ValueError, match="taps must be"):
        accel.gaussian_blur(rng.random((1, 8, 9), dtype=np.float32), taps)


def test_compiled_warp_rejects_indices_outside_the_stack(rng, accel):
    # each corner in turn leaves the stack: the top-left one by its index,
    # the right and the lower ones by their corner bit on the last pixel or
    # the last row
    img = rng.random((2, 6, 8), dtype=np.float32)
    at = accel.warp_coords(np.zeros_like(img), np.zeros_like(img))
    for index, bits in ((-1, 0), (img.size, 0), (img.size - 1, 1), (img.size - 8, 2),
                        (img.size - 1, 3)):
        index_, corners = at[0].copy(), at[1].copy()
        index_[1, 5, 7], corners[1, 5, 7] = index, bits
        with pytest.raises(ValueError, match="outside the stack"):
            accel.warp_bilinear(img, (index_, corners, *at[2:]))
    index_, corners = at[0].copy(), at[1].copy()
    index_[1, 5, 7], corners[1, 5, 7] = img.size - 10, 3  # the last corner is the last pixel
    assert accel.warp_bilinear(img, (index_, corners, *at[2:]))[1, 5, 7] == img[1, 4, 6]


@pytest.mark.parametrize("pixel", ["first", "vector body", "scalar tail"])
@pytest.mark.parametrize("index", [-1, -(2**31), 108, 2**31 - 1])
@pytest.mark.parametrize("bits", [0, 3])
def test_every_sampler_rejects_an_index_outside_the_stack(rng, accel, baseline, pixel, index,
                                                          bits):
    # a 2x6x9 stack: the AVX-512F body samples pixels 0-95 and leaves 96-107
    # to the scalar loop; with both corner bits set, -1 points the lower
    # right corner back into the stack, so the top-left index must be
    # checked on its own
    img = rng.random((2, 6, 9), dtype=np.float32)
    at = _purekernels.warp_coords(np.zeros_like(img), np.zeros_like(img))
    bad, corners = at[0].copy(), at[1].copy()
    k = {"first": 0, "vector body": 37, "scalar tail": 101}[pixel]
    bad.reshape(-1)[k], corners.reshape(-1)[k] = index, bits
    for kernels in (_purekernels, accel, baseline):
        with pytest.raises(ValueError, match="outside the stack"):
            kernels.warp_bilinear(img, (bad, corners, *at[2:]))


def test_both_backends_refuse_a_warp_stack_the_int32_index_cannot_reach(accel):
    # zero-stride views of 2^31 pixels: refused before anything reads them
    shape = (2, 2**15, 2**15)
    huge = [np.lib.stride_tricks.as_strided(np.zeros(1, dtype=d), shape=shape,
                                            strides=(2**30 * d.itemsize, 2**15 * d.itemsize,
                                                     d.itemsize))
            for d in map(np.dtype, (np.float32, np.int32, np.uint8, np.float32, np.float32))]
    img, coords = huge[0], tuple(huge[1:])
    assert all(a.flags.c_contiguous for a in huge)
    for kernels in (_purekernels, accel):
        with pytest.raises(ValueError, match=r"more than 2\*\*31 - 1 pixels"):
            kernels.warp_coords(img, img)
        with pytest.raises(ValueError, match=r"more than 2\*\*31 - 1 pixels"):
            kernels.warp_bilinear(img, coords)


def test_compiled_warp_clamps_nan_displacements_into_the_image(rng, accel):
    img = rng.random((1, 12, 16), dtype=np.float32)
    u = np.full(img.shape, np.nan, dtype=np.float32)
    out = accel.warp_bilinear(img, accel.warp_coords(u, np.zeros_like(u)))
    assert np.array_equal(out, np.repeat(img[:, :, :1], 16, axis=2))


def test_both_warps_clamp_an_all_nan_u_alike(rng, accel):
    img = rng.random((1, 12, 16), dtype=np.float32)
    u = np.full(img.shape, np.nan, dtype=np.float32)
    v = rng.normal(0, 3.0, img.shape).astype(np.float32)
    for a, b in zip(accel.warp_coords(u, v), _purekernels.warp_coords(u, v)):
        assert np.array_equal(a, b)
    assert np.array_equal(accel.warp_bilinear(img, accel.warp_coords(u, v)),
                          _purekernels.warp_bilinear(img, _purekernels.warp_coords(u, v)))


def test_stacked_kernels_equal_one_call_per_plane(rng, accel):
    # planes of one stack must not see each other: each plane of a stacked
    # call equals a call on that plane alone, on both backends
    # the planes stop after 33, 33 and 35 iterations, so a cap of 34 makes
    # two planes leave the stack early and one run to the cap
    problems = [random_problem(rng) for _ in range(3)]
    stack = [np.concatenate(parts) for parts in zip(*[p[:6] for p in problems])]
    duals = [np.concatenate(parts) for parts in zip(*[p[6] for p in problems])]
    args = (0.15, 0.3, 0.25, 34, 1e-3)
    for kernels in (_purekernels, accel):
        warped = kernels.warp_bilinear(stack[2], kernels.warp_coords(stack[4], stack[5]))
        together = kernels.tvl1_iterations(*stack[:4], *(a.copy() for a in stack[4:]),
                                           *(d.copy() for d in duals), *args)
        counts = []
        for k, (I1wx, I1wy, rho_c, grad, u1, u2, ps) in enumerate(problems):
            assert np.array_equal(warped[k:k + 1],
                                  kernels.warp_bilinear(rho_c, kernels.warp_coords(u1, u2)))
            alone = kernels.tvl1_iterations(I1wx, I1wy, rho_c, grad, u1.copy(), u2.copy(),
                                            *(p.copy() for p in ps), *args)
            counts.append(alone[6])
            for a, b in zip(together[:6], alone[:6]):
                assert np.array_equal(a[k:k + 1], b)
        assert min(counts) < together[6] == max(counts) == args[3]


def test_full_solver_identical_across_backends(rng, monkeypatch, accel):
    tex = smooth_texture(rng)
    moved = np.roll(tex, 1, axis=1)
    lam = TvL1Params().lam
    use_kernels(monkeypatch, accel)
    compiled_energies = spy_warp_energies(monkeypatch, tex.shape, lam)
    compiled = tvl1_flow(tex, moved)

    use_kernels(monkeypatch, _purekernels)
    pure_energies = spy_warp_energies(monkeypatch, tex.shape, lam)
    pure = tvl1_flow(tex, moved)

    assert np.array_equal(compiled, pure)
    assert compiled_energies == pure_energies


def test_selected_backend_is_reported():
    # compiled wherever a C compiler exists
    assert backend.BACKEND == ("compiled" if HAS_CC else "pure")
    if HAS_CC:
        assert backend.kernels._lib._name == _accel.library_path(_accel.HERE)
    for name in backend.KERNELS:
        assert getattr(backend, name) == getattr(backend.kernels, name)


def test_both_backends_offer_exactly_the_kernel_entry_points():
    pure = {name for name, fn in vars(_purekernels).items()
            if callable(fn) and not name.startswith("_")
            and getattr(fn, "__module__", None) == _purekernels.__name__}
    compiled = {name for name in vars(_accel.CompiledKernels) if not name.startswith("_")}
    assert pure == compiled == set(backend.KERNELS)


# Prints the backend a fresh interpreter selects and a digest of one solve.
FLOW_DIGEST = (
    "import hashlib, numpy as np; from hhmon import backend, tvl1; "
    "a = np.random.default_rng(0).random((36, 48), dtype=np.float32); "
    "flow = tvl1.tvl1_flow(a, np.roll(a, 1, axis=1)); "
    "print(backend.BACKEND, hashlib.sha256(flow.tobytes()).hexdigest())")


def package_copy(tmp_path):
    """A copy of the package's sources, with no kernel library built; its root."""
    root = tmp_path / "pkg"
    shutil.copytree(REPO / "src" / "hhmon", root / "hhmon",
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    return root


def run_python(code, path, **env):
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(path), **env), timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout.split()


@pytest.mark.parametrize("cc", ["missing", "failing"])
def test_without_a_working_compiler_the_package_runs_on_pure_with_the_same_bits(tmp_path, cc):
    name = _accel.compiler()[0]
    if os.path.dirname(name):
        pytest.skip(f"the compiler is an absolute path ({name})")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if cc == "failing":
        (bin_dir / name).write_text("#!/bin/sh\nexit 1\n")
        (bin_dir / name).chmod(0o755)
    root = package_copy(tmp_path)
    backend_name, digest = run_python(FLOW_DIGEST, root, PATH=str(bin_dir))
    assert backend_name == "pure"
    assert not [n for n in os.listdir(root / "hhmon" / "_accel") if n.startswith("flowkernels-")]
    assert run_python(FLOW_DIGEST, REPO / "src") == [backend.BACKEND, digest]


def test_a_directory_the_builder_cannot_write_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        _accel.build(str(tmp_path / "missing"))


def test_the_library_name_keys_the_source_and_the_flags(tmp_path):
    copy = tmp_path / "flowkernels.c"
    shutil.copyfile(_accel.SOURCE, copy)
    name = _accel.library_path(str(tmp_path))
    assert re.fullmatch(r"flowkernels-[0-9a-f]{16}\.so", os.path.basename(name))
    assert _accel.library_path(str(tmp_path), str(copy)) == name
    assert _accel.library_path(str(tmp_path), flags=_accel.FLAGS + ("-g",)) != name
    copy.write_bytes(copy.read_bytes() + b"\n")
    assert _accel.library_path(str(tmp_path), str(copy)) != name


def test_the_compiler_flags_change_no_value():
    # a speed edit must not trade bits for time: no FMA contraction, no
    # flag that lets the compiler reorder or approximate float arithmetic,
    # and no code for one host in a library keyed by its flags alone
    assert "-ffp-contract=off" in _accel.FLAGS
    assert not {"-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-fassociative-math",
                "-freciprocal-math", "-ffinite-math-only"} & set(_accel.FLAGS)
    assert not [f for f in _accel.FLAGS if f.startswith(("-march=", "-mtune="))]


@needs_cc
def test_the_c_kernels_compile_without_a_warning(tmp_path):
    _accel.build(str(tmp_path), flags=_accel.FLAGS + ("-Wall", "-Wextra", "-Wvla", "-Werror"))


@needs_cc
def test_an_unkeyed_or_stale_library_is_never_loaded(tmp_path, rng):
    out = tmp_path / "lib"
    out.mkdir()
    edited = tmp_path / "flowkernels.c"
    edited.write_bytes(Path(_accel.SOURCE).read_bytes()
                       + b"\nint stale_marker(void) { return 1; }\n")
    stale = _accel.build(str(out), str(edited))
    assert _accel.CompiledKernels(stale)._lib.stale_marker() == 1
    for name in ("flowkernels.so", "flowkernels" + sysconfig.get_config_var("EXT_SUFFIX")):
        (out / name).write_bytes(b"not a library")
    path = _accel.build(str(out))
    assert path != stale and os.path.basename(path) in os.listdir(out)
    kernels = _accel.CompiledKernels(path)
    assert not hasattr(kernels._lib, "stale_marker")
    u, v = (rng.normal(0, 2, (1, 9, 11)).astype(np.float32) for _ in range(2))
    for a, b in zip(kernels.warp_coords(u, v), _purekernels.warp_coords(u, v)):
        assert np.array_equal(a, b)


@needs_cc
def test_a_build_removes_the_libraries_of_other_keys(tmp_path):
    edited = tmp_path / "flowkernels.c"
    edited.write_bytes(Path(_accel.SOURCE).read_bytes()
                       + b"\nint stale_marker(void) { return 1; }\n")
    out = tmp_path / "lib"
    out.mkdir()
    stale = _accel.build(str(out), str(edited))
    loaded = _accel.CompiledKernels(stale)
    others = ["flowkernels.so", "flowkernels-0123.so", os.path.basename(stale) + ".7.tmp"]
    for name in others:
        (out / name).write_bytes(b"not a library")
    path = _accel.build(str(out))
    assert sorted(os.listdir(out)) == sorted([os.path.basename(path), *others])
    assert loaded._lib.stale_marker() == 1  # a loaded library keeps its mapping


@needs_cc
def test_two_builds_into_one_directory_leave_one_library(tmp_path):
    code = "import sys; from hhmon import _accel; print(_accel.build(sys.argv[1]))"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    runs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for _ in range(2)]
    paths = []
    for run in runs:
        out, err = run.communicate(timeout=600)
        assert run.returncode == 0, out + err
        paths.append(out.strip())
    assert paths[0] == paths[1]
    assert os.listdir(tmp_path) == [os.path.basename(paths[0])]
    assert callable(_accel.CompiledKernels(paths[0]).warp_coords)


@needs_cc
def test_importing_the_cli_loads_no_builder_once_the_library_is_built():
    # desk_pipeline's setup_s is this import; a cache hit must not pay for
    # the modules that only compiling needs
    code = ("import sys; import hhmon.cli; from hhmon import backend; "
            "print(backend.BACKEND, *(m for m in ('subprocess', 'sysconfig') "
            "if m in sys.modules))")
    run_python(code, REPO / "src")  # builds the library if it is missing
    assert run_python(code, REPO / "src") == ["compiled"]


@pytest.mark.parametrize("compiled", [False, True], ids=["pure", "compiled"])
def test_chunked_sequence_flow_equals_a_per_pair_loop(rng, monkeypatch, accel, compiled):
    kernels = accel if compiled else _purekernels
    counts = []
    stacks = []  # (level shape, pairs) of each stack, in solve order
    warps = tvl1._warps

    def counting_iterations(*args):
        out = kernels.tvl1_iterations(*args)
        counts.append(out[6])
        return out

    def recording_warps(frames, *args):
        stacks.append((frames.shape[1:], len(frames) - 1))
        return warps(frames, *args)

    use_kernels(monkeypatch, kernels)
    monkeypatch.setattr(backend, "tvl1_iterations", counting_iterations)
    monkeypatch.setattr(tvl1, "_warps", recording_warps)
    # 7 frames at 96x72: 6 pairs in stacks of 4 and 2 on the finest level,
    # one stack on each coarser one; pair 3 is static
    h, w, n = 72, 96, 7
    tex = smooth_texture(rng, h=h, w=w)
    planes = [np.roll(np.roll(tex, i, axis=1), i // 2, axis=0) for i in range(n)]
    planes[4] = planes[3]
    frames = np.repeat(np.array(planes)[..., None], 3, axis=-1)  # gray RGB frames
    lum = frameio.luminance(frames)
    assert tvl1.STACK_PIXELS // (h * w) == 4 and (n - 1) % 4 != 0
    params = TvL1Params(max_flow=4.0)
    chunked = flow_frames(*sequence_flow(frames, params), params.max_flow)
    assert stacks == [((18, 24), 6), ((36, 48), 6), ((72, 96), 4), ((72, 96), 2)]

    per_pair, pair_counts = [], []
    for i in range(n - 1):
        counts.clear()
        flow = tvl1_flow(lum[i], lum[i + 1], params)
        per_pair.append(np.clip(flow, -params.max_flow, params.max_flow)
                        / np.float32(params.max_flow))
        pair_counts.append(list(counts))
    assert max(pair_counts[3]) == 1  # the static pair stops after one iteration
    assert params.n_iters in pair_counts[0]  # a moving pair runs to the cap
    assert len(chunked) == n
    for i, want in enumerate(per_pair):
        assert np.array_equal(chunked[i], want), f"pair {i}"


FLOW_TREES = {
    # 3 scenes, one cut to 2 frames: a single pair, fewer than 2 or 3 workers
    "short scene": (dict(n_rubbing=2, n_other=1, n_synthetic_rubbing=0,
                         n_frames_min=16, n_frames_max=19), (1, 2, 3)),
    # 5 scenes on 2 workers, whose first job waits until the last scene is
    # written, so that every other result arrives before it
    "out of order": (dict(n_rubbing=2, n_other=2, n_synthetic_rubbing=1,
                          n_frames_min=17, n_frames_max=26), (2,)),
}


@pytest.mark.parametrize("tree", FLOW_TREES)
@pytest.mark.parametrize("compiled", [False, True], ids=["pure", "compiled"])
def test_flow_workers_write_the_bytes_of_a_serial_loop(tmp_path, monkeypatch, accel, compiled,
                                                       tree):
    use_kernels(monkeypatch, accel if compiled else _purekernels)
    gen, worker_counts = FLOW_TREES[tree]
    cfg = PipelineConfig()
    cfg.paths.dataset_dir = str(tmp_path / "ds")
    cfg.gen = synth.DatasetConfig(width=48, height=36, **gen)
    scenes = pipeline.generate(cfg)["scenes"]
    dirs = [os.path.join(cfg.paths.dataset_dir, entry["frames_dir"]) for entry in scenes]
    if tree == "short scene":
        for name in sorted(os.listdir(dirs[1])):
            if name.startswith("frame_") and int(name[6:12]) >= 2:
                os.remove(os.path.join(dirs[1], name))
    serial = tmp_path / "serial"
    for entry, frames_dir in zip(scenes, dirs):
        seq = frameio.load_sequence(frames_dir)
        flow = flow_frames(*sequence_flow(seq.data, cfg.flow), cfg.flow.max_flow)
        out = FrameSequence(flow, fps=seq.fps, video_id=seq.video_id, date_tag=seq.date_tag)
        frameio.save_sequence(out, str(serial / entry["video_id"]))
    want = tree_bytes(serial)
    ranges, written = [], []
    split, load, commit = pipeline._ranges, frameio.load_sequence, artifacts.commit

    def recording_split(*args):
        ranges.append(split(*args))
        return ranges[-1]

    def slow_first_job(frames_dir, frames=slice(None)):
        if tree == "out of order" and frames_dir == dirs[0] and frames.start == 0:
            last = os.path.join(cfg.paths.work_dir, "flow", scenes[-1]["video_id"])
            deadline = time.monotonic() + 120
            while not os.path.isdir(last) and time.monotonic() < deadline:
                time.sleep(0.01)
        return load(frames_dir, frames)

    def recording_commit(path):  # the parent commits each scene's flow dir and its meta.json
        if os.path.basename(os.path.dirname(path)) == "flow":
            written.append(os.path.basename(path))
        commit(path)

    monkeypatch.setattr(pipeline, "_ranges", recording_split)
    monkeypatch.setattr(frameio, "load_sequence", slow_first_job)
    monkeypatch.setattr(artifacts, "commit", recording_commit)
    for workers in worker_counts:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=workers: set(range(n)))
        cfg.paths.work_dir = str(tmp_path / f"work{workers}")
        ranges.clear()
        written.clear()
        assert pipeline.compute_flow(cfg) == len(scenes)
        if tree == "short scene":
            assert [len(r) for r in ranges] == [workers, 1, workers]
        else:
            assert [len(r) for r in ranges] == [2] * 5
            assert written[-1] == scenes[0]["video_id"]
        assert sorted(written) == sorted(entry["video_id"] for entry in scenes)
        assert tree_bytes(os.path.join(cfg.paths.work_dir, "flow")) == want, f"{workers} workers"


def test_the_kernel_benchmark_script_runs(tmp_path):
    # nothing else runs benchmarks/bench_kernels.py, so a library API change
    # would otherwise break it unnoticed
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    run = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "bench_kernels.py"), "--size", "32",
         "--iters", "2", "--repeats", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout + run.stderr
    names = [f"{kernel} {stack}" for stack in ("32x32", "8x96x72", "1x144x192")
             for kernel in ("warp_coords", "warp_bilinear x3", "warp_coords smooth",
                            "warp_bilinear x3 smooth", "gaussian_blur", "data_terms",
                            "tvl1_iterations x2")]
    names += ["flow_sequence 23x96x72", "flow_sequence 23x192x144"]
    head, rows = run.stdout.splitlines()[:3], run.stdout.splitlines()[3:]
    assert [row[:36].rstrip() for row in rows] == names
    # the baseline build's time sits beside the dispatched one's on the sampler rows
    assert head[1].startswith("compiled sampler body:")
    assert [row[36:].split()[1] != "-" for row in rows] == [
        name.startswith("warp_bilinear x3") and "failed to build" not in run.stdout
        for name in names]
    if "failed to build" not in run.stdout:
        # the two backends give the same bits on every row
        assert all(row.split()[-1] == "0.0e+00" for row in rows), run.stdout
