"""Compiled and pure kernels must be interchangeable, bit for bit.

Both take (P, H, W) stacks of planes; the single-plane tests lift their
planes to stacks of one.
"""

import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from helpers import smooth_texture

from hhmon import _accel, _purekernels, backend, tvl1
from hhmon.frameio import Frame, FrameSequence
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
    I1 = (smooth_texture(rng, h=h, w=w) * 255.0).astype(np.float32)[None]
    I0 = np.roll(I1, 1, axis=2)
    I1x, I1y = _centered_gradient(I1)
    u1 = rng.normal(0, 0.5, (1, h, w)).astype(np.float32)
    u2 = rng.normal(0, 0.5, (1, h, w)).astype(np.float32)
    I1w = _purekernels.warp_bilinear(I1, u1, u2)
    I1wx = _purekernels.warp_bilinear(I1x, u1, u2)
    I1wy = _purekernels.warp_bilinear(I1y, u1, u2)
    grad = I1wx * I1wx + I1wy * I1wy
    rho_c = I1w - I1wx * u1 - I1wy * u2 - I0
    ps = [rng.normal(0, 0.1, (1, h, w)).astype(np.float32) for _ in range(4)]
    return I1wx, I1wy, rho_c, grad, u1, u2, ps


def test_warp_matches_pure_kernel(rng, accel):
    for trial in range(20):
        h, w = int(rng.integers(8, 40)), int(rng.integers(8, 40))
        img = rng.random((1, h, w)).astype(np.float32) * 255.0
        u = rng.normal(0, 3.0, (1, h, w)).astype(np.float32)
        v = rng.normal(0, 3.0, (1, h, w)).astype(np.float32)
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
    "not 3-D": lambda a: a[0],
    "not float32": lambda a: a.astype(np.float64),
    "not C-contiguous": np.asfortranarray,
    "another shape": lambda a: a[:, :4, :4].copy(),
    "another plane count": lambda a: np.concatenate([a, a]),
}


@pytest.mark.parametrize("fault", BAD_INPUTS)
def test_compiled_kernels_reject_bad_arrays(rng, accel, fault):
    img = rng.random((1, 64, 64), dtype=np.float32)
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
    img = rng.random((1, 12, 16), dtype=np.float32)
    u = np.full(img.shape, np.nan, dtype=np.float32)
    out = accel.warp_bilinear(img, u, np.zeros_like(u))
    assert np.array_equal(out, np.repeat(img[:, :, :1], 16, axis=2))


def test_both_warps_clamp_an_all_nan_u_alike(rng, accel):
    img = rng.random((1, 12, 16), dtype=np.float32)
    u = np.full(img.shape, np.nan, dtype=np.float32)
    v = rng.normal(0, 3.0, img.shape).astype(np.float32)
    assert np.array_equal(accel.warp_bilinear(img, u, v),
                          _purekernels.warp_bilinear(img, u, v))


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
        warped = kernels.warp_bilinear(stack[2], stack[4], stack[5])
        together = kernels.tvl1_iterations(*stack[:4], *(a.copy() for a in stack[4:]),
                                           *(d.copy() for d in duals), *args)
        counts = []
        for k, (I1wx, I1wy, rho_c, grad, u1, u2, ps) in enumerate(problems):
            assert np.array_equal(warped[k:k + 1], kernels.warp_bilinear(rho_c, u1, u2))
            alone = kernels.tvl1_iterations(I1wx, I1wy, rho_c, grad, u1.copy(), u2.copy(),
                                            *(p.copy() for p in ps), *args)
            counts.append(alone[6])
            for a, b in zip(together[:6], alone[:6]):
                assert np.array_equal(a[k:k + 1], b)
        assert min(counts) < together[6] == max(counts) == args[3]


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


def test_selected_backend_is_reported():
    assert backend.BACKEND in ("compiled", "pure")
    assert callable(backend.warp_bilinear)
    assert callable(backend.tvl1_iterations)


@pytest.mark.parametrize("compiled", [False, True], ids=["pure", "compiled"])
def test_chunked_flow_sequence_equals_a_per_pair_loop(rng, monkeypatch, accel, compiled):
    kernels = accel if compiled else _purekernels
    counts = []

    def counting_iterations(*args):
        out = kernels.tvl1_iterations(*args)
        counts.append(out[6])
        return out

    monkeypatch.setattr(backend, "warp_bilinear", kernels.warp_bilinear)
    monkeypatch.setattr(backend, "tvl1_iterations", counting_iterations)
    # 7 frames at 96x72: 6 pairs in chunks of 4 and 2; pair 3 is static
    h, w, n = 72, 96, 7
    tex = smooth_texture(rng, h=h, w=w)
    planes = [np.roll(np.roll(tex, i, axis=1), i // 2, axis=0) for i in range(n)]
    planes[4] = planes[3]
    assert tvl1.STACK_PIXELS // (h * w) == 4 and (n - 1) % 4 != 0
    params = TvL1Params(max_flow=4.0)
    seq = FrameSequence([Frame(p) for p in planes], fps=15.0, video_id="v", date_tag="d0")
    chunked = tvl1.flow_sequence(seq, params)

    per_pair, pair_counts = [], []
    for i in range(n - 1):
        counts.clear()
        flow = tvl1_flow(planes[i], planes[i + 1], params).flow
        per_pair.append(tvl1.flow_to_frame(flow, params.max_flow).data)
        pair_counts.append(list(counts))
    assert max(pair_counts[3]) == 1  # the static pair stops after one iteration
    assert params.n_iters in pair_counts[0]  # a moving pair runs to the cap
    assert len(chunked.frames) == n
    for i, want in enumerate(per_pair):
        assert np.array_equal(chunked.frames[i].data, want), f"pair {i}"
