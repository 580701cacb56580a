"""Optical flow solver checked against known integer-pixel motions.

Ground truth comes from np.roll on periodic textures, so the true flow is
exact everywhere; borders are excluded because warping has no data there.
"""

import numpy as np
import pytest
from helpers import flow_energy, smooth_texture, spy_warp_energies

from hhmon import backend, frameio, tvl1
from hhmon.errors import ConfigError, DataError
from hhmon.tvl1 import TvL1Params, _centered_gradient, flow_frames, sequence_flow, tvl1_flow


def central_epe(flow, ux, uy, margin=6):
    c = flow[margin:-margin, margin:-margin]
    return float(np.hypot(c[..., 0] - ux, c[..., 1] - uy).mean())


def rolled(tex, dx=0, dy=0):
    return np.roll(np.roll(tex, dy, axis=0), dx, axis=1)


def test_zero_motion_is_near_zero(rng):
    tex = smooth_texture(rng)
    flow = tvl1_flow(tex, tex)
    assert np.abs(flow).max() < 0.05


def test_one_pixel_right_shift(rng):
    tex = smooth_texture(rng)
    flow = tvl1_flow(tex, rolled(tex, dx=1))
    assert central_epe(flow, 1.0, 0.0) < 0.3


def test_two_pixel_down_shift(rng):
    tex = smooth_texture(rng)
    flow = tvl1_flow(tex, rolled(tex, dy=2))
    assert central_epe(flow, 0.0, 2.0) < 0.4


def test_small_brightness_offset_degrades_gracefully(rng):
    tex = smooth_texture(rng)
    target = np.clip(rolled(tex, dx=1) + 0.05, 0.0, 1.0).astype(np.float32)
    flow = tvl1_flow(tex, target)
    # the data term absorbs part of the offset, so precision drops but the
    # recovered motion must stay sub-2px and keep its direction
    assert central_epe(flow, 1.0, 0.0) < 1.0
    assert flow[6:-6, 6:-6, 0].mean() > 0.5


def test_horizontal_flip_negates_u(rng):
    tex = smooth_texture(rng)
    moved = rolled(tex, dx=1)
    f = tvl1_flow(tex, moved)
    g = tvl1_flow(tex[:, ::-1].copy(), moved[:, ::-1].copy())
    mirrored = f[:, ::-1, :]
    region = np.s_[6:-6, 6:-6]
    assert np.abs(g[region][..., 0] + mirrored[region][..., 0]).mean() < 0.1
    assert np.abs(g[region][..., 1] - mirrored[region][..., 1]).mean() < 0.1


def linearized_problem(rng):
    """One warp's linearization at zero flow, as the solver builds it, on
    stacks of one plane."""
    tex = smooth_texture(rng)
    I0 = (tex * np.float32(255.0)).astype(np.float32)[None]
    I1 = (rolled(tex, dx=1) * np.float32(255.0)).astype(np.float32)[None]
    I1x, I1y = _centered_gradient(I1)
    zeros = lambda: np.zeros(I0.shape, dtype=np.float32)
    u1, u2 = zeros(), zeros()
    at = backend.warp_coords(u1, u2)
    I1w, I1wx, I1wy = (backend.warp_bilinear(img, at) for img in (I1, I1x, I1y))
    grad = I1wx * I1wx + I1wy * I1wy
    rho_c = I1w - I1wx * u1 - I1wy * u2 - I0
    return I1wx, I1wy, rho_c, grad, [zeros() for _ in range(6)]


def test_iterations_drive_the_energy_down(rng):
    I1wx, I1wy, rho_c, grad, state = linearized_problem(rng)
    lam, theta, tau = 0.15, 0.3, 0.25
    energies = [flow_energy(rho_c, I1wx, I1wy, state[0], state[1], lam)]
    for _ in range(25):
        out = backend.tvl1_iterations(I1wx, I1wy, rho_c, grad, *state,
                                      lam, theta, tau, 1, 0.0)
        state = list(out[:6])
        energies.append(flow_energy(rho_c, I1wx, I1wy, state[0], state[1], lam))
    assert energies[-1] < 0.75 * energies[0]
    # after the initial dual warm-up the descent settles into monotone steps
    tail = np.diff(energies[5:])
    assert np.all(tail <= 0.01)


def test_chained_single_iterations_equal_one_call(rng):
    # the kernel may update its field arguments in place, so each branch
    # gets its own zero-initialized copies
    I1wx, I1wy, rho_c, grad, state = linearized_problem(rng)
    lam, theta, tau = 0.15, 0.3, 0.25
    chained = [s.copy() for s in state]
    for _ in range(25):
        chained = list(backend.tvl1_iterations(I1wx, I1wy, rho_c, grad, *chained,
                                               lam, theta, tau, 1, 0.0)[:6])
    fresh = [s.copy() for s in state]
    single = backend.tvl1_iterations(I1wx, I1wy, rho_c, grad, *fresh,
                                     lam, theta, tau, 25, 0.0)
    assert single[6] == 25
    for a, b in zip(chained, single[:6]):
        assert np.array_equal(a, b)


def test_recorded_warp_energies_trend_down(rng, monkeypatch):
    tex = smooth_texture(rng)
    params = TvL1Params()
    energies = spy_warp_energies(monkeypatch, tex.shape, params.lam)
    tvl1_flow(tex, rolled(tex, dx=1), params)
    assert len(energies) == params.n_warps
    assert energies[-1] < 0.9 * energies[0]
    ratios = np.array(energies[1:]) / np.array(energies[:-1])
    assert np.all(ratios < 1.05)


def test_flow_frames_clip_rescale_and_repeat_the_last_pair():
    u1 = np.array([[[30.0], [10.0]], [[-5.0], [0.0]]], dtype=np.float32)  # 2 pairs of 2x1
    u2 = np.array([[[-30.0], [0.0]], [[25.0], [-10.0]]], dtype=np.float32)
    out = flow_frames(u1, u2, clip=20.0)
    assert out.shape == (3, 2, 1, 2) and out.dtype == np.float32
    assert out[0, 0, 0].tolist() == [1.0, -1.0]
    assert out[0, 1, 0].tolist() == [0.5, 0.0]
    assert out[1, :, 0].tolist() == [[-0.25, 1.0], [0.0, -0.5]]
    assert np.array_equal(out[2], out[1])


def stored_flow(frames, params=TvL1Params()):
    """The (n, h, w, 2) flow array the flow stage stores for a scene."""
    u1, u2 = sequence_flow(np.array(frames, dtype=np.float32), params)
    return flow_frames(u1, u2, params.max_flow)


def test_stored_flow_keeps_the_frame_count(rng):
    tex = smooth_texture(rng, h=32, w=32)
    frames = [np.repeat(rolled(tex, dx=i)[:, :, None], 3, axis=2) for i in range(16)]
    out = stored_flow(frames, TvL1Params(max_flow=4.0))
    assert out.shape == (16, 32, 32, 2)
    assert np.array_equal(out[-1], out[-2])


def test_stored_flow_static_is_small(rng):
    img = np.repeat(rng.random((32, 32)).astype(np.float32)[:, :, None], 3, axis=2)
    out = stored_flow([img.copy() for _ in range(4)], TvL1Params(max_flow=1.0))
    assert np.abs(out).max() < 0.05


def test_stored_flow_recovers_constant_velocity(rng):
    tex = smooth_texture(rng)
    frames = [np.repeat(rolled(tex, dx=i)[:, :, None], 3, axis=2) for i in range(4)]
    out = stored_flow(frames, TvL1Params(max_flow=4.0))
    for f in out[:3]:
        recovered = f * 4.0
        assert central_epe(recovered, 1.0, 0.0) < 0.6


def test_mismatched_shapes_rejected(rng):
    with pytest.raises(DataError, match="equal-shaped"):
        tvl1_flow(rng.random((32, 32)), rng.random((32, 48)))


def test_too_small_input_rejected(rng):
    with pytest.raises(DataError, match="min_size"):
        tvl1_flow(rng.random((8, 8)), rng.random((8, 8)))


def test_parameter_validation():
    with pytest.raises(ConfigError, match="tau"):
        TvL1Params(tau=0.3)
    with pytest.raises(ConfigError, match="tau"):
        TvL1Params(tau=0.0)
    with pytest.raises(ConfigError, match="positive"):
        TvL1Params(lam=0.0)
    with pytest.raises(ConfigError, match="positive"):
        TvL1Params(theta=-1.0)
    with pytest.raises(ConfigError, match="pyramid_factor"):
        TvL1Params(pyramid_factor=1.0)
    with pytest.raises(ConfigError, match="min_size"):
        TvL1Params(min_size=4)
    with pytest.raises(ConfigError):
        TvL1Params(n_warps=0)
    with pytest.raises(ConfigError, match="max_flow"):
        TvL1Params(max_flow=0.0)
    TvL1Params(tau=0.25)  # boundary value stays legal


def test_sequence_flow_builds_each_pyramid_once_and_no_energy(rng, monkeypatch):
    pyramids = []
    build = tvl1._pyramid

    def counting_pyramid(frames, *args):
        pyramids.append(frames.copy())
        return build(frames, *args)

    # the solver keeps no energy bookkeeping for the pipeline to pay for
    assert not hasattr(tvl1, "flow_energy")
    monkeypatch.setattr(tvl1, "_pyramid", counting_pyramid)
    tex = smooth_texture(rng, h=32, w=32)
    frames = [np.repeat(rolled(tex, dx=i)[:, :, None], 3, axis=2) for i in range(5)]
    stored_flow(frames)
    assert [len(p) for p in pyramids] == [5]
    pyramids.clear()
    tex = smooth_texture(rng, h=72, w=96)  # 4 frames per solver stack
    frames = [np.repeat(rolled(tex, dx=i)[:, :, None], 3, axis=2) for i in range(11)]
    stored_flow(frames)
    # one call on the whole scene, each of the 11 distinct frames once
    assert [len(p) for p in pyramids] == [11]
    lum = frameio.luminance(np.array(frames, dtype=np.float32))
    assert np.array_equal(pyramids[0], np.float32(255.0) * lum)


@pytest.mark.parametrize("h, w, n", [(72, 96, 7), (144, 192, 3), (36, 48, 4)])
def test_a_stack_pyramid_is_its_frames_pyramids_stacked(rng, h, w, n):
    params = TvL1Params()
    tex = smooth_texture(rng, h=h, w=w)
    stack = np.float32(255.0) * np.array([rolled(tex, dx=i, dy=i // 2) for i in range(n)])
    levels = tvl1._pyramid(stack, params)
    per_frame = [tvl1._pyramid(stack[i : i + 1], params) for i in range(n)]
    assert len(levels) > 1 and all(len(p) == len(levels) for p in per_frame)
    for k, level in enumerate(levels):
        assert np.array_equal(level, np.concatenate([p[k] for p in per_frame])), f"level {k}"


def test_non_finite_flow_input_rejected(rng):
    img = rng.random((32, 32)).astype(np.float32)
    bad = img.copy()
    bad[5, 7] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        tvl1_flow(img, bad)
    with pytest.raises(DataError, match="non-finite"):
        tvl1_flow(np.full_like(img, np.inf), img)
    frames = [np.repeat(f[:, :, None], 3, axis=2) for f in (img, img, bad, img)]
    with pytest.raises(DataError, match="v: flow input has non-finite"):
        sequence_flow(np.array(frames), TvL1Params(), "v: ")
