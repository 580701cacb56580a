"""Optical flow solver checked against known integer-pixel motions.

Ground truth comes from np.roll on periodic textures, so the true flow is
exact everywhere; borders are excluded because warping has no data there.
"""

import numpy as np
import pytest
from helpers import smooth_texture

from hhmon import backend, frameio
from hhmon.errors import ConfigError, DataError
from hhmon.frameio import Frame, FrameSequence
from hhmon.tvl1 import (
    FLOW_CLIP,
    TvL1Params,
    _centered_gradient,
    flow_energy,
    flow_sequence,
    flow_to_frame,
    tvl1_flow,
)


def central_epe(flow, ux, uy, margin=6):
    c = flow[margin:-margin, margin:-margin]
    return float(np.hypot(c[..., 0] - ux, c[..., 1] - uy).mean())


def rolled(tex, dx=0, dy=0):
    return np.roll(np.roll(tex, dy, axis=0), dx, axis=1)


def test_zero_motion_is_near_zero(rng):
    tex = smooth_texture(rng)
    flow = tvl1_flow(tex, tex).flow
    assert np.abs(flow).max() < 0.05


def test_one_pixel_right_shift(rng):
    tex = smooth_texture(rng)
    flow = tvl1_flow(tex, rolled(tex, dx=1)).flow
    assert central_epe(flow, 1.0, 0.0) < 0.3


def test_two_pixel_down_shift(rng):
    tex = smooth_texture(rng)
    flow = tvl1_flow(tex, rolled(tex, dy=2)).flow
    assert central_epe(flow, 0.0, 2.0) < 0.4


def test_small_brightness_offset_degrades_gracefully(rng):
    tex = smooth_texture(rng)
    target = np.clip(rolled(tex, dx=1) + 0.05, 0.0, 1.0).astype(np.float32)
    flow = tvl1_flow(tex, target).flow
    # the data term absorbs part of the offset, so precision drops but the
    # recovered motion must stay sub-2px and keep its direction
    assert central_epe(flow, 1.0, 0.0) < 1.0
    assert flow[6:-6, 6:-6, 0].mean() > 0.5


def test_horizontal_flip_negates_u(rng):
    tex = smooth_texture(rng)
    moved = rolled(tex, dx=1)
    f = tvl1_flow(tex, moved).flow
    g = tvl1_flow(tex[:, ::-1].copy(), moved[:, ::-1].copy()).flow
    mirrored = f[:, ::-1, :]
    region = np.s_[6:-6, 6:-6]
    assert np.abs(g[region][..., 0] + mirrored[region][..., 0]).mean() < 0.1
    assert np.abs(g[region][..., 1] - mirrored[region][..., 1]).mean() < 0.1


def linearized_problem(rng):
    """One warp's linearization at zero flow, as the solver builds it."""
    tex = smooth_texture(rng)
    I0 = (tex * np.float32(255.0)).astype(np.float32)
    I1 = (rolled(tex, dx=1) * np.float32(255.0)).astype(np.float32)
    I1x, I1y = _centered_gradient(I1)
    zeros = lambda: np.zeros(I0.shape, dtype=np.float32)
    u1, u2 = zeros(), zeros()
    I1w = backend.warp_bilinear(I1, u1, u2)
    I1wx = backend.warp_bilinear(I1x, u1, u2)
    I1wy = backend.warp_bilinear(I1y, u1, u2)
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


def test_recorded_warp_energies_trend_down(rng):
    tex = smooth_texture(rng)
    res = tvl1_flow(tex, rolled(tex, dx=1))
    assert len(res.energies) == TvL1Params().n_warps
    assert res.energies[-1] < 0.9 * res.energies[0]
    ratios = np.array(res.energies[1:]) / np.array(res.energies[:-1])
    assert np.all(ratios < 1.05)


def test_frame_input_equals_luminance_plane(rng):
    rgb = rng.random((48, 48, 3)).astype(np.float32)
    rgb2 = np.roll(rgb, 1, axis=1)
    fa, fb = Frame(rgb), Frame(rgb2.copy())
    from_frames = tvl1_flow(fa, fb).flow
    from_planes = tvl1_flow(frameio.luminance(fa), frameio.luminance(fb)).flow
    assert np.array_equal(from_frames, from_planes)


def test_flow_to_frame_clips_and_rescales():
    flow = np.array([[[30.0, -30.0]], [[10.0, 0.0]]], dtype=np.float32)
    frame = flow_to_frame(flow, clip=20.0)
    assert frame.data.shape == (2, 1, 2)
    assert frame.data[0, 0, 0] == 1.0
    assert frame.data[0, 0, 1] == -1.0
    assert frame.data[1, 0, 0] == pytest.approx(0.5)
    assert FLOW_CLIP == 20.0


def make_sequence(frames, video_id="v"):
    return FrameSequence([Frame(f) for f in frames], fps=15.0,
                         video_id=video_id, date_tag="d0")


def test_flow_sequence_keeps_the_frame_count(rng):
    tex = smooth_texture(rng, h=32, w=32)
    frames = [np.repeat(rolled(tex, dx=i)[:, :, None], 3, axis=2) for i in range(16)]
    out = flow_sequence(make_sequence(frames), clip=4.0)
    assert len(out.frames) == 16
    assert out.frames[0].channels == 2
    assert np.array_equal(out.frames[-1].data, out.frames[-2].data)


def test_flow_sequence_static_is_small(rng):
    img = np.repeat(rng.random((32, 32)).astype(np.float32)[:, :, None], 3, axis=2)
    out = flow_sequence(make_sequence([img.copy() for _ in range(4)]), clip=1.0)
    for f in out.frames:
        assert np.abs(f.data).max() < 0.05


def test_flow_sequence_recovers_constant_velocity(rng):
    tex = smooth_texture(rng)
    frames = [np.repeat(rolled(tex, dx=i)[:, :, None], 3, axis=2) for i in range(4)]
    out = flow_sequence(make_sequence(frames), clip=4.0)
    for f in out.frames[:3]:
        recovered = f.data * 4.0
        assert central_epe(recovered, 1.0, 0.0) < 0.6


def test_flow_sequence_needs_two_frames(rng):
    img = np.repeat(rng.random((32, 32)).astype(np.float32)[:, :, None], 3, axis=2)
    with pytest.raises(DataError, match="at least 2 frames"):
        flow_sequence(make_sequence([img]))


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
    TvL1Params(tau=0.25)  # boundary value stays legal
