"""Dense optical flow via the duality-based TV-L1 solver.

Coarse-to-fine pyramid, five warps per level by default, primal-dual inner
iterations delegated to the selected kernel backend.  Luminance input is
rescaled to the 0..255 range internally so the default data weight keeps its
usual calibration against 8-bit gradients.

The solver works on whole scenes: `_solve` takes the pyramid of an
(n, H, W) stack of consecutive frames and solves its n - 1 pairs one level
at a time, coarsest first.  Each level runs through the backend kernels as
(P, h, w) stacks of at most `STACK_PIXELS` pixels of that level, each pair
bit for bit as if alone, so the small coarse levels run as a few large
stacks rather than many small ones.  Frames, pyramid levels and flows are
all (n, h, w) plane stacks, which `frameio.resize_bilinear` resizes as they
are.  `sequence_flow` solves a scene this way, building the pyramid of
its whole frame stack in one `_pyramid` call, and `flow_frames` turns its
pair flows into the stored (n, h, w, 2) flow array; `tvl1_flow` is a scene
of one pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend, frameio
from .errors import ConfigError, DataError

# Pixels per (P, h, w) float32 stack that the solver runs at once, on each
# pyramid level: 128 KB, so a stack's working set stays near the L2 cache.
# At 192x144 that is 1, 4, 18 and 75 pairs per stack from the finest level
# to the coarsest; a 23-frame scene has 22 pairs in all.
STACK_PIXELS = 32768


@dataclass
class TvL1Params:
    lam: float = 0.15  # data attachment weight
    theta: float = 0.3  # coupling between data and smoothness variables
    tau: float = 0.25  # dual ascent step
    n_warps: int = 5
    n_iters: int = 25
    stop_epsilon: float = 0.01
    pyramid_factor: float = 0.5
    min_size: int = 16
    # px; stored flow is clipped here then mapped to [-1, 1].  Desk-scale
    # scenes move 1-5 px per frame, so 1 px keeps it from collapsing to zero.
    max_flow: float = 1.0

    def __post_init__(self):
        if self.lam <= 0 or self.theta <= 0:
            raise ConfigError("lam and theta must be positive")
        if not 0 < self.tau <= 0.25:
            # the dual step loses its convergence guarantee past 0.25
            raise ConfigError(f"tau must lie in (0, 0.25], got {self.tau}")
        if self.n_warps < 1 or self.n_iters < 1:
            raise ConfigError("n_warps and n_iters must be >= 1")
        if not 0 < self.pyramid_factor < 1:
            raise ConfigError(f"pyramid_factor must lie in (0, 1), got {self.pyramid_factor}")
        if self.min_size < 8:
            raise ConfigError(f"min_size must be >= 8, got {self.min_size}")
        if not 0 < self.max_flow < np.inf:
            raise ConfigError(f"max_flow must be positive and finite, got {self.max_flow}")


def _gaussian_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable blur of each plane of an (n, h, w) stack, edges replicated."""
    radius = max(1, int(2.5 * sigma + 0.5))
    xs = np.arange(-radius, radius + 1, dtype=np.float32)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    k /= k.sum()
    h, w = img.shape[1:]
    pad = np.pad(img, ((0, 0), (0, 0), (radius, radius)), mode="edge")
    tmp = np.zeros_like(img)
    for i in range(k.size):
        tmp += k[i] * pad[:, :, i : i + w]
    pad = np.pad(tmp, ((0, 0), (radius, radius), (0, 0)), mode="edge")
    out = np.zeros_like(img)
    for i in range(k.size):
        out += k[i] * pad[:, i : i + h, :]
    return out


def _pyramid(frames: np.ndarray, params: TvL1Params) -> list[np.ndarray]:
    """Levels of an (n, h, w) frame stack, finest first; stops before either
    side would fall under min_size.  Each plane is blurred and resized on
    its own, so a stack's levels are its frames' levels stacked."""
    factor = params.pyramid_factor
    sigma = 0.6 * np.sqrt(1.0 / factor**2 - 1.0)
    levels = [frames]
    while True:
        _, h, w = levels[-1].shape
        nh, nw = int(round(h * factor)), int(round(w * factor))
        if min(nh, nw) < params.min_size:
            return levels
        levels.append(frameio.resize_bilinear(_gaussian_blur(levels[-1], sigma), nw, nh))


def _centered_gradient(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences over the last two axes, one-sided at the borders."""
    gx = np.zeros_like(img)
    gy = np.zeros_like(img)
    gx[..., :, 1:-1] = 0.5 * (img[..., :, 2:] - img[..., :, :-2])
    gx[..., :, 0] = 0.5 * (img[..., :, 1] - img[..., :, 0])
    gx[..., :, -1] = 0.5 * (img[..., :, -1] - img[..., :, -2])
    gy[..., 1:-1, :] = 0.5 * (img[..., 2:, :] - img[..., :-2, :])
    gy[..., 0, :] = 0.5 * (img[..., 1, :] - img[..., 0, :])
    gy[..., -1, :] = 0.5 * (img[..., -1, :] - img[..., -2, :])
    return gx, gy


def _frame_stack(planes, params: TvL1Params, where: str = "") -> np.ndarray:
    """Equal-shaped, finite planes (a list, or an (n, h, w) stack) as one
    new (n, h, w) float32 stack in 0..255."""
    shapes = [np.shape(p) for p in planes]
    if len(shapes[0]) != 2 or len(set(shapes)) != 1:
        raise DataError(f"{where}flow inputs must be equal-shaped 2d arrays, "
                        f"got {' and '.join(map(str, shapes))}")
    if min(shapes[0]) < params.min_size:
        raise DataError(f"{where}flow input {shapes[0]} is smaller than "
                        f"min_size {params.min_size}")
    frames = np.array(planes, dtype=np.float32)
    if not np.isfinite(frames).all():
        raise DataError(f"{where}flow input has non-finite values")
    frames *= np.float32(255.0)
    return frames


def _solve(levels: list[np.ndarray], params: TvL1Params) -> tuple[np.ndarray, np.ndarray]:
    """Flow (u1, u2), each (n - 1, h, w), between the consecutive frames of a
    pyramid of (n, h, w) frame stacks, solved one level at a time, coarsest
    first, in stacks of at most STACK_PIXELS pixels of that level."""
    n_pairs = len(levels[0]) - 1
    u1 = u2 = None
    for level in range(len(levels) - 1, -1, -1):
        frames = levels[level]
        _, h, w = frames.shape
        chunk = max(1, STACK_PIXELS // (h * w))
        v1 = np.empty((n_pairs, h, w), dtype=np.float32)
        v2 = np.empty_like(v1)
        for a in range(0, n_pairs, chunk):
            b = min(a + chunk, n_pairs)
            if u1 is None:
                c1, c2 = np.zeros((2, b - a, h, w), dtype=np.float32)
            else:  # the coarser level's flow, resized and rescaled
                c = frameio.resize_bilinear(np.concatenate([u1[a:b], u2[a:b]]), w, h)
                c1, c2 = c[: b - a], c[b - a :]
                c1 *= np.float32(w / u1.shape[2])
                c2 *= np.float32(h / u1.shape[1])
            v1[a:b], v2[a:b] = _warps(frames[a : b + 1], c1, c2, params)
        u1, u2 = v1, v2
    return u1, u2


def _warps(frames: np.ndarray, u1: np.ndarray, u2: np.ndarray,
           params: TvL1Params) -> tuple[np.ndarray, np.ndarray]:
    """The n_warps warps of one pyramid level on the pairs of an (n, h, w)
    frame stack, starting from the flow (u1, u2)."""
    stop_eps2 = params.stop_epsilon**2
    I0, I1 = frames[:-1], frames[1:]
    images = (I1, *_centered_gradient(I1))
    p11, p12, p21, p22 = (np.zeros_like(I0) for _ in range(4))
    for _ in range(params.n_warps):
        at = backend.warp_coords(u1, u2)  # one coordinate pass for the three images
        I1w, I1wx, I1wy = (backend.warp_bilinear(img, at) for img in images)
        del at  # before the iterations allocate their buffers
        grad = I1wx * I1wx + I1wy * I1wy
        rho_c = I1w - I1wx * u1 - I1wy * u2 - I0
        u1, u2, p11, p12, p21, p22, _ = backend.tvl1_iterations(
            I1wx, I1wy, rho_c, grad, u1, u2, p11, p12, p21, p22,
            params.lam, params.theta, params.tau, params.n_iters, stop_eps2,
        )
    return u1, u2


def tvl1_flow(img0, img1, params: TvL1Params | None = None) -> np.ndarray:
    """Flow from img0 to img1, (h, w) luminance planes in [0, 1], as an
    (h, w, 2) float32 array: channel 0 is dx, channel 1 is dy."""
    params = params or TvL1Params()
    u1, u2 = _solve(_pyramid(_frame_stack([img0, img1], params), params), params)
    return np.stack([u1[0], u2[0]], axis=-1)


def sequence_flow(frames: np.ndarray, params: TvL1Params,
                  where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Flow (u1, u2), each (n - 1, h, w) float32, between the consecutive
    images of an (n, h, w, c) frame array, solved as one pyramid, level by
    level (see `_solve`).  Each pair gets the same bits whatever frames
    surround it, so a scene may be solved in contiguous ranges that share
    their boundary frames."""
    stack = _frame_stack(frameio.luminance(frames), params, where)
    return _solve(_pyramid(stack, params), params)


def flow_frames(u1: np.ndarray, u2: np.ndarray, clip: float) -> np.ndarray:
    """The n - 1 pair flows (u1, u2) as an (n, h, w, 2) flow array, clipped
    to +-clip px and rescaled to [-1, 1], the last pair's repeated once;
    that keeps flow windows aligned start-for-start with the RGB windows
    they shadow."""
    out = np.empty((len(u1) + 1, *u1.shape[1:], 2), dtype=np.float32)
    np.clip(u1, -clip, clip, out=out[:-1, ..., 0])
    np.clip(u2, -clip, clip, out=out[:-1, ..., 1])
    out[:-1] /= np.float32(clip)
    out[-1] = out[-2]
    return out
