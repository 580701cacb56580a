"""Synthetic test data and oracles shared by several test modules.

They live here rather than in conftest.py because `from conftest import`
resolves to whichever conftest module pytest loaded last, and the suite
collects perfbench/tests, which has its own conftest, alongside tests/.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np


def make_rgb(width, height, rng, constant=None):
    """Random (or constant) (height, width, 3) float32 RGB image in [0, 1]."""
    if constant is not None:
        return np.full((height, width, 3), constant, dtype=np.float32)
    return rng.random((height, width, 3)).astype(np.float32)


def smooth_texture(rng, h=64, w=64, passes=4):
    """Band-limited random texture in [0, 1]; periodic, so np.roll shifts are exact."""
    img = rng.random((h, w))
    for _ in range(passes):
        img = sum(np.roll(np.roll(img, dy, 0), dx, 1)
                  for dy in (-1, 0, 1) for dx in (-1, 0, 1)) / 9.0
    img -= img.min()
    img /= img.max()
    return img.astype(np.float32)


def tree_bytes(root):
    """{path relative to root: file bytes} of every file under root."""
    return {os.path.relpath(os.path.join(d, f), root): Path(d, f).read_bytes()
            for d, _, files in os.walk(root) for f in files}


def checkpoint_layout(path):
    """The layout JSON document stored in the .swnet checkpoint at path."""
    raw = Path(path).read_bytes()
    (size,) = struct.unpack_from("<I", raw, 9)  # after the magic and the version
    return json.loads(raw[13 : 13 + size])


def rewrite_layout(path, layout):
    """Replace the layout in the .swnet checkpoint at path with `layout`
    (bytes as they are, anything else as its JSON), keeping the parameters."""
    if not isinstance(layout, bytes):
        layout = json.dumps(layout).encode("utf-8")
    raw = Path(path).read_bytes()
    (size,) = struct.unpack_from("<I", raw, 9)
    Path(path).write_bytes(raw[:9] + struct.pack("<I", len(layout)) + layout + raw[13 + size :])


def use_kernels(monkeypatch, kernels):
    """Point the flow solver at one kernel backend for the rest of a test."""
    from hhmon import backend

    for name in backend.KERNELS:
        monkeypatch.setattr(backend, name, getattr(kernels, name))


def wrist_distance_series(poses, person=0):
    """Distance between the two wrists over time; the rubbing oscillation oracle."""
    from hhmon import pose

    return np.array([np.hypot(*(pf.persons[person][pose.R_WRIST, :2]
                                - pf.persons[person][pose.L_WRIST, :2])) for pf in poses])


def mean_wrist_speed(poses, person=0):
    """Mean per-frame wrist displacement averaged over both wrists."""
    from hhmon import pose

    pts = np.array([[pf.persons[person][j, :2] for j in (pose.R_WRIST, pose.L_WRIST)]
                    for pf in poses])
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=2).mean())


def crop(image, box):
    """Copy the intersection of `box` (BBox or (x1, y1, x2, y2)) with an
    (h, w, c) image."""
    from hhmon.clipset import _crop_slices
    from hhmon.pose import BBox

    if not isinstance(box, BBox):
        box = BBox(*box)
    rows, cols = _crop_slices(box, image.shape[1], image.shape[0])
    return image[rows, cols].copy()


def hflip(image):
    """Reverse columns; flow images also get their horizontal component negated."""
    out = image[:, ::-1].copy()
    if out.shape[2] == 2:
        out[:, :, 0] = -out[:, :, 0]
    return out


def adjust_brightness(image, delta):
    """Add `delta` to every channel and clamp to [0, 1].  RGB images only."""
    from hhmon.errors import DataError

    if image.shape[2] != 3:
        raise DataError(f"brightness adjustment requires an RGB image, got {image.shape[2]} channels")
    return np.clip(image + np.float32(delta), 0.0, 1.0)


def resize_bilinear_oracle(image, out_w, out_h):
    """Bilinear resize of an (h, w, c) array with corner-aligned sampling, as
    `frameio.resize_bilinear` first computed it: the whole out_h x out_w
    result, interpolated along x at the output rows, then along y, each
    step rounded to the image's dtype as a * (1 - f) + b * f."""
    def coords(n_out, n_in):
        if n_out == 1 or n_in == 1:
            return np.full(n_out, (n_in - 1) / 2.0)
        return np.arange(n_out) * ((n_in - 1) / (n_out - 1))

    height, width = image.shape[:2]
    xs, ys = coords(out_w, width), coords(out_h, height)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, width - 1)
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, height - 1)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (xs - x0).astype(np.float32)[None, :, None]
    fy = (ys - y0).astype(np.float32)[:, None, None]
    top = image[y0][:, x0] * (1 - fx) + image[y0][:, x1] * fx
    bot = image[y1][:, x0] * (1 - fx) + image[y1][:, x1] * fx
    return top * (1 - fy) + bot * fy


def crop_window_oracle(seq, box, start, n, size, flip=False, delta=0.0):
    """The per-frame crop -> fit -> flip -> brighten loop that
    `clipset.crop_window` batches: an (n, size, size, C) array."""
    planes = []
    for frame in seq.data[start:start + n]:
        if box is not None:
            frame = crop(frame, box)
        h, w = frame.shape[:2]
        scale = size / min(w, h)
        new_w = max(size, int(round(w * scale)))
        new_h = max(size, int(round(h * scale)))
        resized = resize_bilinear_oracle(frame, new_w, new_h)
        x0, y0 = (new_w - size) // 2, (new_h - size) // 2
        frame = resized[y0:y0 + size, x0:x0 + size].copy()
        if flip:
            frame = hflip(frame)
        if delta and frame.shape[2] == 3:
            frame = adjust_brightness(frame, delta)
        planes.append(frame)
    return np.stack(planes)


def to_net_oracle(clip):
    """An (n, size, size, C) crop of `crop_window_oracle` in the network's
    (C, n, size, size) layout, RGB mapped from [0, 1] to [-1, 1] in float32
    and flow passed through: the reference for the last step of
    `clipset.crop_window`."""
    x = np.array(clip.transpose(3, 0, 1, 2), dtype=np.float32, order="C")
    if x.shape[0] == 3:
        x *= np.float32(2.0)
        x -= np.float32(1.0)
    return x


def pad5_oracle(x, pads, temporal_pad, fill):
    """`layers._pad5` as np.pad calls: a wrap pad along time, then a constant pad."""
    (pt0, pt1), (ph0, ph1), (pw0, pw1) = pads
    full = ((0, 0), (0, 0), (pt0, pt1), (ph0, ph1), (pw0, pw1))
    if temporal_pad == "circular" and (pt0 or pt1):
        x = np.pad(x, ((0, 0), (0, 0), (pt0, pt1), (0, 0), (0, 0)), mode="wrap")
        full = ((0, 0), (0, 0), (0, 0), (ph0, ph1), (pw0, pw1))
    return np.pad(x, full, mode="constant", constant_values=fill)


def conv3d_im2col_oracle(x, kernel, bias, stride=(1, 1, 1), padding="same",
                         temporal_pad="zero"):
    """The position-major im2col convolution `layers` replaced: (N, P, K)
    columns from one reshape of a transposed 8-d window view, then
    `cols @ kernel.T`.  Returns (y, cache) for `conv3d_backward_oracle`."""
    from hhmon import layers

    c_out = kernel.shape[0]
    pads = layers._pad_amounts(x.shape[2:], kernel.shape[2:], stride, padding)
    xp = pad5_oracle(x, pads, temporal_pad, 0.0)
    win = layers._windows(xp, kernel.shape[2:], stride)
    N, _, To, Ho, Wo = win.shape[:5]
    cols = win.transpose(0, 2, 3, 4, 1, 5, 6, 7).reshape(N, To * Ho * Wo, -1)
    y = cols @ kernel.reshape(c_out, -1).T + bias
    y = y.transpose(0, 2, 1).reshape(N, c_out, To, Ho, Wo)
    return y, (cols, kernel, xp.shape, pads, stride, temporal_pad)


def conv3d_backward_oracle(dy, cache):
    """(dx, dkernel, dbias) of `conv3d_im2col_oracle`, folding the (N, P, K)
    column gradient back one kernel tap at a time."""
    cols, kernel, xpshape, pads, stride, temporal_pad = cache
    c_out, c_in, kt, kh, kw = kernel.shape
    N, _, To, Ho, Wo = dy.shape
    st, sh, sw = stride
    dy2 = dy.reshape(N, c_out, -1)
    db = dy2.sum(axis=(0, 2))
    dk = np.matmul(dy2, cols).sum(axis=0).reshape(kernel.shape)
    dcols = dy2.transpose(0, 2, 1) @ kernel.reshape(c_out, -1)
    dcw = dcols.reshape(N, To, Ho, Wo, c_in, kt, kh, kw)
    dxp = np.zeros(xpshape, dtype=dy.dtype)
    for it in range(kt):
        for ih in range(kh):
            for iw in range(kw):
                dxp[:, :, it:it + To * st:st, ih:ih + Ho * sh:sh, iw:iw + Wo * sw:sw] += \
                    dcw[:, :, :, :, :, it, ih, iw].transpose(0, 4, 1, 2, 3)
    (pt0, pt1), (ph0, ph1), (pw0, pw1) = pads
    d = dxp[:, :, :, ph0:xpshape[3] - ph1, pw0:xpshape[4] - pw1]
    t_in = d.shape[2] - pt0 - pt1
    dx = d[:, :, pt0:pt0 + t_in].copy()
    if temporal_pad == "circular":
        if pt0:
            dx[:, :, t_in - pt0:] += d[:, :, :pt0]
        if pt1:
            dx[:, :, :pt1] += d[:, :, pt0 + t_in:]
    return dx, dk, db


def maxpool3d_argmax_oracle(x, kernel, stride=None, padding="valid", temporal_pad="zero"):
    """The max pool `layers` replaced: flat argmax indices over the window
    view (the first maximum in (t, h, w) order wins a tie, the first NaN
    wins outright) and the values they pick.  Returns (y, cache) for
    `maxpool3d_backward_oracle`."""
    from hhmon import layers

    stride = stride or kernel
    pads = layers._pad_amounts(x.shape[2:], kernel, stride, padding)
    xp = pad5_oracle(x, pads, temporal_pad, -np.inf)
    win = layers._windows(xp, kernel, stride)
    flat = win.reshape(*win.shape[:5], -1)
    idx = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    return y, (idx, xp.shape, kernel, stride, pads, temporal_pad)


def maxpool3d_backward_oracle(dy, cache):
    """dx of `maxpool3d_argmax_oracle`: each output gradient scattered onto
    its argmax cell with np.add.at, which adds in output order."""
    from hhmon import layers

    idx, xpshape, kernel, stride, pads, temporal_pad = cache
    kt, kh, kw = kernel
    st, sh, sw = stride
    N, C, To, Ho, Wo = dy.shape
    dt, rem = np.divmod(idx, kh * kw)
    dh, dw = np.divmod(rem, kw)
    n_i, c_i, t_i, h_i, w_i = np.ogrid[:N, :C, :To, :Ho, :Wo]
    dxp = np.zeros(xpshape, dtype=dy.dtype)
    np.add.at(dxp, (n_i, c_i, t_i * st + dt, h_i * sh + dh, w_i * sw + dw), dy)
    return layers._unpad_grad(dxp, pads, temporal_pad)


def batched_features_oracle(net, x, batch_size=8):
    """Backbone features of clips x (N, C, T, H, W) as computed before the
    network walked one clip at a time: batches of `batch_size` stacked
    clips, each block run on the whole batch without a cache."""
    out = []
    for i in range(0, len(x), batch_size):
        h = net._walk(net.spec.blocks, x[i:i + batch_size], "zero", None)
        out.append(h.mean(axis=(2, 3, 4)))
    return np.concatenate(out)


def batched_scores_oracle(net, x, batch_size=8):
    """Sigmoid scores of clips x with the head run per batch of `batch_size`
    on `batched_features_oracle`'s features, as before."""
    from hhmon import layers

    return np.concatenate([
        layers.sigmoid(net.head(batched_features_oracle(net, x[i:i + batch_size])))
        for i in range(0, len(x), batch_size)])


def eval_scores_oracle(cfg, net, recs, stream):
    """Each test record's score as a pass of `net` alone computes it: read
    the record's scene and track, sample its start-frame clip and score it
    with `net.score` as a one-clip batch, as `hhmon infer` does."""
    from hhmon import clipset, pipeline

    load = pipeline._scene_loader(cfg, stream)
    return [float(net.score(clipset.sample_clip(load(rec), pipeline._track_for(cfg, rec),
                                               rec.start_frame, cfg.clip, mode="eval",
                                               seed=cfg.seed)[None])[0])
            for rec in recs]


def flow_energy(rho_c, I1wx, I1wy, u1, u2, lam):
    """TV-L1 objective under one warp's linearization: lam * data residual
    + TV, summed over every plane of the (P, h, w) stacks given."""
    from hhmon._purekernels import _forward_grad

    rho = rho_c + I1wx * u1 + I1wy * u2
    u1x, u1y = _forward_grad(u1, np.zeros_like(u1), np.zeros_like(u1))
    u2x, u2y = _forward_grad(u2, np.zeros_like(u2), np.zeros_like(u2))
    tv = np.sqrt(u1x**2 + u1y**2).sum() + np.sqrt(u2x**2 + u2y**2).sum()
    return float(lam * np.abs(rho).sum() + tv)


def warp_coords_oracle(u, v):
    """`_purekernels.warp_coords` as it first computed the coordinates, with
    numpy's mixed-dtype promotion: the weights are float32 minus intp, so
    float64."""
    p, h, w = u.shape
    x = np.arange(w, dtype=np.float32) + u
    y = np.arange(h, dtype=np.float32)[:, None] + v
    x = np.where(x >= 0, np.minimum(x, np.float32(w - 1)), np.float32(0))
    y = np.where(y >= 0, np.minimum(y, np.float32(h - 1)), np.float32(0))
    x0, y0 = x.astype(np.intp), y.astype(np.intp)
    i00 = y0 * w + x0 + np.arange(0, p * h * w, h * w)[:, None, None]
    i10 = np.where(y0 < h - 1, i00 + w, i00)
    right = x0 < w - 1
    return i00, i00 + right, i10, i10 + right, x - x0, y - y0


def expand_coords(coords, w):
    """The compact coordinates of `warp_coords` on planes w wide as the six
    arrays `warp_coords_oracle` returns: the four corner indices, widened
    from int32 to intp, and the fractions widened to float64."""
    index, corners, fx, fy = coords
    index = index.astype(np.intp)
    right = (corners & 1).astype(np.intp)
    lower = np.where(corners & 2, index + w, index)
    return (index, index + right, lower, lower + right,
            fx.astype(np.float64), fy.astype(np.float64))


def warp_bilinear_oracle(img, coords):
    """`_purekernels.warp_bilinear` as it first sampled: float32 corner
    differences, weighted and summed in float64 by mixed-dtype ufuncs."""
    i00, i01, i10, i11, fx, fy = coords
    flat = img.reshape(-1)
    top = flat[i00] + fx * (flat[i01] - flat[i00])
    bot = flat[i10] + fx * (flat[i11] - flat[i10])
    return (top + fy * (bot - top)).astype(np.float32)


def gaussian_blur_oracle(img, taps):
    """A separable blur one pixel and one tap at a time, edges replicated by
    clamping: the horizontal pass, then the vertical one, each summing from
    +0.0 and rounding to float32 after each float64 tap product is added."""
    r = len(taps) // 2
    out = np.array(img, dtype=np.float32)
    for axis in (2, 1):
        src, out = out, np.empty_like(out)
        for k, y, x in np.ndindex(src.shape):
            acc = np.float32(0.0)
            for j, tap in enumerate(taps):
                if axis == 2:
                    v = src[k, y, min(max(x - r + j, 0), src.shape[2] - 1)]
                else:
                    v = src[k, min(max(y - r + j, 0), src.shape[1] - 1), x]
                acc = np.float32(float(acc) + float(tap) * float(v))
            out[k, y, x] = acc
    return out


def tvl1_iterations_oracle(I1wx, I1wy, rho_c, grad, u1, u2, p11, p12, p21, p22,
                           lam, theta, tau, n_iters, stop_eps2):
    """`_purekernels.tvl1_iterations` as it first computed each plane: one
    (1, h, w) plane at a time, plain nested selects, each float32 op in the
    kernel's order.  Returns new arrays and the largest iteration count."""
    lt, taut, theta32 = np.float32(lam * theta), np.float32(tau / theta), np.float32(theta)

    def forward_grad(u):
        gx, gy = np.zeros_like(u), np.zeros_like(u)
        gx[..., :-1] = u[..., 1:] - u[..., :-1]
        gy[..., :-1, :] = u[..., 1:, :] - u[..., :-1, :]
        return gx, gy

    def divergence(pa, pb):
        d1, d2 = pa.copy(), pb.copy()
        d1[..., 1:] = pa[..., 1:] - pa[..., :-1]
        d2[..., 1:, :] = pb[..., 1:, :] - pb[..., :-1, :]
        return d1 + d2

    out = [np.empty_like(a) for a in (u1, u2, p11, p12, p21, p22)]
    most = 0
    for k in range(len(u1)):
        a1, a2, rc, g = (a[k:k + 1] for a in (I1wx, I1wy, rho_c, grad))
        th = lt * g
        v1, v2, q11, q12, q21, q22 = (a[k:k + 1].copy() for a in (u1, u2, p11, p12, p21, p22))
        for done in range(1, n_iters + 1):
            rho = rc + a1 * v1 + a2 * v2
            quot = -rho / np.where(g > 1e-10, g, np.float32(1))
            step = np.where(rho < -th, lt, np.where(rho > th, -lt,
                                                    np.where(g > 1e-10, quot, np.float32(0))))
            err = 0.0
            new = []
            for u, a, pa, pb in ((v1, a1, q11, q12), (v2, a2, q21, q22)):
                un = u + step * a
                un = un + theta32 * divergence(pa, pb)
                d = un - u
                err += np.sum(d * d, axis=(-2, -1), dtype=np.float64)[0]
                new.append(un)
            v1, v2 = new
            duals = []
            for un, pa, pb in ((v1, q11, q12), (v2, q21, q22)):
                gx, gy = forward_grad(un)
                ng = np.float32(1.0) + taut * np.sqrt(gx * gx + gy * gy)
                duals += [(pa + taut * gx) / ng, (pb + taut * gy) / ng]
            q11, q12, q21, q22 = duals
            if err / v1.size < stop_eps2:
                break
        most = max(most, done)
        for dst, src in zip(out, (v1, v2, q11, q12, q21, q22)):
            dst[k] = src[0]
    return (*out, most)


def spy_warp_energies(monkeypatch, shape, lam):
    """Wrap `backend.tvl1_iterations` so that each call on stacks of (h, w) =
    `shape` planes, the finest level of a solve at that size, appends the
    flow energy after its warp; returns that list."""
    from hhmon import backend

    energies = []
    iterations = backend.tvl1_iterations

    def spy(I1wx, I1wy, rho_c, *args):
        out = iterations(I1wx, I1wy, rho_c, *args)
        if rho_c.shape[1:] == shape:
            energies.append(flow_energy(rho_c, I1wx, I1wy, out[0], out[1], lam))
        return out

    monkeypatch.setattr(backend, "tvl1_iterations", spy)
    return energies


def head_sgd_oracle(w, b, feats, y, cfg, seed):
    """Momentum SGD of a logistic head (w, b) on features (N, F), written
    out on the dense layer alone, as the head was trained before it went
    through `training.sgd_train`; updates w and b in place and returns the
    per-epoch mean loss."""
    from hhmon import layers

    rng = np.random.default_rng(seed)
    vw, vb = np.zeros_like(w), np.zeros_like(b)
    curve = []
    for _ in range(cfg.epochs):
        total = 0.0
        order = rng.permutation(len(feats))
        for i in range(0, len(feats), cfg.batch_size):
            idx = order[i : i + cfg.batch_size]
            x = feats[idx]
            loss, dlogits = layers.bce_with_logits((x @ w + b)[:, 0], y[idx])
            dw, db = x.T @ dlogits[:, None], dlogits[:, None].sum(axis=0)
            vw *= cfg.momentum
            vw += dw
            vb *= cfg.momentum
            vb += db
            w -= (cfg.lr * vw).astype(w.dtype, copy=False)
            b -= (cfg.lr * vb).astype(b.dtype, copy=False)
            total += loss * len(idx)
        curve.append(total / len(feats))
    return curve


def _draw_segment_oracle(img, p0, p1, color, width=1.4):
    h, w = img.shape[:2]
    x_lo = int(max(0, np.floor(min(p0[0], p1[0]) - width - 1)))
    x_hi = int(min(w, np.ceil(max(p0[0], p1[0]) + width + 2)))
    y_lo = int(max(0, np.floor(min(p0[1], p1[1]) - width - 1)))
    y_hi = int(min(h, np.ceil(max(p0[1], p1[1]) + width + 2)))
    if x_hi <= x_lo or y_hi <= y_lo:
        return
    ys, xs = np.mgrid[y_lo:y_hi, x_lo:x_hi]
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    seg_len2 = dx * dx + dy * dy
    if seg_len2 < 1e-12:
        t = np.zeros_like(xs, dtype=np.float64)
    else:
        t = np.clip(((xs - p0[0]) * dx + (ys - p0[1]) * dy) / seg_len2, 0.0, 1.0)
    px = p0[0] + t * dx
    py = p0[1] + t * dy
    dist = np.sqrt((xs - px) ** 2 + (ys - py) ** 2)
    alpha = np.clip(width - dist, 0.0, 1.0).astype(np.float32)[:, :, None]
    img[y_lo:y_hi, x_lo:x_hi] = img[y_lo:y_hi, x_lo:x_hi] * (1 - alpha) + color[None, None, :] * alpha


def _draw_disc_oracle(img, center, radius, color):
    h, w = img.shape[:2]
    x_lo = int(max(0, np.floor(center[0] - radius - 1)))
    x_hi = int(min(w, np.ceil(center[0] + radius + 2)))
    y_lo = int(max(0, np.floor(center[1] - radius - 1)))
    y_hi = int(min(h, np.ceil(center[1] + radius + 2)))
    if x_hi <= x_lo or y_hi <= y_lo:
        return
    ys, xs = np.mgrid[y_lo:y_hi, x_lo:x_hi]
    dist = np.sqrt((xs - center[0]) ** 2 + (ys - center[1]) ** 2)
    alpha = np.clip(radius - dist + 0.5, 0.0, 1.0).astype(np.float32)[:, :, None]
    img[y_lo:y_hi, x_lo:x_hi] = img[y_lo:y_hi, x_lo:x_hi] * (1 - alpha) + color[None, None, :] * alpha


def render_scene_oracle(spec, motions=None):
    """`synth.generate_scene` as it drew before limbs were drawn over all
    frames at once: one patch per limb per frame.  `motions` replaces the
    drawn persons' trajectories (the rng still draws them first)."""
    from hhmon import pose, synth
    from hhmon.frameio import FrameSequence
    from hhmon.pose import PoseFrame

    rng = np.random.default_rng(spec.seed)
    drawn = synth.default_motion(spec, rng)
    motions = drawn if motions is None else motions
    background = synth._background(spec.width, spec.height, rng)
    drop = None
    if spec.joint_dropout > 0:
        drop = rng.random((spec.n_frames, spec.n_persons, pose.N_JOINTS)) < spec.joint_dropout
    frames = np.empty((spec.n_frames, spec.height, spec.width, 3), dtype=np.float32)
    poses = []
    for t in range(spec.n_frames):
        img = background.copy()
        pf = PoseFrame(t)
        for pi, motion in enumerate(motions):
            joints = synth.skeleton_at(motion, t)
            color = np.array([motion.shade, motion.shade * 1.1, motion.shade * 1.35],
                             dtype=np.float32)
            for a, b in synth._LIMBS:
                _draw_segment_oracle(img, joints[a], joints[b], color)
            _draw_disc_oracle(img, joints[pose.NOSE], 0.18 * motion.scale, color)
            kp = np.concatenate([joints, np.ones((pose.N_JOINTS, 1))], axis=1)
            if drop is not None:
                kp[drop[t, pi]] = 0.0
            pf.persons.append(kp)
            pf.person_hints.append(pi)
        np.clip(img, 0.0, 1.0, out=frames[t])
        poses.append(pf)
    return FrameSequence(frames, fps=spec.fps, video_id=spec.video_id,
                         date_tag=spec.date_tag), poses


def link_step_oracle(tracks, detections, frame_index, tau_new, next_id=None):
    """The `tracking.link_step` the sorted pair walk replaced: after each
    match it rescans every free (track, detection) pair for the best IoU,
    free tracks in track id order and free detections in index order."""
    from hhmon.tracking import Track, iou

    if next_id is None:
        next_id = max((t.track_id for t in tracks), default=-1) + 1
    scores = np.zeros((len(tracks), len(detections)))
    for ti, track in enumerate(tracks):
        last_box = track.entries[-1][1]
        for di, det in enumerate(detections):
            scores[ti, di] = iou(last_box, det)
    matches = []
    free_tracks = set(range(len(tracks)))
    free_dets = set(range(len(detections)))
    while free_tracks and free_dets:
        best = None
        for ti in sorted(free_tracks, key=lambda i: tracks[i].track_id):
            for di in sorted(free_dets):
                s = scores[ti, di]
                if s >= tau_new and (best is None or s > best[0]):
                    best = (s, ti, di)
        if best is None:
            break
        _, ti, di = best
        tracks[ti].entries.append((frame_index, detections[di]))
        matches.append((ti, di))
        free_tracks.remove(ti)
        free_dets.remove(di)
    new_tracks = []
    for di in sorted(free_dets):
        new_tracks.append(Track(next_id, entries=[(frame_index, detections[di])]))
        next_id += 1
    return matches, new_tracks
