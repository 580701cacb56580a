"""Functional 3D-CNN building blocks with explicit backward passes.

Tensors are numpy arrays shaped (N, C, T, H, W).  The convolution and
max-pool forwards return (output, cache); the matching backward consumes
the cache.  The network's other steps (relu, concat, global average pool,
head) are one-line numpy expressions in `model`.  Arithmetic keeps the
input dtype, so tests can run the whole stack in double precision while
training stays in float32.

Convolution is channel-major im2col: columns (N, K, P), K = Cin*kT*kH*kW in
the kernel's order and P = To*Ho*Wo, filled with one copy of the strided
sliding-window view, whose innermost axis runs along an output row.
`kernel (Cout, K) @ cols` then gives (N, Cout, P), which is already the
(N, C, T, H, W) output.  A 1x1x1 kernel at stride 1 takes its input,
reshaped, as its columns: a view, so a training cache holds its input,
which must stay unchanged until the backward pass.  The backward pass folds
the column gradient back with one strided slice add per tap.  Padding
allocates the padded array once, filled with the pad value, and
slice-assigns the input and, for a circular temporal pad, the wrapped
frames; with no padding the input itself goes on.  Max pooling has one
route, with or without a cache: a separable max, one axis at a time.  Its
cache keeps the output and the padded input (the input itself if unpadded,
so it too must stay unchanged), from which the backward finds each
window's first maximum.

Both forwards take `want_cache`.  Without a cache (inference and feature
extraction) they return (output, None), and convolution may take cheaper
routes chosen from the data, never from a switch:

- convolution splits the output frames into slabs whose im2col columns
  fit `COLUMN_BYTES`.  That gives the same bits as one call on the whole
  input wherever the BLAS rounds a column independently of the product's
  width: OpenBLAS does above about a million multiply-adds, as for the
  default conv1, but can differ in the last bit on smaller products;
- a convolution whose kT time slices are all exactly equal (an inflated
  kernel: its 2D kernel repeated kT times and divided by kT) box-sums the kT
  padded input frames at the temporal stride and runs one 2D convolution
  with the first slice.  This sums in another order than the general
  route, so float32 outputs can differ in the last bits (about 1e-6
  relative); any other kernel, and every cached call, keeps the general
  route.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError

_PAD_MODES = ("zero", "circular")

# Byte budget of one no-cache convolution slab's im2col columns (at least one
# output frame): a default scratch conv1 clip's 10.8 MiB run in two slabs.
# At 4 MiB no per-clip array lifts glibc's dynamic mmap and trim thresholds
# above the per-clip heap, which is then returned and faulted back in every
# clip (eval 8% slower); 8 MiB costs about 2 MB of peak RSS instead.
COLUMN_BYTES = 8 << 20


def _same_pad(n: int, k: int, s: int) -> tuple[int, int]:
    out = -(-n // s)
    total = max((out - 1) * s + k - n, 0)
    return total // 2, total - total // 2


def _pad_amounts(shape, kernel, stride, padding):
    if padding == "valid":
        return ((0, 0), (0, 0), (0, 0))
    if padding != "same":
        raise ModelError(f"unknown padding mode {padding!r}")
    return tuple(_same_pad(n, k, s) for n, k, s in zip(shape, kernel, stride))


def _pad5(x: np.ndarray, pads, temporal_pad: str, fill: float) -> np.ndarray:
    (pt0, pt1), (ph0, ph1), (pw0, pw1) = pads
    if temporal_pad not in _PAD_MODES:
        raise ModelError(f"unknown temporal_pad mode {temporal_pad!r}")
    N, C, T, H, W = x.shape
    if temporal_pad == "circular" and max(pt0, pt1) > T:
        raise ModelError("circular temporal pad wider than the clip")
    if not any(map(any, pads)):
        return x
    xp = np.full((N, C, T + pt0 + pt1, H + ph0 + ph1, W + pw0 + pw1), fill, dtype=x.dtype)
    core = xp[:, :, :, ph0:ph0 + H, pw0:pw0 + W]
    core[:, :, pt0:pt0 + T] = x
    if temporal_pad == "circular":
        core[:, :, :pt0] = x[:, :, T - pt0:]
        core[:, :, pt0 + T:] = x[:, :, :pt1]
    return xp


def _unpad_grad(dxp: np.ndarray, pads, temporal_pad: str) -> np.ndarray:
    """Fold a padded-input gradient back onto the original extents; with
    no padding that is `dxp` itself."""
    if not any(map(any, pads)):
        return dxp
    (pt0, pt1), (ph0, ph1), (pw0, pw1) = pads
    d = dxp[:, :, :, ph0 : dxp.shape[3] - ph1, pw0 : dxp.shape[4] - pw1]
    t_in = d.shape[2] - pt0 - pt1
    core = d[:, :, pt0 : pt0 + t_in].copy()
    if temporal_pad == "circular":
        if pt0:
            core[:, :, t_in - pt0 :] += d[:, :, :pt0]
        if pt1:
            core[:, :, :pt1] += d[:, :, pt0 + t_in :]
    return core


def _out_shape(shape, kernel, stride) -> tuple[int, int, int]:
    """(To, Ho, Wo) of a valid sliding window over a (T, H, W) input."""
    out = tuple((n - k) // s + 1 for n, k, s in zip(shape, kernel, stride))
    if min(out) < 1:
        raise ModelError(f"kernel {tuple(kernel)} with stride {tuple(stride)} "
                         f"exceeds input {tuple(shape)}")
    return out


def _windows(xp: np.ndarray, kernel, stride):
    """Strided sliding-window view (N, C, To, Ho, Wo, kt, kh, kw)."""
    s = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(*xp.shape[:2], *_out_shape(xp.shape[2:], kernel, stride), *kernel),
        strides=(s[0], s[1], *(a * b for a, b in zip(s[2:], stride)), *s[2:]),
    )


def conv3d_forward(
    x: np.ndarray,
    kernel: np.ndarray,
    bias: np.ndarray,
    stride=(1, 1, 1),
    padding: str = "same",
    temporal_pad: str = "zero",
    *,
    want_cache: bool = True,
):
    """Cross-correlation over (T, H, W); kernel is (Cout, Cin, kT, kH, kW).

    Returns (y, cache), with cache None unless `want_cache`."""
    if x.ndim != 5 or kernel.ndim != 5:
        raise ModelError(f"conv3d expects 5d input and kernel, got {x.ndim}d and {kernel.ndim}d")
    if x.shape[1] != kernel.shape[1]:
        raise ModelError(f"conv3d channel mismatch: input has {x.shape[1]}, "
                         f"kernel expects {kernel.shape[1]}")
    c_out = kernel.shape[0]
    if bias.shape != (c_out,):
        raise ModelError(f"conv3d bias must have shape ({c_out},), got {bias.shape}")
    pads = _pad_amounts(x.shape[2:], kernel.shape[2:], stride, padding)
    xp = _pad5(x, pads, temporal_pad, 0.0)
    N = len(xp)
    To, Ho, Wo = _out_shape(xp.shape[2:], kernel.shape[2:], stride)
    if want_cache:
        y, cols = _conv_valid(xp, kernel, bias, stride)
        cache = (cols, kernel, xp.shape, pads, stride, temporal_pad)
    else:
        # output frames in slabs, each with at most COLUMN_BYTES of columns
        inflated = kernel.shape[2] > 1 and (kernel == kernel[:, :, :1]).all()
        route = _inflated_conv if inflated else _conv_valid
        taps = kernel[0, :, :1].size if inflated else kernel[0].size
        n = -(-To // max(1, COLUMN_BYTES // (N * taps * Ho * Wo * xp.itemsize)))
        y = np.empty((N, c_out, To * Ho * Wo), dtype=np.result_type(xp, kernel, bias))
        for t, u in ((i * To // n, (i + 1) * To // n) for i in range(n)):
            slab = xp[:, :, t * stride[0]:(u - 1) * stride[0] + kernel.shape[2]]
            y[:, :, t * Ho * Wo:u * Ho * Wo] = route(slab, kernel, bias, stride)[0]
        cache = None
    return y.reshape(N, c_out, To, Ho, Wo), cache


def _conv_valid(xp: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride):
    """Unpadded cross-correlation of an already padded input as one matrix
    product: (y (N, Cout, To * Ho * Wo), im2col columns (N, K, To * Ho * Wo)),
    K = Cin * kT * kH * kW ordered as the kernel's (Cin, kT, kH, kW)."""
    c_out, c_in, kt, kh, kw = kernel.shape
    N = len(xp)
    To, Ho, Wo = _out_shape(xp.shape[2:], kernel.shape[2:], stride)
    if kt * kh * kw == 1:
        # a view of the input at stride 1, with no copy
        cols = xp[:, :, ::stride[0], ::stride[1], ::stride[2]].reshape(N, c_in, -1)
    else:
        # one copy of the window view, its innermost axis along an output row
        cols = np.empty((N, c_in, kt, kh, kw, To, Ho, Wo), dtype=xp.dtype)
        cols[...] = _windows(xp, kernel.shape[2:], stride).transpose(0, 1, 5, 6, 7, 2, 3, 4)
        cols = cols.reshape(N, -1, To * Ho * Wo)
    y = kernel.reshape(c_out, -1) @ cols
    y += bias[:, None]
    return y, cols


def _inflated_conv(xp: np.ndarray, kernel: np.ndarray, bias: np.ndarray, stride):
    """`_conv_valid` for a kernel whose kT time slices are equal: a kT-frame
    box sum of the input at the temporal stride, then a 2D convolution with
    one slice, whose columns it also returns."""
    kt = kernel.shape[2]
    st, sh, sw = stride
    span = (xp.shape[2] - kt) // st * st + 1
    box = xp[:, :, :span:st].copy()
    for it in range(1, kt):
        box += xp[:, :, it:it + span:st]
    return _conv_valid(box, kernel[:, :, :1], bias, (1, sh, sw))


def conv3d_backward(dy: np.ndarray, cache, want_dx: bool = True):
    """Gradients (dx, dkernel, dbias) for conv3d_forward; dx is None unless
    `want_dx`."""
    cols, kernel, xpshape, pads, stride, temporal_pad = cache
    c_out = kernel.shape[0]
    N, _, To, Ho, Wo = dy.shape
    dy2 = dy.reshape(N, c_out, -1)
    db = dy2.sum(axis=(0, 2))
    dk = (dy2 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(kernel.shape)
    if not want_dx:
        return None, dk, db
    dcols = kernel.reshape(c_out, -1).T @ dy2
    if kernel.shape[2:] == (1, 1, 1) == tuple(stride):
        dxp = dcols.reshape(xpshape)  # the columns were the input itself
    else:
        dcw = dcols.reshape(N, *kernel.shape[1:], To, Ho, Wo)
        dxp = np.zeros(xpshape, dtype=dy.dtype)
        for tap in np.ndindex(*kernel.shape[2:]):
            cells = (slice(i, i + o * s, s) for i, o, s in zip(tap, (To, Ho, Wo), stride))
            dxp[(..., *cells)] += dcw[(slice(None), slice(None), *tap)]
    dx = _unpad_grad(dxp, pads, temporal_pad)
    return dx, dk, db


def maxpool3d_forward(x, kernel, stride=None, padding: str = "valid",
                      temporal_pad: str = "zero", *, want_cache: bool = True):
    """Max over sliding windows; padding cells never win (filled with -inf).

    Returns (y, cache), with cache None unless `want_cache`."""
    stride = stride or kernel
    pads = _pad_amounts(x.shape[2:], kernel, stride, padding)
    xp = _pad5(x, pads, temporal_pad, -np.inf)
    _out_shape(xp.shape[2:], kernel, stride)
    y = _separable_max(xp, kernel, stride)
    return y, (xp, y, kernel, stride, pads, temporal_pad) if want_cache else None


def _separable_max(xp: np.ndarray, kernel, stride) -> np.ndarray:
    """The window maxima, one axis at a time with k strided slices per axis.

    Reducing W, then H, then T keeps the cell that comes first in the
    window's flat (t, h, w) order among equal values (0.0 and -0.0 from
    relu): np.maximum returns its second operand on a tie, so the cells seen
    so far go second.  NaN propagates.
    """
    y = xp
    for axis, k, s in zip((4, 3, 2), kernel[::-1], stride[::-1]):
        span = (y.shape[axis] - k) // s * s + 1
        taps = [(slice(None),) * axis + (slice(j, j + span, s),) for j in range(k)]
        out = y[taps[0]]
        if k > 1:
            out = out.copy()
            for tap in taps[1:]:
                np.maximum(y[tap], out, out=out)
        y = out
    return y


def maxpool3d_backward(dy: np.ndarray, cache):
    """Route each output gradient to the first cell of its window, in (t, h, w)
    tap order, that equals the maximum or is NaN, then add the taps in
    descending order: each input cell sums its gradients in output order from
    +0.0, so a sum is never -0.0 and the +0.0 added where a tap routes
    nothing changes no bits."""
    xp, y, kernel, stride, pads, temporal_pad = cache
    free = np.ones(y.shape, dtype=bool)
    taps = []
    for tap in np.ndindex(*kernel):
        cells = (..., *(slice(i, i + o * s, s) for i, o, s in zip(tap, y.shape[2:], stride)))
        hit = (xp[cells] == y) | np.isnan(xp[cells])
        hit &= free
        free ^= hit
        taps.append((cells, hit))
    dxp = np.zeros(xp.shape, dtype=dy.dtype)
    for cells, hit in reversed(taps):
        dxp[cells] += np.where(hit, dy, 0)
    return _unpad_grad(dxp, pads, temporal_pad)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.result_type(z.dtype, np.float32))
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def bce_with_logits(logits: np.ndarray, labels: np.ndarray):
    """Mean binary cross-entropy on sigmoid(logits); returns (loss, dlogits)."""
    z = logits
    y = labels.astype(z.dtype)
    per = np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))
    loss = float(per.mean())
    if not np.isfinite(loss):
        raise ModelError("nonfinite training loss")
    dz = (sigmoid(z) - y) / z.shape[0]
    return loss, dz
