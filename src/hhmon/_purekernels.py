"""Reference numpy kernels for the duality-based flow solver.

The hand-written C in `_accel/flowkernels.c` implements the same three entry
points with identical per-element arithmetic; `backend` picks one at import
time and tests/test_backend.py builds the C and checks the two bit for bit
on shared inputs, all but the sign of a NaN, which follows the operand order
each backend's compiler picks.  Images, flow and dual fields are float32.

Stack contract: every array argument is a (P, H, W) stack of P independent
planes (one frame pair each), all of one shape, and each plane gets exactly
the arithmetic a lone (1, H, W) stack would get.

A warp is split in two so that the images warped by one flow share one
coordinate pass: `warp_coords(u, v)` finds where each pixel samples, as six
(P, H, W) arrays, and `warp_bilinear(img, coords)` samples one image there.
The coordinates are the same arrays on both backends (four corner indices
into the flattened stack, `np.intp`, and the two weights, float64), so
either backend's sampler takes either backend's coordinates.

`tvl1_iterations` stops each plane on its own and returns, as its last
element, the iterations the call ran: the largest count over the planes.
It may modify its flow and dual-field arguments in place; callers must use
the returned arrays.
"""

from __future__ import annotations

import numpy as np

_SIGN = np.int32(-(2**31))  # the float32 sign bit, as int32


def warp_coords(u: np.ndarray, v: np.ndarray) -> tuple:
    """Where bilinear sampling at (x + u, y + v) reads each pixel of a stack.

    Returns (i00, i01, i10, i11, fx, fy): the flat indices of the four
    corners into the whole (P, H, W) stack and the float64 weights towards
    the right and the lower corners.  A coordinate is clamped as
    `c >= 0 ? min(c, size - 1) : 0`, the C rule, here as `fmax(min(c,
    size - 1), 0)`, which sends NaN to 0 as well (c is never -0.0: it is
    an integer plus a displacement).  A weight is the float32 fraction
    `c - trunc(c)`, which is exact, widened to float64.
    """
    p, h, w = u.shape
    x = np.arange(w, dtype=np.float32) + u
    y = np.arange(h, dtype=np.float32)[:, None] + v
    for c, size in ((x, w), (y, h)):
        np.fmax(np.minimum(c, np.float32(size - 1), out=c), np.float32(0), out=c)
    x0 = x.astype(np.intp)  # non-negative, truncation == floor
    y0 = y.astype(np.intp)
    right = x < w - 1  # the right corner is clamped into the last column
    down = y < h - 1
    fx = np.subtract(x, np.trunc(x), out=x).astype(np.float64)
    fy = np.subtract(y, np.trunc(y), out=y).astype(np.float64)
    i00 = y0 * w
    i00 += x0
    i00 += np.arange(0, p * h * w, h * w)[:, None, None]
    i10 = np.where(down, i00 + w, i00)
    return i00, i00 + right, i10, i10 + right, fx, fy


def warp_bilinear(img: np.ndarray, coords: tuple) -> np.ndarray:
    """Sample img with bilinear weights at the coordinates `warp_coords` found:
    float32 corner differences, weighted and summed in float64.  Every
    ufunc takes operands of one dtype, each float32 one widened first by
    an explicit cast, which gives the values a mixed-dtype ufunc would,
    in fewer passes."""
    i00, i01, i10, i11, fx, fy = coords
    flat = img.reshape(-1)
    rows = []
    for left, right in ((i00, i01), (i10, i11)):
        a = flat.take(left)
        d = flat.take(right)
        row = np.subtract(d, a, out=d).astype(np.float64)
        np.multiply(fx, row, out=row)
        rows.append(np.add(a.astype(np.float64), row, out=row))
    top, bot = rows
    np.subtract(bot, top, out=bot)
    np.multiply(fy, bot, out=bot)
    return np.add(top, bot, out=bot).astype(np.float32)


def _forward_grad(u: np.ndarray, gx: np.ndarray, gy: np.ndarray) -> tuple:
    """Forward differences of u over the last two axes, into gx and gy, which
    must be C-contiguous; their far borders (last column, last row) are
    zero.  The column differences are one subtract over the flattened
    stack, whose last column, which differences across rows, is then
    zeroed; gy's last row is not written and must be zero."""
    flat = u.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=gx.reshape(-1)[:-1])
    gx[..., -1] = 0
    np.subtract(u[..., 1:, :], u[..., :-1, :], out=gy[..., :-1, :])
    return gx, gy


class _Scratch:
    """The buffers of one `tvl1_iterations` stack; gy holds the forward
    row differences, with its zero last row."""

    def __init__(self, shape):
        (self.rho, self.step, self.t, self.div, self.u1, self.u2, self.gx,
         self.gy) = (np.empty(shape, dtype=np.float32) for _ in range(8))
        self.gy[:, -1, :] = 0
        self.mask = np.empty(shape, dtype=np.int32)


def _divergence(p1: np.ndarray, p2: np.ndarray, s: _Scratch) -> np.ndarray:
    """Backward-difference divergence, adjoint of _forward_grad, into s.div:
    (p1[x] - p1[x - 1]) + (p2[y] - p2[y - 1]), each difference being the
    plain value on the first column or row.  The column differences are one
    subtract over the flattened stack, whose first column, which differences
    across rows, is then overwritten."""
    flat = p1.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=s.div.reshape(-1)[1:])
    s.div[:, :, 0] = p1[:, :, 0]
    np.subtract(p2[:, 1:], p2[:, :-1], out=s.t[:, 1:])
    s.t[:, 0] = p2[:, 0]
    return np.add(s.div, s.t, out=s.div)


def _dual_step(u: np.ndarray, pa: np.ndarray, pb: np.ndarray, taut: np.float32,
               s: _Scratch) -> None:
    """pa, pb = (pa + taut * grad u) / (1 + taut * |grad u|), in place."""
    gx, gy = _forward_grad(u, s.gx, s.gy)
    ng = s.div
    np.multiply(gx, gx, out=ng)
    np.multiply(gy, gy, out=s.t)
    np.add(ng, s.t, out=ng)
    np.sqrt(ng, out=ng)
    np.multiply(taut, ng, out=ng)
    np.add(np.float32(1.0), ng, out=ng)
    for p, g in ((pa, gx), (pb, gy)):
        np.multiply(taut, g, out=s.t)
        np.add(p, s.t, out=p)
        np.divide(p, ng, out=p)


def tvl1_iterations(
    I1wx: np.ndarray,
    I1wy: np.ndarray,
    rho_c: np.ndarray,
    grad: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    p11: np.ndarray,
    p12: np.ndarray,
    p21: np.ndarray,
    p22: np.ndarray,
    lam: float,
    theta: float,
    tau: float,
    n_iters: int,
    stop_eps2: float,
) -> tuple:
    """Primal-dual fixed-point loop for one warp of the flow solver.

    rho_c holds the constant part of the linearized residual, grad the
    squared warped-gradient magnitude.  A plane stops once the mean squared
    update of its flow drops below stop_eps2; its state is then written to
    the output and it leaves the active stack.  Returns the updated fields
    plus the largest number of iterations any plane ran.

    Each element gets the float32 operations, in the order, of
        rho = rho_c + I1wx * u1 + I1wy * u2
        step = lt if rho < -lt * grad else -lt if rho > lt * grad
               else -rho / grad if grad > 1e-10 else 0
        u = u + step * I1w. + theta * div(p)
    with lt = lam * theta; the select runs on the int32 bits, exactly, and
    takes the two clamps as one: lt with the sign bit of -rho where
    |rho| > lt * grad.  grad is a squared magnitude, so lt * grad >= +0.
    """
    lt = np.float32(lam * theta)
    taut = np.float32(tau / theta)
    theta32 = np.float32(theta)
    n = u1[0].size
    grad_ok = grad > 1e-10
    safe_grad = np.where(grad_ok, grad, np.float32(1.0))
    ok = np.where(grad_ok, np.int32(-1), np.int32(0))  # keeps -rho / grad
    lt_bits = lt.view(np.int32)
    th = lt * grad
    s = _Scratch(u1.shape)
    out = None  # allocated when the first plane stops ahead of the others
    active = np.arange(len(u1))  # indices of the planes still iterating
    done = 0
    while True:
        done += 1
        rho = np.multiply(I1wx, u1, out=s.rho)
        np.add(rho_c, rho, out=rho)
        np.multiply(I1wy, u2, out=s.t)
        np.add(rho, s.t, out=rho)
        # the nested select, on the bits: -rho / grad, or +0 where grad is
        # too small; then, where |rho| > th, lt with the sign bit of -rho.
        # As th = lt * grad >= +0, |rho| > th holds exactly where rho > th
        # (-rho < 0: -lt) or rho < -th (-rho > 0: lt), and fails for NaN.
        neg = np.negative(rho, out=s.t)
        step = np.divide(neg, safe_grad, out=s.step)
        bits = step.view(np.int32)
        np.bitwise_and(bits, ok, out=bits)
        np.greater(np.absolute(rho, out=rho), th, out=s.mask)  # 1 or 0
        clamp = neg.view(np.int32)
        np.bitwise_and(clamp, _SIGN, out=clamp)
        np.bitwise_or(clamp, lt_bits, out=clamp)
        np.bitwise_xor(clamp, bits, out=clamp)
        np.multiply(clamp, s.mask, out=clamp)
        np.bitwise_xor(bits, clamp, out=bits)
        err = np.zeros(len(u1))
        for u, un, I1w, pa, pb in ((u1, s.u1, I1wx, p11, p12), (u2, s.u2, I1wy, p21, p22)):
            np.multiply(step, I1w, out=s.t)
            np.add(u, s.t, out=un)
            div = _divergence(pa, pb, s)
            np.multiply(theta32, div, out=div)
            np.add(un, div, out=un)
            np.subtract(un, u, out=s.t)
            np.multiply(s.t, s.t, out=s.t)
            err += np.sum(s.t, axis=(-2, -1), dtype=np.float64)
        err /= n
        # the old flow's buffers take the next iteration's update
        u1, s.u1, u2, s.u2 = s.u1, u1, s.u2, u2
        _dual_step(u1, p11, p12, taut, s)
        _dual_step(u2, p21, p22, taut, s)
        stop = err < stop_eps2
        if done == n_iters:
            stop[:] = True
        if not stop.any():
            continue
        state = (u1, u2, p11, p12, p21, p22)
        if out is None:
            if stop.all():  # every plane stops together: hand the stacks back
                return (*state, done)
            out = [np.empty_like(a) for a in state]
        for dst, src in zip(out, state):
            dst[active[stop]] = src[stop]
        if stop.all():
            return (*out, done)
        keep = ~stop
        active = active[keep]
        u1, u2, p11, p12, p21, p22, I1wx, I1wy, rho_c, safe_grad, ok, th = (
            a[keep] for a in (*state, I1wx, I1wy, rho_c, safe_grad, ok, th))
        s = _Scratch(u1.shape)
