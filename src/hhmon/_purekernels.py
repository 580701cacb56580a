"""Reference numpy kernels for the duality-based flow solver.

The hand-written C in `_accel/flowkernels.c` implements the same two entry
points with identical per-element arithmetic; `backend` picks one at import
time and tests/test_backend.py builds the C and checks the two bit for bit
on shared inputs.  Everything is float32.

Stack contract: every array argument is a (P, H, W) stack of P independent
planes (one frame pair each), all of one shape, and each plane gets exactly
the arithmetic a lone (1, H, W) stack would get.  `tvl1_iterations` stops
each plane on its own and returns, as its last element, the iterations the
call ran: the largest count over the planes.  It may modify its flow and
dual-field arguments in place; callers must use the returned arrays.
"""

from __future__ import annotations

import numpy as np


def warp_bilinear(img: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample img at (x + u, y + v) with bilinear weights, clamping to borders.

    A coordinate is clamped as `c >= 0 ? min(c, size - 1) : 0`, the C rule,
    so a NaN displacement samples column or row 0.
    """
    p, h, w = img.shape
    x = np.arange(w, dtype=np.float32) + u
    y = np.arange(h, dtype=np.float32)[:, None] + v
    x = np.where(x >= 0, np.minimum(x, np.float32(w - 1)), np.float32(0))
    y = np.where(y >= 0, np.minimum(y, np.float32(h - 1)), np.float32(0))
    x0 = x.astype(np.intp)  # non-negative, truncation == floor
    y0 = y.astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    fx = x - x0
    fy = y - y0
    # one flat index into the whole stack per corner
    base = np.arange(0, p * h * w, h * w)[:, None, None]
    row0 = base + y0 * w
    row1 = base + np.minimum(y0 + 1, h - 1) * w
    flat = img.reshape(-1)
    a = flat[row0 + x0]
    top = a + fx * (flat[row0 + x1] - a)
    a = flat[row1 + x0]
    bot = a + fx * (flat[row1 + x1] - a)
    return (top + fy * (bot - top)).astype(np.float32, copy=False)


def _forward_grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences over the last two axes, zero at the far borders."""
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[..., :, :-1] = u[..., :, 1:] - u[..., :, :-1]
    gy[..., :-1, :] = u[..., 1:, :] - u[..., :-1, :]
    return gx, gy


def _divergence(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, adjoint of _forward_grad."""
    div = p1.copy()
    div[..., :, 1:] -= p1[..., :, :-1]
    div[..., 0, :] += p2[..., 0, :]
    div[..., 1:, :] += p2[..., 1:, :] - p2[..., :-1, :]
    return div


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
    """
    lt = np.float32(lam * theta)
    taut = np.float32(tau / theta)
    theta32 = np.float32(theta)
    n = u1[0].size
    grad_ok = grad > 1e-10
    safe_grad = np.where(grad_ok, grad, np.float32(1.0))
    th = lt * grad
    out = None  # allocated when the first plane stops ahead of the others
    active = np.arange(len(u1))  # indices of the planes still iterating
    done = 0
    while True:
        done += 1
        rho = rho_c + I1wx * u1 + I1wy * u2
        mid = np.where(grad_ok, -rho / safe_grad, np.float32(0.0))
        lo = rho < -th
        hi = rho > th
        step = np.where(lo, lt, np.where(hi, -lt, mid))
        v1 = u1 + step * I1wx
        v2 = u2 + step * I1wy
        u1_new = v1 + theta32 * _divergence(p11, p12)
        u2_new = v2 + theta32 * _divergence(p21, p22)
        err = (
            np.sum((u1_new - u1) ** 2, axis=(-2, -1), dtype=np.float64)
            + np.sum((u2_new - u2) ** 2, axis=(-2, -1), dtype=np.float64)
        ) / n
        u1, u2 = u1_new, u2_new
        u1x, u1y = _forward_grad(u1)
        u2x, u2y = _forward_grad(u2)
        ng1 = np.float32(1.0) + taut * np.sqrt(u1x * u1x + u1y * u1y)
        ng2 = np.float32(1.0) + taut * np.sqrt(u2x * u2x + u2y * u2y)
        p11 = (p11 + taut * u1x) / ng1
        p12 = (p12 + taut * u1y) / ng1
        p21 = (p21 + taut * u2x) / ng2
        p22 = (p22 + taut * u2y) / ng2
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
        u1, u2, p11, p12, p21, p22, I1wx, I1wy, rho_c, grad_ok, safe_grad, th = (
            a[keep] for a in (*state, I1wx, I1wy, rho_c, grad_ok, safe_grad, th))
