"""Reference numpy kernels for the duality-based flow solver.

The hand-written C in `_accel/flowkernels.c` implements the same two entry
points with identical per-element arithmetic; `backend` picks one at import
time and tests/test_backend.py builds the C and checks the two bit for bit
on shared inputs.  Everything is float32.

Contract note: `tvl1_iterations` may modify its flow and dual-field
arguments in place.  Callers must use the returned arrays.
"""

from __future__ import annotations

import numpy as np


def warp_bilinear(img: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample img at (x + u, y + v) with bilinear weights, clamping to borders."""
    h, w = img.shape
    x = np.arange(w, dtype=np.float32)[None, :] + u
    y = np.arange(h, dtype=np.float32)[:, None] + v
    x = np.clip(x, 0.0, w - 1.0)
    y = np.clip(y, 0.0, h - 1.0)
    x0 = x.astype(np.int32)  # non-negative, truncation == floor
    y0 = y.astype(np.int32)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = x - x0
    fy = y - y0
    top = img[y0, x0] + fx * (img[y0, x1] - img[y0, x0])
    bot = img[y1, x0] + fx * (img[y1, x1] - img[y1, x0])
    return (top + fy * (bot - top)).astype(np.float32, copy=False)


def _forward_grad(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences, zero at the far borders."""
    gx = np.zeros_like(u)
    gy = np.zeros_like(u)
    gx[:, :-1] = u[:, 1:] - u[:, :-1]
    gy[:-1, :] = u[1:, :] - u[:-1, :]
    return gx, gy


def _divergence(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, adjoint of _forward_grad."""
    div = p1.copy()
    div[:, 1:] -= p1[:, :-1]
    div[0, :] += p2[0, :]
    div[1:, :] += p2[1:, :] - p2[:-1, :]
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
    squared warped-gradient magnitude.  Stops early once the mean squared
    flow update drops below stop_eps2.  Returns the updated fields plus the
    number of iterations actually run.
    """
    lt = np.float32(lam * theta)
    taut = np.float32(tau / theta)
    theta32 = np.float32(theta)
    n = u1.size
    grad_ok = grad > 1e-10
    safe_grad = np.where(grad_ok, grad, np.float32(1.0))
    done = 0
    for _ in range(n_iters):
        done += 1
        rho = rho_c + I1wx * u1 + I1wy * u2
        th = lt * grad
        mid = np.where(grad_ok, -rho / safe_grad, np.float32(0.0))
        lo = rho < -th
        hi = rho > th
        step = np.where(lo, lt, np.where(hi, -lt, mid))
        v1 = u1 + step * I1wx
        v2 = u2 + step * I1wy
        u1_new = v1 + theta32 * _divergence(p11, p12)
        u2_new = v2 + theta32 * _divergence(p21, p22)
        err = (
            np.sum((u1_new - u1) ** 2, dtype=np.float64)
            + np.sum((u2_new - u2) ** 2, dtype=np.float64)
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
        if err < stop_eps2:
            break
    return u1, u2, p11, p12, p21, p22, done
