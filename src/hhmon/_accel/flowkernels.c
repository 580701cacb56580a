/* Float32 kernels of the TV-L1 flow solver, on C-contiguous p x h x w stacks.

   A stack holds p independent h x w planes, one frame pair each.  Each
   entry point repeats its twin in _purekernels.py element for element, in
   the same float32 operation order, so the two backends give identical
   results.  That holds only when built without FMA contraction and without
   -ffast-math (_accel.FLAGS has -ffp-contract=off).  The early-stop error is
   summed in another order, which can move only its last bits.
   tvl1_iterations stops each plane on its own and returns the largest count
   any plane ran.  The ctypes binding in __init__.py checks the type, shape
   and layout of every array before a pointer gets here; warp_bilinear
   checks the indices it is given itself. */

#include <math.h>
#include <stddef.h>
#include <string.h>

/* Where bilinear sampling at (x + u, y + v) reads each pixel: the flat
   indices of the four corners into the whole stack and the weights towards
   the right and the lower corners, the same arrays as warp_coords in
   _purekernels.py. */
void warp_coords(const float *u, const float *v, ptrdiff_t *i00, ptrdiff_t *i01,
                 ptrdiff_t *i10, ptrdiff_t *i11, double *fx, double *fy, int p, int h, int w)
{
    const float wm1 = (float)(w - 1), hm1 = (float)(h - 1);
    size_t i = 0;
    for (int k = 0; k < p; k++) {
        for (int y = 0; y < h; y++) {
            for (int x = 0; x < w; x++, i++) {
                float xx = (float)x + u[i];
                float yy = (float)y + v[i];
                /* written so that NaN clamps to 0 instead of indexing out of bounds */
                xx = xx >= 0.0f ? (xx > wm1 ? wm1 : xx) : 0.0f;
                yy = yy >= 0.0f ? (yy > hm1 ? hm1 : yy) : 0.0f;
                int x0 = (int)xx, y0 = (int)yy;
                ptrdiff_t right = x0 < w - 1;
                i00[i] = ((ptrdiff_t)k * h + y0) * w + x0;
                i01[i] = i00[i] + right;
                i10[i] = y0 < h - 1 ? i00[i] + w : i00[i];
                i11[i] = i10[i] + right;
                /* the interpolation weights run in double, like the numpy twin */
                fx[i] = (double)xx - (double)x0;
                fy[i] = (double)yy - (double)y0;
            }
        }
    }
}

/* Samples img at the coordinates warp_coords found.  Returns -1 when an
   index falls outside the stack, else 0. */
int warp_bilinear(const float *img, const ptrdiff_t *i00, const ptrdiff_t *i01,
                  const ptrdiff_t *i10, const ptrdiff_t *i11, const double *fx,
                  const double *fy, float *out, int p, int h, int w)
{
    const size_t n = (size_t)p * h * w;
    for (size_t i = 0; i < n; i++) {
        if ((size_t)i00[i] >= n || (size_t)i01[i] >= n || (size_t)i10[i] >= n
            || (size_t)i11[i] >= n)
            return -1;
        double top = (double)img[i00[i]] + fx[i] * (double)(img[i01[i]] - img[i00[i]]);
        double bot = (double)img[i10[i]] + fx[i] * (double)(img[i11[i]] - img[i10[i]]);
        out[i] = (float)(top + fy[i] * (bot - top));
    }
    return 0;
}

/* Dual ascent on (pa, pb) from the forward differences of u. */
static void dual_step(const float *u, float *pa, float *pb, float taut, int h, int w)
{
    for (int y = 0; y < h; y++) {
        for (int x = 0; x < w; x++) {
            size_t i = (size_t)y * w + x;
            float ux = x < w - 1 ? u[i + 1] - u[i] : 0.0f;
            float uy = y < h - 1 ? u[i + w] - u[i] : 0.0f;
            float ng = 1.0f + taut * sqrtf(ux * ux + uy * uy);
            pa[i] = (pa[i] + taut * ux) / ng;
            pb[i] = (pb[i] + taut * uy) / ng;
        }
    }
}

/* Runs at most n_iters primal-dual iterations on one plane and returns how
   many ran.  Each iteration writes the new flow into (u1n, u2n) and then
   swaps the two pairs, so after an odd count the result lies in u1n and u2n.
   The dual fields are updated in place. */
static int iterate_plane(const float *I1wx, const float *I1wy, const float *rho_c,
                         const float *grad, float *u1, float *u2, float *u1n, float *u2n,
                         float *p11, float *p12, float *p21, float *p22, int h, int w,
                         double lam, double theta, double tau, int n_iters,
                         double stop_eps2)
{
    const float lt = (float)(lam * theta), taut = (float)(tau / theta);
    const float theta32 = (float)theta;
    const double n = (double)h * (double)w;
    int done = 0;
    while (done < n_iters) {
        done++;
        double err = 0.0;
        for (int y = 0; y < h; y++) {
            for (int x = 0; x < w; x++) {
                size_t i = (size_t)y * w + x;
                float g = grad[i];
                float rho = rho_c[i] + I1wx[i] * u1[i] + I1wy[i] * u2[i];
                float th = lt * g;
                float step = rho < -th ? lt : rho > th ? -lt : g > 1e-10f ? -rho / g : 0.0f;
                float v1 = u1[i] + step * I1wx[i];
                float v2 = u2[i] + step * I1wy[i];
                float div1 = p11[i], div2 = p21[i];
                if (x > 0) {
                    div1 -= p11[i - 1];
                    div2 -= p21[i - 1];
                }
                if (y > 0) {
                    div1 += p12[i] - p12[i - w];
                    div2 += p22[i] - p22[i - w];
                } else {
                    div1 += p12[i];
                    div2 += p22[i];
                }
                u1n[i] = v1 + theta32 * div1;
                u2n[i] = v2 + theta32 * div2;
                float d1 = u1n[i] - u1[i], d2 = u2n[i] - u2[i];
                err += (double)(d1 * d1) + (double)(d2 * d2);
            }
        }
        err /= n;
        float *swap = u1; u1 = u1n; u1n = swap;
        swap = u2; u2 = u2n; u2n = swap;
        dual_step(u1, p11, p12, taut, h, w);
        dual_step(u2, p21, p22, taut, h, w);
        if (err < stop_eps2)
            break;
    }
    return done;
}

/* The flow comes back in (u1, u2) for every plane: a plane that stopped
   after an odd count is copied back from its (u1n, u2n) scratch. */
int tvl1_iterations(const float *I1wx, const float *I1wy, const float *rho_c,
                    const float *grad, float *u1, float *u2, float *u1n, float *u2n,
                    float *p11, float *p12, float *p21, float *p22, int p, int h, int w,
                    double lam, double theta, double tau, int n_iters, double stop_eps2)
{
    const size_t plane = (size_t)h * w;
    int most = 0;
    for (int k = 0; k < p; k++) {
        const size_t o = k * plane;
        int done = iterate_plane(I1wx + o, I1wy + o, rho_c + o, grad + o, u1 + o, u2 + o,
                                 u1n + o, u2n + o, p11 + o, p12 + o, p21 + o, p22 + o,
                                 h, w, lam, theta, tau, n_iters, stop_eps2);
        if (done % 2) {
            memcpy(u1 + o, u1n + o, plane * sizeof(float));
            memcpy(u2 + o, u2n + o, plane * sizeof(float));
        }
        if (done > most)
            most = done;
    }
    return most;
}
