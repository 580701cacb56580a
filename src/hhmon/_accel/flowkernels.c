/* Float32 kernels of the TV-L1 flow solver, on C-contiguous p x h x w stacks.

   A stack holds p independent h x w planes, one frame pair each; both entry
   points run their plane routine once per plane.  Each routine repeats its
   twin in _purekernels.py element for element, in the same float32
   operation order, so the two backends give identical results.  That holds
   only when built without FMA contraction and without -ffast-math (setup.py
   passes -ffp-contract=off).  The early-stop error is summed in another
   order, which can move only its last bits.  tvl1_iterations stops each
   plane on its own and returns the largest count any plane ran.  The ctypes
   binding in __init__.py checks every array before a pointer gets here. */

#include <math.h>
#include <stddef.h>
#include <string.h>

static void warp_plane(const float *img, const float *u, const float *v,
                       float *out, int h, int w)
{
    const float wm1 = (float)(w - 1), hm1 = (float)(h - 1);
    for (int y = 0; y < h; y++) {
        for (int x = 0; x < w; x++) {
            size_t i = (size_t)y * w + x;
            float xx = (float)x + u[i];
            float yy = (float)y + v[i];
            /* written so that NaN clamps to 0 instead of indexing out of bounds */
            xx = xx >= 0.0f ? (xx > wm1 ? wm1 : xx) : 0.0f;
            yy = yy >= 0.0f ? (yy > hm1 ? hm1 : yy) : 0.0f;
            int x0 = (int)xx, y0 = (int)yy;
            int x1 = x0 + 1 < w ? x0 + 1 : w - 1;
            int y1 = y0 + 1 < h ? y0 + 1 : h - 1;
            const float *r0 = img + (size_t)y0 * w, *r1 = img + (size_t)y1 * w;
            /* the interpolation weights run in double, like the numpy twin */
            double fx = (double)xx - (double)x0, fy = (double)yy - (double)y0;
            double top = (double)r0[x0] + fx * (double)(r0[x1] - r0[x0]);
            double bot = (double)r1[x0] + fx * (double)(r1[x1] - r1[x0]);
            out[i] = (float)(top + fy * (bot - top));
        }
    }
}

void warp_bilinear(const float *img, const float *u, const float *v,
                   float *out, int p, int h, int w)
{
    const size_t plane = (size_t)h * w;
    for (int k = 0; k < p; k++)
        warp_plane(img + k * plane, u + k * plane, v + k * plane, out + k * plane, h, w);
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
