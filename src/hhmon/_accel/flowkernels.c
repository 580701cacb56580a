/* Float32 kernels of the TV-L1 flow solver, on C-contiguous p x h x w stacks.

   A stack holds p independent h x w planes, one frame pair each.  Each
   entry point repeats its twin in _purekernels.py element for element, in
   the same float32 operation order, so the two backends give identical
   results: every non-NaN bit and every NaN position, though a NaN's sign
   may differ, since which of two NaN operands a sum or product passes on
   depends on the operand order the compiler picks.  That holds only when
   built without FMA contraction and without -ffast-math (_accel.FLAGS has
   -ffp-contract=off).  The early-stop error is
   summed in eight double lanes, pixel x of a row into lane x % 8, and the
   lanes then in order: another order than numpy's, which can move only its
   last bits.
   The loops of tvl1_iterations have no branch, so that GCC vectorizes them
   at baseline x86-64, given two more flags that change no value.
   -fno-trapping-math lets it compute both arms of a select, which could
   raise a floating-point flag that nothing reads; -fno-math-errno lets
   sqrtf skip setting errno on a negative argument, which never comes (the
   sum of two squares is +0, positive or NaN).  Neither allows reordering,
   contraction or a finite-math assumption.
   The hot loops are DISPATCH functions: on x86-64 glibc they are compiled
   twice, for baseline x86-64 and for AVX2, and the loader picks one by the
   host's CPU (an ifunc), so every library runs on any x86-64 host.  Both
   give the same bits: -ffp-contract=off holds in every clone, so there is
   no FMA; division and sqrtf are correctly rounded at any vector width;
   and the eight error lanes keep their order.
   tvl1_iterations stops each plane on its own and returns the largest count
   any plane ran.  The ctypes binding in __init__.py checks the type, shape
   and layout of every array before a pointer gets here; warp_bilinear
   checks the indices it is given itself. */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* target_clones needs ifunc support: GCC or Clang, x86-64, ELF and glibc.
   Anywhere else the plain functions are compiled. */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define DISPATCH __attribute__((target_clones("avx2", "default")))
#endif
#endif
#ifndef DISPATCH
#define DISPATCH
#endif

/* Where bilinear sampling at (x + u, y + v) reads each pixel, the same
   arrays as warp_coords in _purekernels.py: the flat index of the top-left
   corner into the whole stack; bit 0 of corners set when the right corner
   lies one column further, bit 1 when the lower one lies one row further
   (else they are clamped onto the last column or row); and the fractions
   towards them, which are exact in float32. */
DISPATCH
void warp_coords(const float *restrict u, const float *restrict v, ptrdiff_t *restrict index,
                 uint8_t *restrict corners, float *restrict fx, float *restrict fy, int p,
                 int h, int w)
{
    const float wm1 = (float)(w - 1), hm1 = (float)(h - 1);
    for (int k = 0; k < p; k++) {
        for (int y = 0; y < h; y++) {
            const size_t o = ((size_t)k * h + y) * w;
            const float *restrict ur = u + o, *restrict vr = v + o;
            const ptrdiff_t row = (ptrdiff_t)k * h;
            for (int x = 0; x < w; x++) {
                float xx = (float)x + ur[x];
                float yy = (float)y + vr[x];
                /* NaN clamps to 0 instead of indexing out of bounds.  The
                   lower bound first: the other order keeps GCC 12 from
                   vectorizing the loop for SSE4.1 and up. */
                xx = xx >= 0.0f ? xx : 0.0f;
                xx = xx < wm1 ? xx : wm1;
                yy = yy >= 0.0f ? yy : 0.0f;
                yy = yy < hm1 ? yy : hm1;
                const int x0 = (int)xx, y0 = (int)yy;
                index[o + x] = (row + y0) * w + x0;
                corners[o + x] = (uint8_t)((x0 < w - 1) | (y0 < h - 1) << 1);
                fx[o + x] = xx - (float)x0;
                fy[o + x] = yy - (float)y0;
            }
        }
    }
}

/* Samples img at the coordinates warp_coords found: float32 corner
   differences, weighted and summed in double.  Returns -1 when a corner
   falls outside the stack, else 0. */
DISPATCH
int warp_bilinear(const float *restrict img, const ptrdiff_t *restrict index,
                  const uint8_t *restrict corners, const float *restrict fx,
                  const float *restrict fy, float *restrict out, int p, int h, int w)
{
    const size_t n = (size_t)p * h * w;
    for (size_t i = 0; i < n; i++) {
        const size_t a = (size_t)index[i], right = corners[i] & 1;
        const size_t c = corners[i] & 2 ? a + (size_t)w : a;
        if (a >= n || c + right >= n)
            return -1;
        const double dx = (double)fx[i];
        const double top = (double)img[a] + dx * (double)(img[a + right] - img[a]);
        const double bot = (double)img[c] + dx * (double)(img[c + right] - img[c]);
        out[i] = (float)(top + (double)fy[i] * (bot - top));
    }
    return 0;
}

/* One tap of the blur along a row: acc[x] + tap * src[x] in double,
   rounded to float. */
static inline void add_tap(float *restrict acc, const float *restrict src, double tap, int w)
{
    for (int x = 0; x < w; x++)
        acc[x] = (float)((double)acc[x] + tap * (double)src[x]);
}

/* Separable blur of each plane with the n_taps (odd) double taps centred
   on the pixel, edges replicated: the horizontal pass, then the vertical
   one, each from a sum of +0.0f and tap by tap, in the order of taps.
   Returns -1 when the scratch plane cannot be allocated, else 0. */
DISPATCH
int gaussian_blur(const float *restrict img, const double *restrict taps, int n_taps,
                  float *restrict out, int p, int h, int w)
{
    const int r = n_taps / 2;
    const size_t plane = (size_t)h * w;
    float *tmp = malloc((plane + (size_t)w + 2 * (size_t)r) * sizeof(float));
    if (!tmp)
        return -1;
    float *pad = tmp + plane;  /* one row with r replicated pixels on each side */
    for (int k = 0; k < p; k++) {
        const float *src = img + k * plane;
        for (int y = 0; y < h; y++) {
            const float *row = src + (size_t)y * w;
            for (int x = 0; x < r; x++) {
                pad[x] = row[0];
                pad[r + w + x] = row[w - 1];
            }
            memcpy(pad + r, row, (size_t)w * sizeof(float));
            float *acc = tmp + (size_t)y * w;
            memset(acc, 0, (size_t)w * sizeof(float));
            for (int j = 0; j < n_taps; j++)
                add_tap(acc, pad + j, taps[j], w);
        }
        for (int y = 0; y < h; y++) {
            float *acc = out + k * plane + (size_t)y * w;
            memset(acc, 0, (size_t)w * sizeof(float));
            for (int j = 0; j < n_taps; j++) {
                const int yy = y - r + j < 0 ? 0 : y - r + j >= h ? h - 1 : y - r + j;
                add_tap(acc, tmp + (size_t)yy * w, taps[j], w);
            }
        }
    }
    free(tmp);
    return 0;
}

/* The linearized data term of one warp at n pixels:
       grad = I1wx * I1wx + I1wy * I1wy
       rho_c = ((I1w - I1wx * u1) - I1wy * u2) - I0 */
DISPATCH
void data_terms(const float *restrict I0, const float *restrict I1w,
                const float *restrict I1wx, const float *restrict I1wy,
                const float *restrict u1, const float *restrict u2, float *restrict grad,
                float *restrict rho_c, size_t n)
{
    for (size_t i = 0; i < n; i++) {
        grad[i] = I1wx[i] * I1wx[i] + I1wy[i] * I1wy[i];
        rho_c[i] = ((I1w[i] - I1wx[i] * u1[i]) - I1wy[i] * u2[i]) - I0[i];
    }
}

/* Dual ascent on (pa, pb) at one pixel, from the forward differences
   (ux, uy) of u there. */
static inline void dual_pixel(float *pa, float *pb, float ux, float uy, float taut)
{
    float ng = 1.0f + taut * sqrtf(ux * ux + uy * uy);
    *pa = (*pa + taut * ux) / ng;
    *pb = (*pb + taut * uy) / ng;
}

/* Dual ascent on (pa, pb) from the forward differences of u, which are 0
   across the last column and the last row. */
DISPATCH
static void dual_step(const float *restrict u, float *restrict pa, float *restrict pb,
                      float taut, int h, int w)
{
    for (int y = 0; y < h; y++) {
        const size_t o = (size_t)y * w;
        const float *restrict row = u + o;
        float *restrict a = pa + o, *restrict b = pb + o;
        if (y < h - 1) {
            const float *restrict below = row + w;
            for (int x = 0; x < w - 1; x++)
                dual_pixel(a + x, b + x, row[x + 1] - row[x], below[x] - row[x], taut);
            dual_pixel(a + w - 1, b + w - 1, 0.0f, below[w - 1] - row[w - 1], taut);
        } else {
            for (int x = 0; x < w - 1; x++)
                dual_pixel(a + x, b + x, row[x + 1] - row[x], 0.0f, taut);
            dual_pixel(a + w - 1, b + w - 1, 0.0f, 0.0f, taut);
        }
    }
}

/* The primal step at pixel x of a row, given its divergences: the nested
   select of _purekernels.tvl1_iterations,
       rho < -th ? lt : rho > th ? -lt : g > 1e-10f ? -rho / g : 0.0f,
   as selects of values computed at every pixel, innermost first, so that
   the loop has no branch.  Where g is too small the quotient is taken by 1
   and dropped. */
static inline void primal_pixel(const float *I1wx, const float *I1wy, const float *rho_c,
                                const float *grad, const float *u1, const float *u2,
                                float *u1n, float *u2n, int x, float div1, float div2,
                                float lt, float theta32)
{
    const float g = grad[x];
    const float rho = rho_c[x] + I1wx[x] * u1[x] + I1wy[x] * u2[x];
    const float th = lt * g;
    float step = -rho / (g > 1e-10f ? g : 1.0f);
    step = g > 1e-10f ? step : 0.0f;
    step = rho > th ? -lt : step;
    step = rho < -th ? lt : step;
    const float v1 = u1[x] + step * I1wx[x];
    const float v2 = u2[x] + step * I1wy[x];
    u1n[x] = v1 + theta32 * div1;
    u2n[x] = v2 + theta32 * div2;
}

/* The primal step on one row; every array points at the row's first pixel,
   up12 and up22 at the row above in p12 and p22.  The divergence is the
   backward difference of (p11, p21) along the row, plain in column 0, plus
   that of (p12, p22) across rows.  Above the first row lies a row of
   zeros, and p - 0.0f is p bit for bit, -0.0 included.  Kept out of line:
   inlined into iterate_plane, GCC 12 drops the restrict of these pointers,
   the loop would need more run-time alias checks than it makes, and it
   stays scalar. */
__attribute__((noinline)) DISPATCH
static void primal_row(const float *restrict I1wx, const float *restrict I1wy,
                       const float *restrict rho_c, const float *restrict grad,
                       const float *restrict u1, const float *restrict u2,
                       const float *restrict p11, const float *restrict p12,
                       const float *restrict up12, const float *restrict p21,
                       const float *restrict p22, const float *restrict up22,
                       float *restrict u1n, float *restrict u2n, int w, float lt,
                       float theta32)
{
    primal_pixel(I1wx, I1wy, rho_c, grad, u1, u2, u1n, u2n, 0, p11[0] + (p12[0] - up12[0]),
                 p21[0] + (p22[0] - up22[0]), lt, theta32);
    for (int x = 1; x < w; x++)
        primal_pixel(I1wx, I1wy, rho_c, grad, u1, u2, u1n, u2n, x,
                     (p11[x] - p11[x - 1]) + (p12[x] - up12[x]),
                     (p21[x] - p21[x - 1]) + (p22[x] - up22[x]), lt, theta32);
}

/* Adds the squared update of one row to the eight lanes of err: pixel x
   goes to lane x % 8. */
DISPATCH
static void add_row_error(const float *restrict u1, const float *restrict u2,
                          const float *restrict u1n, const float *restrict u2n, int w,
                          double *restrict err)
{
    int x = 0;
    for (; x + 8 <= w; x += 8) {
        for (int j = 0; j < 8; j++) {
            float d1 = u1n[x + j] - u1[x + j], d2 = u2n[x + j] - u2[x + j];
            err[j] += (double)(d1 * d1) + (double)(d2 * d2);
        }
    }
    for (int j = 0; x + j < w; j++) {
        float d1 = u1n[x + j] - u1[x + j], d2 = u2n[x + j] - u2[x + j];
        err[j] += (double)(d1 * d1) + (double)(d2 * d2);
    }
}

/* Runs at most n_iters primal-dual iterations on one plane and returns how
   many ran.  Each iteration writes the new flow into (u1n, u2n) and then
   swaps the two pairs, so after an odd count the result lies in u1n and u2n.
   The dual fields are updated in place.  zero is a row of w zeros. */
static int iterate_plane(const float *I1wx, const float *I1wy, const float *rho_c,
                         const float *grad, float *u1, float *u2, float *u1n, float *u2n,
                         float *p11, float *p12, float *p21, float *p22, const float *zero,
                         int h, int w, double lam, double theta, double tau, int n_iters,
                         double stop_eps2)
{
    const float lt = (float)(lam * theta), taut = (float)(tau / theta);
    const float theta32 = (float)theta;
    const double n = (double)h * (double)w;
    int done = 0;
    while (done < n_iters) {
        done++;
        double lanes[8] = {0};
        for (int y = 0; y < h; y++) {
            const size_t o = (size_t)y * w;
            const float *up12 = y ? p12 + o - w : zero, *up22 = y ? p22 + o - w : zero;
            primal_row(I1wx + o, I1wy + o, rho_c + o, grad + o, u1 + o, u2 + o, p11 + o,
                       p12 + o, up12, p21 + o, p22 + o, up22, u1n + o, u2n + o, w, lt, theta32);
            add_row_error(u1 + o, u2 + o, u1n + o, u2n + o, w, lanes);
        }
        double err = 0.0;
        for (int j = 0; j < 8; j++)
            err += lanes[j];
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
   after an odd count is copied back from its (u1n, u2n) scratch.  Planes
   must have pixels: the row loops peel a first and a last column.  Returns
   -1 when the row of zeros cannot be allocated. */
int tvl1_iterations(const float *I1wx, const float *I1wy, const float *rho_c,
                    const float *grad, float *u1, float *u2, float *u1n, float *u2n,
                    float *p11, float *p12, float *p21, float *p22, int p, int h, int w,
                    double lam, double theta, double tau, int n_iters, double stop_eps2)
{
    const size_t plane = (size_t)h * w;
    float *zero = calloc((size_t)w, sizeof(float));
    if (!zero)
        return -1;
    int most = 0;
    for (int k = 0; k < p; k++) {
        const size_t o = k * plane;
        int done = iterate_plane(I1wx + o, I1wy + o, rho_c + o, grad + o, u1 + o, u2 + o,
                                 u1n + o, u2n + o, p11 + o, p12 + o, p21 + o, p22 + o, zero,
                                 h, w, lam, theta, tau, n_iters, stop_eps2);
        if (done % 2) {
            memcpy(u1 + o, u1n + o, plane * sizeof(float));
            memcpy(u2 + o, u2n + o, plane * sizeof(float));
        }
        if (done > most)
            most = done;
    }
    free(zero);
    return most;
}
