/* The fused SSMU tile of the integer decode step (LightMamba Sec. IV-B, Fig. 3).
 *
 * One call advances every (row, head, channel) line of resident state codes
 * through the four stages QuantizedSSMStep._step_integer documents --
 * B_bar (.) x, A_bar (.) h + add, state re-quantization, h (.) C + readout --
 * as one pipeline per line instead of ~42 whole-tile numpy passes.  The numpy
 * tile (repro.quant.ssm_quant._ssmu_tile) is the reference: every float
 * operation here is the one numpy performs, in numpy's order, so the outputs
 * are byte-equal.  The rules that make that true, each load-bearing:
 *
 * - built with -ffp-contract=off and never -ffast-math (repro.quant.native);
 * - rint() in the default rounding mode is np.rint;
 * - ldexp(v, e) is the exact multiply v * 2**e, the factor built from the
 *   exponent bits (libm ldexp per element is slower than numpy); only
 *   |e| > 1000, where 2**e may not be a normal double, goes to libm;
 * - destination exponents replicate pot.absmax_requant_exponents, which is
 *   ceil(log2(.)) in float64 -- NOT the exact binary exponent: log2 rounds to
 *   k for values a few ulps above 2**k (see requant_exponent);
 * - the half-even shift is pot.shift_right_half_even in INT32 (the
 *   ssm-decode-step bounds of repro.analysis.overflow: int8 codes, products
 *   below 2**15, aligned products below qmax * 2**R + 2**(R-1));
 * - the readout reproduces numpy's pairwise summation over the first n
 *   elements of a line (np.einsum's order is not bit-identical).
 *
 * Within a line each stage runs across all groups before the next stage
 * starts: a group's absmax -> exponent -> pass -> absmax chain is serial, the
 * chains of different groups overlap.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MIN_SCALE 1e-12 /* pot._MIN_SCALE: the scale floor of an all-zero group */
#define EXACT_POW2 1000 /* |e| up to which 2**e is built from the exponent bits */

typedef struct {
    int64_t amax3;  /* max |Delta (.) B code| of the group (per head) */
    int64_t amax;   /* integer group absmax: the stored codes, then h (.) C */
    double wmax;    /* group absmax of the wide state sum */
    double m5;      /* A_bar (.) h re-quantization multiplier a_bar * 2**(e_h - e5) */
    double factor;  /* 2**shift of the coming pass, 0.0 when it needs libm ldexp */
    int32_t shift;  /* exponent (difference) of the coming pass */
    int32_t e5, e6; /* the A_bar (.) h grid, the new state grid */
    int32_t mul;    /* pre-aligned x code, then the h (.) C alignment multiplier */
} group_t;

/* An exponent as libm's int: past +-2**30 every ldexp is 0 or inf already. */
static inline int32_t clamp_exponent(int64_t e)
{
    const int64_t limit = INT64_C(1) << 30;
    return (int32_t)(e < -limit ? -limit : e > limit ? limit : e);
}

/* 2**e for |e| <= EXACT_POW2, else 0.0 (the caller then takes ldexp). */
static inline double pow2_factor(int32_t e)
{
    if (e < -EXACT_POW2 || e > EXACT_POW2)
        return 0.0;
    uint64_t bits = (uint64_t)(e + 1023) << 52;
    double value;
    memcpy(&value, &bits, sizeof value);
    return value;
}

/* np.ldexp(v, e): a correctly rounded multiply by 2**e is the same operation. */
static inline double scaled(double v, int32_t e, double factor)
{
    return factor != 0.0 ? v * factor : ldexp(v, e);
}

static inline double ldexp_exact(double v, int64_t e)
{
    const int32_t shift = clamp_exponent(e);
    return scaled(v, shift, pow2_factor(shift));
}

/* pot.absmax_requant_exponents for one group: max(absmax, eps) / qmax, floored
 * at eps again, then ceil(log2(.)).  The scale is a positive normal double, so
 * its exponent field k brackets the answer: exactly k for a power of two,
 * k + 1 once the mantissa is far enough above it -- but within 2**16 ulps
 * above 2**k float64 log2 may still round to k, so those few ask libm. */
static inline int32_t requant_exponent(double absmax, double qmax)
{
    double scale = (absmax > MIN_SCALE ? absmax : MIN_SCALE) / qmax;
    scale = scale > MIN_SCALE ? scale : MIN_SCALE;
    uint64_t bits;
    memcpy(&bits, &scale, sizeof bits);
    int32_t k = (int32_t)((bits >> 52) & 0x7ff) - 1023;
    uint64_t mantissa = bits & ((UINT64_C(1) << 52) - 1);
    if (mantissa == 0)
        return k;
    if (mantissa >> 16)
        return k + 1;
    return (int32_t)ceil(log2(scale));
}

/* pot.alignment_multiplier: 2**(R - shift) for a live group, 0 for an
 * all-zero one or one every product of which rounds to zero. */
static inline int32_t alignment(int64_t amax, int64_t shift, int32_t full)
{
    if (amax <= 0 || shift > full)
        return 0;
    return full - shift < 32 ? (int32_t)(UINT32_C(1) << (full - shift)) : 0;
}

/* pot.shift_right_half_even with the uniform shift R (bias = 2**(R-1) - 1). */
static inline int32_t half_even(int32_t acc, int32_t full, int32_t bias)
{
    return (acc + ((acc >> full) & 1) + bias) >> full;
}

/* numpy's pairwise sum of a contiguous run (DOUBLE_pairwise_sum): below 8 a
 * plain loop, up to 128 eight running accumulators combined as a tree plus a
 * serial tail, above that halves (the first a multiple of 8) summed apart. */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        memcpy(r, a, sizeof r);
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* Test entries: the two derivations whose numpy twins are easy to get wrong. */
void ssmu_requant_exponents(const double *absmax, int64_t count, int32_t bits, int32_t *out)
{
    const double qmax = (double)((1 << (bits - 1)) - 1);
    for (int64_t i = 0; i < count; i++)
        out[i] = requant_exponent(absmax[i], qmax);
}

double ssmu_pairwise_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise_sum(a, n);
}

/* Shapes (C order): ch, codes_out (rows, heads, dim, groups, glen) int8;
 * e_h, e6_out (rows, heads, dim, groups); a_bar (rows, heads);
 * c3 (rows, heads, groups, glen), e3 (rows, heads, groups); cx, ex, y (rows,
 * heads, dim); cc (rows, groups, glen), e_c (rows, groups).  n <= groups * glen
 * is the unpadded state length the readout sums.  Returns 0, or -1 when the
 * line scratch cannot be allocated (nothing written). */
int ssmu_tile(int64_t rows, int64_t heads, int64_t dim, int64_t groups, int64_t glen,
              int64_t n, int32_t bits,
              const int8_t *ch, const int32_t *e_h, const double *a_bar,
              const int32_t *c3, const int32_t *e3, const int32_t *cx, const int32_t *ex,
              const int32_t *cc, const int32_t *e_c,
              int8_t *codes_out, int32_t *e6_out, double *y)
{
    const int64_t line = groups * glen;
    const double qmax = (double)((1 << (bits - 1)) - 1);
    const int32_t full = 2 * bits, bias = (1 << (full - 1)) - 1;
    double *wide = malloc((size_t)line * sizeof *wide);
    int32_t *acc = malloc((size_t)line * sizeof *acc);
    group_t *gr = malloc((size_t)groups * sizeof *gr);
    if (!wide || !acc || !gr) {
        free(wide), free(acc), free(gr);
        return -1;
    }
    for (int64_t rh = 0; rh < rows * heads; rh++) {
        const int64_t row = rh / heads;
        const int32_t *c3_h = c3 + rh * line, *cc_r = cc + row * line;
        for (int64_t k = 0; k < groups; k++) {
            int32_t m = 0;
            for (int64_t i = 0; i < glen; i++) {
                int32_t v = c3_h[k * glen + i];
                v = v < 0 ? -v : v;
                m = v > m ? v : m;
            }
            gr[k].amax3 = m;
        }
        for (int64_t ln = rh * dim; ln < (rh + 1) * dim; ln++) {
            const int8_t *h = ch + ln * line;
            int8_t *out = codes_out + ln * line;
            const int64_t x_abs = cx[ln] < 0 ? -(int64_t)cx[ln] : cx[ln];

            /* Grids: the A_bar (.) h absmax runs on the stored codes. */
            for (int64_t k = 0; k < groups; k++) {
                int32_t m = 0;
                for (int64_t i = 0; i < glen; i++) {
                    int32_t v = h[k * glen + i];
                    v = v < 0 ? -v : v;
                    m = v > m ? v : m;
                }
                gr[k].amax = m;
            }
            for (int64_t k = 0; k < groups; k++) {
                group_t *g = &gr[k];
                /* A_bar (.) h: the per-head scalar folds into the multiplier. */
                const int64_t eh = e_h[ln * groups + k];
                g->e5 = requant_exponent(ldexp_exact(a_bar[rh] * (double)g->amax, eh), qmax);
                g->m5 = ldexp_exact(a_bar[rh], eh - g->e5);
                /* B_bar (.) x: exponents add, max |a_i * b| = max |a_i| * |b|;
                 * the shift count folds into the x code (R - r left). */
                const int64_t e4_src = (int64_t)e3[rh * groups + k] + ex[ln];
                const int64_t amax4 = g->amax3 * x_abs;
                const int64_t e4 = requant_exponent(ldexp_exact((double)amax4, e4_src), qmax);
                g->mul = cx[ln] * alignment(amax4, e4 - e4_src, full);
                g->shift = clamp_exponent(e4 - g->e5);
                g->factor = pow2_factor(g->shift);
            }
            /* 1 + 2. c4 = (c3 * x_aligned) >> R; c5 = rint(h * m5); their sum
             * relative to the e5 grid, and its group absmax (the bit pattern
             * of a non-negative double orders like its value). */
            for (int64_t k = 0; k < groups; k++) {
                const double m5 = gr[k].m5, factor = gr[k].factor;
                const int32_t mul = gr[k].mul, shift = gr[k].shift;
                uint64_t amax = 0;
                for (int64_t i = k * glen; i < (k + 1) * glen; i++) {
                    const int32_t c4 = half_even(c3_h[i] * mul, full, bias);
                    const double w = rint((double)h[i] * m5) + scaled((double)c4, shift, factor);
                    uint64_t magnitude;
                    wide[i] = w;
                    memcpy(&magnitude, &w, sizeof magnitude);
                    magnitude &= UINT64_MAX >> 1;
                    amax = magnitude > amax ? magnitude : amax;
                }
                memcpy(&gr[k].wmax, &amax, sizeof amax);
            }
            /* 3. The sum re-quantizes onto the fresh per-group grid that
             * becomes the resident state (no clip: the grid is the absmax's). */
            for (int64_t k = 0; k < groups; k++) {
                group_t *g = &gr[k];
                g->e6 = requant_exponent(ldexp_exact(g->wmax, g->e5), qmax);
                g->shift = clamp_exponent((int64_t)g->e5 - g->e6);
                g->factor = pow2_factor(g->shift);
                e6_out[ln * groups + k] = g->e6;
            }
            for (int64_t k = 0; k < groups; k++) {
                const double factor = gr[k].factor;
                const int32_t shift = gr[k].shift;
                int32_t amax = 0;
                for (int64_t i = k * glen; i < (k + 1) * glen; i++) {
                    const int8_t code = (int8_t)rint(scaled(wide[i], shift, factor));
                    int32_t hc = code * cc_r[i], v;
                    out[i] = code;
                    acc[i] = hc;
                    v = hc < 0 ? -hc : hc;
                    amax = v > amax ? v : amax;
                }
                gr[k].amax = amax;
            }
            /* 4. h (.) C: aligned, shifted by R, decoded at e7 for the readout. */
            for (int64_t k = 0; k < groups; k++) {
                group_t *g = &gr[k];
                const int64_t e7_src = (int64_t)g->e6 + e_c[row * groups + k];
                const int64_t e7 = requant_exponent(ldexp_exact((double)g->amax, e7_src), qmax);
                g->mul = alignment(g->amax, e7 - e7_src, full);
                g->shift = (int32_t)e7;
                g->factor = pow2_factor(g->shift);
            }
            for (int64_t k = 0; k < groups; k++) {
                const double factor = gr[k].factor;
                const int32_t mul = gr[k].mul, shift = gr[k].shift;
                for (int64_t i = k * glen; i < (k + 1) * glen; i++)
                    wide[i] = scaled((double)half_even(acc[i] * mul, full, bias), shift, factor);
            }
            y[ln] = y[ln] + (0.0 + pairwise_sum(wide, n));
        }
    }
    free(wide), free(acc), free(gr);
    return 0;
}
