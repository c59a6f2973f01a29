/* The compiled units of the quantized datapath (LightMamba Sec. IV, Fig. 4a).
 *
 * One library, three entries, built, self-tested and loaded together by
 * repro.quant.native:
 *
 * - ssmu_step: the whole integer SSM decode step of a batch -- from the float
 *   x / B / C of the in-projection and the per-head Delta / A_bar of the
 *   non-linear units to the readout y, the new INT8 state codes and their PoT
 *   scales -- with the state-sized middle (B_bar (.) x, A_bar (.) h + add,
 *   state re-quantization, h (.) C + readout) as one pipeline per line of
 *   state.  Its reference, and the fallback wherever it does not run, is the
 *   fake-quant oracle QuantizedSSMStep._step_oracle.
 * - fwht: the fast Walsh-Hadamard transform of the HTU.  Its reference and
 *   fallback is the textbook butterfly repro.quant.hadamard._fwht_numpy.
 * - quantize_groups: the symmetric quantizer's round trip over groups of a
 *   trailing axis -- every granularity is such groups -- to fake-quantized
 *   values or INT8 codes: every activation re-quantization at an MMU
 *   boundary and every SSMU operand prefill stages, the resident state's
 *   codes and weight RTN.  Its reference and fallback is the numpy quantizer
 *   repro.quant.quantizer._quantize_numpy, which has this entry's contract.
 *
 * Every float operation here is the one the numpy reference performs, in
 * numpy's order, so the outputs are byte-equal.  The rules that
 * make that true, each load-bearing:
 *
 * - built with -ffp-contract=off and never -ffast-math (repro.quant.native);
 * - rint() in the default rounding mode is np.rint (and np.round);
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
 *   elements of a line (np.einsum's order is not bit-identical);
 * - the butterflies pair and order as the textbook in-place network (span 1,
 *   2, 4, ...), then divide by sqrt(n).
 *
 * The integer step has a range: every destination exponent must keep 2**e a
 * normal double (at most MAX_EXPONENT; the 1e-12 scale floor bounds it below
 * at -39).  A batch that would leave it -- or that carries a non-finite
 * operand -- is the float oracle's, and the step says so (STEP_ORACLE)
 * instead of computing on infinite grids.  The quantizer declines the same
 * two cases (QUANT_DECLINED) before writing anything, and numpy runs them.
 *
 * Within a line of state each stage runs across all groups before the next
 * stage starts: a group's absmax -> exponent -> pass -> absmax chain is
 * serial, the chains of different groups overlap.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MIN_SCALE 1e-12   /* pot._MIN_SCALE: the scale floor of an all-zero group */
#define EXACT_POW2 1000   /* |e| up to which 2**e is built from the exponent bits */
#define MAX_EXPONENT 1023 /* the largest e whose 2**e is a normal double */

enum {
    STEP_DONE = 0,
    STEP_ORACLE = 1, /* a non-finite operand or a grid past MAX_EXPONENT */
    STEP_NOT_POT = 2, /* a state scale that is not a normal power of two: the
                       * caller raises for a finite one that is no positive
                       * power of two, the oracle runs the rest */
    NO_MEMORY = -1,  /* scratch allocation failed; nothing usable written */
};

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

/* What every line of one call shares: the layout, the width, the scratch. */
typedef struct {
    int64_t groups, glen, n; /* groups of glen codes per line; the readout sums n */
    double qmax;
    int32_t full, bias; /* the uniform shift R = 2 * bits and its rounding bias */
    group_t *gr;
    double *wide;
    int32_t *acc;
} tile_t;

/* An exponent as libm's int: past +-2**30 every ldexp is 0 or inf already. */
static inline int32_t clamp_exponent(int64_t e)
{
    const int64_t limit = INT64_C(1) << 30;
    return (int32_t)(e < -limit ? -limit : e > limit ? limit : e);
}

/* 2**e for a normal-range e (-1022 <= e <= MAX_EXPONENT), from the exponent bits. */
static inline double pow2(int32_t e)
{
    uint64_t bits = (uint64_t)(e + 1023) << 52;
    double value;
    memcpy(&value, &bits, sizeof value);
    return value;
}

/* 2**e for |e| <= EXACT_POW2, else 0.0 (the caller then takes ldexp). */
static inline double pow2_factor(int32_t e)
{
    return e < -EXACT_POW2 || e > EXACT_POW2 ? 0.0 : pow2(e);
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

/* np.clip(np.rint(v), -qmax, qmax); a -0.0 stays -0.0. */
static inline double rint_clip(double v, double qmax)
{
    const double r = rint(v);
    return r < -qmax ? -qmax : r > qmax ? qmax : r;
}

/* np.ceil(np.log2(max(scale, eps))) for a positive scale.  Floored at eps the
 * scale is a positive normal double (or inf, which answers 1024), so its
 * exponent field k brackets the answer: exactly k for a power of two, k + 1
 * once the mantissa is far enough above it -- but within 2**16 ulps above 2**k
 * float64 log2 may still round to k, so those few ask libm. */
static inline int32_t ceil_log2(double scale)
{
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

/* pot.absmax_requant_exponents for one group: max(absmax, eps) / qmax, then
 * ceil_log2. */
static inline int32_t requant_exponent(double absmax, double qmax)
{
    return ceil_log2((absmax > MIN_SCALE ? absmax : MIN_SCALE) / qmax);
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

/* Test entries: the two derivations that must reproduce numpy and are easy to get
 * wrong -- pot.absmax_requant_exponents and np.sum's pairwise order. */
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

/* ------------------------------------------------------------------------
 * The tile: one line of state through the four stages
 * ------------------------------------------------------------------------ */
static int tile_open(tile_t *t, int64_t groups, int64_t glen, int64_t n, int32_t bits)
{
    const int64_t line = groups * glen;
    t->groups = groups, t->glen = glen, t->n = n;
    t->qmax = (double)((1 << (bits - 1)) - 1);
    t->full = 2 * bits, t->bias = (1 << (t->full - 1)) - 1;
    t->wide = malloc((size_t)line * sizeof *t->wide);
    t->acc = malloc((size_t)line * sizeof *t->acc);
    t->gr = malloc((size_t)groups * sizeof *t->gr);
    return t->wide && t->acc && t->gr ? 0 : NO_MEMORY;
}

static void tile_close(tile_t *t)
{
    free(t->wide), free(t->acc), free(t->gr);
}

/* Per (row, head): the group maxima of its Delta (.) B codes. */
static void tile_head(tile_t *t, const int8_t *c3_h)
{
    for (int64_t k = 0; k < t->groups; k++) {
        int32_t m = 0;
        for (int64_t i = 0; i < t->glen; i++) {
            int32_t v = c3_h[k * t->glen + i];
            v = v < 0 ? -v : v;
            m = v > m ? v : m;
        }
        t->gr[k].amax3 = m;
    }
}

/* One (row, head, channel) line: the resident codes h on the grids e_h in,
 * the new codes and their grids e6 out, the readout added to *y.  The head's
 * Delta (.) B codes c3_h / e3_h (after tile_head), the channel's x code cx at
 * ex, the row's C codes cc_r / e_c_r.  STEP_ORACLE when a grid would pass
 * MAX_EXPONENT (outputs then partial).  Inlined into tile_line with glen a
 * constant where it is the default group length, so those group loops
 * compile to straight vector code. */
static inline __attribute__((always_inline)) int
tile_line_at(tile_t *t, const int64_t glen, const int8_t *restrict h, const int32_t *e_h,
             double a_bar, const int8_t *restrict c3_h, const int32_t *e3_h, int32_t cx,
             int32_t ex, const int8_t *restrict cc_r, const int32_t *e_c_r,
             int8_t *restrict out, int32_t *e6_out, double *y)
{
    const int64_t groups = t->groups;
    const int32_t full = t->full, bias = t->bias;
    const double qmax = t->qmax;
    const int64_t x_abs = cx < 0 ? -(int64_t)cx : cx;
    group_t *restrict gr = t->gr;
    double *restrict wide = t->wide;
    int32_t *restrict acc = t->acc;

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
        const int64_t eh = e_h[k];
        g->e5 = requant_exponent(ldexp_exact(a_bar * (double)g->amax, eh), qmax);
        g->m5 = ldexp_exact(a_bar, eh - g->e5);
        /* B_bar (.) x: exponents add, max |a_i * b| = max |a_i| * |b|;
         * the shift count folds into the x code (R - r left). */
        const int64_t e4_src = (int64_t)e3_h[k] + ex;
        const int64_t amax4 = g->amax3 * x_abs;
        const int64_t e4 = requant_exponent(ldexp_exact((double)amax4, e4_src), qmax);
        if (g->e5 > MAX_EXPONENT || e4 > MAX_EXPONENT)
            return STEP_ORACLE;
        g->mul = cx * alignment(amax4, e4 - e4_src, full);
        g->shift = clamp_exponent(e4 - g->e5);
        g->factor = pow2_factor(g->shift);
    }
    /* 1 + 2. c4 = (c3 * x_aligned) >> R; c5 = rint(h * m5); their sum
     * relative to the e5 grid, and its group absmax (the bit pattern of a
     * non-negative double orders like its value). */
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
    /* 3. The sum re-quantizes onto the fresh per-group grid that becomes the
     * resident state (no clip: the grid is the absmax's). */
    for (int64_t k = 0; k < groups; k++) {
        group_t *g = &gr[k];
        g->e6 = requant_exponent(ldexp_exact(g->wmax, g->e5), qmax);
        if (g->e6 > MAX_EXPONENT)
            return STEP_ORACLE;
        g->shift = clamp_exponent((int64_t)g->e5 - g->e6);
        g->factor = pow2_factor(g->shift);
        e6_out[k] = g->e6;
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
        const int64_t e7_src = (int64_t)g->e6 + e_c_r[k];
        const int64_t e7 = requant_exponent(ldexp_exact((double)g->amax, e7_src), qmax);
        if (e7 > MAX_EXPONENT)
            return STEP_ORACLE;
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
    *y = *y + (0.0 + pairwise_sum(wide, t->n));
    return STEP_DONE;
}

#define DEFAULT_GLEN 32 /* SSMQuantConfig's group size, the length of every default group */

static int tile_line(tile_t *t, const int8_t *h, const int32_t *e_h, double a_bar,
                     const int8_t *c3_h, const int32_t *e3_h, int32_t cx, int32_t ex,
                     const int8_t *cc_r, const int32_t *e_c_r,
                     int8_t *out, int32_t *e6_out, double *y)
{
    if (t->glen == DEFAULT_GLEN)
        return tile_line_at(t, DEFAULT_GLEN, h, e_h, a_bar, c3_h, e3_h, cx, ex, cc_r, e_c_r,
                            out, e6_out, y);
    return tile_line_at(t, t->glen, h, e_h, a_bar, c3_h, e3_h, cx, ex, cc_r, e_c_r,
                        out, e6_out, y);
}

/* ------------------------------------------------------------------------
 * The step: entry quantizations, scalar folds, the tile, the new scales
 * ------------------------------------------------------------------------ */
static int all_finite(const double *v, int64_t count)
{
    int finite = 1;
    for (int64_t i = 0; i < count; i++)
        finite &= isfinite(v[i]) != 0;
    return finite;
}

/* pot.pot_exponent for scales that are normal powers of two; 0 when one is
 * anything else (STEP_NOT_POT). */
static int pot_exponents(const double *scales, int64_t count, int32_t *e)
{
    int normal = 1;
    for (int64_t i = 0; i < count; i++) {
        uint64_t bits;
        memcpy(&bits, &scales[i], sizeof bits);
        const uint64_t field = bits >> 52; /* the sign is bit 11 of it */
        normal &= (bits & ((UINT64_C(1) << 52) - 1)) == 0 && field >= 1 && field <= 2046;
        e[i] = (int32_t)field - 1023;
    }
    return normal;
}

/* The oracle's entry quantization of one run of len values in groups of glen
 * (the last zero-padded: per-group absmax, ceil-PoT scale, round, clip), the
 * scale kept as its exponent: the codes, their exponents and their integer
 * group maxima (amax may be NULL).  STEP_ORACLE past MAX_EXPONENT. */
static int entry_codes(const double *v, int64_t len, int64_t glen, int64_t groups, double qmax,
                       int8_t *codes, int32_t *e, int32_t *amax)
{
    for (int64_t k = 0; k < groups; k++) {
        const int64_t lo = k * glen, hi = lo + glen < len ? lo + glen : len;
        double m = 0.0;
        for (int64_t i = lo; i < hi; i++) {
            const double a = fabs(v[i]);
            m = a > m ? a : m;
        }
        const int32_t ek = requant_exponent(m, qmax);
        if (ek > MAX_EXPONENT)
            return STEP_ORACLE;
        const double factor = pow2_factor(-ek);
        int32_t cmax = 0;
        for (int64_t i = lo; i < hi; i++) {
            const int32_t c = (int32_t)rint_clip(scaled(v[i], -ek, factor), qmax);
            const int32_t magnitude = c < 0 ? -c : c;
            codes[i] = (int8_t)c;
            cmax = magnitude > cmax ? magnitude : cmax;
        }
        memset(codes + hi, 0, (size_t)(lo + glen - hi));
        e[k] = ek;
        if (amax)
            amax[k] = cmax;
    }
    return STEP_DONE;
}

/* The destination exponent of a per-head scalar folded onto codes at
 * exponent e whose group absmax is amax: the product's group absmax is
 * |scalar| * amax.  The grids of Delta (.) B (e3) and D (.) x (e8). */
static inline int32_t fold_exponent(double scalar_abs, int32_t amax, int32_t e, double qmax)
{
    return requant_exponent(ldexp_exact(scalar_abs * (double)amax, e), qmax);
}

/* Shapes (C order): x, y (rows, heads, dim); B, C (rows, n); dt, delta,
 * a_bar (rows, heads); D (heads); ch, codes_out (rows, heads, dim, n) int8;
 * scales, scales_out (rows, heads, dim, groups) with the state's groups of
 * min(group_size, n).  Writes y, the new codes and their scales (exact powers
 * of two) and returns STEP_DONE; or returns STEP_ORACLE (a non-finite operand,
 * a grid past MAX_EXPONENT), STEP_NOT_POT (a scale that is not a normal power
 * of two) or NO_MEMORY, the outputs then undefined. */
int ssmu_step(int64_t rows, int64_t heads, int64_t dim, int64_t n, int64_t group_size,
              int32_t bits,
              const double *x, const double *B, const double *C, const double *dt,
              const double *delta, const double *a_bar, const double *D,
              const int8_t *ch, const double *scales,
              double *y, int8_t *codes_out, double *scales_out)
{
    const int64_t glen = group_size < n ? (group_size > 1 ? group_size : 1) : n;
    const int64_t groups = (n + glen - 1) / glen, line = groups * glen;
    const int64_t xlen = group_size < dim ? (group_size > 1 ? group_size : 1) : dim;
    const int64_t xgroups = (dim + xlen - 1) / xlen;
    const int64_t lines = rows * heads * dim;
    const double qmax = (double)((1 << (bits - 1)) - 1);

    /* The guard: a poisoned operand has no integer code. */
    if (!all_finite(x, lines) || !all_finite(B, rows * n) || !all_finite(C, rows * n)
        || !all_finite(dt, rows * heads) || !all_finite(delta, rows * heads)
        || !all_finite(a_bar, rows * heads) || !all_finite(D, heads)
        || !all_finite(scales, lines * groups))
        return STEP_ORACLE;

    tile_t t;
    int32_t *e_h = malloc((size_t)(lines * groups + 5 * groups + 2 * xgroups + dim + 1)
                          * sizeof *e_h);
    int8_t *codes = malloc((size_t)(5 * line + xgroups * xlen));
    int status = tile_open(&t, groups, glen, n, bits);
    if (!e_h || !codes || status) {
        free(e_h), free(codes), tile_close(&t);
        return NO_MEMORY;
    }
    int32_t *e_b = e_h + lines * groups, *e_c = e_b + groups, *amax_b = e_c + groups;
    int32_t *e3 = amax_b + groups, *e6 = e3 + groups, *e_x = e6 + groups;
    int32_t *amax_x = e_x + xgroups, *ex = amax_x + xgroups;
    int8_t *cb = codes, *cc = cb + line, *c3 = cc + line, *h_pad = c3 + line;
    int8_t *out_pad = h_pad + line, *cx = out_pad + line;
    memset(h_pad, 0, (size_t)line);

    if (!pot_exponents(scales, lines * groups, e_h))
        status = STEP_NOT_POT;
    for (int64_t row = 0; !status && row < rows; row++) {
        status = entry_codes(B + row * n, n, glen, groups, qmax, cb, e_b, amax_b);
        if (!status)
            status = entry_codes(C + row * n, n, glen, groups, qmax, cc, e_c, NULL);
        for (int64_t head = 0; !status && head < heads; head++) {
            const int64_t rh = row * heads + head;
            status = entry_codes(x + rh * dim, dim, xlen, xgroups, qmax, cx, e_x, amax_x);
            /* D (.) x skip: signed scalar fold; it opens the output the
             * readout adds to. */
            for (int64_t k = 0; !status && k < xgroups; k++) {
                const int32_t e8 = fold_exponent(fabs(D[head]), amax_x[k], e_x[k], qmax);
                if (e8 > MAX_EXPONENT) {
                    status = STEP_ORACLE;
                    break;
                }
                const double m8 = ldexp_exact(D[head], (int64_t)e_x[k] - e8), grid = pow2(e8);
                for (int64_t i = k * xlen; i < (k + 1) * xlen && i < dim; i++) {
                    y[rh * dim + i] = rint_clip((double)cx[i] * m8, qmax) * grid;
                    ex[i] = e_x[k];
                }
            }
            /* Delta (.) B: the positive per-head scalar folds into the
             * multiplier; the group absmax is Delta times the code absmax. */
            for (int64_t k = 0; !status && k < groups; k++) {
                e3[k] = fold_exponent(delta[rh], amax_b[k], e_b[k], qmax);
                if (e3[k] > MAX_EXPONENT) {
                    status = STEP_ORACLE;
                    break;
                }
                const double m3 = ldexp_exact(delta[rh], (int64_t)e_b[k] - e3[k]);
                for (int64_t i = k * glen; i < (k + 1) * glen; i++)
                    c3[i] = (int8_t)rint_clip((double)cb[i] * m3, qmax);
            }
            if (status)
                break;
            tile_head(&t, c3);
            for (int64_t ch_i = 0; !status && ch_i < dim; ch_i++) {
                const int64_t ln = rh * dim + ch_i;
                const int8_t *h = ch + ln * n;
                int8_t *out = line == n ? codes_out + ln * n : out_pad;
                if (line != n) { /* a short last group: run the zero-padded line */
                    memcpy(h_pad, h, (size_t)n);
                    h = h_pad;
                }
                status = tile_line(&t, h, e_h + ln * groups, a_bar[rh], c3, e3, cx[ch_i],
                                   ex[ch_i], cc, e_c, out, e6, y + ln);
                if (out == out_pad)
                    memcpy(codes_out + ln * n, out_pad, (size_t)n);
                for (int64_t k = 0; k < groups; k++)
                    scales_out[ln * groups + k] = pow2(e6[k]);
            }
        }
    }
    free(e_h), free(codes), tile_close(&t);
    return status;
}

/* ------------------------------------------------------------------------
 * The HTU: fast Walsh-Hadamard transform
 * ------------------------------------------------------------------------ */

/* rows contiguous runs of n points (n a power of two) from x into out, each
 * through the butterfly network -- span 1, 2, 4, ..., the upper output of a
 * pair its sum, the lower its difference -- then, when normalized, divided by
 * sqrt(n). */
void fwht(const double *x, int64_t rows, int64_t n, int32_t normalized, double *out)
{
    const double root = sqrt((double)n);
    for (int64_t r = 0; r < rows; r++) {
        double *o = out + r * n;
        memcpy(o, x + r * n, (size_t)n * sizeof *o);
        for (int64_t span = 1; span < n; span *= 2)
            for (int64_t block = 0; block < n; block += 2 * span)
                for (int64_t j = block; j < block + span; j++) {
                    const double upper = o[j], lower = o[j + span];
                    o[j] = upper + lower;
                    o[j + span] = upper - lower;
                }
        if (normalized)
            for (int64_t j = 0; j < n; j++)
                o[j] = o[j] / root;
    }
}

/* ------------------------------------------------------------------------
 * The quantizer: the symmetric round trip over groups of a trailing axis
 * ------------------------------------------------------------------------ */
#define INF_BITS UINT64_C(0x7ff0000000000000) /* +inf; a NaN's magnitude lies above */

enum {
    QUANT_DONE = 0,
    QUANT_DECLINED = 1, /* a non-finite group or a grid past MAX_EXPONENT */
};

/* The bit pattern of a run's absmax (as in tile_line_at). */
static inline uint64_t magnitude_max(const double *v, int64_t count)
{
    uint64_t m = 0;
    for (int64_t i = 0; i < count; i++) {
        uint64_t magnitude;
        memcpy(&magnitude, &v[i], sizeof magnitude);
        magnitude &= UINT64_MAX >> 1;
        m = magnitude > m ? magnitude : m;
    }
    return m;
}

/* quantizer.compute_scales for one finite group: max(absmax * clip, eps)
 * / qmax, snapped up to 2**ceil_log2 when pot; 0.0 when that passes
 * MAX_EXPONENT. */
static inline double group_scale(double absmax, double clip, double qmax, int32_t pot)
{
    const double clipped = absmax * clip;
    const double scale = (clipped > MIN_SCALE ? clipped : MIN_SCALE) / qmax;
    if (!pot)
        return scale;
    const int32_t e = ceil_log2(scale);
    return e > MAX_EXPONENT ? 0.0 : pow2(e);
}

/* The scale of one group of count values; 0.0 declines it (a non-finite
 * value, a grid past MAX_EXPONENT). */
static inline __attribute__((always_inline)) double
run_scale(const double *v, int64_t count, double clip, double qmax, int32_t pot)
{
    const uint64_t bits_max = magnitude_max(v, count);
    double absmax;
    memcpy(&absmax, &bits_max, sizeof absmax);
    return bits_max < INF_BITS ? group_scale(absmax, clip, qmax, pot) : 0.0;
}

/* 1 / scale for a power-of-two scale 2**e, exact from the exponent bits while
 * 2**-e is a normal double (e <= 1022); 0.0 past it (the caller divides). */
static inline double pot_inverse(double scale)
{
    uint64_t bits;
    memcpy(&bits, &scale, sizeof bits);
    const int32_t e = (int32_t)(bits >> 52) - 1023;
    return e <= 1022 ? pow2(-e) : 0.0;
}

/* quantizer._quantize_numpy on one group: clip(rint(v / scale)) + 0.0 (codes
 * have no signed zero), times scale into out (which may be v) or cast into
 * codes.  inv, when not 0.0, is 1 / scale held exactly, and the divide is the
 * multiply by it. */
static inline __attribute__((always_inline)) void
round_trip_at(const double *v, int64_t count, double scale, double inv, double qmax,
              double *out, int8_t *codes)
{
    for (int64_t i = 0; i < count; i++) {
        const double q = rint_clip(inv != 0.0 ? v[i] * inv : v[i] / scale, qmax) + 0.0;
        if (out)
            out[i] = q * scale;
        else
            codes[i] = (int8_t)q;
    }
}

/* round_trip_at with its branches constant, one loop per combination. */
static inline __attribute__((always_inline)) void
round_trip(const double *v, int64_t count, double scale, double inv, double qmax, double *out,
           int8_t *codes)
{
    if (out && inv != 0.0)
        round_trip_at(v, count, scale, inv, qmax, out, NULL);
    else if (out)
        round_trip_at(v, count, scale, 0.0, qmax, out, NULL);
    else if (inv != 0.0)
        round_trip_at(v, count, scale, inv, qmax, NULL, codes);
    else
        round_trip_at(v, count, scale, 0.0, qmax, NULL, codes);
}

/* Both passes over rows of len values, full groups of glen then a short tail
 * group; inlined into quantize_groups with glen a constant where it is the
 * default group length.  Every scale is taken before the first write: a
 * decline leaves an x that is also out as it was. */
static inline __attribute__((always_inline)) int
quantize_rows_at(const double *x, int64_t rows, int64_t len, const int64_t glen, double clip,
                 double qmax, int32_t pot, double *out, int8_t *codes, double *scales)
{
    const int64_t full = len / glen, tail = len - full * glen, groups = full + (tail > 0);
    int finite = 1;
    for (int64_t r = 0; r < rows; r++) {
        const double *row = x + r * len;
        double *s = scales + r * groups;
        for (int64_t k = 0; k < full; k++)
            s[k] = run_scale(row + k * glen, glen, clip, qmax, pot);
        if (tail)
            s[full] = run_scale(row + full * glen, tail, clip, qmax, pot);
        for (int64_t k = 0; k < groups; k++)
            finite &= s[k] != 0.0;
    }
    if (!finite)
        return QUANT_DECLINED;
    for (int64_t r = 0; r < rows; r++) {
        const double *s = scales + r * groups;
        for (int64_t k = 0; k < groups; k++) {
            const int64_t at = r * len + k * glen;
            const double inv = pot ? pot_inverse(s[k]) : 0.0;
            if (k < full)
                round_trip(x + at, glen, s[k], inv, qmax, out ? out + at : NULL,
                           out ? NULL : codes + at);
            else
                round_trip(x + at, tail, s[k], inv, qmax, out ? out + at : NULL,
                           out ? NULL : codes + at);
        }
    }
    return QUANT_DONE;
}

/* rows runs of len values from x, each in groups of glen (a short last group
 * reads as zero-padded: padding moves no group absmax), through the symmetric
 * quantizer of bits with clip ratio clip, its scale snapped up to a power of
 * two when pot.  Writes every group's scale into scales (rows, groups; NULL:
 * scratch), then the fake-quantized values into out (which may be x) or,
 * when out is NULL, the codes into codes (bits <= 8), and returns QUANT_DONE;
 * or returns QUANT_DECLINED -- a group with a non-finite value, or a
 * power-of-two scale past 2**MAX_EXPONENT -- before writing out or codes, and
 * numpy runs the call; or NO_MEMORY. */
int quantize_groups(const double *x, int64_t rows, int64_t len, int64_t glen, double clip,
                    int32_t bits, int32_t pot, double *out, int8_t *codes, double *scales)
{
    const int64_t groups = (len + glen - 1) / glen;
    const double qmax = (double)((INT64_C(1) << (bits - 1)) - 1);
    double *scratch = scales ? NULL : malloc((size_t)(rows * groups) * sizeof *scratch);
    if (!scales && !scratch)
        return NO_MEMORY;
    const int status =
        glen == DEFAULT_GLEN
            ? quantize_rows_at(x, rows, len, DEFAULT_GLEN, clip, qmax, pot, out, codes,
                               scales ? scales : scratch)
            : quantize_rows_at(x, rows, len, glen, clip, qmax, pot, out, codes,
                               scales ? scales : scratch);
    free(scratch);
    return status;
}
