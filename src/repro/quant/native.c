/* The compiled units of the quantized datapath (LightMamba Sec. IV, Fig. 4a).
 *
 * One library, six entries, built, self-tested and loaded together by
 * repro.quant.native:
 *
 * - ssmu_step: the whole integer SSM decode step of a batch -- from the float
 *   x / B / C of the in-projection and the per-head Delta / A_bar of the
 *   non-linear units to the readout y, the new INT8 state codes and their PoT
 *   grids, one signed exponent byte per group, read and written as the
 *   resident state holds them -- with the state-sized middle (B_bar (.) x,
 *   A_bar (.) h + add, state re-quantization, h (.) C + readout) as one
 *   pipeline per head.  Its reference, and the fallback wherever it does not
 *   run, is the fake-quant oracle QuantizedSSMStep._step_oracle.
 * - fwht: the fast Walsh-Hadamard transform of the HTU.  Its reference and
 *   fallback is the textbook butterfly repro.quant.hadamard._fwht_numpy.
 * - quantize_groups: the symmetric quantizer's round trip over groups of a
 *   trailing axis -- every granularity is such groups -- to fake-quantized
 *   values or INT8 codes: every activation re-quantization at an MMU
 *   boundary and every SSMU operand prefill stages, read where its rows lie,
 *   each product by a per-row scalar (D (.) x, Delta (.) B) formed in the
 *   same pass, the resident state's codes and weight RTN.  Its reference and
 *   fallback is the numpy quantizer repro.quant.quantizer._quantize_numpy,
 *   which has this entry's contract.
 * - silu: the non-linear unit's sigmoid and SiLU, 1 / (1 + exp(-v)) with
 *   libm's exp (and times v), over strided rows: the gated norm's gate.  Its
 *   reference and fallback is repro.mamba.ops._silu_reference, the same
 *   formula with math.exp.
 * - conv: the causal depthwise conv of prefill and of the decode step --
 *   taps in a fixed order, bias, SiLU (silu's definition) in one pass that
 *   writes each output once, reading the in-projection's strided xBC view.
 *   Its reference and fallback is repro.mamba.conv1d._conv_reference.
 * - scan_decay / scan_gate / scan_out / scan_handoff: the chunk scan's
 *   element-wise stages between its BLAS contractions and numpy's exp (the
 *   decay difference and clamp, the causal gate * decay, the output epilogue
 *   written token-major with the hand-off's weighted inputs, the hand-off
 *   add).  Their references and fallback are the numpy stages
 *   repro.quant.ssm_quant._SCAN_STAGES.
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
 * - the readout reproduces numpy's pairwise summation over the n state rows
 *   of each channel (np.einsum's order is not bit-identical);
 * - the butterflies pair and order as the textbook in-place network (span 1,
 *   2, 4, ...), then divide by sqrt(n);
 * - exp is libm's, the one Python's math.exp calls, never a vector variant;
 * - where two NaN operands meet, which one an add or a multiply passes on is
 *   the compiler's choice, so an entry that must keep a NaN's payload and
 *   sign names one (silu_value, conv_nan), here and in its reference.
 *
 * The integer step has a range: every destination exponent must keep 2**e a
 * normal double (at most MAX_EXPONENT; the 1e-12 scale floor bounds it below
 * at -39), and the new state's grid must fit its byte (at most GRID_MAX).  A
 * batch that would leave either -- or that carries a non-finite operand or a
 * poisoned state group (POISON_GRID) -- is the float oracle's, and the step
 * says so (STEP_ORACLE) instead of computing on grids it cannot hold; the
 * oracle's state then poisons the groups concerned.  The quantizer declines
 * a non-finite group or a grid past MAX_EXPONENT (QUANT_DECLINED) before
 * writing anything, and numpy runs it.
 *
 * The state is stored channel-minor -- codes (rows, heads, n, dim), grid
 * bytes (rows, heads, groups, dim) -- and the step's tile is a head: each stage
 * runs across all of a head's channels at once, one channel per vector lane,
 * a group of state rows at a time.  The per-group exponent derivations are
 * vector code too; a lane calls libm only in the rare band and range above.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MIN_SCALE 1e-12   /* pot._MIN_SCALE: the scale floor of an all-zero group */
#define EXACT_POW2 1000   /* |e| up to which 2**e is built from the exponent bits */
#define MAX_EXPONENT 1023 /* the largest e whose 2**e is a normal double */
#define GRID_MAX 127      /* QuantizedSSMState.GRID_MAX: the largest resident grid */
#define POISON_GRID -128  /* QuantizedSSMState.POISON: a poisoned resident group */

enum {
    STEP_DONE = 0,
    STEP_ORACLE = 1, /* a non-finite operand, a poisoned state group or a grid
                      * past its range */
    NO_MEMORY = -1,  /* scratch allocation failed; nothing usable written */
};

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

/* np.rint(v) as an integer, for |v| < 2**51: adding 1.5 * 2**52 rounds v
 * half-to-even onto the integers and leaves it in the low bits -- one add
 * where rint and a conversion are two. */
static inline int32_t rint_int32(double v)
{
    const double shifted = v + 6755399441055744.0;
    uint64_t bits;
    memcpy(&bits, &shifted, sizeof bits);
    return (int32_t)(uint32_t)bits;
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
    const int64_t left = full - shift;
    return amax > 0 && left >= 0 && left < 32 ? (int32_t)(UINT32_C(1) << (left & 31)) : 0;
}

/* pot.shift_right_half_even with the uniform shift R (bias = 2**(R-1) - 1). */
static inline int32_t half_even(int32_t acc, int32_t full, int32_t bias)
{
    return (acc + ((acc >> full) & 1) + bias) >> full;
}

/* The bit pattern of a run's absmax: a non-negative double's bits order like
 * its value, and a NaN's lie above +inf's. */
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

/* The lane loops want the full vector width: GCC tunes AVX-512 cores to
 * 256-bit vectors by default, which runs the tile 1.35x slower on one.  The
 * FWHT and the quantizer below keep the default. */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#pragma GCC push_options
#pragma GCC target("prefer-vector-width=512")
#endif
#if defined(__GNUC__) && !defined(__clang__)
#define DISJOINT _Pragma("GCC ivdep") /* a pass's arrays never overlap: no runtime alias checks */
#else
#define DISJOINT
#endif

/* ------------------------------------------------------------------------
 * Lanes: a head's channels side by side, one per vector lane
 * ------------------------------------------------------------------------
 * Every loop over j below runs over the channels of a head, unit stride in
 * the channel-minor state, and compiles to vector code with the compiler's
 * own remainder lanes: portable C, no ISA intrinsics. */

/* ldexp_exact in a lane loop.  Fast: the multiply by 2**e from the exponent
 * bits, a lane past |e| > EXACT_POW2 flagged in *slow; else the scalar
 * reference. */
static inline __attribute__((always_inline)) double
ldexp_lane(double v, int64_t e, uint64_t *slow, const int fast)
{
    if (!fast)
        return ldexp_exact(v, e);
    const int64_t inside = e >= -EXACT_POW2 && e <= EXACT_POW2;
    const uint64_t bits = (uint64_t)((inside ? e : 0) + 1023) << 52;
    double factor;
    memcpy(&factor, &bits, sizeof factor);
    *slow |= (uint64_t)!inside;
    return v * factor;
}

/* requant_exponent in a lane loop.  Fast: the floors, the divide and the
 * exponent bits, a lane whose mantissa lies within 2**16 ulps above a power
 * of two (where log2 may round down) flagged in *slow; else the scalar
 * reference, which asks libm there. */
static inline __attribute__((always_inline)) int32_t
requant_lane(double absmax, double qmax, uint64_t *slow, const int fast)
{
    if (!fast)
        return requant_exponent(absmax, qmax);
    const double q = (absmax > MIN_SCALE ? absmax : MIN_SCALE) / qmax;
    const double scale = q > MIN_SCALE ? q : MIN_SCALE;
    uint64_t bits;
    memcpy(&bits, &scale, sizeof bits);
    const uint64_t mantissa = bits & ((UINT64_C(1) << 52) - 1);
    *slow |= mantissa - 1 < (UINT64_C(1) << 16) - 1; /* 0 < mantissa < 2**16 */
    return (int32_t)((bits >> 52) & 0x7ff) - 1023 + (mantissa != 0);
}

/* pow2_factor in a lane loop, a lane that needs libm ldexp flagged in *slow. */
static inline __attribute__((always_inline)) double factor_lane(int32_t e, uint64_t *slow)
{
    const int64_t inside = e >= -EXACT_POW2 && e <= EXACT_POW2;
    const uint64_t bits = inside ? (uint64_t)(e + 1023) << 52 : 0;
    double factor;
    memcpy(&factor, &bits, sizeof factor);
    *slow |= (uint64_t)!inside;
    return factor;
}

/* ------------------------------------------------------------------------
 * The readout: numpy's pairwise sum within each lane, a row at a time
 * ------------------------------------------------------------------------
 * np.sum over n values (DOUBLE_pairwise_sum) splits n > 128 into halves, the
 * first a multiple of 8, down to leaves of at most 128 values; a leaf below
 * 8 is a plain loop from 0.0, a longer one eight running accumulators
 * combined as a tree, then a serial tail; the leaf sums add up as the halves
 * nest.  Here the n values of each lane arrive in order, a row of lanes at
 * a time. */
typedef struct {
    int64_t lanes, n, row; /* the rows so far */
    int64_t leaf, start;   /* the current leaf and its first row */
    int64_t *len;          /* each leaf's rows, in order */
    double *r;             /* 8 x lanes: the running accumulators */
    double *sums;          /* a row per leaf */
} pairwise_t;

static int64_t pairwise_leaves(int64_t n, int64_t *len)
{
    if (n <= 128) {
        if (len)
            *len = n;
        return 1;
    }
    const int64_t half = n / 2 - n / 2 % 8, left = pairwise_leaves(half, len);
    return left + pairwise_leaves(n - half, len ? len + left : NULL);
}

static int pairwise_open(pairwise_t *p, int64_t n, int64_t lanes)
{
    const int64_t leaves = pairwise_leaves(n, NULL);
    p->lanes = lanes, p->n = n, p->row = p->leaf = p->start = 0;
    p->len = malloc((size_t)leaves * sizeof *p->len);
    p->r = calloc((size_t)((8 + leaves) * lanes + 1), sizeof *p->r); /* n = 0 sums to 0.0 */
    p->sums = p->r ? p->r + 8 * lanes : NULL;
    if (!p->len || !p->r)
        return NO_MEMORY;
    pairwise_leaves(n, p->len);
    return 0;
}

static void pairwise_close(pairwise_t *p)
{
    free(p->len), free(p->r);
}

static void pairwise_tree(const pairwise_t *p, double *restrict sum)
{
    const int64_t lanes = p->lanes;
    const double *restrict r = p->r;
    for (int64_t j = 0; j < lanes; j++)
        sum[j] = ((r[j] + r[lanes + j]) + (r[2 * lanes + j] + r[3 * lanes + j]))
                 + ((r[4 * lanes + j] + r[5 * lanes + j]) + (r[6 * lanes + j] + r[7 * lanes + j]));
}

/* The next rows of values (row i at v + i * lanes, one value per lane) into
 * their places in the sums: eight rows at a time where they fill the
 * accumulators once each, else a row at a time. */
static void pairwise_push(pairwise_t *p, const double *restrict v, int64_t rows)
{
    const int64_t lanes = p->lanes;
    while (rows > 0) {
        const int64_t len = p->len[p->leaf], at = p->row - p->start, body = len - len % 8;
        double *restrict sum = p->sums + p->leaf * lanes;
        int64_t taken = 1;
        if (len >= 8 && at < body && at % 8 == 0 && rows >= 8) {
            taken = 8;
            if (at == 0)
                memcpy(p->r, v, (size_t)(8 * lanes) * sizeof *v);
            else
                for (int64_t j = 0; j < 8 * lanes; j++)
                    p->r[j] += v[j];
        } else if (len >= 8 && at < body) {
            double *restrict r = p->r + at % 8 * lanes;
            if (at < 8)
                memcpy(r, v, (size_t)lanes * sizeof *r);
            else
                for (int64_t j = 0; j < lanes; j++)
                    r[j] += v[j];
        } else {
            if (len < 8 && at == 0)
                for (int64_t j = 0; j < lanes; j++)
                    sum[j] = 0.0;
            else if (len >= 8 && at == body)
                pairwise_tree(p, sum);
            for (int64_t j = 0; j < lanes; j++)
                sum[j] += v[j];
        }
        v += taken * lanes, rows -= taken, p->row += taken;
        if (p->row - p->start < len)
            continue;
        if (len >= 8 && len % 8 == 0) /* no tail: the tree is the sum */
            pairwise_tree(p, sum);
        p->leaf++, p->start = p->row;
    }
}

/* The leaves of n rows from *leaf on added up as the halves nest, into the
 * first one's row. */
static double *pairwise_add_leaves(pairwise_t *p, int64_t n, int64_t *leaf)
{
    if (n <= 128)
        return p->sums + (*leaf)++ * p->lanes;
    const int64_t half = n / 2 - n / 2 % 8;
    double *restrict left = pairwise_add_leaves(p, half, leaf);
    const double *restrict right = pairwise_add_leaves(p, n - half, leaf);
    for (int64_t j = 0; j < p->lanes; j++)
        left[j] += right[j];
    return left;
}

/* The n rows pushed since the last call, summed per lane; starts over. */
static const double *pairwise_total(pairwise_t *p)
{
    int64_t leaf = 0;
    p->row = p->leaf = p->start = 0;
    return pairwise_add_leaves(p, p->n, &leaf);
}

/* Test entries: the tile's two derivations that must reproduce numpy and
 * are easy to get wrong -- pot.absmax_requant_exponents and np.sum's pairwise
 * order -- run as the tile runs them, one value per lane. */
void ssmu_requant_exponents(const double *absmax, int64_t count, int32_t bits, int32_t *out)
{
    const double qmax = (double)((1 << (bits - 1)) - 1);
    uint64_t slow = 0;
    for (int64_t j = 0; j < count; j++)
        out[j] = requant_lane(absmax[j], qmax, &slow, 1);
    if (slow)
        for (int64_t j = 0; j < count; j++)
            out[j] = requant_lane(absmax[j], qmax, &slow, 0);
}

/* a: n rows of lanes values; out[j] = np.sum(a[:, j]) summed as a contiguous run. */
int ssmu_pairwise_sum(const double *a, int64_t n, int64_t lanes, double *out)
{
    pairwise_t p;
    if (pairwise_open(&p, n, lanes)) {
        pairwise_close(&p);
        return NO_MEMORY;
    }
    pairwise_push(&p, a, n);
    const double *sum = pairwise_total(&p);
    for (int64_t j = 0; j < lanes; j++)
        out[j] = 0.0 + sum[j];
    pairwise_close(&p);
    return 0;
}

/* ------------------------------------------------------------------------
 * The tile: a head's channels through the four stages, a group at a time
 * ------------------------------------------------------------------------ */

/* What every (row, head) of one call shares: the layout, the width, the
 * scratch of one group of state rows. */
typedef struct {
    int64_t groups, glen, n, lanes; /* groups of glen state rows (the last maybe past n) */
    double qmax;
    int32_t full, bias; /* the uniform shift R = 2 * bits and its rounding bias */
    int32_t exact;      /* every lane's factor is set: the coming pass only multiplies */
    double *m5;         /* A_bar (.) h re-quantization multiplier a_bar * 2**(e_h - e5) */
    double *factor;     /* 2**shift of the coming pass, 0.0 where it needs libm ldexp */
    double *wmax;       /* absmax of the wide state sum */
    double *wide;       /* glen x lanes: the state sum, then the readout terms */
    int32_t *e5, *e6;   /* the A_bar (.) h grid, the new state grid */
    int32_t *shift;     /* exponent (difference) of the coming pass */
    int32_t *mul;       /* pre-aligned x code, then the h (.) C alignment multiplier */
    int32_t *amax;      /* absmax of h (.) C */
    int32_t *acc;       /* glen x lanes: h (.) C */
    uint8_t *amax8;     /* absmax of the stored codes */
    pairwise_t sum;     /* the readout */
} tile_t;

static int tile_open(tile_t *t, int64_t groups, int64_t glen, int64_t n, int64_t lanes,
                     int32_t bits)
{
    const size_t block = (size_t)(glen * lanes), lane = (size_t)lanes;
    t->groups = groups, t->glen = glen, t->n = n, t->lanes = lanes;
    t->qmax = (double)((1 << (bits - 1)) - 1);
    t->full = 2 * bits, t->bias = (1 << (t->full - 1)) - 1;
    t->m5 = malloc((3 * lane + block) * sizeof *t->m5);
    t->e5 = malloc((5 * lane + block) * sizeof *t->e5);
    t->amax8 = malloc(lane);
    const int opened = pairwise_open(&t->sum, n, lanes);
    if (!t->m5 || !t->e5 || !t->amax8 || opened)
        return NO_MEMORY;
    t->factor = t->m5 + lane, t->wmax = t->factor + lane;
    t->wide = t->wmax + lane;
    t->e6 = t->e5 + lane, t->shift = t->e6 + lane, t->mul = t->shift + lane;
    t->amax = t->mul + lane, t->acc = t->amax + lane;
    return 0;
}

static void tile_close(tile_t *t)
{
    free(t->m5), free(t->e5), free(t->amax8), pairwise_close(&t->sum);
}

enum { GRID_SLOW = 1, GRID_PAST = 2 }; /* a lane needs libm; a grid past its range */

/* The grids of a group's state add: A_bar (.) h's absmax runs on the stored
 * codes (the per-head scalar folds into the multiplier); B_bar (.) x's
 * exponents add, max |a_i * b| = max |a_i| * |b|, and the shift count folds
 * into the x code (R - r left). */
static inline __attribute__((always_inline)) int
state_grids(tile_t *t, const int64_t lanes, const int32_t *restrict e_h, double a_bar,
            int32_t amax3, int32_t e3, const int8_t *restrict cx, const int32_t *restrict ex,
            const int fast)
{
    const int32_t full = t->full;
    const double qmax = t->qmax;
    const uint8_t *restrict amax8 = t->amax8;
    double *restrict m5 = t->m5, *restrict factor = t->factor;
    int32_t *restrict e5 = t->e5, *restrict e4 = t->e6 /* free until the new grid */;
    int32_t *restrict mul = t->mul;
    int32_t *restrict shift = t->shift;
    uint64_t slow = 0, past = 0, inexact = 0;
    for (int64_t j = 0; j < lanes; j++) { /* three loops: as one it does not vectorize */
        const int32_t amax4 = amax3 * (cx[j] < 0 ? -cx[j] : cx[j]);
        const int64_t e4_src = (int64_t)e3 + ex[j];
        e4[j] = requant_lane(ldexp_lane((double)amax4, e4_src, &slow, fast), qmax, &slow, fast);
        mul[j] = cx[j] * alignment(amax4, e4[j] - e4_src, full);
    }
    for (int64_t j = 0; j < lanes; j++) {
        e5[j] = requant_lane(ldexp_lane(a_bar * (double)amax8[j], e_h[j], &slow, fast), qmax,
                             &slow, fast);
        m5[j] = ldexp_lane(a_bar, (int64_t)e_h[j] - e5[j], &slow, fast);
    }
    for (int64_t j = 0; j < lanes; j++) {
        past |= (uint64_t)(e5[j] > MAX_EXPONENT) | (uint64_t)(e4[j] > MAX_EXPONENT);
        shift[j] = clamp_exponent((int64_t)e4[j] - e5[j]);
        factor[j] = factor_lane(shift[j], &inexact);
    }
    t->exact = !inexact;
    return slow ? GRID_SLOW : past ? GRID_PAST : 0;
}

/* The new state grid e6, which the resident exponent bytes record. */
static inline __attribute__((always_inline)) int
new_state_grid(tile_t *t, const int64_t lanes, const int fast)
{
    const double qmax = t->qmax;
    const double *restrict wmax = t->wmax;
    const int32_t *restrict e5 = t->e5;
    double *restrict factor = t->factor;
    int32_t *restrict e6 = t->e6, *restrict shift = t->shift;
    uint64_t slow = 0, past = 0, inexact = 0;
    for (int64_t j = 0; j < lanes; j++) {
        e6[j] = requant_lane(ldexp_lane(wmax[j], e5[j], &slow, fast), qmax, &slow, fast);
        past |= (uint64_t)(e6[j] > GRID_MAX);
        shift[j] = clamp_exponent((int64_t)e5[j] - e6[j]);
        factor[j] = factor_lane(shift[j], &inexact);
    }
    t->exact = !inexact;
    return slow ? GRID_SLOW : past ? GRID_PAST : 0;
}

/* The h (.) C grid e7: aligned like B_bar (.) x, decoded at e7. */
static inline __attribute__((always_inline)) int
readout_grid(tile_t *t, const int64_t lanes, int32_t e_c, const int fast)
{
    const int32_t full = t->full;
    const double qmax = t->qmax;
    const int32_t *restrict e6 = t->e6, *restrict amax = t->amax;
    double *restrict factor = t->factor;
    int32_t *restrict mul = t->mul, *restrict shift = t->shift;
    uint64_t slow = 0, past = 0, inexact = 0;
    for (int64_t j = 0; j < lanes; j++) {
        const int64_t e7_src = (int64_t)e6[j] + e_c;
        const int32_t e7 = requant_lane(ldexp_lane((double)amax[j], e7_src, &slow, fast), qmax,
                                        &slow, fast);
        past |= (uint64_t)(e7 > MAX_EXPONENT);
        mul[j] = alignment(amax[j], e7 - e7_src, full);
        shift[j] = e7;
        factor[j] = factor_lane(e7, &inexact);
    }
    t->exact = !inexact;
    return slow ? GRID_SLOW : past ? GRID_PAST : 0;
}

/* 1 + 2 over the group's rows: c4 = (c3 * x_aligned) >> R; c5 = rint(h * m5);
 * their sum relative to the e5 grid, and its absmax per lane. */
static inline __attribute__((always_inline)) void
state_sum(const tile_t *t, const int64_t lanes, int64_t rows, const int8_t *restrict h,
          const int8_t *restrict c3, const int exact)
{
    const double *restrict m5 = t->m5, *restrict factor = t->factor;
    const int32_t *restrict mul = t->mul, *restrict shift = t->shift;
    const int32_t full = t->full, bias = t->bias;
    double *restrict wide = t->wide, *restrict wmax = t->wmax;
    for (int64_t j = 0; j < lanes; j++)
        wmax[j] = 0.0;
    for (int64_t i = 0; i < rows; i++) {
        const int32_t c3_i = c3[i];
        DISJOINT for (int64_t j = 0; j < lanes; j++) {
            const double c4 = (double)half_even(c3_i * mul[j], full, bias);
            const double w = rint((double)h[i * lanes + j] * m5[j])
                             + (exact ? c4 * factor[j] : scaled(c4, shift[j], factor[j]));
            const double magnitude = fabs(w);
            wide[i * lanes + j] = w;
            wmax[j] = magnitude > wmax[j] ? magnitude : wmax[j];
        }
    }
}

/* 3 over the group's rows: the sum onto the new state grid e6 (no clip: the
 * grid is the absmax's), the codes out, h (.) C and its absmax per lane. */
static inline __attribute__((always_inline)) void
requantize(const tile_t *t, const int64_t lanes, int64_t rows, const int8_t *restrict cc,
           int8_t *restrict out, const int exact)
{
    const double *restrict wide = t->wide, *restrict factor = t->factor;
    const int32_t *restrict shift = t->shift;
    int32_t *restrict acc = t->acc, *restrict amax = t->amax;
    for (int64_t j = 0; j < lanes; j++)
        amax[j] = 0;
    for (int64_t i = 0; i < rows; i++) {
        const int32_t cc_i = cc[i];
        DISJOINT for (int64_t j = 0; j < lanes; j++) {
            const double w = wide[i * lanes + j];
            const int32_t code = rint_int32(exact ? w * factor[j] : scaled(w, shift[j], factor[j]));
            const int32_t hc = code * cc_i, magnitude = hc < 0 ? -hc : hc;
            out[i * lanes + j] = (int8_t)code;
            acc[i * lanes + j] = hc;
            amax[j] = magnitude > amax[j] ? magnitude : amax[j];
        }
    }
}

/* 4 over the group's rows: h (.) C aligned, shifted by R, decoded at e7,
 * into the readout's sums. */
static inline __attribute__((always_inline)) void
readout_terms(tile_t *t, const int64_t lanes, int64_t rows, const int exact)
{
    const int32_t *restrict acc = t->acc, *restrict mul = t->mul, *restrict shift = t->shift;
    const double *restrict factor = t->factor;
    const int32_t full = t->full, bias = t->bias;
    double *restrict wide = t->wide;
    for (int64_t i = 0; i < rows; i++)
        DISJOINT for (int64_t j = 0; j < lanes; j++) {
            const double v = (double)half_even(acc[i * lanes + j] * mul[j], full, bias);
            wide[i * lanes + j] = exact ? v * factor[j] : scaled(v, shift[j], factor[j]);
        }
    pairwise_push(&t->sum, wide, rows);
}

/* One (row, head), its channels side by side: the resident codes h (state
 * row i of channel j at i * lanes + j) and their grids e_h (group k at
 * k * lanes + j) in, the new codes and their grid bytes out, the readout
 * added to y[j].  The head's Delta (.) B codes c3 with grids e3 and group maxima
 * amax3, the x codes cx at ex, the row's C codes cc at e_c.  A group at a
 * time, each stage across the lanes: a group's grids depend on its own rows
 * only, so they stay in cache from stage to stage.  Rows past n of a short
 * last group are zero codes (the oracle zero-pads), which move no absmax
 * and no sum: the tile skips them.  STEP_ORACLE when a grid would pass its
 * range (outputs then partial).  Inlined into tile with glen a
 * constant where it is the default group length. */
static inline __attribute__((always_inline)) int
tile_at(tile_t *t, const int64_t glen, const int64_t lanes, const int8_t *restrict h,
        const int32_t *restrict e_h, double a_bar, const int8_t *c3, const int32_t *e3,
        const int32_t *amax3, const int8_t *cx, const int32_t *ex, const int8_t *cc,
        const int32_t *e_c, int8_t *restrict out, int8_t *restrict grids_out, double *restrict y)
{
    const int64_t groups = t->groups, n = t->n;
    for (int64_t k = 0; k < groups; k++) {
        const int64_t lo = k * glen, rows = (lo + glen < n ? lo + glen : n) - lo;
        const int8_t *restrict hk = h + lo * lanes;
        uint8_t *restrict amax8 = t->amax8;
        int grid;
        memset(amax8, 0, (size_t)lanes);
        for (int64_t i = 0; i < rows; i++)
            for (int64_t j = 0; j < lanes; j++) {
                const uint8_t magnitude = (uint8_t)(hk[i * lanes + j] < 0 ? -hk[i * lanes + j]
                                                                          : hk[i * lanes + j]);
                amax8[j] = magnitude > amax8[j] ? magnitude : amax8[j];
            }
        const int32_t *e_hk = e_h + k * lanes;
        if ((grid = state_grids(t, lanes, e_hk, a_bar, amax3[k], e3[k], cx, ex, 1)) == GRID_SLOW)
            grid = state_grids(t, lanes, e_hk, a_bar, amax3[k], e3[k], cx, ex, 0);
        if (grid)
            return STEP_ORACLE;
        if (t->exact)
            state_sum(t, lanes, rows, hk, c3 + lo, 1);
        else
            state_sum(t, lanes, rows, hk, c3 + lo, 0);
        if ((grid = new_state_grid(t, lanes, 1)) == GRID_SLOW)
            grid = new_state_grid(t, lanes, 0);
        if (grid)
            return STEP_ORACLE;
        for (int64_t j = 0; j < lanes; j++)
            grids_out[k * lanes + j] = (int8_t)t->e6[j];
        if (t->exact)
            requantize(t, lanes, rows, cc + lo, out + lo * lanes, 1);
        else
            requantize(t, lanes, rows, cc + lo, out + lo * lanes, 0);
        if ((grid = readout_grid(t, lanes, e_c[k], 1)) == GRID_SLOW)
            grid = readout_grid(t, lanes, e_c[k], 0);
        if (grid)
            return STEP_ORACLE;
        if (t->exact)
            readout_terms(t, lanes, rows, 1);
        else
            readout_terms(t, lanes, rows, 0);
    }
    const double *sum = pairwise_total(&t->sum);
    for (int64_t j = 0; j < lanes; j++)
        y[j] = y[j] + (0.0 + sum[j]);
    return STEP_DONE;
}

/* The default layout, a constant in one instance of the tile: its lane and
 * row loops then compile without trip-count set-up. */
#define DEFAULT_GLEN 32  /* SSMQuantConfig's group size, the length of every default group */
#define DEFAULT_LANES 64 /* Mamba2Config's headdim, the channels of every default head */

static int tile(tile_t *t, const int8_t *h, const int32_t *e_h, double a_bar, const int8_t *c3,
                const int32_t *e3, const int32_t *amax3, const int8_t *cx, const int32_t *ex,
                const int8_t *cc, const int32_t *e_c, int8_t *out, int8_t *grids_out, double *y)
{
    if (t->glen == DEFAULT_GLEN && t->lanes == DEFAULT_LANES)
        return tile_at(t, DEFAULT_GLEN, DEFAULT_LANES, h, e_h, a_bar, c3, e3, amax3, cx, ex, cc,
                       e_c, out, grids_out, y);
    return tile_at(t, t->glen, t->lanes, h, e_h, a_bar, c3, e3, amax3, cx, ex, cc, e_c, out,
                   grids_out, y);
}

/* ------------------------------------------------------------------------
 * The step: entry quantizations, scalar folds, the tile, the new grids
 * ------------------------------------------------------------------------ */
static int all_finite(const double *v, int64_t count)
{
    uint64_t nonfinite = 0;
    for (int64_t i = 0; i < count; i++) {
        uint64_t bits;
        memcpy(&bits, &v[i], sizeof bits);
        nonfinite |= (uint64_t)((bits & (UINT64_MAX >> 1)) >= UINT64_C(0x7ff0000000000000));
    }
    return !nonfinite;
}

/* The resident grid bytes widened to the tile's int32; 0 when one is poisoned. */
static int widen_grids(const int8_t *grids, int64_t count, int32_t *e)
{
    uint64_t poisoned = 0;
    for (int64_t i = 0; i < count; i++) {
        poisoned |= (uint64_t)(grids[i] == POISON_GRID);
        e[i] = grids[i];
    }
    return !poisoned;
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
        const uint64_t bits = magnitude_max(v + lo, hi - lo);
        double m;
        memcpy(&m, &bits, sizeof m);
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
 * a_bar (rows, heads); D (heads); the state channel-minor: ch, codes_out
 * (rows, heads, n, dim) int8, grids, grids_out (rows, heads, groups, dim)
 * int8 exponents with the state's groups of min(group_size, n) along n.
 * Writes y, the new codes and their grids and returns STEP_DONE; or returns
 * STEP_ORACLE (a non-finite operand, a poisoned state group, a grid past its
 * range) or NO_MEMORY, the outputs then undefined. */
int ssmu_step(int64_t rows, int64_t heads, int64_t dim, int64_t n, int64_t group_size,
              int32_t bits,
              const double *x, const double *B, const double *C, const double *dt,
              const double *delta, const double *a_bar, const double *D,
              const int8_t *ch, const int8_t *grids,
              double *y, int8_t *codes_out, int8_t *grids_out)
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
        || !all_finite(a_bar, rows * heads) || !all_finite(D, heads))
        return STEP_ORACLE;

    tile_t t;
    int32_t *e_h = malloc((size_t)(lines * groups + 5 * groups + 2 * xgroups + dim + 1)
                          * sizeof *e_h);
    int8_t *codes = malloc((size_t)(3 * line + xgroups * xlen));
    int status = tile_open(&t, groups, glen, n, dim, bits);
    if (!e_h || !codes || status) {
        free(e_h), free(codes), tile_close(&t);
        return NO_MEMORY;
    }
    int32_t *e_b = e_h + lines * groups, *e_c = e_b + groups, *amax_b = e_c + groups;
    int32_t *e3 = amax_b + groups, *amax3 = e3 + groups, *e_x = amax3 + groups;
    int32_t *amax_x = e_x + xgroups, *ex = amax_x + xgroups;
    int8_t *cb = codes, *cc = cb + line, *c3 = cc + line, *cx = c3 + line;

    if (!widen_grids(grids, lines * groups, e_h))
        status = STEP_ORACLE;
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
                const int64_t hi = (k + 1) * xlen < dim ? (k + 1) * xlen : dim;
                for (int64_t i = k * xlen; i < hi; i++) {
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
                int32_t m = 0;
                for (int64_t i = k * glen; i < (k + 1) * glen; i++) {
                    const int32_t c = (int32_t)rint_clip((double)cb[i] * m3, qmax);
                    const int32_t magnitude = c < 0 ? -c : c;
                    c3[i] = (int8_t)c;
                    m = magnitude > m ? magnitude : m;
                }
                amax3[k] = m;
            }
            /* The head's channels side by side, straight from the
             * channel-minor state. */
            if (!status)
                status = tile(&t, ch + rh * n * dim, e_h + rh * groups * dim, a_bar[rh], c3, e3,
                              amax3, cx, ex, cc, e_c, codes_out + rh * n * dim,
                              grids_out + rh * groups * dim, y + rh * dim);
        }
    }
    free(e_h), free(codes), tile_close(&t);
    return status;
}

#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__)
#pragma GCC pop_options
#endif

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

/* The scale of one group of count values, each times by when scaled; 0.0
 * declines it (a non-finite value or product, a grid past MAX_EXPONENT).
 * Rounding is monotone, so the products' absmax is |by| times the values'. */
static inline __attribute__((always_inline)) double
run_scale(const double *v, int64_t count, double by, const int scaled, double clip, double qmax,
          int32_t pot)
{
    const uint64_t bits_max = magnitude_max(v, count);
    double absmax;
    memcpy(&absmax, &bits_max, sizeof absmax);
    if (scaled && bits_max < INF_BITS)
        absmax = fabs(by) * absmax;
    return isfinite(absmax) ? group_scale(absmax, clip, qmax, pot) : 0.0;
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
 * codes; v the product by * v when scaled, formed here and stored nowhere.
 * inv, when not 0.0, is 1 / scale held exactly, and the divide is the
 * multiply by it. */
static inline __attribute__((always_inline)) void
round_trip_at(const double *v, int64_t count, double by, const int scaled, double scale,
              double inv, double qmax, double *out, int8_t *codes)
{
    for (int64_t i = 0; i < count; i++) {
        const double value = scaled ? by * v[i] : v[i];
        const double q = rint_clip(inv != 0.0 ? value * inv : value / scale, qmax) + 0.0;
        if (out)
            out[i] = q * scale;
        else
            codes[i] = (int8_t)q;
    }
}

/* round_trip_at with its branches constant, one loop per combination. */
static inline __attribute__((always_inline)) void
round_trip(const double *v, int64_t count, double by, const int scaled, double scale, double inv,
           double qmax, double *out, int8_t *codes)
{
    if (out && inv != 0.0)
        round_trip_at(v, count, by, scaled, scale, inv, qmax, out, NULL);
    else if (out)
        round_trip_at(v, count, by, scaled, scale, 0.0, qmax, out, NULL);
    else if (inv != 0.0)
        round_trip_at(v, count, by, scaled, scale, inv, qmax, NULL, codes);
    else
        round_trip_at(v, count, by, scaled, scale, 0.0, qmax, NULL, codes);
}

/* Where each row of x starts, where its scalar lies and where its output
 * goes, in the order the rows are walked, from layout: walk step (i0, i1,
 * i2), i2 fastest over layout[1] and i1 over layout[0], reads x at i0 *
 * layout[2] + i1 * layout[3] + i2 * layout[4] values, its scalar at i0 *
 * layout[5] + i1 * layout[6] + i2 * layout[7], and writes output row i0 *
 * layout[8] + i1 * layout[9] + i2 * layout[10].  Into at (rows x 3). */
static void row_offsets(const int64_t *layout, int64_t rows, int64_t *at)
{
    const int64_t d1 = layout[0], d2 = layout[1];
    for (int64_t r = 0, i0 = 0; r < rows; i0++)
        for (int64_t i1 = 0; i1 < d1; i1++)
            for (int64_t i2 = 0; i2 < d2 && r < rows; i2++, r++)
                for (int64_t k = 0; k < 3; k++)
                    at[3 * r + k] = i0 * layout[2 + 3 * k] + i1 * layout[3 + 3 * k]
                                    + i2 * layout[4 + 3 * k];
}

/* One row's scales (into s), 0 when a group declines. */
static inline __attribute__((always_inline)) int
row_scales(const double *row, double by, const int scaled, int64_t full, int64_t tail,
           const int64_t glen, double clip, double qmax, int32_t pot, double *s)
{
    int finite = 1;
    for (int64_t k = 0; k < full; k++)
        s[k] = run_scale(row + k * glen, glen, by, scaled, clip, qmax, pot);
    if (tail)
        s[full] = run_scale(row + full * glen, tail, by, scaled, clip, qmax, pot);
    for (int64_t k = 0; k < full + (tail > 0); k++)
        finite &= s[k] != 0.0;
    return finite;
}

/* One row's round trip at its scales s into out or codes (row r of them). */
static inline __attribute__((always_inline)) void
row_trip(const double *row, double by, const int scaled, int64_t r, int64_t len, int64_t full,
         int64_t tail, const int64_t glen, double qmax, int32_t pot, const double *s, double *out,
         int8_t *codes)
{
    for (int64_t k = 0; k < full + (tail > 0); k++) {
        const int64_t to = r * len + k * glen;
        const double inv = pot ? pot_inverse(s[k]) : 0.0;
        if (k < full)
            round_trip(row + k * glen, glen, by, scaled, s[k], inv, qmax, out ? out + to : NULL,
                       out ? NULL : codes + to);
        else
            round_trip(row + k * glen, tail, by, scaled, s[k], inv, qmax, out ? out + to : NULL,
                       out ? NULL : codes + to);
    }
}

/* Both passes over rows of len values, full groups of glen then a short tail
 * group; inlined into quantize_groups with glen a constant where it is the
 * default group length.  In place (out is x), every scale is taken before
 * the first write, so a decline leaves x as it was; otherwise a row's round
 * trip follows its scales while it is in cache, and a decline leaves out
 * partly written (the numpy reference then writes all of it).  out, codes
 * and scales are C-contiguous, row at[3 r + 2] of them the r-th walked
 * (row_offsets; at NULL: row r). */
static inline __attribute__((always_inline)) int
quantize_rows_at(const double *x, const int64_t *at, const double *scalar, const int scaled,
                 int64_t rows, int64_t len, const int64_t glen, double clip, double qmax,
                 int32_t pot, double *out, int8_t *codes, double *scales)
{
    const int64_t full = len / glen, tail = len - full * glen, groups = full + (tail > 0);
    const int in_place = out == x;
    for (int64_t r = 0; r < rows; r++) {
        const double *row = x + (at ? at[3 * r] : r * len);
        const double by = scaled ? scalar[at[3 * r + 1]] : 1.0;
        const int64_t to = at ? at[3 * r + 2] : r;
        double *s = scales + to * groups;
        if (!row_scales(row, by, scaled, full, tail, glen, clip, qmax, pot, s))
            return QUANT_DECLINED;
        if (!in_place)
            row_trip(row, by, scaled, to, len, full, tail, glen, qmax, pot, s, out, codes);
    }
    for (int64_t r = 0; in_place && r < rows; r++)
        row_trip(x + r * len, 1.0, 0, r, len, full, tail, glen, qmax, pot, scales + r * groups,
                 out, codes);
    return QUANT_DONE;
}

/* rows runs of len values from x, each in groups of glen (a short last group
 * reads as zero-padded: padding moves no group absmax), each value times its
 * row's scalar when scalar is not NULL -- the product formed where it is
 * used and stored nowhere -- through the symmetric quantizer of bits with
 * clip ratio clip, its scale snapped up to a power of two when pot.  x's
 * rows lie, and are walked, as layout says (row_offsets; NULL: in order,
 * C-contiguous, and no scalar).
 * Writes every group's scale into scales (rows, groups; NULL: scratch), then
 * the fake-quantized values into out (which may be x when layout is NULL)
 * or, when out is NULL, the codes into codes (bits <= 8), both (rows, len),
 * and returns QUANT_DONE; or returns QUANT_DECLINED -- a group with a
 * non-finite value or product, or a power-of-two scale past
 * 2**MAX_EXPONENT -- with x as it was, out or codes partly written, and
 * numpy runs the call; or NO_MEMORY. */
int quantize_groups(const double *x, int64_t rows, int64_t len, int64_t glen, double clip,
                    int32_t bits, int32_t pot, double *out, int8_t *codes, double *scales,
                    const int64_t *layout, const double *scalar)
{
    if (scalar && !layout)
        return QUANT_DECLINED;
    const int64_t groups = (len + glen - 1) / glen;
    const double qmax = (double)((INT64_C(1) << (bits - 1)) - 1);
    double *scratch = scales ? NULL : malloc((size_t)(rows * groups) * sizeof *scratch);
    int64_t *at = layout ? malloc((size_t)(3 * rows) * sizeof *at) : NULL;
    if ((!scales && !scratch) || (layout && !at)) {
        free(scratch), free(at);
        return NO_MEMORY;
    }
    if (layout)
        row_offsets(layout, rows, at);
    double *s = scales ? scales : scratch;
    int status;
    if (scalar && glen == DEFAULT_GLEN)
        status = quantize_rows_at(x, at, scalar, 1, rows, len, DEFAULT_GLEN, clip, qmax, pot, out,
                                  codes, s);
    else if (scalar)
        status = quantize_rows_at(x, at, scalar, 1, rows, len, glen, clip, qmax, pot, out, codes,
                                  s);
    else if (glen == DEFAULT_GLEN)
        status = quantize_rows_at(x, at, NULL, 0, rows, len, DEFAULT_GLEN, clip, qmax, pot, out,
                                  codes, s);
    else
        status = quantize_rows_at(x, at, NULL, 0, rows, len, glen, clip, qmax, pot, out, codes, s);
    free(scratch), free(at);
    return status;
}

/* ------------------------------------------------------------------------
 * The non-linear unit: sigmoid and SiLU
 * ------------------------------------------------------------------------ */

/* The sigmoid g = 1 / (1 + exp(-v)) -- libm's exp. */
static inline double sigmoid_value(double v)
{
    return 1.0 / (1.0 + exp(-v));
}

/* SiLU, v * g.  Where v is a NaN, so is g, and a product of two NaNs is
 * either one by how it is compiled (numpy's vector tail gives the second's):
 * SiLU gives v's NaN, quieted, as v + v, here and in the reference. */
static inline double silu_value(double v)
{
    const double g = sigmoid_value(v);
    return isnan(v) ? v + v : v * g;
}

/* rows runs of cols values, x's rows x_stride values apart and out's
 * out_stride apart, each value v through sigmoid_value into out as g when
 * gate_only, else through silu_value.  out may be x.  The sizes are C ints:
 * the wrapper passes them without argtypes, which cost a conversion object
 * per argument per call. */
void silu(const double *x, int32_t rows, int32_t cols, int32_t x_stride, int32_t gate_only,
          double *out, int32_t out_stride)
{
    for (int64_t r = 0; r < rows; r++) {
        const double *v = x + r * (int64_t)x_stride;
        double *o = out + r * (int64_t)out_stride;
        for (int64_t j = 0; j < cols; j++)
            o[j] = gate_only ? sigmoid_value(v[j]) : silu_value(v[j]);
    }
}

/* ------------------------------------------------------------------------
 * The conv: causal depthwise taps, bias and SiLU, prefill and decode
 * ------------------------------------------------------------------------ */
#define QUIET_NAN UINT64_C(0x7ff8000000000000) /* np.nan */

/* A NaN tap sum's value, from the k window values v and weights w of its
 * channel.  Which of two NaN operands an add or a multiply passes on is the
 * compiler's choice, so the rule names one: the first NaN among the taps in
 * tap order -- a tap's window value before its weight -- then the bias,
 * quieted as v + v; np.nan when no operand is a NaN (inf * 0, inf - inf). */
static double conv_nan(const double *v, const double *w, int32_t k, double bias)
{
    for (int32_t j = 0; j < k; j++) {
        if (isnan(v[j]))
            return v[j] + v[j];
        if (isnan(w[j]))
            return w[j] + w[j];
    }
    if (isnan(bias))
        return bias + bias;
    double nan;
    const uint64_t bits = QUIET_NAN;
    memcpy(&nan, &bits, sizeof nan);
    return nan;
}

/* The taps of one channel summed in tap order or paired. */
static inline double tap_sum(const double *v, const double *w, int32_t k, int32_t paired)
{
    const int32_t step = paired ? 2 : 1;
    double sum = v[0] * w[0];
    for (int32_t j = step; j < k; j += step)
        sum = sum + v[j] * w[j];
    if (!paired || k < 2)
        return sum;
    double odd = v[1] * w[1];
    for (int32_t j = 3; j < k; j += 2)
        odd = odd + v[j] * w[j];
    return sum + odd;
}

/* The bias, the NaN rule and the activation of one output. */
static inline double conv_finish(double sum, double bias, const double *v, const double *w,
                                 int32_t k, int32_t activation)
{
    double value = sum + bias;
    if (isnan(value))
        value = conv_nan(v, w, k, bias);
    return activation ? silu_value(value) : value;
}

/* One token per sequence (the decode step, or a one-token segment): each
 * channel's k values -- the window's last k - 1 samples, then the token --
 * and its weight row read where they lie; the values written to window_out
 * when not NULL.  The sums first, across the channels (vector code where k
 * is 4), then the bias, the NaN rule (v: scratch for a channel's values)
 * and the activation. */
static void conv_token(const double *restrict x, const double *restrict window,
                       const double *restrict weight, const double *restrict bias,
                       int64_t channels, int32_t k, int32_t paired, int32_t activation,
                       double *restrict v, double *restrict out, double *restrict window_out)
{
    const double *w = weight;
    if (k == 4 && window) {
        DISJOINT for (int64_t c = 0; c < channels; c++) {
            const double v0 = window[4 * c + 1], v1 = window[4 * c + 2], v2 = window[4 * c + 3];
            const double v3 = x[c];
            const double *wc = w + 4 * c;
            out[c] = paired ? (v0 * wc[0] + v2 * wc[2]) + (v1 * wc[1] + v3 * wc[3])
                            : ((v0 * wc[0] + v1 * wc[1]) + v2 * wc[2]) + v3 * wc[3];
        }
        if (window_out)
            DISJOINT for (int64_t c = 0; c < channels; c++) {
                window_out[4 * c] = window[4 * c + 1], window_out[4 * c + 1] = window[4 * c + 2];
                window_out[4 * c + 2] = window[4 * c + 3], window_out[4 * c + 3] = x[c];
            }
    } else
        for (int64_t c = 0; c < channels; c++) {
            for (int32_t j = 0; j + 1 < k; j++)
                v[j] = window ? window[c * k + j + 1] : 0.0;
            v[k - 1] = x[c];
            out[c] = tap_sum(v, w + c * k, k, paired);
            for (int32_t j = 0; window_out && j < k; j++)
                window_out[c * k + j] = v[j];
        }
    for (int64_t c = 0; c < channels; c++) {
        if (isnan(out[c] + bias[c])) {
            for (int32_t j = 0; j + 1 < k; j++)
                v[j] = window ? window[c * k + j + 1] : 0.0;
            v[k - 1] = x[c];
        }
        out[c] = conv_finish(out[c], bias[c], v, w + c * k, k, activation);
    }
}

/* One token of a segment, its channels side by side: the taps (src[j] the
 * token tap j reads, taps channel-minor) summed into o in tap order; k a
 * constant where it is 4. */
static inline __attribute__((always_inline)) void
conv_taps(const double *const *src, const double *restrict taps, int64_t channels, const int32_t k,
          double *restrict o)
{
    const double *s0 = src[0];
    if (k == 4) {
        const double *s1 = src[1], *s2 = src[2], *s3 = src[3];
        const double *w0 = taps, *w1 = w0 + channels, *w2 = w1 + channels, *w3 = w2 + channels;
        DISJOINT for (int64_t c = 0; c < channels; c++)
            o[c] = ((s0[c] * w0[c] + s1[c] * w1[c]) + s2[c] * w2[c]) + s3[c] * w3[c];
        return;
    }
    DISJOINT for (int64_t c = 0; c < channels; c++)
        o[c] = s0[c] * taps[c];
    for (int32_t j = 1; j < k; j++) {
        const double *s = src[j], *w = taps + j * channels;
        DISJOINT for (int64_t c = 0; c < channels; c++)
            o[c] = o[c] + s[c] * w[c];
    }
}

/* rows sequences of len tokens of channels values through the causal
 * depthwise conv of k taps -- x's sequences x_seq values apart, its tokens
 * x_tok apart, a token's channels contiguous -- after the k - 1 samples
 * before token 0, the last k - 1 of window's (rows, channels, k) as the step
 * keeps it (NULL: zeros).  weight is (channels, k), tap k - 1 on the current
 * token.  Each output is the taps summed in tap order, ((v0 w0 + v1 w1) +
 * v2 w2) + v3 w3, or -- paired, for one token (the decode step) -- the even
 * taps' sum plus the odd taps' sum, (v0 w0 + v2 w2) + (v1 w1 + v3 w3); then
 * plus the bias (a NaN by conv_nan); then, when activation, through
 * silu_value; into out, (rows, len, channels), written once.  For one token,
 * window_out, when not NULL, gets the shifted window, window's samples 1 to
 * k - 1 and the token.  NO_MEMORY when scratch allocation fails, else 0.
 * The sizes are C ints, as silu's. */
int conv(const double *x, int32_t rows, int32_t len, int32_t channels, int32_t x_seq,
         int32_t x_tok, const double *window, const double *weight, const double *bias,
         int32_t k, int32_t paired, int32_t activation, double *out, double *window_out)
{
    const int64_t C = channels;
    if (len == 1) {
        double *v = malloc((size_t)k * sizeof *v);
        if (!v)
            return NO_MEMORY;
        for (int64_t r = 0; r < rows; r++)
            conv_token(x + r * (int64_t)x_seq, window ? window + r * C * k : NULL, weight, bias,
                       C, k, paired, activation, v, out + r * C,
                       window_out ? window_out + r * C * k : NULL);
        free(v);
        return 0;
    }
    /* The taps channel-minor, k - 1 context rows, one channel's values and
     * weights for the NaN rule. */
    double *taps = malloc((size_t)((2 * k - 1) * C + 2 * k) * sizeof *taps);
    const double **src = malloc((size_t)k * sizeof *src);
    if (!taps || !src) {
        free(taps), free(src);
        return NO_MEMORY;
    }
    double *context = taps + k * C, *v = context + (k - 1) * C, *w = v + k;
    for (int64_t c = 0; c < C; c++)
        for (int32_t j = 0; j < k; j++)
            taps[j * C + c] = weight[c * k + j];
    for (int64_t r = 0; r < rows; r++) {
        const double *xs = x + r * (int64_t)x_seq;
        const double *w_in = window ? window + r * C * k : NULL;
        for (int32_t i = 0; i + 1 < k; i++)
            for (int64_t c = 0; c < C; c++)
                context[i * C + c] = w_in ? w_in[c * k + 1 + i] : 0.0;
        for (int64_t t = 0; t < len; t++) {
            for (int32_t j = 0; j < k; j++) {
                const int64_t at = t - (k - 1) + j; /* the token tap j reads */
                src[j] = at >= 0 ? xs + at * x_tok : context + (k - 1 + at) * C;
            }
            double *o = out + (r * len + t) * C;
            if (k == 4)
                conv_taps(src, taps, C, 4, o);
            else
                conv_taps(src, taps, C, k, o);
            for (int64_t c = 0; c < C; c++) {
                if (isnan(o[c] + bias[c]))
                    for (int32_t j = 0; j < k; j++)
                        v[j] = src[j][c], w[j] = taps[j * C + c];
                o[c] = conv_finish(o[c], bias[c], v, w, k, activation);
            }
        }
    }
    free(taps), free(src);
    return 0;
}

/* ------------------------------------------------------------------------
 * The chunk scan's element-wise stages (QuantizedSSMStep._chunk_body)
 * ------------------------------------------------------------------------
 * Each a pass over a chunk's mats head matrices (rows x heads) of q tokens,
 * between the BLAS contractions and numpy's exp, which stay numpy's: they fix
 * the summation order and the exp.  Every value is the one its numpy
 * statements compute, operation for operation in their order; a NaN operand
 * passes through as that arithmetic carries it (one NaN source, such as a
 * poisoned state, lands on the reference's bytes).  The sizes are C ints. */

/* decay[m, t, s] = np.minimum(lc[m, t] - lc[m, s], 0.0): the NaN kept, a
 * zero difference +0.0 (numpy's minimum gives the second operand of a tie). */
void scan_decay(const double *lc, int32_t mats, int32_t q, double *decay)
{
    for (int64_t m = 0; m < mats; m++) {
        const double *l = lc + m * q;
        for (int64_t t = 0; t < q; t++) {
            double *restrict d = decay + (m * q + t) * q;
            for (int64_t s = 0; s < q; s++) {
                const double v = l[t] - l[s];
                d[s] = v < 0.0 || isnan(v) ? v : 0.0;
            }
        }
    }
}

/* gate[m, t, s] = gate * decay on and below the diagonal (s <= t), 0.0 written
 * above it: a NaN in a later token's operands never reaches an earlier token. */
void scan_gate(double *gate, const double *decay, int32_t mats, int32_t q)
{
    for (int64_t m = 0; m < mats; m++)
        for (int64_t t = 0; t < q; t++) {
            double *restrict g = gate + (m * q + t) * q;
            const double *restrict d = decay + (m * q + t) * q;
            DISJOINT for (int64_t s = 0; s <= t; s++)
                g[s] *= d[s];
            for (int64_t s = t + 1; s < q; s++)
                g[s] = 0.0;
        }
}

/* The chunk's output and the hand-off's weighted inputs, over m = (row,
 * head) of rows x heads, token t, channel j of p:
 * y[row, t, head, j] = skip[m, t, j] + (out[m, t, j] + exp_l[m, t] * readout[m, j, t]),
 * y's rows y_row values apart and its tokens y_tok (token-major, as the
 * caller's output holds them); work[m, t, j] = carry[m, t] * xq[m, t, j]. */
void scan_out(const double *skip, const double *out, const double *exp_l, const double *readout,
              const double *carry, const double *xq, int32_t rows, int32_t heads, int32_t q,
              int32_t p, double *y, int32_t y_row, int32_t y_tok, double *work)
{
    for (int64_t r = 0; r < rows; r++)
        for (int64_t h = 0; h < heads; h++) {
            const int64_t m = r * heads + h;
            const double *rd = readout + m * p * q;
            for (int64_t t = 0; t < q; t++) {
                const int64_t at = (m * q + t) * p;
                const double e = exp_l[m * q + t], c = carry[m * q + t];
                double *restrict yt = y + r * (int64_t)y_row + t * y_tok + h * p;
                double *restrict wt = work + at;
                for (int64_t j = 0; j < p; j++)
                    yt[j] = skip[at + j] + (out[at + j] + e * rd[j * q + t]);
                DISJOINT for (int64_t j = 0; j < p; j++)
                    wt[j] = c * xq[at + j];
            }
        }
}

/* handoff[m, i] = state[m, i] * exp_last[m] + handoff[m, i] over mats runs
 * of size values: the carried state decayed across the chunk, plus the
 * chunk's own contribution. */
void scan_handoff(const double *state, const double *exp_last, int32_t mats, int32_t size,
                  double *handoff)
{
    for (int64_t m = 0; m < mats; m++) {
        const double e = exp_last[m];
        const double *restrict s = state + m * size;
        double *restrict h = handoff + m * size;
        DISJOINT for (int64_t i = 0; i < size; i++)
            h[i] = s[i] * e + h[i];
    }
}
