/* The lut-blocked inner loop as one fused pass (ARCHITECTURE section 6).
 *
 * Per block of up to LANES activation rows and per output column, every
 * row gets exactly the scalar sequence of the numpy body of
 * LutBlockedBackend.execute:
 *
 *     acc  = +-T[idx_0]                  plane 0, sign from the fold
 *     acc += (+-T[idx_i]) * 2**i         i = 1 .. bits-1, LSB first
 *     acc -= z * sum_a                   only with a zero-point
 *     acc *= s
 *     tot  = acc (g == 0);  tot += acc   groups in ascending g
 *
 * The rows of a block are the SIMD lanes: the table block is transposed to
 * rows-innermost, one lookup loads a lane vector, and each statement above
 * is one element-wise vector operation. Lanes never mix, so vectorising
 * reorders nothing. Negation and the 2**i scale are exact; z * sum_a and
 * acc * s round, so the build must neither contract a multiply into the
 * add after it (-ffp-contract=off) nor evaluate wider than double (checked
 * below; -std=c11 makes gcc report it for double). Never -ffast-math. */
#include <float.h>
#include <stddef.h>
#include <stdint.h>

#if FLT_EVAL_METHOD != 0
#error "lut_block.c needs FLT_EVAL_METHOD == 0 (build with -std=c11)"
#endif

/* Rows per block = doubles per native SIMD register of the target. */
#if defined(__AVX512F__)
#define LANES 8
#define EACH_LANE(x) {x, x, x, x, x, x, x, x}
#elif defined(__AVX__)
#define LANES 4
#define EACH_LANE(x) {x, x, x, x}
#else
#define LANES 2
#define EACH_LANE(x) {x, x}
#endif

/* One value per row of a block; arithmetic is IEEE double on each lane. */
typedef double lanes_t __attribute__((vector_size(LANES * sizeof(double))));

static inline lanes_t splat(double x)
{
    const lanes_t v = EACH_LANE(x);
    return v;
}

/* Strides are in bytes, as numpy reports them (0 and negative allowed). */
static inline double at(const double *base, ptrdiff_t offset)
{
    return *(const double *)((const char *)base + offset);
}

/* One group's bit-serial accumulate for one column, LSB plane first: `ix`
 * walks the column's plane indices, `off` maps an index to the byte offset
 * of its lane vector in the group's table `tg`. A literal `bits` unrolls. */
static inline __attribute__((always_inline)) lanes_t bit_serial(
    const char *tg, const int32_t *off, const uint8_t *ix,
    const int64_t plane, const int64_t bits)
{
    lanes_t acc = *(const lanes_t *)(tg + off[ix[0]]);
    double shift = 1.0;
    for (int64_t i = 1; i < bits; i++) {
        shift *= 2.0;
        acc += *(const lanes_t *)(tg + off[ix[i * plane]]) * splat(shift);
    }
    return acc;
}

/* out (M, N) C-contiguous; table (M, G, entries) any strides; indices
 * (bits, G, N) C-contiguous uint8; fold maps each of the nfold = 2**k
 * index values to an entry of a group's `width`-entry signed table,
 * width = entries * (1 + symmetric); scale and zero (G, N) any strides,
 * zero NULL without a zero-point; sums (M, G) C-contiguous, read only
 * with a zero-point; scratch holds G * (width + 1) + 1 lane vectors.
 * The caller validates every size. */
void lut_block(
    const double *table, ptrdiff_t t_m, ptrdiff_t t_g, ptrdiff_t t_e,
    int64_t m, int64_t ngroups, int64_t entries, int symmetric,
    const uint8_t *indices, const int64_t *fold, int64_t nfold,
    int64_t bits, int64_t n,
    const double *scale, ptrdiff_t s_g, ptrdiff_t s_n,
    const double *zero, ptrdiff_t z_g, ptrdiff_t z_n,
    const double *sums, double *out, void *scratch)
{
    const int64_t width = symmetric ? 2 * entries : entries;
    const int64_t plane = ngroups * n;
    lanes_t *tt = (lanes_t *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
    lanes_t *st = tt + ngroups * width; /* (G,) activation sums */
    int32_t off[256];
    for (int i = 0; i < 256; i++) /* a uint8 index can never leave it */
        off[i] = i < nfold ? (int32_t)(fold[i] * sizeof(lanes_t)) : 0;
    for (int64_t m0 = 0; m0 < m; m0 += LANES) {
        /* Lanes past the last row carry zeros and are never stored. */
        const int64_t rows = m - m0 < LANES ? m - m0 : LANES;
        for (int64_t g = 0; g < ngroups; g++) {
            for (int64_t e = 0; e < entries; e++) {
                lanes_t v = splat(0.0);
                for (int64_t l = 0; l < rows; l++)
                    v[l] = at(table, (m0 + l) * t_m + g * t_g + e * t_e);
                tt[g * width + e] = v;
                if (symmetric)
                    tt[g * width + entries + e] = -v;
            }
            if (zero) {
                lanes_t v = splat(0.0);
                for (int64_t l = 0; l < rows; l++)
                    v[l] = sums[(m0 + l) * ngroups + g];
                st[g] = v;
            }
        }
        for (int64_t col = 0; col < n; col++) {
            lanes_t tot = splat(0.0);
            for (int64_t g = 0; g < ngroups; g++) {
                const char *tg = (const char *)(tt + g * width);
                const uint8_t *ix = indices + g * n + col;
                lanes_t acc = bits == 4 ? bit_serial(tg, off, ix, plane, 4)
                    : bits == 2 ? bit_serial(tg, off, ix, plane, 2)
                    : bit_serial(tg, off, ix, plane, bits);
                if (zero)
                    acc -= splat(at(zero, g * z_g + col * z_n)) * st[g];
                acc *= splat(at(scale, g * s_g + col * s_n));
                tot = g ? tot + acc : acc;
            }
            for (int64_t l = 0; l < rows; l++)
                out[(m0 + l) * n + col] = tot[l];
        }
    }
}

/* The int4-KV attention's row-wise executor, paged (ARCHITECTURE section
 * 8): rowwise_lut_execute's scalar sequence per output element,
 *
 *     acc  = T[f_0];  acc += T[f_i] * 2**i    LSB first, T = [half, -half]
 *     acc -= z * sum_a                        only where z != 0.0
 *     acc *= s
 *     tot  = acc (g == 0);  tot += acc        groups in ascending g
 *
 * The M activation rows that share a weight row are the lanes, at most LANES
 * at a time in the narrowest of 2, 4 or 8 lanes that holds them (GQA's M = 2
 * pays for two): one column sweep per width, the lane count a compile-time
 * constant as `bits` is in bit_serial, and as there lanes never mix. `tt` is
 * the (G * 2E, W) signed table and `st` the (G, W) activation sums of the
 * lanes; fb, sb and zb point at one (block, head)'s flat indices, scales and
 * zeros, strides in cs (below); lane l's N results go to op[l], added to
 * what is there when `add`. Returns 1 at a flat index outside the table,
 * through which nothing is read. No vector is passed or returned, so a
 * sweep wider than the target (compiled, never called) is no ABI matter. */
#define SPLAT2(x) {x, x}
#define SPLAT4(x) {x, x, x, x}
#define SPLAT8(x) {x, x, x, x, x, x, x, x}
#define DEFINE_PAGED_SWEEP(W)                                                \
    typedef double v##W __attribute__((vector_size(W * sizeof(double))));    \
    static inline __attribute__((always_inline)) int paged_sweep##W(         \
        const double *tt, const double *st, const uint64_t size,             \
        const int64_t ngroups, const int64_t bits, const int64_t n,          \
        const char *fb, const double *sb, const double *zb,                  \
        const ptrdiff_t *cs, double *const *op, const int64_t live,          \
        const int add)                                                       \
    {                                                                        \
        for (int64_t col = 0; col < n; col++) {                              \
            v##W tot = (v##W)SPLAT##W(0.0);                                  \
            for (int64_t g = 0; g < ngroups; g++) {                          \
                const char *ix = fb + g * cs[3] + col * cs[4];               \
                uint64_t f = *(const uint64_t *)ix;                          \
                if (f >= size)                                               \
                    return 1;                                                \
                v##W acc = *(const v##W *)(tt + f * W);                      \
                double shift = 1.0;                                          \
                for (int64_t i = 1; i < bits; i++) {                         \
                    f = *(const uint64_t *)(ix + i * cs[2]);                 \
                    if (f >= size)                                           \
                        return 1;                                            \
                    shift *= 2.0;                                            \
                    const v##W plane = *(const v##W *)(tt + f * W);          \
                    acc += plane * (v##W)SPLAT##W(shift);                    \
                }                                                            \
                const double z = at(zb, g * cs[11] + col * cs[12]);          \
                const double s = at(sb, g * cs[7] + col * cs[8]);            \
                if (z != 0.0)                                                \
                    acc -= (v##W)SPLAT##W(z) * *(const v##W *)(st + g * W);  \
                acc *= (v##W)SPLAT##W(s);                                    \
                tot = g ? tot + acc : acc;                                   \
            }                                                                \
            for (int64_t l = 0; l < live; l++) {                             \
                if (add)                                                     \
                    op[l][col] += tot[l];                                    \
                else                                                         \
                    op[l][col] = tot[l];                                     \
            }                                                                \
        }                                                                    \
        return 0;                                                            \
    }
DEFINE_PAGED_SWEEP(2)
DEFINE_PAGED_SWEEP(4)
DEFINE_PAGED_SWEEP(8)
#define PAGED_SWEEP(W, BITS)                                                 \
    paged_sweep##W(tt, st, size, ngroups, BITS, n, fb, sb, zb, cs, op, live, \
                   add)
#define PAGED_SWEEP_BITS(W) \
    (bits == 4 ? PAGED_SWEEP(W, 4) : PAGED_SWEEP(W, bits))

/* The weight columns are read in place, through index (rows, maxb), from
 * column arrays indexed by block id: flat (nblk, heads, bits, G, N) int64,
 * scale and zero (nblk, heads, G, N), any strides. Lane (ti, ri) of the m =
 * t * rep that share weight row (row, head) reads activation row `row * a[0]
 * + head * a[1] + ti * a[2] + ri * a[3]` (+ j * a[4] with counts) of table
 * (A, G, entries), byte strides ts, and of sums (A, G), C-contiguous, and
 * writes from `row * o[0] + head * o[1] + ti * o[2] + ri * o[3]` on.
 * counts NULL: one table serves all maxb blocks of a weight row and block
 * j's columns land n * j further on. Otherwise every block has its own
 * table and the first counts[row] blocks reduce in ascending j, out =
 * part_0, out += part_j. geometry = a[5], o[4], ts[3] and the byte strides
 * cs[5 + 4 + 4] of flat, scale and zero; scratch holds G * (2 * entries +
 * 1) * 8 + 8 doubles. The caller validates shapes and types; every index
 * followed is checked here, block ids and counts before anything is read
 * through them: returns 0, or 1 with `out` undefined. */
int lut_rows_paged(
    const double *table, const double *sums,
    int64_t t, int64_t rep, int64_t ngroups, int64_t entries,
    const int64_t *index, const int64_t *counts,
    int64_t rows, int64_t maxb, int64_t heads, int64_t nblk,
    const int64_t *flat, const double *scale, const double *zero,
    int64_t bits, int64_t n, const ptrdiff_t *geometry,
    double *out, void *scratch)
{
    const ptrdiff_t *a = geometry, *o = a + 5, *ts = o + 4, *cs = ts + 3;
    const int64_t m = t * rep, width = 2 * entries;
    const uint64_t size = ngroups * width;
    double *tt = (double *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
    for (int64_t i = 0; i < rows * maxb; i++)
        if ((uint64_t)index[i] >= (uint64_t)nblk)
            return 1;
    for (int64_t row = 0; counts && row < rows; row++)
        if (counts[row] < 1 || counts[row] > maxb)
            return 1;
    for (int64_t m0 = 0; m0 < m; m0 += LANES) {
        const int64_t live = m - m0 < LANES ? m - m0 : LANES;
        const int64_t w = live <= 2 ? 2 : live <= 4 ? 4 : 8;
        double *st = tt + size * w;
        /* Lanes past the last row carry zeros and are never stored. */
        for (uint64_t i = 0; i < (size + ngroups) * w; i++)
            tt[i] = 0.0;
        for (int64_t row = 0; row < rows; row++)
        for (int64_t head = 0; head < heads; head++) {
            int64_t al[LANES];
            double *op[LANES];
            for (int64_t l = 0; l < live; l++) {
                const int64_t ti = (m0 + l) / rep, ri = (m0 + l) % rep;
                al[l] = row * a[0] + head * a[1] + ti * a[2] + ri * a[3];
                op[l] = out + row * o[0] + head * o[1] + ti * o[2] + ri * o[3];
            }
            const int64_t nb = counts ? counts[row] : maxb;
            for (int64_t j = 0; j < nb; j++) {
                for (int64_t l = 0; l < live && (j == 0 || counts); l++) {
                    const int64_t row_a = al[l] + j * a[4];
                    for (int64_t g = 0; g < ngroups; g++) {
                        double *tg = tt + g * width * w + l;
                        st[g * w + l] = sums[row_a * ngroups + g];
                        for (int64_t e = 0; e < entries; e++) {
                            const double x = at(
                                table, row_a * ts[0] + g * ts[1] + e * ts[2]);
                            tg[e * w] = x;
                            tg[(entries + e) * w] = -x;
                        }
                    }
                }
                const int64_t blk = index[row * maxb + j];
                const char *fb =
                    (const char *)flat + blk * cs[0] + head * cs[1];
                const double *sb = (const double *)(
                    (const char *)scale + blk * cs[5] + head * cs[6]);
                const double *zb = (const double *)(
                    (const char *)zero + blk * cs[9] + head * cs[10]);
                const int add = counts && j;
                if (w == 2 ? PAGED_SWEEP_BITS(2)
                    : w == 4 ? PAGED_SWEEP_BITS(4) : PAGED_SWEEP_BITS(8))
                    return 1;
                for (int64_t l = 0; l < live && !counts; l++)
                    op[l] += n;
            }
        }
    }
    return 0;
}
