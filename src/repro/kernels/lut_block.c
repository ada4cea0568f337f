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
