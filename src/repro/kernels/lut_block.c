/* The LUT mpGEMM of lut-blocked as one fused pass: the weight linears and
 * the int4-KV attention alike (ARCHITECTURE sections 6 and 8). Per output
 * element, the scalar sequence of the numpy body (numpy_lut, backends.py):
 *
 *     acc  = T[f(x_0)]                   plane 0, x_i its one-byte index
 *     acc += T[f(x_i)] * 2**i            i = 1 .. bits-1, LSB first
 *     acc -= z * sum_a                   only with a zero-point array
 *     acc *= s
 *     tot  = acc (g == 0);  tot += acc   groups in ascending g
 *
 * T is one group's table as the blocked kernels hold it, the signed
 * extension [half, -half] of a symmetric half table (f, the Eq. 5/6 fold,
 * sends an index with the MSB set to its negated entry) or the full table
 * (f the identity). The activation rows that share a weight row are the
 * SIMD lanes: the table block is transposed to lanes-innermost, one lookup
 * loads a lane vector, and each statement above is one element-wise vector
 * operation. Lanes never mix, so vectorising reorders nothing. Negation and
 * the 2**i scale are exact; z * sum_a and acc * s round, so the build must
 * neither contract a multiply into the add after it (-ffp-contract=off) nor
 * evaluate wider than double (checked below; -std=c11 makes gcc report it
 * for double). Never -ffast-math. */
#include <float.h>
#include <math.h>
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

/* The table block of W lanes, lanes-innermost: `tt` (G, width, W), lane l
 * holding activation row ra[l] of table (A, G, entries), byte strides ts,
 * and its negation in the upper half when symmetric; `st` (G, W) the
 * rows' sums (A, G), C-contiguous, when given. Lanes past `live` carry
 * zeros and are never stored.
 *
 * Then one column sweep of W lanes over that block, the lane count a
 * compile-time constant as `bits` is where the caller passes a literal: off
 * maps a one-byte index to the byte offset of its lane vector in a group's
 * table (gstep bytes apart); ib, sb and zb point at one weight row's
 * indices, scales and zeros (zb NULL: no zero-point), strides in cs
 * (below); lane l's N results go to op[l], added to what is there when
 * `add`. No vector is passed or returned, so a width beyond the target's
 * (compiled, never called) is no ABI matter. */
#define SPLAT2(x) {x, x}
#define SPLAT4(x) {x, x, x, x}
#define SPLAT8(x) {x, x, x, x, x, x, x, x}
#define DEFINE_LANES(W)                                                      \
    typedef double v##W __attribute__((vector_size(W * sizeof(double))));    \
    static inline __attribute__((always_inline)) void build##W(              \
        double *tt, double *st, const double *table, const ptrdiff_t *ts,    \
        const double *sums, const int64_t *ra, const int64_t live,           \
        const int64_t ngroups, const int64_t entries, const int symmetric)   \
    {                                                                        \
        /* Each lane's own row pointers, a dead lane aimed at lane 0's: */   \
        /* every lane index below is a constant, so no vector is built */   \
        /* in memory. */                                                     \
        const char *rp[W];                                                   \
        const double *sp[W];                                                 \
        for (int64_t l = 0; l < W; l++) {                                    \
            const int64_t r = ra[l < live ? l : 0];                          \
            rp[l] = (const char *)table + r * ts[0];                         \
            sp[l] = sums ? sums + r * ngroups : sums;                        \
        }                                                                    \
        v##W *tv = (v##W *)tt;                                               \
        for (int64_t g = 0; g < ngroups; g++) {                              \
            for (int64_t e = 0; e < entries; e++) {                          \
                const ptrdiff_t ge = g * ts[1] + e * ts[2];                  \
                v##W v;                                                      \
                for (int64_t l = 0; l < W; l++)                              \
                    v[l] = l < live ? *(const double *)(rp[l] + ge) : 0.0;   \
                *tv++ = v;                                                   \
                if (symmetric)                                               \
                    tv[entries - 1] = -v;                                    \
            }                                                                \
            tv += symmetric ? entries : 0;                                   \
            if (sums) {                                                      \
                v##W v;                                                      \
                for (int64_t l = 0; l < W; l++)                              \
                    v[l] = l < live ? sp[l][g] : 0.0;                        \
                ((v##W *)st)[g] = v;                                         \
            }                                                                \
        }                                                                    \
    }                                                                        \
    static inline __attribute__((always_inline)) void sweep##W(              \
        const char *tt, const double *st, const int32_t *off,                \
        const ptrdiff_t gstep, const int64_t ngroups, const int64_t bits,    \
        const int64_t n, const uint8_t *ib, const double *sb,                \
        const double *zb, const ptrdiff_t *cs, double *const *op,            \
        const int64_t live, const int add)                                   \
    {                                                                        \
        const ptrdiff_t ip = cs[2], ig = cs[3], sg = cs[7], zg = cs[11];     \
        for (int64_t col = 0; col < n; col++) {                              \
            const uint8_t *ix = ib + col * cs[4];                            \
            const char *s_at = (const char *)sb + col * cs[8];               \
            const char *z_at = zb ? (const char *)zb + col * cs[12] : NULL;  \
            const char *tg = tt;                                             \
            v##W tot = (v##W)SPLAT##W(0.0);                                  \
            for (int64_t g = 0; g < ngroups; g++) {                          \
                v##W acc = *(const v##W *)(tg + off[ix[0]]);                 \
                double shift = 1.0;                                          \
                for (int64_t i = 1; i < bits; i++) {                         \
                    shift *= 2.0;                                            \
                    const v##W plane =                                       \
                        *(const v##W *)(tg + off[ix[i * ip]]);               \
                    acc += plane * (v##W)SPLAT##W(shift);                    \
                }                                                            \
                if (z_at) {                                                  \
                    acc -= (v##W)SPLAT##W(*(const double *)z_at)             \
                           * *(const v##W *)(st + g * W);                    \
                    z_at += zg;                                              \
                }                                                            \
                acc *= (v##W)SPLAT##W(*(const double *)s_at);                \
                tot = g ? tot + acc : acc;                                   \
                ix += ig;                                                    \
                s_at += sg;                                                  \
                tg += gstep;                                                 \
            }                                                                \
            for (int64_t l = 0; l < live; l++) {                             \
                if (add)                                                     \
                    op[l][col] += tot[l];                                    \
                else                                                         \
                    op[l][col] = tot[l];                                     \
            }                                                                \
        }                                                                    \
    }
DEFINE_LANES(2)
DEFINE_LANES(4)
DEFINE_LANES(8)
#define BUILD(W)                                                             \
    build##W(tt, st, table, ts, zero ? sums : NULL, ra, live, ngroups,       \
             entries, symmetric)
#define SWEEP(W, BITS)                                                       \
    sweep##W((const char *)tt, st, off, gstep, ngroups, BITS, n, ib, sb, zb, \
             cs, op, live, add)
#define SWEEP_BITS(W)                                                        \
    (bits == 4 ? SWEEP(W, 4) : bits == 2 ? SWEEP(W, 2) : SWEEP(W, bits))

/* The weight columns are read in place, through index (rows, maxb), from
 * column arrays indexed by block id: idx (nblk, heads, bits, G, N) uint8,
 * scale and zero (nblk, heads, G, N), any strides; zero NULL without a
 * zero-point, else applied to every column. index NULL is the one-entry
 * table of a linear, whose plan is one block with one weight row. fold
 * maps each of the nfold <= 256 index values to an entry of a group's
 * width-entry table, width = entries * (1 + symmetric); a byte past nfold
 * reads entry 0, so no index byte can leave the table. Lane (ti, ri) of
 * the m = t * rep that share weight row (row, head) reads activation row
 * `row * a[0] + head * a[1] + ti * a[2] + ri * a[3]` (+ j * a[4] with
 * counts) of table (A, G, entries), byte strides ts, and of sums (A, G),
 * C-contiguous, read only with a zero-point, and writes from `row * o[0] +
 * head * o[1] + ti * o[2] + ri * o[3]` on. counts NULL: one table serves
 * all maxb blocks of a weight row and block j's columns land n * j further
 * on. Otherwise every block has its own table and the first counts[row]
 * blocks reduce in ascending j, out = part_0, out += part_j. The activation
 * rows that share a weight row go LANES at a time, each lane block in the
 * narrowest of 2, 4 or 8 lanes that holds it (GQA's M = 2 pays for two).
 * geometry holds the sizes in LB_GEO order, then a[5], o[4], ts[3] and the
 * byte strides cs[5 + 4 + 4] of idx, scale and zero; scratch holds G *
 * (width + 1) * 8 + 8 doubles. The caller validates shapes and types;
 * every block id, count and fold entry is checked here before anything is
 * read through it: returns 0, or 1 with `out` untouched. */
enum { LB_T, LB_REP, LB_GROUPS, LB_ENTRIES, LB_SYMMETRIC, LB_ROWS, LB_MAXB,
       LB_HEADS, LB_BLOCKS, LB_FOLD, LB_BITS, LB_N, LB_GEO };
int lut_block(const double *table, const double *sums, const int64_t *index,
              const int64_t *counts, const uint8_t *idx, const int64_t *fold,
              const double *scale, const double *zero,
              const ptrdiff_t *geometry, double *out, void *scratch)
{
    const int64_t t = geometry[LB_T], rep = geometry[LB_REP];
    const int64_t ngroups = geometry[LB_GROUPS];
    const int64_t entries = geometry[LB_ENTRIES];
    const int symmetric = geometry[LB_SYMMETRIC] != 0;
    const int64_t rows = geometry[LB_ROWS], maxb = geometry[LB_MAXB];
    const int64_t heads = geometry[LB_HEADS], nblk = geometry[LB_BLOCKS];
    const int64_t nfold = geometry[LB_FOLD], bits = geometry[LB_BITS];
    const int64_t n = geometry[LB_N];
    const ptrdiff_t *a = geometry + LB_GEO, *o = a + 5, *ts = o + 4,
                    *cs = ts + 3;
    const int64_t m = t * rep, width = symmetric ? 2 * entries : entries;
    double *tt = (double *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
    int32_t off[256];
    for (int64_t i = 0; index && i < rows * maxb; i++)
        if ((uint64_t)index[i] >= (uint64_t)nblk)
            return 1;
    for (int64_t row = 0; counts && row < rows; row++)
        if (counts[row] < 1 || counts[row] > maxb)
            return 1;
    if (nfold > 256)
        return 1;
    for (int64_t i = 0; i < nfold; i++)
        if ((uint64_t)fold[i] >= (uint64_t)width)
            return 1;
    for (int64_t m0 = 0; m0 < m; m0 += LANES) {
        const int64_t live = m - m0 < LANES ? m - m0 : LANES;
        const int64_t w = live <= 2 ? 2 : live <= 4 ? 4 : 8;
        const ptrdiff_t gstep = width * w * sizeof(double);
        double *st = tt + ngroups * width * w;
        for (int64_t i = 0; i < 256; i++)
            off[i] = i < nfold ? (int32_t)(fold[i] * w * sizeof(double)) : 0;
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
                if (j == 0 || counts) {
                    int64_t ra[LANES];
                    for (int64_t l = 0; l < live; l++)
                        ra[l] = al[l] + j * a[4];
                    if (w == 2)
                        BUILD(2);
                    else if (w == 4)
                        BUILD(4);
                    else
                        BUILD(8);
                }
                const int64_t blk = index ? index[row * maxb + j] : 0;
                const uint8_t *ib = idx + blk * cs[0] + head * cs[1];
                const double *sb = (const double *)(
                    (const char *)scale + blk * cs[5] + head * cs[6]);
                const double *zb = zero ? (const double *)(
                    (const char *)zero + blk * cs[9] + head * cs[10]) : NULL;
                const int add = counts && j;
                if (w == 2)
                    SWEEP_BITS(2);
                else if (w == 4)
                    SWEEP_BITS(4);
                else
                    SWEEP_BITS(8);
                for (int64_t l = 0; l < live && !counts; l++)
                    op[l] += n;
            }
        }
    }
    return 0;
}

/* The int4-KV pool's quantized state, written in place (ARCHITECTURE
 * section 8): kv_append lands new K/V rows, kv_refresh rebuilds blocks' V
 * arenas. Both replay, per weight row, the numpy sequence of
 * BlockAllocator._lookup_columns element by element:
 *
 *     lo, hi = min, max of the group     (only finite values get here)
 *     scale  = span > 0 ? span / qmax : 1.0,  span = hi - lo
 *     zp     = -lo / scale + 0.0         (+ 0.0: never a -0.0, whichever
 *                                          zero min() kept; affine_quantize
 *                                          does the same)
 *     code   = clip(nearbyint(w / scale + zp), 0, qmax)
 *     idx    = sum_j bit_i(code_j) << j   per plane i, over a lookup group
 *     affine = (scale / 2, 2 * zp + 1 - 2**bits)       per lookup group
 *
 * `code` rounds w / scale, then + zp, then to an integer: the division
 * must stay a division (never -ffast-math's reciprocal multiply) and the
 * add a separate add (-ffp-contract=off), and nearbyint in the default
 * rounding mode is round-half-to-even, as np.round (np.rint) is. Up to
 * ROWS weight rows go through in lockstep, rows innermost: a V slab's rows
 * are its head_dim channels, adjacent in memory, so every step above but
 * the spread lookup is one vector operation across them. Rows never mix.
 * The pool arrays are the C-contiguous arenas of
 * BlockAllocator._block_layout; their base pointers come in `pool`, in
 * KV_ARRAYS order, and the pool geometry in `geo`, in KV_GEO order. */
enum { KV_K, KV_V, KV_KA_IDX, KV_KA_SCALE, KV_KA_ZERO, KV_VA_IDX, KV_VA_SCALE,
       KV_VA_ZERO, KV_ARRAYS };
enum { GEO_BLOCKS, GEO_KV, GEO_BLOCK, GEO_DIM, GEO_BITS, GEO_LUT_K,
       GEO_K_GROUP, GEO_V_GROUP, KV_GEO };
#define ROWS 64

/* Where quantize_rows writes row l's results, in elements: plane i of
 * lookup group g at idx[l * idx_row + i * idx_plane + g * idx_group],
 * the affine at as[l * a_row + g * a_group] and az likewise. */
typedef struct {
    double *as, *az;
    uint8_t *idx;
    ptrdiff_t idx_row, idx_plane, idx_group, a_row, a_group;
} kv_out;

/* scale and zero-point of `rows` rows' group of `group` values, row l's
 * j-th at w[l * rs + j * es]. Returns 0 where the compiled body does not
 * replay the numpy one: a non-finite value, or a scale that underflows to
 * zero. */
static int group_affine(const double *w, ptrdiff_t rs, ptrdiff_t es,
                        int64_t rows, int64_t group, double qmax,
                        double *scale, double *zp)
{
    double lo[ROWS], hi[ROWS];
    int ok = 1;
    for (int64_t l = 0; l < rows; l++)
        lo[l] = hi[l] = w[l * rs];
    for (int64_t j = 0; j < group; j++)
        for (int64_t l = 0; l < rows; l++) {
            const double x = w[l * rs + j * es];
            ok &= isfinite(x) != 0;
            lo[l] = x < lo[l] ? x : lo[l];
            hi[l] = x > hi[l] ? x : hi[l];
        }
    for (int64_t l = 0; l < rows; l++) {
        const double span = hi[l] - lo[l];
        scale[l] = span > 0 ? span / qmax : 1.0;
        zp[l] = -lo[l] / scale[l] + 0.0;
        ok &= scale[l] != 0.0;
    }
    return ok;
}

/* Whether quantize_rows takes rows of n values in groups of `group`: 1 to 8
 * bits (spread has 256 entries), lookup groups of 1 to 8 codes (bits * k
 * bits fit a uint64_t), each quantization group whole lookup groups (else
 * one lookup group spans two scales; the numpy body raises) and each row
 * whole quantization groups. */
static int geo_replayable(const int64_t *geo, int64_t n, int64_t group)
{
    const int64_t bits = geo[GEO_BITS], k = geo[GEO_LUT_K];
    return bits >= 1 && bits <= 8 && k >= 1 && k <= 8 && group >= 1
           && group % k == 0 && n % group == 0;
}

/* Whether every group of m rows of n values (laid out as in group_affine)
 * is one quantize_rows replays. */
static int rows_replayable(const double *w, ptrdiff_t rs, ptrdiff_t es,
                           int64_t m, int64_t n, int64_t group, double qmax)
{
    double scale[ROWS], zp[ROWS];
    for (int64_t l0 = 0; l0 < m; l0 += ROWS)
        for (int64_t g0 = 0; g0 < n; g0 += group)
            if (!group_affine(w + l0 * rs + g0 * es, rs, es,
                              m - l0 < ROWS ? m - l0 : ROWS, group, qmax,
                              scale, zp))
                return 0;
    return 1;
}

/* m weight rows of n values (laid out as in group_affine), quantized in
 * groups of `group` and indexed in lookup groups of k, written to `o`. The
 * K-bit indices of all planes at once, as kernels/plan.lookup_indices
 * builds them: spread[q] holds bit i of code q at bit i * k, so the sum of
 * spread[code_j] << j over a lookup group's k codes holds plane i's index
 * in bits i * k .. i * k + k - 1 (lanes k wide: nothing carries). */
static __attribute__((noinline)) void quantize_rows(
    const double *w, ptrdiff_t rs, ptrdiff_t es, int64_t m, int64_t n,
    int64_t group, const int64_t *geo, kv_out o)
{
    const int64_t bits = geo[GEO_BITS], k = geo[GEO_LUT_K];
    const double qmax = (double)((1 << bits) - 1), top = (double)(1 << bits);
    const uint64_t lane = ((uint64_t)1 << k) - 1;
    double scale[ROWS], zp[ROWS];
    uint64_t spread[256], packed[ROWS];
    for (int64_t code = 0; code <= (int64_t)qmax; code++) {
        spread[code] = 0;
        for (int64_t i = 0; i < bits; i++)
            spread[code] |= (uint64_t)((code >> i) & 1) << (i * k);
    }
    for (int64_t l0 = 0; l0 < m; l0 += ROWS) {
        const int64_t rows = m - l0 < ROWS ? m - l0 : ROWS;
        const double *wl = w + l0 * rs;
        for (int64_t g0 = 0, g = 0; g0 < n; g0 += group) {
            group_affine(wl + g0 * es, rs, es, rows, group, qmax, scale, zp);
            for (int64_t c0 = g0; c0 < g0 + group; c0 += k, g++) {
                for (int64_t l = 0; l < rows; l++)
                    packed[l] = 0;
                for (int64_t j = 0; j < k; j++)
                    for (int64_t l = 0; l < rows; l++) {
                        double x = nearbyint(
                            wl[l * rs + (c0 + j) * es] / scale[l] + zp[l]);
                        x = x < 0.0 ? 0.0 : x > qmax ? qmax : x;
                        packed[l] += spread[(int64_t)x] << j;
                    }
                uint8_t *idx = o.idx + l0 * o.idx_row + g * o.idx_group;
                for (int64_t i = 0; i < bits; i++)
                    for (int64_t l = 0; l < rows; l++)
                        idx[l * o.idx_row + i * o.idx_plane] =
                            (uint8_t)(packed[l] >> (i * k) & lane);
                const ptrdiff_t a = l0 * o.a_row + g * o.a_group;
                for (int64_t l = 0; l < rows; l++) {
                    o.as[a + l * o.a_row] = scale[l] / 2.0;
                    o.az[a + l * o.a_row] = 2.0 * zp[l] + 1.0 - top;
                }
            }
        }
    }
}

/* Row i of r (r, kv, head_dim) C-contiguous K / V rows lands in slot
 * offs[i] of block bids[i]: float slabs and the row's K-arena column per
 * KV head (the kv heads of a row go through quantize_rows together).
 * Returns 0; 1 at a block id or offset out of range, 2 at a pool geometry
 * (geo_replayable) or a K value (group_affine) the numpy body must handle
 * -- all before any write. */
int kv_append(void *const *pool, const int64_t *geo, const double *k_rows,
              const double *v_rows, const int64_t *bids, const int64_t *offs,
              int64_t r)
{
    const int64_t kv = geo[GEO_KV], bs = geo[GEO_BLOCK], hd = geo[GEO_DIM];
    const int64_t bits = geo[GEO_BITS], group = geo[GEO_K_GROUP];
    for (int64_t i = 0; i < r; i++)
        if ((uint64_t)bids[i] >= (uint64_t)geo[GEO_BLOCKS]
            || (uint64_t)offs[i] >= (uint64_t)bs)
            return 1;
    if (!geo_replayable(geo, hd, group)
        || !rows_replayable(k_rows, hd, 1, r * kv, hd, group,
                         (double)((1 << bits) - 1)))
        return 2;
    const int64_t gk = hd / geo[GEO_LUT_K];
    for (int64_t i = 0; i < r; i++) {
        const int64_t slot = bids[i] * kv * bs + offs[i]; /* head 0 */
        for (int64_t h = 0; h < kv; h++)
            for (int64_t d = 0; d < hd; d++) {
                const int64_t at = (slot + h * bs) * hd + d;
                ((double *)pool[KV_K])[at] = k_rows[(i * kv + h) * hd + d];
                ((double *)pool[KV_V])[at] = v_rows[(i * kv + h) * hd + d];
            }
        const int64_t col = bids[i] * kv * gk * bs + offs[i];
        const kv_out o = {
            .as = (double *)pool[KV_KA_SCALE] + col,
            .az = (double *)pool[KV_KA_ZERO] + col,
            .idx = (uint8_t *)pool[KV_KA_IDX] + bids[i] * kv * bits * gk * bs
                + offs[i],
            .idx_row = bits * gk * bs, .idx_plane = gk * bs,
            .idx_group = bs, .a_row = gk * bs, .a_group = bs,
        };
        quantize_rows(k_rows + i * kv * hd, hd, 1, kv, hd, group, geo, o);
    }
    return 0;
}

/* The V arenas of the n blocks bids: a block's (kv, block_size, head_dim)
 * slab read as kv (head_dim, block_size) weights, every slot including
 * those past the fill. Returns as kv_append does, 2 at a pool geometry or
 * a V value. */
int kv_refresh(void *const *pool, const int64_t *geo, const int64_t *bids,
               int64_t n)
{
    const int64_t kv = geo[GEO_KV], bs = geo[GEO_BLOCK], hd = geo[GEO_DIM];
    const int64_t bits = geo[GEO_BITS], group = geo[GEO_V_GROUP];
    const double *v = (const double *)pool[KV_V];
    for (int64_t b = 0; b < n; b++)
        if ((uint64_t)bids[b] >= (uint64_t)geo[GEO_BLOCKS])
            return 1;
    if (!geo_replayable(geo, bs, group))
        return 2;
    const int64_t gv = bs / geo[GEO_LUT_K];
    for (int64_t b = 0; b < n; b++)
        for (int64_t h = 0; h < kv; h++)
            if (!rows_replayable(v + (bids[b] * kv + h) * bs * hd, 1, hd, hd,
                                 bs, group, (double)((1 << bits) - 1)))
                return 2;
    for (int64_t b = 0; b < n; b++)
        for (int64_t h = 0; h < kv; h++) {
            const int64_t slab = bids[b] * kv + h, col = slab * gv * hd;
            const kv_out o = {
                .as = (double *)pool[KV_VA_SCALE] + col,
                .az = (double *)pool[KV_VA_ZERO] + col,
                .idx = (uint8_t *)pool[KV_VA_IDX] + col * bits,
                .idx_row = 1, .idx_plane = gv * hd, .idx_group = hd,
                .a_row = 1, .a_group = hd,
            };
            quantize_rows(v + slab * bs * hd, 1, hd, hd, bs, group, geo, o);
        }
    return 0;
}

/* Float attention over the pool's float K / V slabs, read in place through
 * the block table (ARCHITECTURE section 8). Row (b, j), b < B, j < T, sees
 * the f = base[b] + j + 1 leading keys of sequence b; its query head h
 * reads KV head h / rep. Per row and query head, the one definition both
 * bodies compute:
 *
 *     s_n = (q_0 * k_n0 + q_1 * k_n1 + ...  ascending d) * c     n < f
 *     x_n = s_n - max s                                 attn_scores
 *     e_n = exp(x_n)                                    numpy's np.exp
 *     z   = e_0 + e_1 + ...                 ascending n  attn_context
 *     out = 0.0 + (e_0 / z) * v_0 + (e_1 / z) * v_1 + ...  ascending n
 *
 * Every product rounds before the add after it (-ffp-contract=off). exp
 * stays numpy's, whose SIMD exp cannot be replayed here bit for bit: the
 * two passes meet at a packed array of the x_n, row-major over (row, query
 * head, n < f) -- row r's segment at heads * sum_{r' < r} f_r' -- which
 * np.exp turns into the e_n in place. The T * rep query rows that share a
 * KV head are the lanes, LANES at a time in ascending j: a lane block reads
 * each key of its widest lane once and none past it, no lane stores an s_n
 * past its own f, and a key past a lane's f reaches its context as weight
 * +0.0, which adds nothing to a sum that started at +0.0. Lanes never mix
 * and d is never split, so neither the lane count nor the block's other
 * rows can change a value.
 * The pool's _k / _v are (blocks, kv, block_size, head_dim) C-contiguous,
 * queries and out (B, T, kv * rep, head_dim) C-contiguous, ids the (B,
 * maxb) int64 table; `geo` holds the geometry in ATTN_GEO order, then
 * base, the B lengths before the T rows. */
enum { AT_BLOCKS, AT_KV, AT_BLOCK, AT_DIM, AT_SEQS, AT_MAXB, AT_T, AT_REP,
       ATTN_GEO };

/* Whether every sequence's context fits its table (0 <= base, base + T <=
 * maxb * block_size) and every block id it covers is in [0, blocks): both
 * passes check before any read, and return 1 with nothing written. */
static int attn_out_of_range(const int64_t *geo, const int64_t *ids)
{
    const int64_t bs = geo[AT_BLOCK], maxb = geo[AT_MAXB], t = geo[AT_T];
    const int64_t *base = geo + ATTN_GEO;
    for (int64_t b = 0; b < geo[AT_SEQS]; b++) {
        if (base[b] < 0 || base[b] > maxb * bs - t)
            return 1;
        for (int64_t j = 0; j * bs < base[b] + t; j++)
            if ((uint64_t)ids[b * maxb + j] >= (uint64_t)geo[AT_BLOCKS])
                return 1;
    }
    return 0;
}

/* The lanes of the block that starts at lane m0 of KV head kh of sequence b,
 * whose first row's packed segment starts at row index `first` (sum of f
 * over earlier rows): lane l's width f, its (row, query head) index `at`
 * (queries and out at at * head_dim) and its packed segment `seg`. Returns
 * the live lane count. */
static int64_t attn_lanes(const int64_t *geo, int64_t b, int64_t first,
                          int64_t kh, int64_t m0, int64_t *f, int64_t *at,
                          int64_t *seg)
{
    const int64_t t = geo[AT_T], rep = geo[AT_REP], heads = geo[AT_KV] * rep;
    const int64_t *base = geo + ATTN_GEO;
    const int64_t live = t * rep - m0 < LANES ? t * rep - m0 : LANES;
    for (int64_t l = 0; l < live; l++) {
        const int64_t j = (m0 + l) / rep, h = kh * rep + (m0 + l) % rep;
        f[l] = base[b] + j + 1;
        at[l] = (b * t + j) * heads + h;
        seg[l] = heads * (first + j * base[b] + j * (j + 1) / 2) + h * f[l];
    }
    return live;
}

/* The first key of block j of sequence b's KV head kh; the block's keys
 * follow head_dim apart. */
static inline const double *attn_block(const double *slab, const int64_t *geo,
                                       const int64_t *ids, int64_t b,
                                       int64_t kh, int64_t j)
{
    const int64_t blk = ids[b * geo[AT_MAXB] + j];
    return slab + (blk * geo[AT_KV] + kh) * geo[AT_BLOCK] * geo[AT_DIM];
}

/* a > b ? a : b in every lane. */
typedef int64_t lanes_mask
    __attribute__((vector_size(LANES * sizeof(int64_t))));
static inline lanes_t lanes_max(lanes_t a, lanes_t b)
{
    const lanes_mask gt = a > b;
    return (lanes_t)(((lanes_mask)a & gt) | ((lanes_mask)b & ~gt));
}

/* The x_n of every row and query head into x. A lane block's s_n go to
 * scratch first, one lane vector a key, four keys at a time (four
 * independent add chains); then each lane's max over its own keys, and
 * x_n = s_n - max out to each lane's packed segment. scratch holds
 * (head_dim + max f) * 8 + 8 doubles. */
int attn_scores(const double *k, const int64_t *geo, const int64_t *ids,
                const double *q, double c, double *x, void *scratch)
{
    const int64_t kv = geo[AT_KV], bs = geo[AT_BLOCK], hd = geo[AT_DIM];
    const int64_t t = geo[AT_T], *base = geo + ATTN_GEO;
    lanes_t *qv = (lanes_t *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
    lanes_t *sv = qv + hd;
    if (attn_out_of_range(geo, ids))
        return 1;
    for (int64_t b = 0, first = 0; b < geo[AT_SEQS]; b++) {
        for (int64_t kh = 0; kh < kv; kh++)
        for (int64_t m0 = 0; m0 < t * geo[AT_REP]; m0 += LANES) {
            int64_t f[LANES], at[LANES], seg[LANES];
            const int64_t live =
                attn_lanes(geo, b, first, kh, m0, f, at, seg);
            const int64_t all = f[0], top = f[live - 1]; /* f ascends */
            for (int64_t d = 0; d < hd; d++) {
                qv[d] = splat(0.0);
                for (int64_t l = 0; l < live; l++)
                    qv[d][l] = q[at[l] * hd + d];
            }
            for (int64_t j = 0, n = 0; n < top; j++) {
                const double *kb = attn_block(k, geo, ids, b, kh, j);
                const int64_t keys = top - n < bs ? top - n : bs;
                int64_t i = 0;
                for (; i + 4 <= keys; i += 4) {
                    const double *k0 = kb + i * hd;
                    lanes_t a0 = qv[0] * splat(k0[0]);
                    lanes_t a1 = qv[0] * splat(k0[hd]);
                    lanes_t a2 = qv[0] * splat(k0[2 * hd]);
                    lanes_t a3 = qv[0] * splat(k0[3 * hd]);
                    for (int64_t d = 1; d < hd; d++) {
                        a0 += qv[d] * splat(k0[d]);
                        a1 += qv[d] * splat(k0[hd + d]);
                        a2 += qv[d] * splat(k0[2 * hd + d]);
                        a3 += qv[d] * splat(k0[3 * hd + d]);
                    }
                    sv[n + i] = a0 * splat(c);
                    sv[n + i + 1] = a1 * splat(c);
                    sv[n + i + 2] = a2 * splat(c);
                    sv[n + i + 3] = a3 * splat(c);
                }
                for (; i < keys; i++) {
                    lanes_t acc = qv[0] * splat(kb[i * hd]);
                    for (int64_t d = 1; d < hd; d++)
                        acc += qv[d] * splat(kb[i * hd + d]);
                    sv[n + i] = acc * splat(c);
                }
                n += keys;
            }
            lanes_t mx = sv[0];
            for (int64_t n = 1; n < all; n++)
                mx = lanes_max(sv[n], mx);
            for (int64_t l = 0; l < live; l++)
                for (int64_t n = all; n < f[l]; n++)
                    mx[l] = sv[n][l] > mx[l] ? sv[n][l] : mx[l];
            for (int64_t n = 0; n < top; n++) {
                const lanes_t xn = sv[n] - mx;
                for (int64_t l = 0; l < live; l++)
                    if (n < f[l])
                        x[seg[l] + n] = xn[l];
            }
        }
        first += t * base[b] + t * (t + 1) / 2;
    }
    return 0;
}

/* out from the e_n that np.exp made of attn_scores' x. Per lane block:
 * the e_n gathered into scratch as lane vectors (0.0 where a key is past
 * a lane's f), z their running sum, ascending, and p_n = e_n / z; then
 * the context four head_dim channels at a time, four accumulators over
 * the keys in ascending order. A key past a lane's f reaches it as p =
 * +0.0, whose product adds nothing to a sum that started at +0.0.
 * scratch holds (head_dim + max f) * 8 + 8 doubles. */
int attn_context(const double *v, const int64_t *geo, const int64_t *ids,
                 const double *e, double *out, void *scratch)
{
    const int64_t kv = geo[AT_KV], bs = geo[AT_BLOCK], hd = geo[AT_DIM];
    const int64_t t = geo[AT_T], *base = geo + ATTN_GEO;
    lanes_t *pv = (lanes_t *)(((uintptr_t)scratch + 63) & ~(uintptr_t)63);
    if (attn_out_of_range(geo, ids))
        return 1;
    for (int64_t b = 0, first = 0; b < geo[AT_SEQS]; b++) {
        for (int64_t kh = 0; kh < kv; kh++)
        for (int64_t m0 = 0; m0 < t * geo[AT_REP]; m0 += LANES) {
            int64_t f[LANES], at[LANES], seg[LANES];
            const int64_t live =
                attn_lanes(geo, b, first, kh, m0, f, at, seg);
            const int64_t top = f[live - 1];
            for (int64_t n = 0; n < top; n++) {
                pv[n] = splat(0.0);
                for (int64_t l = 0; l < live; l++)
                    if (n < f[l])
                        pv[n][l] = e[seg[l] + n];
            }
            lanes_t z = pv[0];
            for (int64_t n = 1; n < top; n++)
                z += pv[n];
            for (int64_t l = live; l < LANES; l++)
                z[l] = 1.0;
            for (int64_t n = 0; n < top; n++)
                pv[n] /= z;
            int64_t d = 0;
            for (; d + 4 <= hd; d += 4) {
                lanes_t a0 = splat(0.0), a1 = a0, a2 = a0, a3 = a0;
                for (int64_t j = 0, n = 0; n < top; j++) {
                    const double *vn = attn_block(v, geo, ids, b, kh, j) + d;
                    for (int64_t i = 0; i < bs && n < top; i++, n++) {
                        a0 += pv[n] * splat(vn[i * hd]);
                        a1 += pv[n] * splat(vn[i * hd + 1]);
                        a2 += pv[n] * splat(vn[i * hd + 2]);
                        a3 += pv[n] * splat(vn[i * hd + 3]);
                    }
                }
                for (int64_t l = 0; l < live; l++) {
                    double *o = out + at[l] * hd + d;
                    o[0] = a0[l];
                    o[1] = a1[l];
                    o[2] = a2[l];
                    o[3] = a3[l];
                }
            }
            for (; d < hd; d++) {
                lanes_t a0 = splat(0.0);
                for (int64_t j = 0, n = 0; n < top; j++) {
                    const double *vn = attn_block(v, geo, ids, b, kh, j) + d;
                    for (int64_t i = 0; i < bs && n < top; i++, n++)
                        a0 += pv[n] * splat(vn[i * hd]);
                }
                for (int64_t l = 0; l < live; l++)
                    out[at[l] * hd + d] = a0[l];
            }
        }
        first += t * base[b] + t * (t + 1) / 2;
    }
    return 0;
}
