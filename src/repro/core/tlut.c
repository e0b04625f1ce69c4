/* The T-MAC kernel's native phases: the offline weight pass and the
 * online table lookup, both in registers.
 *
 * tlut_quantize and tlut_pack are the offline stage (Algorithm 1's
 * PreprocessWeights), one pass each over a weight matrix:
 *
 *   - tlut_quantize: symmetric absmax quantization, numpy's float32
 *     operations in numpy's order, so the codes and scales are the numpy
 *     quantizer's bit for bit.  Per group of `group` weights along K the
 *     scale is d = amax / (qmax / 2) (0 for an all-zero group, which then
 *     divides by 1) and the codes are clip(rint(x / d + qmax / 2), 0, qmax),
 *     rint rounding to nearest even.  The same pass checks that every
 *     weight is finite.
 *   - tlut_pack: the codes' g = 4 index planes, written straight into the
 *     packed-nibble layout below (any bit width).
 *
 * tlut_block_sums computes the exact integer block sums
 *
 *     S[bit, qg, n, m - m0] = sum_{j in qg} T[n, j, idx[bit, j, m]]
 *
 * for the output rows [m0, m1), every activation row n and every weight
 * bit, m-minor, in int16 (wide == 0) or int32 (wide == 1) -- the
 * accumulator_dtype(gpq) bound under which both are exact.
 *
 * The weights arrive as the kernel's packed-nibble layout, per bit a
 * [J, ceil(M/32) * 16] byte array (J = K/4): byte i of 32-row block b holds
 * idx[32b + i] in its low nibble and idx[32b + 16 + i] in its high nibble,
 * so an AND and a shift unpack the block's 32 indices in row order.  The
 * activation table T[n, j, :] holds 16 int8 entries, or 8 when mirrored
 * (entry p >= 8 is -T[15 - p]); the full 16-entry table is rebuilt once
 * per call and one PSHUFB against it answers 32 weight rows.
 *
 * All three are AVX2 only.  tlut_supported() reports whether this CPU has
 * it; without it the caller runs the loop oracle for the lookup and its
 * numpy code for quantize and pack.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off tlut.c -o tlut.so
 */

#include <float.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TLUT_X86 1
#endif

typedef struct {
    const uint8_t *nibbles; /* [bits, groups, row_bytes] */
    int64_t groups;         /* J = K / 4 */
    int64_t row_bytes;      /* ceil(M / 32) * 16 */
    const int8_t *tab;      /* [rows, groups, 16], full tables */
    int64_t rows;
    int64_t bits, qgroups, gpq;
    int64_t m0, m1;
    void *out;              /* [bits, qgroups, rows, m1 - m0] */
    int wide;
} job_t;

int tlut_supported(void)
{
#ifdef TLUT_X86
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
#else
    return 0;
#endif
}

#ifdef TLUT_X86
/* Row n's block sums of one 32-row block: the rows of [lo, lo + 32) that
 * fall in [m0, m1) go to S[bit, qg, n, row - m0]. */
static void store_block(const job_t *jb, const int32_t *acc, int64_t bit,
                        int64_t qg, int64_t n, int64_t lo)
{
    int64_t first = lo < jb->m0 ? jb->m0 : lo;
    int64_t last = lo + 32 > jb->m1 ? jb->m1 : lo + 32;
    int64_t base = ((bit * jb->qgroups + qg) * jb->rows + n)
                   * (jb->m1 - jb->m0) - jb->m0;
    for (int64_t r = first; r < last; r++) {
        if (jb->wide)
            ((int32_t *)jb->out)[base + r] = acc[r - lo];
        else
            ((int16_t *)jb->out)[base + r] = (int16_t)acc[r - lo];
    }
}

__attribute__((target("avx2")))
static void run_avx2(const job_t *jb, uint8_t *idx)
{
    const __m256i low4 = _mm256_set1_epi8(0x0F);
    int32_t acc[32];
    for (int64_t bit = 0; bit < jb->bits; bit++)
        for (int64_t qg = 0; qg < jb->qgroups; qg++) {
            int64_t j0 = qg * jb->gpq;
            const uint8_t *plane =
                jb->nibbles + (bit * jb->groups + j0) * jb->row_bytes;
            for (int64_t lo = jb->m0 & ~(int64_t)31; lo < jb->m1; lo += 32) {
                /* Unpack the block's gpq x 32 indices once for every row:
                 * low nibbles to lane 0 (rows 0-15), high to lane 1. */
                for (int64_t j = 0; j < jb->gpq; j++) {
                    __m128i x = _mm_loadu_si128(
                        (const __m128i *)(plane + j * jb->row_bytes + lo / 2));
                    __m256i v = _mm256_inserti128_si256(
                        _mm256_castsi128_si256(x), _mm_srli_epi16(x, 4), 1);
                    _mm256_store_si256((__m256i *)(idx + j * 32),
                                       _mm256_and_si256(v, low4));
                }
                int full = lo >= jb->m0 && lo + 32 <= jb->m1;
                for (int64_t n = 0; n < jb->rows; n++) {
                    const int8_t *tab = jb->tab + (n * jb->groups + j0) * 16;
                    int64_t at = ((bit * jb->qgroups + qg) * jb->rows + n)
                                 * (jb->m1 - jb->m0) + lo - jb->m0;
                    if (!jb->wide) {
                        /* Widen by shifts (not the shuffle port): even
                         * bytes' int16 in `even`, odd bytes' in `odd`. */
                        __m256i even = _mm256_setzero_si256();
                        __m256i odd = _mm256_setzero_si256();
                        for (int64_t j = 0; j < jb->gpq; j++) {
                            __m256i t = _mm256_broadcastsi128_si256(
                                _mm_loadu_si128((const __m128i *)(tab + j * 16)));
                            __m256i r = _mm256_shuffle_epi8(
                                t, _mm256_load_si256((const __m256i *)(idx + j * 32)));
                            even = _mm256_add_epi16(even, _mm256_srai_epi16(
                                _mm256_slli_epi16(r, 8), 8));
                            odd = _mm256_add_epi16(odd, _mm256_srai_epi16(r, 8));
                        }
                        /* Back to row order: lane 0 holds rows 0-15, lane
                         * 1 rows 16-31. */
                        __m256i first = _mm256_unpacklo_epi16(even, odd);
                        __m256i second = _mm256_unpackhi_epi16(even, odd);
                        __m256i a0 = _mm256_permute2x128_si256(first, second,
                                                               0x20);
                        __m256i a1 = _mm256_permute2x128_si256(first, second,
                                                               0x31);
                        if (full) {
                            int16_t *dst = (int16_t *)jb->out + at;
                            _mm256_storeu_si256((__m256i *)dst, a0);
                            _mm256_storeu_si256((__m256i *)(dst + 16), a1);
                            continue;
                        }
                        _mm256_storeu_si256((__m256i *)acc,
                            _mm256_cvtepi16_epi32(_mm256_castsi256_si128(a0)));
                        _mm256_storeu_si256((__m256i *)(acc + 8),
                            _mm256_cvtepi16_epi32(_mm256_extracti128_si256(a0, 1)));
                        _mm256_storeu_si256((__m256i *)(acc + 16),
                            _mm256_cvtepi16_epi32(_mm256_castsi256_si128(a1)));
                        _mm256_storeu_si256((__m256i *)(acc + 24),
                            _mm256_cvtepi16_epi32(_mm256_extracti128_si256(a1, 1)));
                    } else {
                        __m256i a[4];
                        for (int q = 0; q < 4; q++)
                            a[q] = _mm256_setzero_si256();
                        for (int64_t j = 0; j < jb->gpq; j++) {
                            __m256i t = _mm256_broadcastsi128_si256(
                                _mm_loadu_si128((const __m128i *)(tab + j * 16)));
                            __m256i r = _mm256_shuffle_epi8(
                                t, _mm256_load_si256((const __m256i *)(idx + j * 32)));
                            __m128i r0 = _mm256_castsi256_si128(r);
                            __m128i r1 = _mm256_extracti128_si256(r, 1);
                            a[0] = _mm256_add_epi32(a[0], _mm256_cvtepi8_epi32(r0));
                            a[1] = _mm256_add_epi32(a[1], _mm256_cvtepi8_epi32(
                                _mm_srli_si128(r0, 8)));
                            a[2] = _mm256_add_epi32(a[2], _mm256_cvtepi8_epi32(r1));
                            a[3] = _mm256_add_epi32(a[3], _mm256_cvtepi8_epi32(
                                _mm_srli_si128(r1, 8)));
                        }
                        int32_t *dst = full ? (int32_t *)jb->out + at : acc;
                        for (int q = 0; q < 4; q++)
                            _mm256_storeu_si256((__m256i *)(dst + 8 * q), a[q]);
                        if (full)
                            continue;
                    }
                    store_block(jb, acc, bit, qg, n, lo);
                }
            }
        }
}
#endif

/* Returns 0, -1 when out of memory, -2 when this CPU lacks AVX2. */
int tlut_block_sums(const uint8_t *nibbles, int64_t bits, int64_t groups,
                    int64_t row_bytes, const int8_t *table, int64_t rows,
                    int64_t stored, int64_t gpq, int64_t m0, int64_t m1,
                    void *out, int wide)
{
    if (!tlut_supported())
        return -2;
#ifdef TLUT_X86
    int8_t *tab = malloc((size_t)(rows * groups * 16));
    uint8_t *idx = aligned_alloc(32, (size_t)(gpq * 32));
    if (tab == NULL || idx == NULL) {
        free(tab);
        free(idx);
        return -1;
    }
    /* The full 16-entry tables; a mirrored table's upper half is the
     * negated, reversed lower half. */
    for (int64_t r = 0; r < rows * groups; r++) {
        const int8_t *src = table + r * stored;
        int8_t *dst = tab + r * 16;
        if (stored == 16) {
            memcpy(dst, src, 16);
            continue;
        }
        for (int p = 0; p < 8; p++) {
            dst[p] = src[p];
            dst[15 - p] = (int8_t)-src[p];
        }
    }
    job_t jb = {nibbles, groups, row_bytes, tab, rows, bits,
                groups / gpq, gpq, m0, m1, out, wide};
    run_avx2(&jb, idx);
    free(idx);
    free(tab);
#endif
    return 0;
}

#ifdef TLUT_X86
/* Codes of 8 weights: clip(rint(x / d + z), 0, top) as int32. */
__attribute__((target("avx2")))
static inline __m256i codes_8(__m256 x, __m256 d, __m256 z, __m256 top)
{
    __m256 v = _mm256_add_ps(_mm256_div_ps(x, d), z);
    v = _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    v = _mm256_min_ps(_mm256_max_ps(v, _mm256_setzero_ps()), top);
    return _mm256_cvtps_epi32(v);
}

/* The n < 8 floats at x, zero-padded to a vector. */
__attribute__((target("avx2")))
static inline __m256 load_tail(const float *x, int64_t n)
{
    float buf[8] = {0};
    memcpy(buf, x, (size_t)n * sizeof(float));
    return _mm256_loadu_ps(buf);
}

/* The low bytes of 8 int32 lanes, in order. */
__attribute__((target("avx2")))
static inline __m128i bytes_8(__m256i q)
{
    __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(q),
                                _mm256_extracti128_si256(q, 1));
    return _mm_packus_epi16(w, w);
}

__attribute__((target("avx2")))
static int64_t quantize_avx2(const float *w, int64_t rows, int64_t cols,
                             int64_t group, int64_t qmax, uint8_t *codes,
                             float *scales)
{
    const __m256 sign = _mm256_set1_ps(-0.0f);
    const __m256 huge = _mm256_set1_ps(FLT_MAX);
    const float half = (float)qmax / 2.0f; /* exact: qmax <= 255 */
    const __m256 z = _mm256_set1_ps(half);
    const __m256 top = _mm256_set1_ps((float)qmax);
    for (int64_t at = 0; at < rows * cols; at += group) {
        const float *x = w + at;
        __m256 amax = _mm256_setzero_ps();
        __m256 finite = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
        for (int64_t i = 0; i < group; i += 8) {
            __m256 a = _mm256_andnot_ps(sign, i + 8 <= group
                ? _mm256_loadu_ps(x + i) : load_tail(x + i, group - i));
            amax = _mm256_max_ps(amax, a);
            /* |x| <= FLT_MAX is false for NaN and +-inf. */
            finite = _mm256_and_ps(finite,
                                   _mm256_cmp_ps(a, huge, _CMP_LE_OQ));
        }
        if (_mm256_movemask_ps(finite) != 0xFF) {
            for (int64_t i = 0; i < group; i++)
                if (!(x[i] <= FLT_MAX && x[i] >= -FLT_MAX))
                    return 1 + at + i;
        }
        __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(amax),
                               _mm256_extractf128_ps(amax, 1));
        m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
        m4 = _mm_max_ss(m4, _mm_shuffle_ps(m4, m4, 1));
        float top_abs = _mm_cvtss_f32(m4);
        /* numpy: where(amax > 0, amax / (qmax / 2), 0), then a unit
         * divisor for the zero scales. */
        float scale = top_abs > 0.0f ? top_abs / half : 0.0f;
        scales[at / group] = scale;
        __m256 d = _mm256_set1_ps(scale > 0.0f ? scale : 1.0f);
        int64_t i = 0;
        for (; i + 8 <= group; i += 8)
            _mm_storel_epi64((__m128i *)(codes + at + i), bytes_8(codes_8(
                _mm256_loadu_ps(x + i), d, z, top)));
        if (i < group) {
            uint8_t out[16];
            _mm_storeu_si128((__m128i *)out, bytes_8(codes_8(
                load_tail(x + i, group - i), d, z, top)));
            memcpy(codes + at + i, out, (size_t)(group - i));
        }
    }
    return 0;
}
#endif

/* Returns 0; -2 when this CPU lacks AVX2; 1 + the flat index of the first
 * weight that is not finite (codes and scales are then incomplete). */
int64_t tlut_quantize(const float *w, int64_t rows, int64_t cols,
                      int64_t group, int64_t qmax, uint8_t *codes,
                      float *scales)
{
    if (!tlut_supported())
        return -2;
#ifdef TLUT_X86
    return quantize_avx2(w, rows, cols, group, qmax, codes, scales);
#else
    return -2;
#endif
}

#ifdef TLUT_X86
/* Stores the packed bytes of index columns first, first + 2, first + 4 and
 * first + 6 (those below `last`): byte k of every dword of merged[0] (rows
 * 0-7 of the block) and merged[1] (rows 8-15) is column first + 2k's byte
 * of that row. */
__attribute__((target("avx2")))
static void store_columns(const __m256i merged[2], uint8_t *out,
                          int64_t first, int64_t last, int64_t stride)
{
    /* Per 128-bit lane, 4 rows x 4 columns -> 4 columns x 4 rows. */
    const __m256i transpose = _mm256_setr_epi8(
        0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15,
        0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
    __m256i p = _mm256_shuffle_epi8(merged[0], transpose); /* rows 0-3 | 4-7 */
    __m256i q = _mm256_shuffle_epi8(merged[1], transpose); /* 8-11 | 12-15 */
    __m256i u = _mm256_permute2x128_si256(p, q, 0x20);
    __m256i v = _mm256_permute2x128_si256(p, q, 0x31);
    /* Each half: one column's 16 rows. */
    __m256i cols[2] = {
        _mm256_permute4x64_epi64(_mm256_unpacklo_epi32(u, v), 0xD8),
        _mm256_permute4x64_epi64(_mm256_unpackhi_epi32(u, v), 0xD8)};
    for (int k = 0; k < 4 && first + 2 * k < last; k++) {
        __m128i col = k & 1 ? _mm256_extracti128_si256(cols[k / 2], 1)
                            : _mm256_castsi256_si128(cols[k / 2]);
        _mm_storeu_si128((__m128i *)(out + 2 * k * stride), col);
    }
}

/* out[bit, j, 16b + i] = idx[bit, 32b + i, j] | idx[bit, 32b + 16 + i, j]
 * << 4, a block's 8 index columns at a time.  Each row's 32 codes of those
 * columns load as one vector; per bit, a shift puts every code's bit in
 * its byte's sign bit and MOVEMASK gathers the 32 of them, code p at bit
 * p -- so nibble j of the mask is the row's index in column j.  The masks
 * of rows i and 16 + i then merge nibble by nibble and a 16 x 8 byte
 * transpose gives each column's 16 bytes. */
__attribute__((target("avx2")))
static void pack_avx2(const uint8_t *codes, int64_t rows, int64_t cols,
                      int64_t bits, uint8_t *out)
{
    const __m256i low = _mm256_set1_epi8(0x0F);
    int64_t groups = cols / 4;
    int64_t width = (rows + 31) / 32 * 16;
    __m256i block[32];
    int32_t mask[32];
    for (int64_t b = 0; b < width / 16; b++)
        for (int64_t j0 = 0; j0 < groups; j0 += 8) {
            int64_t n = groups - j0 < 8 ? groups - j0 : 8;
            for (int r = 0; r < 32; r++) {
                int64_t row = 32 * b + r;
                if (row < rows && n == 8) {
                    block[r] = _mm256_loadu_si256(
                        (const __m256i *)(codes + row * cols + 4 * j0));
                    continue;
                }
                uint8_t buf[32] = {0}; /* past the last row or column */
                if (row < rows)
                    memcpy(buf, codes + row * cols + 4 * j0, (size_t)(4 * n));
                block[r] = _mm256_loadu_si256((const __m256i *)buf);
            }
            for (int64_t bit = 0; bit < bits; bit++) {
                for (int r = 0; r < 32; r++)
                    mask[r] = _mm256_movemask_epi8(
                        _mm256_slli_epi16(block[r], 7 - (int)bit));
                __m256i even[2], odd[2];
                for (int h = 0; h < 2; h++) {
                    __m256i a = _mm256_loadu_si256(
                        (const __m256i *)(mask + 8 * h));
                    __m256i c = _mm256_loadu_si256(
                        (const __m256i *)(mask + 16 + 8 * h));
                    even[h] = _mm256_or_si256(
                        _mm256_and_si256(a, low),
                        _mm256_slli_epi32(_mm256_and_si256(c, low), 4));
                    odd[h] = _mm256_or_si256(
                        _mm256_and_si256(_mm256_srli_epi32(a, 4), low),
                        _mm256_andnot_si256(low, c));
                }
                uint8_t *dst = out + (bit * groups + j0) * width + 16 * b;
                store_columns(even, dst, 0, n, width);
                store_columns(odd, dst + width, 1, n, width);
            }
        }
}
#endif

/* codes: C-contiguous uint8 [rows, cols], cols a multiple of 4, bits in
 * 1..8; out: [bits, cols / 4, ceil(rows / 32) * 16].  Returns 0, or -2
 * when this CPU lacks AVX2. */
int tlut_pack(const uint8_t *codes, int64_t rows, int64_t cols,
              int64_t bits, uint8_t *out)
{
    if (!tlut_supported())
        return -2;
#ifdef TLUT_X86
    pack_avx2(codes, rows, cols, bits, out);
#endif
    return 0;
}
