/* Integer phase of the T-MAC LUT kernel: the table lookup in registers.
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
 * The lookup is AVX2 only.  tlut_supported() reports whether this CPU has
 * it; without it the caller keeps its numpy integer phase, which a scalar
 * C loop did not beat on any bench shape.
 *
 * Build: cc -O2 -fPIC -shared -ffp-contract=off tlut.c -o tlut.so
 */

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
