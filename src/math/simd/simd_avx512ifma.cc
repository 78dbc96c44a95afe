/**
 * @file
 * AVX-512 IFMA kernel set: the AVX-512 table with its multiplying
 * kernels rebuilt on vpmadd52luq/vpmadd52huq, which return the low and
 * high 52 bits of a 52 x 52-bit product in one instruction each (the
 * AVX-512 table builds a 64 x 64-bit high half from four vpmuludq).
 *
 * A call takes the 52-bit path only when every modulus it touches
 * passes fits52 (q < 2^50, so lazy NTT values below 4q fit 52 bits);
 * otherwise it forwards to the AVX-512 kernel.  A wider prime (such as
 * unitTest()'s 51-bit special prime) and every base-conversion row that
 * touches it therefore run the AVX-512 code.
 *
 * Both products keep the scalar oracle's reductions:
 *  - Barrett (mulSpan, macSpan, macPairSpan): the 104-bit product is
 *    split into 52-bit halves, and the scalar quotient estimate
 *    ((x >> (k-1)) * mu) >> (k+1) is formed from the same
 *    mu = floor(2^(2k) / q), so the remainder and its two corrections
 *    match the scalar ones exactly.
 *  - Shoup (NTT butterflies, scalar-multiply spans, base conversion):
 *    the 52-bit quotient floor(w 2^52 / q) is the 64-bit one shifted
 *    right 12.  It may sit one below the 64-bit estimate, so a lazy
 *    product can land one q higher inside the same [0, 2q) bound; the
 *    final corrections make every output canonical and so bit-identical
 *    to the scalar table.
 *
 * A remainder r known to lie in [0, 2^52) is recovered from low 52-bit
 * halves alone: lo52(a b) + lo52(c (2^52 - q)) is congruent to
 * a b - c q modulo 2^52, so masking it to 52 bits gives r.
 */

#include "math/simd/simd.hh"

// Quiets GCC bug 105593 inside the intrinsic header only; see
// simd_avx512_ntt.hh.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#include "math/ntt.hh"
#include "math/simd/simd_avx512_ntt.hh"

namespace hydra::simd {

const Kernels& avx512Kernels();

namespace {

constexpr u64 kMask52 = (u64{1} << 52) - 1;

/** 2^52 - q per lane: multiplying by it subtracts a multiple of q. */
inline __m512i
negModulus52(u64 q)
{
    return splat((u64{1} << 52) - q);
}

/**
 * Lazy Shoup product x * w mod q in [0, 2q) for x < 2^52, with
 * ws52 = floor(w 2^52 / q) and negq = 2^52 - q.
 */
inline __m512i
mulShoupLazy52(__m512i x, __m512i w, __m512i ws52, __m512i negq)
{
    const __m512i zero = _mm512_setzero_si512();
    __m512i quot = _mm512_madd52hi_epu64(zero, x, ws52);
    __m512i xw = _mm512_madd52lo_epu64(zero, x, w);
    __m512i r = _mm512_madd52lo_epu64(xw, quot, negq);
    return _mm512_and_si512(r, splat(kMask52));
}

/** The 52-bit Shoup lazy twiddle product for the shared NTT loops. */
struct ShoupLazy52
{
    struct Twiddle
    {
        __m512i w, ws52;
    };

    __m512i negq;

    Twiddle
    twiddle(__m512i w, __m512i ws) const
    {
        return {w, _mm512_srli_epi64(ws, 12)};
    }

    __m512i
    mul(__m512i x, const Twiddle& tw) const
    {
        return mulShoupLazy52(x, tw.w, tw.ws52, negq);
    }
};

/** Per-modulus constants for the 52-bit Barrett reduction (q < 2^50). */
struct Barrett52
{
    __m512i qv;
    __m512i negq;
    __m512i muv;
    __m128i shl_53k; ///< << (53-k): high half into x >> (k-1)
    __m128i shr_k1;  ///< >> (k-1)
    __m128i shl_51k; ///< << (51-k): high half into t >> (k+1)
    __m128i shr_k1p; ///< >> (k+1)

    explicit Barrett52(const Modulus& m)
        : qv(splat(m.value())),
          negq(negModulus52(m.value())),
          muv(splat(m.barrettMu())),
          shl_53k(_mm_cvtsi32_si128(53 - m.bits())),
          shr_k1(_mm_cvtsi32_si128(m.bits() - 1)),
          shl_51k(_mm_cvtsi32_si128(51 - m.bits())),
          shr_k1p(_mm_cvtsi32_si128(m.bits() + 1))
    {
    }

    /** Canonical x[i] * y[i] mod q for canonical x, y. */
    __m512i
    mulMod(__m512i x, __m512i y) const
    {
        // x y < q^2 < 2^(2k) is hi 2^52 + lo.  With k <= 50 every
        // intermediate fits 52 bits: x >> (k-1) < 2^(k+1), mu < 2^(k+1)
        // and q_est < q.
        const __m512i zero = _mm512_setzero_si512();
        __m512i lo = _mm512_madd52lo_epu64(zero, x, y);
        __m512i hi = _mm512_madd52hi_epu64(zero, x, y);
        __m512i xs = _mm512_or_si512(_mm512_sll_epi64(hi, shl_53k),
                                     _mm512_srl_epi64(lo, shr_k1));
        __m512i tlo = _mm512_madd52lo_epu64(zero, xs, muv);
        __m512i thi = _mm512_madd52hi_epu64(zero, xs, muv);
        __m512i qest = _mm512_or_si512(_mm512_sll_epi64(thi, shl_51k),
                                       _mm512_srl_epi64(tlo, shr_k1p));
        // x y - q_est q lies in [0, 3q), below 2^52.
        __m512i r = _mm512_madd52lo_epu64(lo, qest, negq);
        r = _mm512_and_si512(r, splat(kMask52));
        return csub(csub(r, qv), qv);
    }
};

void
mulSpanIfma(u64* a, const u64* b, size_t n, const Modulus& m)
{
    if (!fits52(m.value()))
        return avx512Kernels().mulSpan(a, b, n, m);
    const Barrett52 bv(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        storeu(a + i, bv.mulMod(loadu(a + i), loadu(b + i)));
    avx512Kernels().mulSpan(a + i, b + i, n - i, m);
}

void
macSpanIfma(u64* acc, const u64* x, const u64* y, size_t n,
            const Modulus& m)
{
    if (!fits52(m.value()))
        return avx512Kernels().macSpan(acc, x, y, n, m);
    const Barrett52 bv(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i p = bv.mulMod(loadu(x + i), loadu(y + i));
        storeu(acc + i, csub(_mm512_add_epi64(loadu(acc + i), p), bv.qv));
    }
    avx512Kernels().macSpan(acc + i, x + i, y + i, n - i, m);
}

void
macPairSpanIfma(u64* acc0, u64* acc1, const u64* x, const u64* y0,
                const u64* y1, size_t n, const Modulus& m)
{
    if (!fits52(m.value()))
        return avx512Kernels().macPairSpan(acc0, acc1, x, y0, y1, n, m);
    const Barrett52 bv(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i xv = loadu(x + i);
        __m512i p0 = bv.mulMod(xv, loadu(y0 + i));
        __m512i p1 = bv.mulMod(xv, loadu(y1 + i));
        storeu(acc0 + i,
               csub(_mm512_add_epi64(loadu(acc0 + i), p0), bv.qv));
        storeu(acc1 + i,
               csub(_mm512_add_epi64(loadu(acc1 + i), p1), bv.qv));
    }
    avx512Kernels().macPairSpan(acc0 + i, acc1 + i, x + i, y0 + i,
                                y1 + i, n - i, m);
}

void
mulScalarSpanIfma(u64* a, size_t n, u64 w, u64 w_shoup, u64 q)
{
    if (!fits52(q))
        return avx512Kernels().mulScalarSpan(a, n, w, w_shoup, q);
    const __m512i qv = splat(q);
    const __m512i negq = negModulus52(q);
    const __m512i wv = splat(w);
    const __m512i ws52 = splat(w_shoup >> 12);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i r = mulShoupLazy52(loadu(a + i), wv, ws52, negq);
        storeu(a + i, csub(r, qv));
    }
    avx512Kernels().mulScalarSpan(a + i, n - i, w, w_shoup, q);
}

void
subMulScalarSpanIfma(u64* a, const u64* c, size_t n, u64 w, u64 w_shoup,
                     u64 q)
{
    if (!fits52(q))
        return avx512Kernels().subMulScalarSpan(a, c, n, w, w_shoup, q);
    const __m512i qv = splat(q);
    const __m512i negq = negModulus52(q);
    const __m512i wv = splat(w);
    const __m512i ws52 = splat(w_shoup >> 12);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i d = csub(_mm512_sub_epi64(_mm512_add_epi64(loadu(a + i), qv),
                                          loadu(c + i)),
                         qv);
        storeu(a + i, csub(mulShoupLazy52(d, wv, ws52, negq), qv));
    }
    avx512Kernels().subMulScalarSpan(a + i, c + i, n - i, w, w_shoup, q);
}

void
baseConvSpanIfma(u64* dst, const u64* const* y, size_t n,
                 const BaseConvRow& row)
{
    // Ring dimensions are multiples of 8; other lengths (tests only)
    // keep the AVX-512 kernel and its scalar tail.
    if (!row.fits52 || n % 8 != 0)
        return avx512Kernels().baseConvSpan(dst, y, n, row);
    const __m512i tv = splat(row.t);
    const __m512i t2v = splat(2 * row.t);
    const __m512i negt = negModulus52(row.t);
    for (size_t x = 0; x < n; x += 8) {
        __m512i acc = splat(row.offset);
        for (size_t i = 0; i < row.k; ++i) {
            __m512i r = mulShoupLazy52(loadu(y[i] + x), splat(row.hat[i]),
                                       splat(row.hatShoup[i] >> 12), negt);
            acc = csub(_mm512_add_epi64(acc, r), t2v);
        }
        storeu(dst + x, csub(acc, tv));
    }
}

void
nttForwardIfma(const NttTable& tb, u64* a)
{
    const u64 q = tb.modulus().value();
    if (!fits52(q) || tb.n() < 16)
        return avx512Kernels().nttForward(tb, a);
    nttForwardLazy(tb, a, ShoupLazy52{negModulus52(q)});
}

void
nttInverseIfma(const NttTable& tb, u64* a)
{
    const u64 q = tb.modulus().value();
    if (!fits52(q) || tb.n() < 16)
        return avx512Kernels().nttInverse(tb, a);
    nttInverseLazy(tb, a, ShoupLazy52{negModulus52(q)});
}

} // namespace

const Kernels&
avx512IfmaKernels()
{
    // Additions, negation and the signed reduction have no wide
    // product to shorten; they stay the AVX-512 kernels.
    static const Kernels table = [] {
        Kernels k = avx512Kernels();
        k.level = SimdLevel::Avx512Ifma;
        k.mulSpan = mulSpanIfma;
        k.macSpan = macSpanIfma;
        k.macPairSpan = macPairSpanIfma;
        k.mulScalarSpan = mulScalarSpanIfma;
        k.subMulScalarSpan = subMulScalarSpanIfma;
        k.baseConvSpan = baseConvSpanIfma;
        k.nttForward = nttForwardIfma;
        k.nttInverse = nttInverseIfma;
        return k;
    }();
    return table;
}

} // namespace hydra::simd
