/**
 * @file
 * AVX-512 kernel set: 8 x u64 lanes (requires F+DQ+BW+VL).
 *
 * Every kernel evaluates the exact integer expressions of the scalar
 * oracle per element -- the same Barrett quotient estimate with the
 * same two corrections, the same Harvey lazy bounds in the NTT -- so
 * outputs are bit-identical to the scalar path.
 *
 * 64-bit modular multiplication has no single-instruction high half on
 * x86 SIMD; mulhi64() builds it from four vpmuludq partial products.
 * vpmullq (DQ) covers the low half, and vpminuq implements the
 * conditional correction ("subtract q if >= q") branchlessly:
 * min(x, x - q) picks x - q exactly when x >= q because the subtraction
 * wraps otherwise.  The NTT loops live in simd_avx512_ntt.hh, shared
 * with the IFMA table; this table plugs in the 64-bit Shoup product.
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

namespace {

/**
 * High 64 bits of x * y per lane from four 32x32 partial products.
 * xh/yh are the operands shifted right 32 (hoisted by callers that
 * reuse them).
 */
inline __m512i
mulhi64(__m512i x, __m512i xh, __m512i y, __m512i yh)
{
    const __m512i lomask = _mm512_set1_epi64(0xffffffff);
    __m512i w0 = _mm512_mul_epu32(x, y);
    __m512i w1 = _mm512_mul_epu32(x, yh);
    __m512i w2 = _mm512_mul_epu32(xh, y);
    __m512i w3 = _mm512_mul_epu32(xh, yh);
    __m512i s1 = _mm512_add_epi64(w1, _mm512_srli_epi64(w0, 32));
    __m512i s2 = _mm512_add_epi64(w2, _mm512_and_si512(s1, lomask));
    return _mm512_add_epi64(
        _mm512_add_epi64(w3, _mm512_srli_epi64(s1, 32)),
        _mm512_srli_epi64(s2, 32));
}

/** Harvey lazy product a * w mod q in [0, 2q); w/ws/q pre-broadcast. */
inline __m512i
mulModLazyVec(__m512i x, __m512i wv, __m512i wsv, __m512i wsvh,
              __m512i qv)
{
    __m512i xh = _mm512_srli_epi64(x, 32);
    __m512i hi = mulhi64(x, xh, wsv, wsvh);
    return _mm512_sub_epi64(_mm512_mullo_epi64(x, wv),
                            _mm512_mullo_epi64(hi, qv));
}

/** Per-modulus constants for the vector Barrett reduction. */
struct BarrettVec
{
    __m512i qv;
    __m512i muv;
    __m512i muvh;
    __m128i shr_k1;  ///< >> (k-1)
    __m128i shl_65k; ///< << (65-k)
    __m128i shr_k1p; ///< >> (k+1)
    __m128i shl_63k; ///< << (63-k)

    explicit BarrettVec(const Modulus& m)
        : qv(_mm512_set1_epi64(static_cast<i64>(m.value()))),
          muv(_mm512_set1_epi64(static_cast<i64>(m.barrettMu()))),
          muvh(_mm512_srli_epi64(muv, 32)),
          shr_k1(_mm_cvtsi32_si128(m.bits() - 1)),
          shl_65k(_mm_cvtsi32_si128(65 - m.bits())),
          shr_k1p(_mm_cvtsi32_si128(m.bits() + 1)),
          shl_63k(_mm_cvtsi32_si128(63 - m.bits()))
    {
    }

    /**
     * Canonical (x * y) mod q from the 128-bit product (hi, lo):
     * the scalar Modulus::reduce expression, two corrections included.
     */
    __m512i
    reduce(__m512i hi, __m512i lo) const
    {
        // x_shift = x >> (k-1), x < q^2 so x_shift < 2^63.
        __m512i xs = _mm512_or_si512(_mm512_sll_epi64(hi, shl_65k),
                                     _mm512_srl_epi64(lo, shr_k1));
        __m512i xsh = _mm512_srli_epi64(xs, 32);
        __m512i thi = mulhi64(xs, xsh, muv, muvh);
        __m512i tlo = _mm512_mullo_epi64(xs, muv);
        // q_est = (x_shift * mu) >> (k+1)
        __m512i qest = _mm512_or_si512(_mm512_sll_epi64(thi, shl_63k),
                                       _mm512_srl_epi64(tlo, shr_k1p));
        __m512i r =
            _mm512_sub_epi64(lo, _mm512_mullo_epi64(qest, qv));
        return csub(csub(r, qv), qv);
    }

    /** Canonical x[i]*y[i] mod q; xh hoisted by the caller. */
    __m512i
    mulMod(__m512i x, __m512i xh, __m512i y) const
    {
        __m512i yh = _mm512_srli_epi64(y, 32);
        __m512i hi = mulhi64(x, xh, y, yh);
        __m512i lo = _mm512_mullo_epi64(x, y);
        return reduce(hi, lo);
    }
};

void
addSpanAvx512(u64* a, const u64* b, size_t n, u64 q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i s = _mm512_add_epi64(loadu(a + i), loadu(b + i));
        storeu(a + i, csub(s, qv));
    }
    for (; i < n; ++i) {
        u64 s = a[i] + b[i];
        a[i] = s >= q ? s - q : s;
    }
}

void
subSpanAvx512(u64* a, const u64* b, size_t n, u64 q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // a + q - b lands in (0, 2q); one correction recanonicalizes.
        __m512i s = _mm512_sub_epi64(
            _mm512_add_epi64(loadu(a + i), qv), loadu(b + i));
        storeu(a + i, csub(s, qv));
    }
    for (; i < n; ++i)
        a[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
}

void
negSpanAvx512(u64* a, size_t n, u64 q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q));
    const __m512i zero = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i x = loadu(a + i);
        __mmask8 nz = _mm512_cmpneq_epu64_mask(x, zero);
        storeu(a + i,
               _mm512_maskz_sub_epi64(nz, qv, x));
    }
    for (; i < n; ++i)
        a[i] = a[i] == 0 ? 0 : q - a[i];
}

void
mulSpanAvx512(u64* a, const u64* b, size_t n, const Modulus& m)
{
    const BarrettVec bv(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i x = loadu(a + i);
        __m512i xh = _mm512_srli_epi64(x, 32);
        storeu(a + i, bv.mulMod(x, xh, loadu(b + i)));
    }
    for (; i < n; ++i)
        a[i] = m.mulMod(a[i], b[i]);
}

void
macSpanAvx512(u64* acc, const u64* x, const u64* y, size_t n,
              const Modulus& m)
{
    const BarrettVec bv(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i xv = loadu(x + i);
        __m512i xvh = _mm512_srli_epi64(xv, 32);
        __m512i p = bv.mulMod(xv, xvh, loadu(y + i));
        __m512i s = _mm512_add_epi64(loadu(acc + i), p);
        storeu(acc + i, csub(s, bv.qv));
    }
    for (; i < n; ++i)
        acc[i] = m.addMod(acc[i], m.mulMod(x[i], y[i]));
}

void
macPairSpanAvx512(u64* acc0, u64* acc1, const u64* x, const u64* y0,
                  const u64* y1, size_t n, const Modulus& m)
{
    const BarrettVec bv(m);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i xv = loadu(x + i);
        __m512i xvh = _mm512_srli_epi64(xv, 32);
        __m512i p0 = bv.mulMod(xv, xvh, loadu(y0 + i));
        __m512i p1 = bv.mulMod(xv, xvh, loadu(y1 + i));
        __m512i s0 = _mm512_add_epi64(loadu(acc0 + i), p0);
        __m512i s1 = _mm512_add_epi64(loadu(acc1 + i), p1);
        storeu(acc0 + i, csub(s0, bv.qv));
        storeu(acc1 + i, csub(s1, bv.qv));
    }
    for (; i < n; ++i) {
        u64 xi = x[i];
        acc0[i] = m.addMod(acc0[i], m.mulMod(xi, y0[i]));
        acc1[i] = m.addMod(acc1[i], m.mulMod(xi, y1[i]));
    }
}

void
mulScalarSpanAvx512(u64* a, size_t n, u64 w, u64 w_shoup, u64 q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q));
    const __m512i wv = _mm512_set1_epi64(static_cast<i64>(w));
    const __m512i wsv = _mm512_set1_epi64(static_cast<i64>(w_shoup));
    const __m512i wsvh = _mm512_srli_epi64(wsv, 32);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i r = mulModLazyVec(loadu(a + i), wv, wsv, wsvh, qv);
        storeu(a + i, csub(r, qv));
    }
    for (; i < n; ++i) {
        u64 hi = static_cast<u64>(
            (static_cast<u128>(a[i]) * w_shoup) >> 64);
        u64 r = a[i] * w - hi * q;
        a[i] = r >= q ? r - q : r;
    }
}

void
subMulScalarSpanAvx512(u64* a, const u64* c, size_t n, u64 w,
                       u64 w_shoup, u64 q)
{
    const __m512i qv = _mm512_set1_epi64(static_cast<i64>(q));
    const __m512i wv = _mm512_set1_epi64(static_cast<i64>(w));
    const __m512i wsv = _mm512_set1_epi64(static_cast<i64>(w_shoup));
    const __m512i wsvh = _mm512_srli_epi64(wsv, 32);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i d = _mm512_sub_epi64(
            _mm512_add_epi64(loadu(a + i), qv), loadu(c + i));
        d = csub(d, qv);
        __m512i r = mulModLazyVec(d, wv, wsv, wsvh, qv);
        storeu(a + i, csub(r, qv));
    }
    for (; i < n; ++i) {
        u64 d = a[i] >= c[i] ? a[i] - c[i] : a[i] + q - c[i];
        u64 hi =
            static_cast<u64>((static_cast<u128>(d) * w_shoup) >> 64);
        u64 r = d * w - hi * q;
        a[i] = r >= q ? r - q : r;
    }
}

void
reduceCenteredSpanAvx512(u64* dst, const i64* src, size_t n,
                         const Modulus& m)
{
    // The Barrett estimate needs |x| < q^2; with |x| < 2^63 that holds
    // once q >= 2^32.  Smaller moduli (tests only) stay scalar.
    if (m.bits() < 33) {
        for (size_t i = 0; i < n; ++i)
            dst[i] = m.reduceI64(src[i]);
        return;
    }
    const BarrettVec bv(m);
    const __m512i zero = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i x = loadu(src + i);
        __mmask8 neg = _mm512_cmplt_epi64_mask(x, zero);
        __m512i ax = _mm512_abs_epi64(x);
        // Single-word Barrett: the product hi half is zero.
        __m512i r = bv.reduce(zero, ax);
        // (-a) mod q = q - (a mod q), fixing up the a mod q == 0 case.
        __mmask8 nz = _mm512_cmpneq_epu64_mask(r, zero);
        __m512i rneg = _mm512_maskz_sub_epi64(nz, bv.qv, r);
        storeu(dst + i, _mm512_mask_blend_epi64(neg, r, rneg));
    }
    for (; i < n; ++i)
        dst[i] = m.reduceI64(src[i]);
}

void
baseConvSpanAvx512(u64* dst, const u64* const* y, size_t n,
                   const BaseConvRow& row)
{
    const u64 t = row.t;
    const u64 two_t = 2 * t;
    const __m512i tv = _mm512_set1_epi64(static_cast<i64>(t));
    const __m512i t2v = _mm512_set1_epi64(static_cast<i64>(two_t));
    const __m512i offv = _mm512_set1_epi64(static_cast<i64>(row.offset));
    size_t x = 0;
    for (; x + 8 <= n; x += 8) {
        // The accumulator stays in a register across the k sources;
        // the per-source constants are broadcast loads.
        __m512i acc = offv;
        for (size_t i = 0; i < row.k; ++i) {
            __m512i wv = _mm512_set1_epi64(static_cast<i64>(row.hat[i]));
            __m512i wsv =
                _mm512_set1_epi64(static_cast<i64>(row.hatShoup[i]));
            __m512i r = mulModLazyVec(loadu(y[i] + x), wv, wsv,
                                      _mm512_srli_epi64(wsv, 32), tv);
            acc = csub(_mm512_add_epi64(acc, r), t2v);
        }
        storeu(dst + x, csub(acc, tv));
    }
    for (; x < n; ++x) {
        u64 acc = row.offset;
        for (size_t i = 0; i < row.k; ++i) {
            u64 v = y[i][x];
            u64 hi = static_cast<u64>(
                (static_cast<u128>(v) * row.hatShoup[i]) >> 64);
            acc += v * row.hat[i] - hi * t;
            acc = acc >= two_t ? acc - two_t : acc;
        }
        dst[x] = acc >= t ? acc - t : acc;
    }
}

/** The 64-bit Shoup lazy twiddle product for the shared NTT loops. */
struct ShoupLazy64
{
    struct Twiddle
    {
        __m512i w, ws, wsh;
    };

    __m512i qv;

    Twiddle
    twiddle(__m512i w, __m512i ws) const
    {
        return {w, ws, _mm512_srli_epi64(ws, 32)};
    }

    __m512i
    mul(__m512i x, const Twiddle& tw) const
    {
        return mulModLazyVec(x, tw.w, tw.ws, tw.wsh, qv);
    }
};

void
nttForwardAvx512(const NttTable& tb, u64* a)
{
    if (tb.n() < 16)
        return scalarKernels().nttForward(tb, a);
    nttForwardLazy(tb, a, ShoupLazy64{splat(tb.modulus().value())});
}

void
nttInverseAvx512(const NttTable& tb, u64* a)
{
    if (tb.n() < 16)
        return scalarKernels().nttInverse(tb, a);
    nttInverseLazy(tb, a, ShoupLazy64{splat(tb.modulus().value())});
}

const Kernels avx512_kernels = {
    SimdLevel::Avx512,
    addSpanAvx512,
    subSpanAvx512,
    negSpanAvx512,
    mulSpanAvx512,
    macSpanAvx512,
    macPairSpanAvx512,
    mulScalarSpanAvx512,
    subMulScalarSpanAvx512,
    reduceCenteredSpanAvx512,
    baseConvSpanAvx512,
    nttForwardAvx512,
    nttInverseAvx512,
};

} // namespace

const Kernels&
avx512Kernels()
{
    return avx512_kernels;
}

} // namespace hydra::simd
