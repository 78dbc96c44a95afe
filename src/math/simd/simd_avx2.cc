/**
 * @file
 * AVX2 kernel set: 4 x u64 lanes.
 *
 * Same per-element arithmetic as the scalar oracle (bit-identical
 * outputs); see simd_avx512.cc for the kernel-by-kernel commentary.
 * AVX2 lacks unsigned 64-bit compares, 64-bit mullo and lane-crossing
 * 64-bit permutes, so:
 *
 *   - unsigned compares bias both operands by 2^63 and compare signed,
 *   - mullo/mulhi both come from vpmuludq partial products,
 *   - the short-stride NTT stages (t < 4) stay scalar -- two stages
 *     out of log2(n), a modest tax on the mid-tier level (the AVX-512
 *     set vectorizes them with tile transposes).
 */

#include "math/simd/simd.hh"

#include <immintrin.h>

#include "math/ntt.hh"

namespace hydra::simd {

namespace {

inline __m256i
loadu(const void* p)
{
    return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

inline void
storeu(void* p, __m256i v)
{
    _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

inline __m256i
signBias()
{
    return _mm256_set1_epi64x(static_cast<i64>(0x8000000000000000ULL));
}

/** a > b unsigned, per 64-bit lane. */
inline __m256i
cmpgtU64(__m256i a, __m256i b)
{
    const __m256i bias = signBias();
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                              _mm256_xor_si256(b, bias));
}

/** x - q if x >= q else x (unsigned). */
inline __m256i
csub(__m256i x, __m256i q)
{
    __m256i sub = _mm256_sub_epi64(x, q);
    __m256i keep = cmpgtU64(q, x); // q > x: keep x
    return _mm256_blendv_epi8(sub, x, keep);
}

/** High 64 bits of x * y per lane (vpmuludq partial products). */
inline __m256i
mulhi64(__m256i x, __m256i xh, __m256i y, __m256i yh)
{
    const __m256i lomask = _mm256_set1_epi64x(0xffffffff);
    __m256i w0 = _mm256_mul_epu32(x, y);
    __m256i w1 = _mm256_mul_epu32(x, yh);
    __m256i w2 = _mm256_mul_epu32(xh, y);
    __m256i w3 = _mm256_mul_epu32(xh, yh);
    __m256i s1 = _mm256_add_epi64(w1, _mm256_srli_epi64(w0, 32));
    __m256i s2 = _mm256_add_epi64(w2, _mm256_and_si256(s1, lomask));
    return _mm256_add_epi64(
        _mm256_add_epi64(w3, _mm256_srli_epi64(s1, 32)),
        _mm256_srli_epi64(s2, 32));
}

/** Low 64 bits of x * y per lane. */
inline __m256i
mullo64(__m256i x, __m256i xh, __m256i y, __m256i yh)
{
    __m256i w0 = _mm256_mul_epu32(x, y);
    __m256i mid = _mm256_add_epi64(_mm256_mul_epu32(x, yh),
                                   _mm256_mul_epu32(xh, y));
    return _mm256_add_epi64(w0, _mm256_slli_epi64(mid, 32));
}

/** Harvey lazy product a * w mod q in [0, 2q); constants hoisted. */
inline __m256i
mulModLazyVec(__m256i x, __m256i wv, __m256i wvh, __m256i wsv,
              __m256i wsvh, __m256i qv, __m256i qvh)
{
    __m256i xh = _mm256_srli_epi64(x, 32);
    __m256i hi = mulhi64(x, xh, wsv, wsvh);
    __m256i hih = _mm256_srli_epi64(hi, 32);
    return _mm256_sub_epi64(mullo64(x, xh, wv, wvh),
                            mullo64(hi, hih, qv, qvh));
}

/** Per-modulus constants for the vector Barrett reduction. */
struct BarrettVec
{
    __m256i qv;
    __m256i qvh;
    __m256i muv;
    __m256i muvh;
    __m128i shr_k1;
    __m128i shl_65k;
    __m128i shr_k1p;
    __m128i shl_63k;

    explicit BarrettVec(const Modulus& m)
        : qv(_mm256_set1_epi64x(static_cast<i64>(m.value()))),
          qvh(_mm256_srli_epi64(qv, 32)),
          muv(_mm256_set1_epi64x(static_cast<i64>(m.barrettMu()))),
          muvh(_mm256_srli_epi64(muv, 32)),
          shr_k1(_mm_cvtsi32_si128(m.bits() - 1)),
          shl_65k(_mm_cvtsi32_si128(65 - m.bits())),
          shr_k1p(_mm_cvtsi32_si128(m.bits() + 1)),
          shl_63k(_mm_cvtsi32_si128(63 - m.bits()))
    {
    }

    __m256i
    reduce(__m256i hi, __m256i lo) const
    {
        __m256i xs = _mm256_or_si256(_mm256_sll_epi64(hi, shl_65k),
                                     _mm256_srl_epi64(lo, shr_k1));
        __m256i xsh = _mm256_srli_epi64(xs, 32);
        __m256i thi = mulhi64(xs, xsh, muv, muvh);
        __m256i tlo = mullo64(xs, xsh, muv, muvh);
        __m256i qest = _mm256_or_si256(_mm256_sll_epi64(thi, shl_63k),
                                       _mm256_srl_epi64(tlo, shr_k1p));
        __m256i qesth = _mm256_srli_epi64(qest, 32);
        __m256i r =
            _mm256_sub_epi64(lo, mullo64(qest, qesth, qv, qvh));
        return csub(csub(r, qv), qv);
    }

    __m256i
    mulMod(__m256i x, __m256i xh, __m256i y) const
    {
        __m256i yh = _mm256_srli_epi64(y, 32);
        __m256i hi = mulhi64(x, xh, y, yh);
        __m256i lo = mullo64(x, xh, y, yh);
        return reduce(hi, lo);
    }
};

void
addSpanAvx2(u64* a, const u64* b, size_t n, u64 q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q));
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i s = _mm256_add_epi64(loadu(a + i), loadu(b + i));
        storeu(a + i, csub(s, qv));
    }
    for (; i < n; ++i) {
        u64 s = a[i] + b[i];
        a[i] = s >= q ? s - q : s;
    }
}

void
subSpanAvx2(u64* a, const u64* b, size_t n, u64 q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q));
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i s = _mm256_sub_epi64(
            _mm256_add_epi64(loadu(a + i), qv), loadu(b + i));
        storeu(a + i, csub(s, qv));
    }
    for (; i < n; ++i)
        a[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
}

void
negSpanAvx2(u64* a, size_t n, u64 q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q));
    const __m256i zero = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i x = loadu(a + i);
        __m256i is_zero = _mm256_cmpeq_epi64(x, zero);
        storeu(a + i, _mm256_andnot_si256(
                          is_zero, _mm256_sub_epi64(qv, x)));
    }
    for (; i < n; ++i)
        a[i] = a[i] == 0 ? 0 : q - a[i];
}

void
mulSpanAvx2(u64* a, const u64* b, size_t n, const Modulus& m)
{
    const BarrettVec bv(m);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i x = loadu(a + i);
        __m256i xh = _mm256_srli_epi64(x, 32);
        storeu(a + i, bv.mulMod(x, xh, loadu(b + i)));
    }
    for (; i < n; ++i)
        a[i] = m.mulMod(a[i], b[i]);
}

void
macSpanAvx2(u64* acc, const u64* x, const u64* y, size_t n,
            const Modulus& m)
{
    const BarrettVec bv(m);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i xv = loadu(x + i);
        __m256i xvh = _mm256_srli_epi64(xv, 32);
        __m256i p = bv.mulMod(xv, xvh, loadu(y + i));
        __m256i s = _mm256_add_epi64(loadu(acc + i), p);
        storeu(acc + i, csub(s, bv.qv));
    }
    for (; i < n; ++i)
        acc[i] = m.addMod(acc[i], m.mulMod(x[i], y[i]));
}

void
macPairSpanAvx2(u64* acc0, u64* acc1, const u64* x, const u64* y0,
                const u64* y1, size_t n, const Modulus& m)
{
    const BarrettVec bv(m);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i xv = loadu(x + i);
        __m256i xvh = _mm256_srli_epi64(xv, 32);
        __m256i p0 = bv.mulMod(xv, xvh, loadu(y0 + i));
        __m256i p1 = bv.mulMod(xv, xvh, loadu(y1 + i));
        __m256i s0 = _mm256_add_epi64(loadu(acc0 + i), p0);
        __m256i s1 = _mm256_add_epi64(loadu(acc1 + i), p1);
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
mulScalarSpanAvx2(u64* a, size_t n, u64 w, u64 w_shoup, u64 q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q));
    const __m256i qvh = _mm256_srli_epi64(qv, 32);
    const __m256i wv = _mm256_set1_epi64x(static_cast<i64>(w));
    const __m256i wvh = _mm256_srli_epi64(wv, 32);
    const __m256i wsv = _mm256_set1_epi64x(static_cast<i64>(w_shoup));
    const __m256i wsvh = _mm256_srli_epi64(wsv, 32);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i r = mulModLazyVec(loadu(a + i), wv, wvh, wsv, wsvh,
                                  qv, qvh);
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
subMulScalarSpanAvx2(u64* a, const u64* c, size_t n, u64 w,
                     u64 w_shoup, u64 q)
{
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q));
    const __m256i qvh = _mm256_srli_epi64(qv, 32);
    const __m256i wv = _mm256_set1_epi64x(static_cast<i64>(w));
    const __m256i wvh = _mm256_srli_epi64(wv, 32);
    const __m256i wsv = _mm256_set1_epi64x(static_cast<i64>(w_shoup));
    const __m256i wsvh = _mm256_srli_epi64(wsv, 32);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i d = _mm256_sub_epi64(
            _mm256_add_epi64(loadu(a + i), qv), loadu(c + i));
        d = csub(d, qv);
        __m256i r = mulModLazyVec(d, wv, wvh, wsv, wsvh, qv, qvh);
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
reduceCenteredSpanAvx2(u64* dst, const i64* src, size_t n,
                       const Modulus& m)
{
    if (m.bits() < 33) {
        for (size_t i = 0; i < n; ++i)
            dst[i] = m.reduceI64(src[i]);
        return;
    }
    const BarrettVec bv(m);
    const __m256i zero = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i x = loadu(src + i);
        __m256i neg = _mm256_cmpgt_epi64(zero, x);
        // |x| via two's complement: (x ^ mask) - mask.
        __m256i ax = _mm256_sub_epi64(_mm256_xor_si256(x, neg), neg);
        __m256i r = bv.reduce(zero, ax);
        __m256i is_zero = _mm256_cmpeq_epi64(r, zero);
        __m256i rneg = _mm256_andnot_si256(
            is_zero, _mm256_sub_epi64(bv.qv, r));
        storeu(dst + i, _mm256_blendv_epi8(r, rneg, neg));
    }
    for (; i < n; ++i)
        dst[i] = m.reduceI64(src[i]);
}

void
baseConvSpanAvx2(u64* dst, const u64* const* y, size_t n,
                 const BaseConvRow& row)
{
    const u64 t = row.t;
    const u64 two_t = 2 * t;
    const __m256i tv = _mm256_set1_epi64x(static_cast<i64>(t));
    const __m256i tvh = _mm256_srli_epi64(tv, 32);
    const __m256i t2v = _mm256_set1_epi64x(static_cast<i64>(two_t));
    const __m256i offv = _mm256_set1_epi64x(static_cast<i64>(row.offset));
    size_t x = 0;
    for (; x + 4 <= n; x += 4) {
        __m256i acc = offv;
        for (size_t i = 0; i < row.k; ++i) {
            __m256i wv =
                _mm256_set1_epi64x(static_cast<i64>(row.hat[i]));
            __m256i wsv =
                _mm256_set1_epi64x(static_cast<i64>(row.hatShoup[i]));
            __m256i r = mulModLazyVec(loadu(y[i] + x), wv,
                                      _mm256_srli_epi64(wv, 32), wsv,
                                      _mm256_srli_epi64(wsv, 32), tv, tvh);
            acc = csub(_mm256_add_epi64(acc, r), t2v);
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

/** Scalar butterfly pass for the short strides (t < 4). */
inline void
forwardStageScalar(u64* a, const u64* W, const u64* WS, size_t m,
                   size_t t, u64 q, u64 two_q)
{
    for (size_t i = 0; i < m; ++i) {
        size_t j1 = 2 * i * t;
        u64 w = W[m + i];
        u64 ws = WS[m + i];
        for (size_t j = j1; j < j1 + t; ++j) {
            u64 u = a[j];
            if (u >= two_q)
                u -= two_q;
            u64 hi = static_cast<u64>(
                (static_cast<u128>(a[j + t]) * ws) >> 64);
            u64 v = a[j + t] * w - hi * q;
            a[j] = u + v;
            a[j + t] = u - v + two_q;
        }
    }
}

void
nttForwardAvx2(const NttTable& tb, u64* a)
{
    const size_t nn = tb.n();
    const u64 q = tb.modulus().value();
    const u64 two_q = 2 * q;
    if (nn < 8) {
        scalarKernels().nttForward(tb, a);
        return;
    }
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q));
    const __m256i qvh = _mm256_srli_epi64(qv, 32);
    const __m256i tqv = _mm256_set1_epi64x(static_cast<i64>(two_q));
    const u64* W = tb.fwdW();
    const u64* WS = tb.fwdWShoup();

    size_t t = nn;
    size_t m = 1;
    for (; m < nn; m <<= 1) {
        t >>= 1;
        if (t < 4)
            break;
        for (size_t i = 0; i < m; ++i) {
            size_t j1 = 2 * i * t;
            const __m256i wv =
                _mm256_set1_epi64x(static_cast<i64>(W[m + i]));
            const __m256i wvh = _mm256_srli_epi64(wv, 32);
            const __m256i wsv =
                _mm256_set1_epi64x(static_cast<i64>(WS[m + i]));
            const __m256i wsvh = _mm256_srli_epi64(wsv, 32);
            for (size_t j = j1; j < j1 + t; j += 4) {
                __m256i u = csub(loadu(a + j), tqv);
                __m256i v = mulModLazyVec(loadu(a + j + t), wv, wvh,
                                          wsv, wsvh, qv, qvh);
                storeu(a + j, _mm256_add_epi64(u, v));
                storeu(a + j + t,
                       _mm256_add_epi64(_mm256_sub_epi64(u, v), tqv));
            }
        }
    }
    // Short strides (t = 2, 1) stay scalar on AVX2.
    for (; m < nn; m <<= 1, t >>= 1)
        forwardStageScalar(a, W, WS, m, t, q, two_q);
    for (size_t j = 0; j < nn; j += 4) {
        __m256i x = csub(loadu(a + j), tqv);
        storeu(a + j, csub(x, qv));
    }
}

void
nttInverseAvx2(const NttTable& tb, u64* a)
{
    const size_t nn = tb.n();
    const u64 q = tb.modulus().value();
    const u64 two_q = 2 * q;
    if (nn < 8) {
        scalarKernels().nttInverse(tb, a);
        return;
    }
    const __m256i qv = _mm256_set1_epi64x(static_cast<i64>(q));
    const __m256i qvh = _mm256_srli_epi64(qv, 32);
    const __m256i tqv = _mm256_set1_epi64x(static_cast<i64>(two_q));
    const u64* W = tb.invW();
    const u64* WS = tb.invWShoup();

    size_t t = 1;
    size_t m = nn;
    // Short strides (t = 1, 2) scalar.
    for (; m > 1 && t < 4; m >>= 1, t <<= 1) {
        size_t h = m >> 1;
        size_t j1 = 0;
        for (size_t i = 0; i < h; ++i) {
            u64 w = W[h + i];
            u64 ws = WS[h + i];
            for (size_t j = j1; j < j1 + t; ++j) {
                u64 u = a[j];
                u64 v = a[j + t];
                u64 sum = u + v;
                if (sum >= two_q)
                    sum -= two_q;
                a[j] = sum;
                u64 d = u - v + two_q;
                u64 hi = static_cast<u64>(
                    (static_cast<u128>(d) * ws) >> 64);
                a[j + t] = d * w - hi * q;
            }
            j1 += 2 * t;
        }
    }
    for (; m > 1; m >>= 1, t <<= 1) {
        const size_t h = m >> 1;
        size_t j1 = 0;
        for (size_t i = 0; i < h; ++i) {
            const __m256i wv =
                _mm256_set1_epi64x(static_cast<i64>(W[h + i]));
            const __m256i wvh = _mm256_srli_epi64(wv, 32);
            const __m256i wsv =
                _mm256_set1_epi64x(static_cast<i64>(WS[h + i]));
            const __m256i wsvh = _mm256_srli_epi64(wsv, 32);
            for (size_t j = j1; j < j1 + t; j += 4) {
                __m256i u = loadu(a + j);
                __m256i v = loadu(a + j + t);
                __m256i sum = csub(_mm256_add_epi64(u, v), tqv);
                __m256i diff =
                    _mm256_add_epi64(_mm256_sub_epi64(u, v), tqv);
                storeu(a + j, sum);
                storeu(a + j + t,
                       mulModLazyVec(diff, wv, wvh, wsv, wsvh, qv,
                                     qvh));
            }
            j1 += 2 * t;
        }
    }
    const __m256i niv =
        _mm256_set1_epi64x(static_cast<i64>(tb.nInvW()));
    const __m256i nivh = _mm256_srli_epi64(niv, 32);
    const __m256i nisv =
        _mm256_set1_epi64x(static_cast<i64>(tb.nInvWShoup()));
    const __m256i nisvh = _mm256_srli_epi64(nisv, 32);
    for (size_t j = 0; j < nn; j += 4) {
        __m256i x = mulModLazyVec(loadu(a + j), niv, nivh, nisv,
                                  nisvh, qv, qvh);
        storeu(a + j, csub(x, qv));
    }
}

const Kernels avx2_kernels = {
    SimdLevel::Avx2,
    addSpanAvx2,
    subSpanAvx2,
    negSpanAvx2,
    mulSpanAvx2,
    macSpanAvx2,
    macPairSpanAvx2,
    mulScalarSpanAvx2,
    subMulScalarSpanAvx2,
    reduceCenteredSpanAvx2,
    baseConvSpanAvx2,
    nttForwardAvx2,
    nttInverseAvx2,
};

} // namespace

const Kernels&
avx2Kernels()
{
    return avx2_kernels;
}

} // namespace hydra::simd
