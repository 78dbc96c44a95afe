/**
 * @file
 * Lazy NTT loops shared by the two AVX-512 kernel tables (private to
 * simd_avx512.cc and simd_avx512ifma.cc, both compiled with AVX-512
 * flags; everything here has internal linkage so each table gets code
 * built for its own ISA).
 *
 * The loops are the Harvey lazy butterflies of the scalar oracle: the
 * forward transform keeps values in [0, 4q) between stages, the inverse
 * in [0, 2q), and a final pass restores canonical [0, q).  The tables
 * differ only in how they form the lazy twiddle product, so the loops
 * take it as a multiplier type Mul with
 *
 *   Mul::Twiddle twiddle(__m512i w, __m512i w_shoup) const;
 *   __m512i mul(__m512i x, const Mul::Twiddle& tw) const;
 *
 * twiddle() prepares a per-lane twiddle and its 64-bit Shoup quotient
 * once per block; mul() returns x * w mod q in [0, 2q) for x < 4q.
 *
 * NTT stages with butterfly offset t >= 8 vectorize directly (all
 * lanes share one broadcast twiddle).  The short-stride stages
 * (t = 4, 2, 1) process 16-element tiles instead: two zmm loads are
 * transposed into u/v lane vectors with vpermi2q, the twiddles -- which
 * are contiguous in the bit-reversed tables -- are splat per block, and
 * the results transposed back.  This keeps every stage of the
 * transform vectorized.
 */

#ifndef HYDRA_MATH_SIMD_SIMD_AVX512_NTT_HH
#define HYDRA_MATH_SIMD_SIMD_AVX512_NTT_HH

// GCC 12 reports -Wmaybe-uninitialized / -Wuninitialized inside
// avx512fintrin.h, at the _mm512_undefined_epi32() that intrinsics such
// as _mm512_srli_epi64 and _mm512_min_epu64 expand to (GCC bug 105593).
// The pragmas cover the intrinsic header only, so project code in the
// AVX-512 translation units still gets both warnings.
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
#include "math/simd/simd.hh"

namespace hydra::simd {
namespace {

inline __m512i
loadu(const void* p)
{
    return _mm512_loadu_si512(p);
}

inline void
storeu(void* p, __m512i v)
{
    _mm512_storeu_si512(p, v);
}

inline __m512i
splat(u64 x)
{
    return _mm512_set1_epi64(static_cast<i64>(x));
}

/** x - q if x >= q else x (unsigned); the Barrett/lazy correction. */
inline __m512i
csub(__m512i x, __m512i q)
{
    return _mm512_min_epu64(x, _mm512_sub_epi64(x, q));
}

/**
 * Index patterns for the short-stride NTT stages: a 16-element tile
 * (two zmm registers z0/z1) is transposed into the butterfly-top (u)
 * and butterfly-bottom (v) operand vectors and back.  Patterns index
 * the 16-lane concatenation accepted by vpermi2q.
 */
struct TilePerm
{
    __m512i load_u, load_v;   ///< tile -> u/v operand vectors
    __m512i store_z0, store_z1; ///< (u', v') -> tile halves
    __m512i tw_splat;         ///< contiguous twiddles -> per-lane
    bool splat;               ///< whether tw_splat is needed (t > 1)
};

inline __m512i
setrIdx(long long a, long long b, long long c, long long d,
        long long e, long long f, long long g, long long h)
{
    return _mm512_setr_epi64(a, b, c, d, e, f, g, h);
}

/** Patterns for butterfly offset t in {4, 2, 1}. */
inline TilePerm
tilePerm(size_t t)
{
    TilePerm p;
    if (t == 4) {
        p.load_u = setrIdx(0, 1, 2, 3, 8, 9, 10, 11);
        p.load_v = setrIdx(4, 5, 6, 7, 12, 13, 14, 15);
        p.store_z0 = setrIdx(0, 1, 2, 3, 8, 9, 10, 11);
        p.store_z1 = setrIdx(4, 5, 6, 7, 12, 13, 14, 15);
        p.tw_splat = setrIdx(0, 0, 0, 0, 1, 1, 1, 1);
        p.splat = true;
    } else if (t == 2) {
        p.load_u = setrIdx(0, 1, 4, 5, 8, 9, 12, 13);
        p.load_v = setrIdx(2, 3, 6, 7, 10, 11, 14, 15);
        p.store_z0 = setrIdx(0, 1, 8, 9, 2, 3, 10, 11);
        p.store_z1 = setrIdx(4, 5, 12, 13, 6, 7, 14, 15);
        p.tw_splat = setrIdx(0, 0, 1, 1, 2, 2, 3, 3);
        p.splat = true;
    } else {
        p.load_u = setrIdx(0, 2, 4, 6, 8, 10, 12, 14);
        p.load_v = setrIdx(1, 3, 5, 7, 9, 11, 13, 15);
        p.store_z0 = setrIdx(0, 8, 1, 9, 2, 10, 3, 11);
        p.store_z1 = setrIdx(4, 12, 5, 13, 6, 14, 7, 15);
        p.tw_splat = _mm512_setzero_si512();
        p.splat = false;
    }
    return p;
}

/** Forward transform of a (n >= 16) with the lazy product of `mul`. */
template <class Mul>
void
nttForwardLazy(const NttTable& tb, u64* a, const Mul& mul)
{
    const size_t nn = tb.n();
    const u64 q = tb.modulus().value();
    const __m512i qv = splat(q);
    const __m512i tqv = splat(2 * q);
    const u64* W = tb.fwdW();
    const u64* WS = tb.fwdWShoup();

    size_t t = nn;
    size_t m = 1;
    // Long strides: every lane of a block shares one twiddle.
    for (; m < nn; m <<= 1) {
        t >>= 1;
        if (t < 8)
            break;
        for (size_t i = 0; i < m; ++i) {
            size_t j1 = 2 * i * t;
            const auto tw = mul.twiddle(splat(W[m + i]), splat(WS[m + i]));
            for (size_t j = j1; j < j1 + t; j += 8) {
                __m512i u = csub(loadu(a + j), tqv);
                __m512i v = mul.mul(loadu(a + j + t), tw);
                storeu(a + j, _mm512_add_epi64(u, v));
                storeu(a + j + t,
                       _mm512_add_epi64(_mm512_sub_epi64(u, v), tqv));
            }
        }
    }
    // Short strides (t = 4, 2, 1): 16-element tile transpose.
    for (; m < nn; m <<= 1, t >>= 1) {
        const TilePerm p = tilePerm(t);
        const size_t blocks_per_tile = 8 / t;
        for (size_t base = 0, blk = 0; base < nn;
             base += 16, blk += blocks_per_tile) {
            __m512i z0 = loadu(a + base);
            __m512i z1 = loadu(a + base + 8);
            __m512i u = _mm512_permutex2var_epi64(z0, p.load_u, z1);
            __m512i v = _mm512_permutex2var_epi64(z0, p.load_v, z1);
            // Twiddles for the tile's blocks are contiguous at
            // W[m + blk]; splat each one across its block's lanes.
            __m512i wv = loadu(W + m + blk);
            __m512i wsv = loadu(WS + m + blk);
            if (p.splat) {
                wv = _mm512_permutexvar_epi64(p.tw_splat, wv);
                wsv = _mm512_permutexvar_epi64(p.tw_splat, wsv);
            }
            u = csub(u, tqv);
            v = mul.mul(v, mul.twiddle(wv, wsv));
            __m512i nu = _mm512_add_epi64(u, v);
            __m512i nv =
                _mm512_add_epi64(_mm512_sub_epi64(u, v), tqv);
            storeu(a + base,
                   _mm512_permutex2var_epi64(nu, p.store_z0, nv));
            storeu(a + base + 8,
                   _mm512_permutex2var_epi64(nu, p.store_z1, nv));
        }
    }
    for (size_t j = 0; j < nn; j += 8) {
        __m512i x = csub(loadu(a + j), tqv);
        storeu(a + j, csub(x, qv));
    }
}

/** Inverse transform of a (n >= 16) with the lazy product of `mul`. */
template <class Mul>
void
nttInverseLazy(const NttTable& tb, u64* a, const Mul& mul)
{
    const size_t nn = tb.n();
    const u64 q = tb.modulus().value();
    const __m512i qv = splat(q);
    const __m512i tqv = splat(2 * q);
    const u64* W = tb.invW();
    const u64* WS = tb.invWShoup();

    size_t t = 1;
    size_t m = nn;
    // Short strides first (t = 1, 2, 4): tile transpose.
    for (; m > 1 && t < 8; m >>= 1, t <<= 1) {
        const size_t h = m >> 1;
        const TilePerm p = tilePerm(t);
        const size_t blocks_per_tile = 8 / t;
        for (size_t base = 0, blk = 0; base < nn;
             base += 16, blk += blocks_per_tile) {
            __m512i z0 = loadu(a + base);
            __m512i z1 = loadu(a + base + 8);
            __m512i u = _mm512_permutex2var_epi64(z0, p.load_u, z1);
            __m512i v = _mm512_permutex2var_epi64(z0, p.load_v, z1);
            __m512i wv = loadu(W + h + blk);
            __m512i wsv = loadu(WS + h + blk);
            if (p.splat) {
                wv = _mm512_permutexvar_epi64(p.tw_splat, wv);
                wsv = _mm512_permutexvar_epi64(p.tw_splat, wsv);
            }
            __m512i sum = csub(_mm512_add_epi64(u, v), tqv);
            __m512i diff =
                _mm512_add_epi64(_mm512_sub_epi64(u, v), tqv);
            __m512i nv = mul.mul(diff, mul.twiddle(wv, wsv));
            storeu(a + base,
                   _mm512_permutex2var_epi64(sum, p.store_z0, nv));
            storeu(a + base + 8,
                   _mm512_permutex2var_epi64(sum, p.store_z1, nv));
        }
    }
    // Long strides: broadcast twiddle per block.
    for (; m > 1; m >>= 1, t <<= 1) {
        const size_t h = m >> 1;
        size_t j1 = 0;
        for (size_t i = 0; i < h; ++i) {
            const auto tw = mul.twiddle(splat(W[h + i]), splat(WS[h + i]));
            for (size_t j = j1; j < j1 + t; j += 8) {
                __m512i u = loadu(a + j);
                __m512i v = loadu(a + j + t);
                __m512i sum = csub(_mm512_add_epi64(u, v), tqv);
                __m512i diff =
                    _mm512_add_epi64(_mm512_sub_epi64(u, v), tqv);
                storeu(a + j, sum);
                storeu(a + j + t, mul.mul(diff, tw));
            }
            j1 += 2 * t;
        }
    }
    const auto ni = mul.twiddle(splat(tb.nInvW()), splat(tb.nInvWShoup()));
    for (size_t j = 0; j < nn; j += 8)
        storeu(a + j, csub(mul.mul(loadu(a + j), ni), qv));
}

} // namespace
} // namespace hydra::simd

#endif // HYDRA_MATH_SIMD_SIMD_AVX512_NTT_HH
