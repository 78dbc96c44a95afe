/**
 * @file
 * Scalar kernel set and the dispatch table for the SIMD math backend.
 *
 * The scalar kernels are the bit-exactness oracle: they are the exact
 * loops the math layer ran before vectorization, so a build with
 * HYDRA_SIMD=OFF (or HYDRA_SIMD_LEVEL=scalar) executes the identical
 * instruction stream the pre-SIMD library did.
 */

#include "math/simd/simd.hh"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "common/logging.hh"
#include "math/ntt.hh"

namespace hydra::simd {

// Vector tables, provided by the -mavx* translation units when the
// build compiles them in (HYDRA_SIMD plus compiler support).
#ifdef HYDRA_SIMD_AVX2
const Kernels& avx2Kernels();
#endif
#ifdef HYDRA_SIMD_AVX512
const Kernels& avx512Kernels();
#endif
#ifdef HYDRA_SIMD_AVX512IFMA
const Kernels& avx512IfmaKernels();
#endif

namespace {

/** The strongest SimdLevel enumerator: the top of every clamp. */
constexpr SimdLevel kStrongestLevel = SimdLevel::Avx512Ifma;

/** Harvey lazy product: a * w mod q reduced only into [0, 2q). */
inline u64
mulModLazy(u64 a, u64 w, u64 w_shoup, u64 q)
{
    u64 hi = static_cast<u64>((static_cast<u128>(a) * w_shoup) >> 64);
    return a * w - hi * q;
}

void
addSpanScalar(u64* a, const u64* b, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i) {
        u64 s = a[i] + b[i];
        a[i] = s >= q ? s - q : s;
    }
}

void
subSpanScalar(u64* a, const u64* b, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
}

void
negSpanScalar(u64* a, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = a[i] == 0 ? 0 : q - a[i];
}

void
mulSpanScalar(u64* a, const u64* b, size_t n, const Modulus& m)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = m.mulMod(a[i], b[i]);
}

void
macSpanScalar(u64* acc, const u64* x, const u64* y, size_t n,
              const Modulus& m)
{
    for (size_t i = 0; i < n; ++i)
        acc[i] = m.addMod(acc[i], m.mulMod(x[i], y[i]));
}

void
macPairSpanScalar(u64* acc0, u64* acc1, const u64* x, const u64* y0,
                  const u64* y1, size_t n, const Modulus& m)
{
    for (size_t i = 0; i < n; ++i) {
        u64 xi = x[i];
        acc0[i] = m.addMod(acc0[i], m.mulMod(xi, y0[i]));
        acc1[i] = m.addMod(acc1[i], m.mulMod(xi, y1[i]));
    }
}

void
mulScalarSpanScalar(u64* a, size_t n, u64 w, u64 w_shoup, u64 q)
{
    for (size_t i = 0; i < n; ++i) {
        u64 r = mulModLazy(a[i], w, w_shoup, q);
        a[i] = r >= q ? r - q : r;
    }
}

void
subMulScalarSpanScalar(u64* a, const u64* c, size_t n, u64 w,
                       u64 w_shoup, u64 q)
{
    for (size_t i = 0; i < n; ++i) {
        u64 d = a[i] >= c[i] ? a[i] - c[i] : a[i] + q - c[i];
        u64 r = mulModLazy(d, w, w_shoup, q);
        a[i] = r >= q ? r - q : r;
    }
}

void
reduceCenteredSpanScalar(u64* dst, const i64* src, size_t n,
                         const Modulus& m)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = m.reduceI64(src[i]);
}

void
baseConvSpanScalar(u64* dst, const u64* const* y, size_t n,
                   const BaseConvRow& row)
{
    const u64 t = row.t;
    const u64 two_t = 2 * t;
    for (size_t x = 0; x < n; ++x) {
        u64 acc = row.offset;
        for (size_t i = 0; i < row.k; ++i) {
            acc += mulModLazy(y[i][x], row.hat[i], row.hatShoup[i], t);
            acc = acc >= two_t ? acc - two_t : acc;
        }
        dst[x] = acc >= t ? acc - t : acc;
    }
}

void
nttForwardScalar(const NttTable& tb, u64* a)
{
    // Harvey lazy butterflies: array values live in [0, 4q) between
    // stages.  Each butterfly conditionally pulls its top input into
    // [0, 2q), takes the twiddle product lazily in [0, 2q), and emits
    // sums/differences in [0, 4q) with no per-element reduction.  One
    // normalization pass at the end restores canonical [0, q) values,
    // so outputs are bit-identical to the fully-reduced form.
    const size_t nn = tb.n();
    const u64 q = tb.modulus().value();
    const u64 two_q = 2 * q;
    const u64* W = tb.fwdW();
    const u64* WS = tb.fwdWShoup();
    size_t t = nn;
    for (size_t m = 1; m < nn; m <<= 1) {
        t >>= 1;
        for (size_t i = 0; i < m; ++i) {
            size_t j1 = 2 * i * t;
            u64 w = W[m + i];
            u64 ws = WS[m + i];
            for (size_t j = j1; j < j1 + t; ++j) {
                u64 u = a[j];
                if (u >= two_q)
                    u -= two_q;
                u64 v = mulModLazy(a[j + t], w, ws, q);
                a[j] = u + v;
                a[j + t] = u - v + two_q;
            }
        }
    }
    for (size_t j = 0; j < nn; ++j) {
        u64 x = a[j];
        if (x >= two_q)
            x -= two_q;
        if (x >= q)
            x -= q;
        a[j] = x;
    }
}

void
nttInverseScalar(const NttTable& tb, u64* a)
{
    // Lazy Gentleman-Sande: values stay in [0, 2q) across stages (the
    // sum gets one conditional 2q pull-down, the difference is absorbed
    // by the lazy twiddle product).  The final n^-1 scaling reduces to
    // canonical [0, q).
    const size_t nn = tb.n();
    const u64 q = tb.modulus().value();
    const u64 two_q = 2 * q;
    const u64* W = tb.invW();
    const u64* WS = tb.invWShoup();
    size_t t = 1;
    for (size_t m = nn; m > 1; m >>= 1) {
        size_t j1 = 0;
        size_t h = m >> 1;
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
                a[j + t] = mulModLazy(u - v + two_q, w, ws, q);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    u64 ni = tb.nInvW();
    u64 nis = tb.nInvWShoup();
    for (size_t j = 0; j < nn; ++j) {
        u64 x = mulModLazy(a[j], ni, nis, q);
        a[j] = x >= q ? x - q : x;
    }
}

const Kernels scalar_kernels = {
    SimdLevel::Scalar,
    addSpanScalar,
    subSpanScalar,
    negSpanScalar,
    mulSpanScalar,
    macSpanScalar,
    macPairSpanScalar,
    mulScalarSpanScalar,
    subMulScalarSpanScalar,
    reduceCenteredSpanScalar,
    baseConvSpanScalar,
    nttForwardScalar,
    nttInverseScalar,
};

/** Table for `level`, or nullptr when not compiled in. */
const Kernels*
tableFor(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return &scalar_kernels;
      case SimdLevel::Avx2:
#ifdef HYDRA_SIMD_AVX2
        return &avx2Kernels();
#else
        return nullptr;
#endif
      case SimdLevel::Avx512:
#ifdef HYDRA_SIMD_AVX512
        return &avx512Kernels();
#else
        return nullptr;
#endif
      case SimdLevel::Avx512Ifma:
#ifdef HYDRA_SIMD_AVX512IFMA
        return &avx512IfmaKernels();
#else
        return nullptr;
#endif
    }
    return nullptr;
}

std::atomic<const Kernels*> g_active{nullptr};
std::once_flag g_init_flag;

/** Strongest compiled+detected level at or below `cap`. */
const Kernels*
strongestTable(SimdLevel cap)
{
    SimdLevel detected = detectedSimdLevel();
    int best = std::min(static_cast<int>(cap),
                        static_cast<int>(detected));
    for (int l = best; l > 0; --l) {
        const Kernels* table = tableFor(static_cast<SimdLevel>(l));
        if (table != nullptr)
            return table;
    }
    return &scalar_kernels;
}

void
ensureInit()
{
    std::call_once(g_init_flag, [] {
        // Pick the strongest runnable level, then apply the optional
        // HYDRA_SIMD_LEVEL cap.  Asking for a level the process cannot
        // run clamps down (never up) with a warning.
        const Kernels* best = strongestTable(kStrongestLevel);
        SimdLevel want = simdLevelFromEnv(best->level);
        const Kernels* chosen = strongestTable(want);
        if (chosen->level != want) {
            warn("HYDRA_SIMD_LEVEL=%s not available "
                 "(best this process can run: %s)",
                 simdLevelName(want), simdLevelName(chosen->level));
        }
        g_active.store(chosen, std::memory_order_release);
    });
}

} // namespace

const Kernels&
kernels()
{
    const Kernels* k = g_active.load(std::memory_order_acquire);
    if (k == nullptr) {
        ensureInit();
        k = g_active.load(std::memory_order_acquire);
    }
    return *k;
}

const Kernels&
scalarKernels()
{
    return scalar_kernels;
}

SimdLevel
activeLevel()
{
    return kernels().level;
}

SimdLevel
bestAvailableLevel()
{
    return strongestTable(kStrongestLevel)->level;
}

SimdLevel
setLevel(SimdLevel want)
{
    ensureInit();
    const Kernels* chosen = strongestTable(want);
    g_active.store(chosen, std::memory_order_release);
    return chosen->level;
}

} // namespace hydra::simd
