/**
 * @file
 * Runtime-dispatched SIMD kernel set for the FHE hot path.
 *
 * Every inner loop the CKKS evaluator spends its time in -- Harvey
 * lazy-reduction NTT butterflies, Barrett modular span arithmetic, the
 * keyswitch multiply-accumulate, and the centered fast base conversion
 * of ModUp/ModDown -- is routed through one process-wide table of
 * kernel function pointers.  Four tables exist:
 *
 *   scalar     -- always compiled; the bit-exactness oracle.  Identical
 *                 arithmetic to the pre-SIMD code paths.
 *   avx2       -- 4 x u64 lanes (compiled when HYDRA_SIMD is ON and the
 *                 compiler supports -mavx2).
 *   avx512     -- 8 x u64 lanes, needs F+DQ+BW+VL (vpmullq, vpminuq,
 *                 64-bit lane permutes for the short-stride NTT stages).
 *   avx512ifma -- the avx512 table with its multiplying kernels (NTTs,
 *                 Barrett and Shoup spans, base conversion) rebuilt on
 *                 the 52-bit vpmadd52luq/vpmadd52huq products.  A call
 *                 takes the 52-bit path only when every modulus it
 *                 touches is below 2^50 (fits52); otherwise it runs
 *                 the avx512 kernel.
 *
 * The active table is chosen once per process: the strongest level that
 * is both compiled in and reported by cpuid, optionally capped by the
 * HYDRA_SIMD_LEVEL environment variable ("scalar" | "avx2" | "avx512" |
 * "avx512ifma") for A/B runs and CI equivalence checks.  Tests may
 * force a level at runtime with setLevel().
 *
 * The scalar, avx2 and avx512 kernels compute the exact same
 * per-element integer expressions (same lazy [0,2q)/[0,4q) bounds in
 * the NTT, same Barrett quotient estimate, same correction count).  The
 * 52-bit kernels keep those bounds but may take a lazy intermediate
 * one q higher (a 52-bit Shoup quotient can sit one below the 64-bit
 * one); every kernel output is canonical, so outputs are bit-identical
 * at every level -- vectorization changes execution order across
 * elements, never the value any output element takes.
 */

#ifndef HYDRA_MATH_SIMD_SIMD_HH
#define HYDRA_MATH_SIMD_SIMD_HH

#include <cstddef>

#include "common/cpu.hh"
#include "math/modarith.hh"

namespace hydra {

class NttTable;

namespace simd {

/**
 * Whether modulus q takes the 52-bit IFMA kernels: q < 2^50, so the lazy
 * NTT values (< 4q) and every Barrett/Shoup operand fit the 52-bit
 * vpmadd52 multiplier.  The 52-bit Shoup quotient of w is the 64-bit
 * one shifted right 12 (floor(floor(w 2^64 / q) / 2^12) = floor(w 2^52
 * / q)), so no modulus carries extra tables.
 */
inline bool
fits52(u64 q)
{
    return q < (u64{1} << 50);
}

/**
 * Constants of one fast-base-conversion row: k source spans into one
 * target prime t.  See baseConvSpan.
 */
struct BaseConvRow
{
    size_t k;            ///< source span count
    u64 t;               ///< target modulus
    u64 offset;          ///< canonical constant term mod t
    const u64* hat;      ///< per-source multipliers, canonical mod t
    const u64* hatShoup; ///< Shoup quotients of hat
    /**
     * fits52(t) and every source span holds canonical residues of a
     * prime that fits52 (so every y[i][x] < 2^50): the row may take
     * the 52-bit kernel.
     */
    bool fits52 = false;
};

/**
 * One dispatch level's kernel set.  Span kernels take canonical [0, q)
 * inputs and produce canonical outputs; n is the element count and may
 * be any size (vector bodies handle the tail scalar).
 */
struct Kernels
{
    SimdLevel level;

    /** a[i] = (a[i] + b[i]) mod q. */
    void (*addSpan)(u64* a, const u64* b, size_t n, u64 q);
    /** a[i] = (a[i] - b[i]) mod q. */
    void (*subSpan)(u64* a, const u64* b, size_t n, u64 q);
    /** a[i] = (-a[i]) mod q. */
    void (*negSpan)(u64* a, size_t n, u64 q);
    /** a[i] = (a[i] * b[i]) mod q (Barrett). */
    void (*mulSpan)(u64* a, const u64* b, size_t n, const Modulus& m);
    /** acc[i] = (acc[i] + x[i] * y[i]) mod q. */
    void (*macSpan)(u64* acc, const u64* x, const u64* y, size_t n,
                    const Modulus& m);
    /**
     * Fused keyswitch MAC: acc0[i] += x[i]*y0[i], acc1[i] += x[i]*y1[i]
     * (mod q).  Shares the decomposition of x across both products --
     * the dominant loop of Evaluator::keyMac.
     */
    void (*macPairSpan)(u64* acc0, u64* acc1, const u64* x,
                        const u64* y0, const u64* y1, size_t n,
                        const Modulus& m);
    /** a[i] = (a[i] * w) mod q via the Shoup quotient w_shoup. */
    void (*mulScalarSpan)(u64* a, size_t n, u64 w, u64 w_shoup, u64 q);
    /** a[i] = ((a[i] - c[i]) * w) mod q (rescale/ModDown combine). */
    void (*subMulScalarSpan)(u64* a, const u64* c, size_t n, u64 w,
                             u64 w_shoup, u64 q);
    /** dst[i] = src[i] mod q lifted to [0, q) (signed coefficients). */
    void (*reduceCenteredSpan)(u64* dst, const i64* src, size_t n,
                               const Modulus& m);
    /**
     * Base-conversion row: dst[x] = (offset + sum_i y[i][x] * hat[i])
     * mod t.  The y[i] may hold any u64 (the lazy Shoup product lands
     * in [0, 2t) for every input) unless row.fits52 promises less; the
     * sum stays in [0, 2t) until the end.
     * BaseConverter feeds it shifted residues so the row evaluates the
     * centered fast base conversion.
     */
    void (*baseConvSpan)(u64* dst, const u64* const* y, size_t n,
                         const BaseConvRow& row);

    /** In-place forward NTT (lazy Harvey butterflies). */
    void (*nttForward)(const NttTable& t, u64* a);
    /** In-place inverse NTT. */
    void (*nttInverse)(const NttTable& t, u64* a);
};

/** The active kernel table (initialized on first use). */
const Kernels& kernels();

/** The scalar oracle table, regardless of the active level. */
const Kernels& scalarKernels();

/** Level of the active table. */
SimdLevel activeLevel();

/**
 * Strongest level this process can actually run: compiled in AND
 * supported by the host CPU (before any HYDRA_SIMD_LEVEL cap).
 */
SimdLevel bestAvailableLevel();

/**
 * Force a dispatch level (clamped to bestAvailableLevel); returns the
 * level actually applied.  Intended for tests and A/B benches; safe to
 * call at any time -- kernels at every level are bit-identical, so
 * in-flight spans finishing on the old table stay correct.
 */
SimdLevel setLevel(SimdLevel want);

} // namespace simd
} // namespace hydra

#endif // HYDRA_MATH_SIMD_SIMD_HH
