/**
 * @file
 * CPU SIMD capability detection for the runtime-dispatched math kernels.
 *
 * The math layer ships up to four kernel sets (scalar, AVX2, AVX-512,
 * AVX-512 IFMA); which one actually runs is decided once per process
 * from three inputs:
 *
 *   1. what this binary was compiled with (HYDRA_SIMD cmake option),
 *   2. what the host CPU reports (cpuid),
 *   3. an optional HYDRA_SIMD_LEVEL environment cap ("scalar", "avx2",
 *      "avx512", "avx512ifma") for A/B comparisons and CI equivalence
 *      runs.
 *
 * Detection lives in common so non-math layers (benches, CLIs) can
 * report the active level without linking the kernel tables.
 */

#ifndef HYDRA_COMMON_CPU_HH
#define HYDRA_COMMON_CPU_HH

namespace hydra {

/** SIMD instruction-set tiers, ordered weakest to strongest. */
enum class SimdLevel
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
    Avx512Ifma = 3,
};

/** Human-readable name: "scalar", "avx2", "avx512" or "avx512ifma". */
const char* simdLevelName(SimdLevel level);

/**
 * Parse a level name (as accepted in HYDRA_SIMD_LEVEL).  Returns true
 * and stores the level on success; unrecognized strings return false.
 */
bool simdLevelFromName(const char* name, SimdLevel& out);

/**
 * Strongest level the host CPU supports (cpuid), independent of what
 * this binary was compiled with.  AVX-512 requires the F+DQ+VL+BW
 * subsets used by the kernels; AVX-512 IFMA additionally requires
 * avx512ifma (vpmadd52luq/vpmadd52huq).
 */
SimdLevel detectedSimdLevel();

/**
 * The HYDRA_SIMD_LEVEL environment cap, or the given fallback when the
 * variable is unset.  Unrecognized values log a warning and return the
 * fallback.
 */
SimdLevel simdLevelFromEnv(SimdLevel fallback);

} // namespace hydra

#endif // HYDRA_COMMON_CPU_HH
