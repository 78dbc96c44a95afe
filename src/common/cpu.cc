#include "common/cpu.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace hydra {

const char*
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::Scalar:
        return "scalar";
      case SimdLevel::Avx2:
        return "avx2";
      case SimdLevel::Avx512:
        return "avx512";
      case SimdLevel::Avx512Ifma:
        return "avx512ifma";
    }
    return "scalar";
}

bool
simdLevelFromName(const char* name, SimdLevel& out)
{
    if (std::strcmp(name, "scalar") == 0) {
        out = SimdLevel::Scalar;
        return true;
    }
    if (std::strcmp(name, "avx2") == 0) {
        out = SimdLevel::Avx2;
        return true;
    }
    if (std::strcmp(name, "avx512") == 0) {
        out = SimdLevel::Avx512;
        return true;
    }
    if (std::strcmp(name, "avx512ifma") == 0) {
        out = SimdLevel::Avx512Ifma;
        return true;
    }
    return false;
}

SimdLevel
detectedSimdLevel()
{
#if defined(__x86_64__) || defined(_M_X64)
    // The kernels use 512-bit integer lanes (F), 64-bit mullo (DQ),
    // byte/word blends (BW) and 128/256-bit tails (VL).
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl")) {
        // The 52-bit tier adds vpmadd52luq/vpmadd52huq.
        if (__builtin_cpu_supports("avx512ifma"))
            return SimdLevel::Avx512Ifma;
        return SimdLevel::Avx512;
    }
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::Avx2;
#endif
    return SimdLevel::Scalar;
}

SimdLevel
simdLevelFromEnv(SimdLevel fallback)
{
    const char* env = std::getenv("HYDRA_SIMD_LEVEL");
    if (env == nullptr || *env == '\0')
        return fallback;
    SimdLevel level;
    if (!simdLevelFromName(env, level)) {
        warn("HYDRA_SIMD_LEVEL='%s' not one of "
             "scalar|avx2|avx512|avx512ifma; "
             "using %s", env, simdLevelName(fallback));
        return fallback;
    }
    return level;
}

} // namespace hydra
