/**
 * @file
 * Shared fixture utilities for CKKS functional tests.
 */

#ifndef HYDRA_TESTS_FHE_TEST_UTIL_HH
#define HYDRA_TESTS_FHE_TEST_UTIL_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/cpu.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "fhe/bootstrap.hh"
#include "fhe/context.hh"
#include "fhe/encoder.hh"
#include "fhe/encryptor.hh"
#include "fhe/evaluator.hh"
#include "fhe/keygen.hh"
#include "math/simd/simd.hh"

namespace hydra::test {

/**
 * Oracle for CkksEncoder::encodeConstant, which writes the NTT form
 * per limb: the constant's coefficients (Re(c) * scale at X^0, Im(c) *
 * scale at X^{n/2}), transformed.
 */
inline Plaintext
constantFromCoefficients(const CkksContext& ctx, cplx c, double scale,
                         size_t levels)
{
    std::vector<i64> coeffs(ctx.n(), 0);
    coeffs[0] = std::llround(c.real() * scale);
    coeffs[ctx.slots()] = std::llround(c.imag() * scale);
    RnsPoly p = RnsPoly::fromSigned(ctx.basis(), levels, 0, coeffs);
    p.toNtt();
    return Plaintext{std::move(p), scale};
}

/** Everything needed to exercise the scheme, wired together. */
struct FheHarness
{
    explicit FheHarness(const CkksParams& params,
                        const std::vector<int>& rotations = {},
                        bool conjugation = true)
        : ctx(params),
          encoder(ctx),
          keygen(ctx),
          sk(keygen.secretKey()),
          pk(keygen.publicKey(sk)),
          relin(keygen.relinKey(sk)),
          galois(keygen.galoisKeys(sk, rotations, conjugation)),
          encryptor(ctx, pk),
          decryptor(ctx, sk),
          eval(ctx, encoder)
    {
        eval.setRelinKey(&relin);
        eval.setGaloisKeys(&galois);
    }

    Ciphertext
    encryptVec(const std::vector<cplx>& v, size_t levels = 0)
    {
        if (levels == 0)
            levels = ctx.levels();
        return encryptor.encrypt(
            encoder.encode(v, ctx.params().scale(), levels));
    }

    std::vector<cplx>
    decryptVec(const Ciphertext& ct)
    {
        return encoder.decode(decryptor.decrypt(ct));
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    SecretKey sk;
    PublicKey pk;
    EvalKey relin;
    GaloisKeys galois;
    Encryptor encryptor;
    Decryptor decryptor;
    Evaluator eval;
};

/** Restore the previous pool size even if an assertion throws. */
struct ThreadCountGuard
{
    explicit ThreadCountGuard(size_t n)
        : saved(ThreadPool::instance().threadCount())
    {
        ThreadPool::instance().setThreadCount(n);
    }

    ~ThreadCountGuard() { ThreadPool::instance().setThreadCount(saved); }

    size_t saved;
};

/**
 * Restore the SIMD dispatch level in force at construction (the
 * startup level, HYDRA_SIMD_LEVEL cap included) even if an assertion
 * throws.
 */
struct SimdLevelGuard
{
    ~SimdLevelGuard() { simd::setLevel(saved); }

    SimdLevel saved = simd::activeLevel();
};

/**
 * Every SIMD dispatch level this process can run, weakest first (scalar
 * always).  Each level above the best one is skipped with a note on
 * stdout, so a run on a host without AVX-512 IFMA shows that its table
 * went untested.
 */
inline std::vector<SimdLevel>
runnableSimdLevels()
{
    std::vector<SimdLevel> out;
    SimdLevel best = simd::bestAvailableLevel();
    for (SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2,
                            SimdLevel::Avx512, SimdLevel::Avx512Ifma}) {
        if (level <= best)
            out.push_back(level);
        else
            std::printf("[   SKIP   ] SIMD level %s: this process runs "
                        "at most %s\n",
                        simdLevelName(level), simdLevelName(best));
    }
    return out;
}

/** Same shape, domain and limb words. */
inline bool
polysIdentical(const RnsPoly& a, const RnsPoly& b)
{
    if (a.limbCount() != b.limbCount() || a.nttForm() != b.nttForm())
        return false;
    for (size_t k = 0; k < a.limbCount(); ++k)
        if (a.limb(k) != b.limb(k))
            return false;
    return true;
}

/** Bit-identical ciphertexts (scale included). */
inline bool
ciphertextsIdentical(const Ciphertext& a, const Ciphertext& b)
{
    return a.scale == b.scale && polysIdentical(a.c0, b.c0) &&
           polysIdentical(a.c1, b.c1);
}

/** FNV-1a over a ciphertext's scale bits and every limb word: a
 *  bit-exact output pin that survives across runs and builds. */
inline uint64_t
ciphertextDigest(const Ciphertext& ct)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&](uint64_t w) {
        for (int b = 0; b < 8; ++b) {
            h ^= (w >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    mix(std::bit_cast<uint64_t>(ct.scale));
    for (const RnsPoly* p : {&ct.c0, &ct.c1}) {
        mix(p->limbCount());
        for (size_t k = 0; k < p->limbCount(); ++k)
            for (size_t i = 0; i < p->n(); ++i)
                mix(p->limbData(k)[i]);
    }
    return h;
}

/** Max |a_i - b_i| over paired entries. */
inline double
maxError(const std::vector<cplx>& a, const std::vector<cplx>& b)
{
    double m = 0.0;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        m = std::max(m, std::abs(a[i] - b[i]));
    return m;
}

/** Deterministic complex test vector with entries in the unit box. */
inline std::vector<cplx>
randomComplexVec(size_t count, uint64_t seed, double magnitude = 1.0)
{
    Rng rng(seed);
    std::vector<cplx> v(count);
    for (auto& x : v)
        x = cplx(rng.uniformReal(-magnitude, magnitude),
                 rng.uniformReal(-magnitude, magnitude));
    return v;
}

inline std::vector<cplx>
randomRealVec(size_t count, uint64_t seed, double magnitude = 1.0)
{
    Rng rng(seed);
    std::vector<cplx> v(count);
    for (auto& x : v)
        x = cplx(rng.uniformReal(-magnitude, magnitude), 0.0);
    return v;
}

} // namespace hydra::test

#endif // HYDRA_TESTS_FHE_TEST_UTIL_HH
