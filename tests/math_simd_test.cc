/**
 * @file
 * Bit-exactness tests for the runtime-dispatched SIMD kernel sets.
 *
 * The scalar table is the oracle: for every dispatch level the host can
 * run, every span kernel and NTT transform must produce bit-identical
 * output on the same input -- including lazy-reduction corner cases
 * (moduli near the 2^62 ceiling, all-(q-1) inputs), both sides of the
 * IFMA table's 2^50 gate, small-n fallback paths, and non-lane-multiple
 * tails.  A final battery checks full evaluator ops end to end at each
 * level against the scalar result.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "fhe_test_util.hh"
#include "math/ntt.hh"
#include "math/primes.hh"
#include "math/rns.hh"
#include "math/simd/simd.hh"

namespace hydra {
namespace {

using test::runnableSimdLevels;
using test::SimdLevelGuard;

/**
 * Bit sizes of the test moduli: below the IFMA table's 2^50 gate (42 is
 * bootstrapTest()'s chain prime size; the 50-bit one is the largest NTT
 * prime below 2^50), just above it (51, and 55 for bootstrapTest()'s
 * special primes), which must take the AVX-512 fallback, and up to the
 * 2^62 ceiling.
 */
const int kModulusBits[] = {30, 42, 45, 50, 51, 55, 59, 61};

/** One NTT-friendly prime per kModulusBits entry; the 61-bit one last. */
std::vector<u64>
testModuli()
{
    std::vector<u64> qs;
    for (int bits : kModulusBits)
        qs.push_back(nttPrimes(4096, bits, 1)[0]);
    return qs;
}

/** Span lengths hitting full vectors, tails, and sub-vector sizes. */
const size_t kSpanSizes[] = {1, 3, 7, 8, 9, 15, 16, 64, 333, 1024};

/** (length, all-(q-1) inputs?) for every kSpanSizes entry. */
std::vector<std::pair<size_t, bool>>
spanCases()
{
    std::vector<std::pair<size_t, bool>> out;
    for (bool top : {false, true})
        for (size_t n : kSpanSizes)
            out.emplace_back(n, top);
    return out;
}

std::vector<u64>
randomCanonical(size_t n, u64 q, u64 seed)
{
    Rng rng(seed);
    std::vector<u64> v(n);
    for (auto& x : v)
        x = rng.uniformU64(q);
    return v;
}

/** n random residues mod q, or all q - 1 (the tightest lazy bounds). */
std::vector<u64>
residues(size_t n, u64 q, bool top, u64 seed)
{
    return top ? std::vector<u64>(n, q - 1) : randomCanonical(n, q, seed);
}

std::vector<i64>
randomSigned(size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<i64> v(n);
    for (auto& x : v) {
        u64 raw = rng.uniformU64(~u64{0} - 1) + 1;
        std::memcpy(&x, &raw, sizeof(x));
        // Avoid INT64_MIN: |x| overflows and reduceI64 is the oracle
        // for representable magnitudes only.
        if (x == std::numeric_limits<i64>::min())
            x += 1;
    }
    return v;
}

/**
 * The first dispatch honours the HYDRA_SIMD_LEVEL cap: it runs the
 * strongest runnable level at or below the cap (the best level when
 * the variable is unset or unrecognized).  Every test that calls
 * setLevel() restores the startup level through SimdLevelGuard.  ctest
 * also runs this case under HYDRA_SIMD_LEVEL=scalar
 * (tests/CMakeLists.txt).
 */
TEST(SimdDispatchTest, EnvCapPicksStartupLevel)
{
    SimdLevel startup = simd::activeLevel();
    SimdLevel best = simd::bestAvailableLevel();
    SimdLevel cap = best;
    const char* env = std::getenv("HYDRA_SIMD_LEVEL");
    bool capped = env != nullptr && simdLevelFromName(env, cap);
    std::printf("[   INFO   ] HYDRA_SIMD_LEVEL=%s, startup level %s\n",
                capped ? env : "(none)", simdLevelName(startup));
    EXPECT_EQ(startup, std::min(cap, best));
    // The name hydrabench stamps as simd_level reads back the cap.
    if (capped && cap <= best) {
        EXPECT_STREQ(simdLevelName(startup), env);
    }
}

TEST(SimdDispatchTest, SetLevelClampsToAvailable)
{
    SimdLevelGuard guard;
    // Logged so a CI run on a host without IFMA is visible as such.
    std::printf("[   INFO   ] SIMD levels: cpuid %s, best runnable %s\n",
                simdLevelName(detectedSimdLevel()),
                simdLevelName(simd::bestAvailableLevel()));
    EXPECT_LE(simd::bestAvailableLevel(), detectedSimdLevel());
    EXPECT_EQ(simd::setLevel(SimdLevel::Scalar), SimdLevel::Scalar);
    EXPECT_EQ(simd::activeLevel(), SimdLevel::Scalar);
    SimdLevel best = simd::setLevel(SimdLevel::Avx512Ifma);
    EXPECT_EQ(best, simd::bestAvailableLevel());
    EXPECT_EQ(simd::kernels().level, best);
}

TEST(SimdDispatchTest, LevelNamesRoundTrip)
{
    for (SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2,
                            SimdLevel::Avx512, SimdLevel::Avx512Ifma}) {
        SimdLevel parsed = SimdLevel::Scalar;
        ASSERT_TRUE(simdLevelFromName(simdLevelName(level), parsed))
            << simdLevelName(level);
        EXPECT_EQ(parsed, level) << simdLevelName(level);
    }
    SimdLevel untouched = SimdLevel::Avx2;
    EXPECT_FALSE(simdLevelFromName("avx512-ifma", untouched));
    EXPECT_EQ(untouched, SimdLevel::Avx2);
}

TEST(SimdDispatchTest, Fits52GatesAtTwoToTheFifty)
{
    const u64 limit = u64{1} << 50;
    EXPECT_TRUE(simd::fits52(limit - 1));
    EXPECT_FALSE(simd::fits52(limit));
    for (int bits : kModulusBits)
        EXPECT_EQ(simd::fits52(nttPrimes(4096, bits, 1)[0]), bits <= 50)
            << bits << "-bit prime";
}

TEST(SimdSpanTest, FuzzAllKernelsMatchScalarOracle)
{
    SimdLevelGuard guard;
    u64 seed = 0x5eed;
    for (SimdLevel level : runnableSimdLevels()) {
        ASSERT_EQ(simd::setLevel(level), level);
        const simd::Kernels& k = simd::kernels();
        const simd::Kernels& oracle = simd::scalarKernels();
        for (u64 qv : testModuli()) {
            Modulus m(qv);
            for (auto [n, top] : spanCases()) {
                std::vector<u64> a = residues(n, qv, top, ++seed);
                std::vector<u64> b = residues(n, qv, top, ++seed);
                std::vector<u64> c = residues(n, qv, top, ++seed);
                u64 w = residues(1, qv, top, ++seed)[0];
                ShoupMul ws(w, m);

                auto check = [&](const char* name, auto&& run) {
                    std::vector<u64> got = a;
                    std::vector<u64> want = a;
                    run(k, got);
                    run(oracle, want);
                    ASSERT_EQ(got, want)
                        << name << " level="
                        << simdLevelName(level) << " q=" << qv
                        << " n=" << n << " top=" << top;
                };

                check("addSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.addSpan(x.data(), b.data(), n, qv);
                      });
                check("subSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.subSpan(x.data(), b.data(), n, qv);
                      });
                check("negSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.negSpan(x.data(), n, qv);
                      });
                check("mulSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.mulSpan(x.data(), b.data(), n, m);
                      });
                check("macSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.macSpan(x.data(), b.data(), c.data(), n, m);
                      });
                check("mulScalarSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.mulScalarSpan(x.data(), n, ws.value(),
                                          ws.shoup(), qv);
                      });
                check("subMulScalarSpan",
                      [&](const simd::Kernels& t, std::vector<u64>& x) {
                          t.subMulScalarSpan(x.data(), b.data(), n,
                                             ws.value(), ws.shoup(),
                                             qv);
                      });

                {
                    std::vector<u64> g0 = a, w0 = a, g1 = b, w1 = b;
                    k.macPairSpan(g0.data(), g1.data(), c.data(),
                                  a.data(), b.data(), n, m);
                    oracle.macPairSpan(w0.data(), w1.data(), c.data(),
                                       a.data(), b.data(), n, m);
                    ASSERT_EQ(g0, w0) << "macPairSpan acc0 q=" << qv;
                    ASSERT_EQ(g1, w1) << "macPairSpan acc1 q=" << qv;
                }
                {
                    std::vector<i64> src = randomSigned(n, ++seed);
                    std::vector<u64> got(n), want(n);
                    k.reduceCenteredSpan(got.data(), src.data(), n, m);
                    oracle.reduceCenteredSpan(want.data(), src.data(),
                                              n, m);
                    ASSERT_EQ(got, want)
                        << "reduceCenteredSpan q=" << qv;
                }
            }
        }
    }
}

TEST(SimdSpanTest, BaseConvMatchesScalarAndExactOracle)
{
    // Rows of 1..5 sources into targets across the modulus range, with
    // source words drawn from the whole u64 range (the kernel's contract)
    // and from canonical residues of a 61-bit prime (what ModUp and
    // ModDown feed it).  Targets below 2^50 also run as fits52 rows,
    // whose sources are canonical below 2^50 (random, then all p - 1).
    // Every level must equal the scalar table, and the scalar table the
    // exact 128-bit sum.
    SimdLevelGuard guard;
    u64 seed = 0xba5e;
    const simd::Kernels& oracle = simd::scalarKernels();
    const u64 p61 = testModuli().back();
    const u64 p50 = nttPrimes(4096, 50, 1)[0];
    for (SimdLevel level : runnableSimdLevels()) {
        ASSERT_EQ(simd::setLevel(level), level);
        const simd::Kernels& k = simd::kernels();
        for (u64 tv : testModuli()) {
            Modulus t(tv);
            for (size_t srcs = 1; srcs <= 5; ++srcs) {
                for (auto [n, narrow] : spanCases()) {
                    if (narrow && !simd::fits52(tv))
                        continue;
                    std::vector<u64> hat = randomCanonical(srcs, tv, ++seed);
                    std::vector<u64> hat_shoup(srcs);
                    for (size_t i = 0; i < srcs; ++i)
                        hat_shoup[i] = ShoupMul(hat[i], t).shoup();
                    simd::BaseConvRow row{srcs, tv,
                                          randomCanonical(1, tv, ++seed)[0],
                                          hat.data(), hat_shoup.data(),
                                          narrow};
                    std::vector<std::vector<u64>> y(srcs);
                    std::vector<const u64*> yp(srcs);
                    for (size_t i = 0; i < srcs; ++i) {
                        if (narrow)
                            y[i] = residues(n, p50, i % 2, ++seed);
                        else
                            y[i] = (i % 2) ? randomCanonical(n, p61, ++seed)
                                           : randomCanonical(n, ~u64{0},
                                                             ++seed);
                        yp[i] = y[i].data();
                    }
                    std::vector<u64> got(n), want(n);
                    k.baseConvSpan(got.data(), yp.data(), n, row);
                    oracle.baseConvSpan(want.data(), yp.data(), n, row);
                    ASSERT_EQ(got, want)
                        << "baseConvSpan level=" << simdLevelName(level)
                        << " t=" << tv << " k=" << srcs << " n=" << n
                        << " fits52=" << narrow;
                    for (size_t x = 0; x < n; ++x) {
                        u128 sum = row.offset;
                        for (size_t i = 0; i < srcs; ++i)
                            sum += static_cast<u128>(y[i][x]) * hat[i] % tv;
                        ASSERT_EQ(want[x], static_cast<u64>(sum % tv))
                            << "t=" << tv << " k=" << srcs << " x=" << x;
                    }
                }
            }
        }
    }
}

TEST(SimdSpanTest, BaseConverterMatchesScalarInBootstrapShapes)
{
    // bootstrapTest()'s shapes, 42-bit chain primes at n = 2^10, with
    // 55-bit special primes so that both sides of the 2^50 gate run.
    // ModUp converts a digit of chain primes into another chain prime
    // (42 -> 42, a fits52 row) and into the special primes (42 -> 55);
    // ModDown converts the special primes back (55 -> 42).  The last two
    // take the AVX-512 fallback at the IFMA level.  Inputs are random
    // residues, then all q - 1.
    SimdLevelGuard guard;
    const size_t n = 1024;
    std::vector<Modulus> mods;
    for (u64 q : nttPrimes(n, 42, 6))
        mods.emplace_back(q);
    for (u64 p : nttPrimes(n, 55, 2))
        mods.emplace_back(p);
    struct Shape
    {
        size_t begin, end, target;
    };
    const Shape shapes[] = {{0, 5, 5}, {0, 5, 6}, {0, 5, 7},
                            {6, 8, 0}, {6, 8, 5}};

    std::vector<std::vector<u64>> want;
    for (SimdLevel level : runnableSimdLevels()) {
        ASSERT_EQ(simd::setLevel(level), level);
        size_t c = 0;
        u64 seed = 0xc0de;
        for (const Shape& sh : shapes) {
            BaseConverter conv(mods, sh.begin, sh.end);
            for (bool top : {false, true}) {
                std::vector<std::vector<u64>> w(conv.size());
                std::vector<const u64*> wp(conv.size());
                for (size_t i = 0; i < conv.size(); ++i) {
                    u64 p = mods[sh.begin + i].value();
                    w[i] = residues(n, p, top, ++seed);
                    conv.prepareSource(w[i].data(), w[i].data(), i, n);
                    wp[i] = w[i].data();
                }
                std::vector<u64> dst(n);
                conv.convert(dst.data(), wp.data(), sh.target, n);
                if (level == SimdLevel::Scalar) {
                    want.push_back(dst);
                    continue;
                }
                ASSERT_EQ(dst, want[c++])
                    << "level=" << simdLevelName(level) << " sources ["
                    << sh.begin << ", " << sh.end << ") target "
                    << sh.target << " top=" << top;
            }
        }
    }
}

TEST(SimdNttTest, TransformsMatchScalarAndRoundTrip)
{
    SimdLevelGuard guard;
    u64 seed = 0xabcd;
    for (SimdLevel level : runnableSimdLevels()) {
        ASSERT_EQ(simd::setLevel(level), level);
        const simd::Kernels& k = simd::kernels();
        const simd::Kernels& oracle = simd::scalarKernels();
        // n = 4 and 8 exercise the small-n scalar fallbacks, 16 the
        // tile-transposed short strides alone, larger sizes both loop
        // families plus odd/even log2(n).  Inputs are random residues,
        // then all q - 1.
        for (size_t n : {size_t{4}, size_t{8}, size_t{16}, size_t{32},
                         size_t{1024}, size_t{4096}}) {
            for (int bits : {42, 45, 50, 51, 55, 59, 61}) {
                for (bool top : {false, true}) {
                    Modulus q(nttPrimes(n, bits, 1)[0]);
                    NttTable table(n, q);
                    std::vector<u64> input =
                        residues(n, q.value(), top, ++seed);

                    std::vector<u64> fwd = input;
                    k.nttForward(table, fwd.data());
                    std::vector<u64> want = input;
                    oracle.nttForward(table, want.data());
                    ASSERT_EQ(fwd, want)
                        << "forward n=" << n << " bits=" << bits
                        << " top=" << top
                        << " level=" << simdLevelName(level);

                    std::vector<u64> inv = fwd;
                    k.nttInverse(table, inv.data());
                    ASSERT_EQ(inv, input)
                        << "roundtrip n=" << n << " bits=" << bits
                        << " top=" << top
                        << " level=" << simdLevelName(level);

                    std::vector<u64> inv_want = fwd;
                    oracle.nttInverse(table, inv_want.data());
                    ASSERT_EQ(inv, inv_want);

                    // The inverse of all q - 1 (evaluation domain).
                    inv = input;
                    inv_want = input;
                    k.nttInverse(table, inv.data());
                    oracle.nttInverse(table, inv_want.data());
                    ASSERT_EQ(inv, inv_want)
                        << "inverse n=" << n << " bits=" << bits
                        << " top=" << top
                        << " level=" << simdLevelName(level);
                }
            }
        }
    }
}

/** All limbs of two polynomials byte-identical. */
void
expectPolyEq(const RnsPoly& a, const RnsPoly& b, const char* what)
{
    ASSERT_EQ(a.limbCount(), b.limbCount()) << what;
    for (size_t kk = 0; kk < a.limbCount(); ++kk)
        ASSERT_EQ(std::memcmp(a.limbData(kk), b.limbData(kk),
                              a.n() * sizeof(u64)),
                  0)
            << what << " limb " << kk;
}

/** Every evaluator op over `params` is bit-identical at each level. */
void
checkOpsAcrossLevels(const CkksParams& params)
{
    SimdLevelGuard guard;
    test::FheHarness h(params, {1, 2, 5});
    std::vector<cplx> va = test::randomComplexVec(h.ctx.slots(), 7);
    std::vector<cplx> vb = test::randomComplexVec(h.ctx.slots(), 8);
    Ciphertext ca = h.encryptVec(va);
    Ciphertext cb = h.encryptVec(vb);
    Plaintext pt = h.encoder.encode(vb, h.ctx.params().scale(),
                                    h.ctx.levels());

    // One pass per level over the same inputs; every output ciphertext
    // must match the scalar pass bit for bit.
    struct Outputs
    {
        Ciphertext add, mul_plain, mac, cmult, rot, hoisted;
    };
    std::vector<std::pair<SimdLevel, Outputs>> runs;
    for (SimdLevel level : runnableSimdLevels()) {
        ASSERT_EQ(simd::setLevel(level), level);
        Outputs o;
        o.add = h.eval.add(ca, cb);
        o.mul_plain = h.eval.mulPlain(ca, pt);
        o.mac = ca;
        o.mac.scale *= pt.scale;
        h.eval.addMulPlain(o.mac, cb, pt);
        o.cmult = h.eval.rescale(h.eval.mulRelin(ca, cb));
        o.rot = h.eval.rotate(ca, 1);
        o.hoisted = h.eval.rotateHoisted(ca, {2, 5})[1];
        runs.emplace_back(level, std::move(o));
    }

    const Outputs& base = runs.front().second;
    for (size_t i = 1; i < runs.size(); ++i) {
        const Outputs& o = runs[i].second;
        expectPolyEq(o.add.c0, base.add.c0, "add c0");
        expectPolyEq(o.add.c1, base.add.c1, "add c1");
        expectPolyEq(o.mul_plain.c0, base.mul_plain.c0, "pmul c0");
        expectPolyEq(o.mul_plain.c1, base.mul_plain.c1, "pmul c1");
        expectPolyEq(o.mac.c0, base.mac.c0, "mac c0");
        expectPolyEq(o.mac.c1, base.mac.c1, "mac c1");
        expectPolyEq(o.cmult.c0, base.cmult.c0, "cmult c0");
        expectPolyEq(o.cmult.c1, base.cmult.c1, "cmult c1");
        expectPolyEq(o.rot.c0, base.rot.c0, "rotate c0");
        expectPolyEq(o.rot.c1, base.rot.c1, "rotate c1");
        expectPolyEq(o.hoisted.c0, base.hoisted.c0, "hoisted c0");
        expectPolyEq(o.hoisted.c1, base.hoisted.c1, "hoisted c1");
    }
}

TEST(SimdEvaluatorTest, OpsBitIdenticalAcrossLevels)
{
    checkOpsAcrossLevels(CkksParams::unitTest());
}

TEST(SimdEvaluatorTest, HybridKeyswitchBitIdenticalAcrossLevels)
{
    // Three special primes over 8 limbs: dnum = 3 with a partial last
    // digit, so ModUp and ModDown run multi-prime conversions.
    CkksParams p = CkksParams::unitTest();
    p.levels = 8;
    p.specialPrimes = 3;
    checkOpsAcrossLevels(p);
}

} // namespace
} // namespace hydra
