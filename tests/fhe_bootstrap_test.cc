/**
 * @file
 * Bootstrapping tests: each pipeline stage in isolation, then the full
 * refresh (paper Fig. 3(b): ModRaise -> C2S -> EvalMod -> S2C).
 */

#include <gtest/gtest.h>

#include <bit>
#include <numbers>
#include <string>

#include "fhe/bootstrap.hh"
#include "fhe_test_util.hh"
#include "math/ntt.hh"
#include "math/simd/simd.hh"

namespace hydra {
namespace {

using test::FheHarness;
using test::maxError;

CkksParams
btParams(size_t n = 1 << 8)
{
    CkksParams p = CkksParams::bootstrapTest();
    p.n = n;
    return p;
}

/** Harness plus a bootstrapper wired with the right Galois keys. */
struct BootHarness
{
    explicit BootHarness(const CkksParams& p,
                         const BootstrapConfig& cfg = {})
        : probe_ctx(p),
          probe_enc(probe_ctx),
          probe_boot(probe_ctx, probe_enc, cfg),
          h(p, probe_boot.requiredRotations()),
          boot(h.ctx, h.encoder, cfg)
    {
    }

    CkksContext probe_ctx;
    CkksEncoder probe_enc;
    Bootstrapper probe_boot;
    FheHarness h;
    Bootstrapper boot;
};

TEST(Bootstrap, ModRaisePreservesMessageModQ0)
{
    CkksParams p = btParams();
    FheHarness h(p, {});
    Bootstrapper boot(h.ctx, h.encoder);

    auto v = test::randomRealVec(h.ctx.slots(), 51, 0.005);
    auto ct = h.encryptVec(v, 1);
    auto raised = boot.modRaise(ct);
    EXPECT_EQ(raised.level(), h.ctx.levels());

    // Decrypting the raised ciphertext gives m + q0 * I; reducing the
    // decrypted coefficients mod q0 must recover the message.
    Plaintext pt = h.decryptor.decrypt(raised);
    RnsPoly coeffs = pt.poly;
    coeffs.fromNtt();
    RnsPoly one_limb(h.ctx.basis(), 1, false, false);
    const Modulus& q0 = h.ctx.basis()->mod(0);
    for (size_t i = 0; i < h.ctx.n(); ++i)
        one_limb.limb(0)[i] = coeffs.limb(0)[i] % q0.value();
    one_limb.toNtt();
    Plaintext reduced{std::move(one_limb), pt.scale};
    auto w = h.encoder.decode(reduced);
    EXPECT_LT(maxError(v, w), 1e-4);
}

TEST(Bootstrap, CoeffToSlotExtractsCoefficients)
{
    BootHarness b(btParams());
    auto& h = b.h;
    size_t s = h.ctx.slots();

    auto v = test::randomRealVec(s, 52, 0.01);
    auto ct = h.encryptVec(v); // full level
    auto [re, im] = b.boot.coeffToSlot(h.eval, ct);

    // Reference: the encoded plaintext's coefficients over the scale,
    // in bit-reversed slot order (C2S skips the FFT's bit reversal).
    Plaintext pt = h.encoder.encode(v, h.ctx.params().scale(), 1);
    RnsPoly coeffs = pt.poly;
    coeffs.fromNtt();
    const Modulus& q0 = h.ctx.basis()->mod(0);
    int log_s = std::countr_zero(s);
    std::vector<cplx> c_lo(s), c_hi(s);
    for (size_t i = 0; i < s; ++i) {
        size_t c = static_cast<size_t>(bitReverse(i, log_s));
        c_lo[i] = cplx(static_cast<double>(q0.toCentered(
                           coeffs.limb(0)[c])) /
                           pt.scale,
                       0.0);
        c_hi[i] = cplx(static_cast<double>(q0.toCentered(
                           coeffs.limb(0)[c + s])) /
                           pt.scale,
                       0.0);
    }
    EXPECT_LT(maxError(c_lo, h.decryptVec(re)), 1e-3);
    EXPECT_LT(maxError(c_hi, h.decryptVec(im)), 1e-3);
}

TEST(Bootstrap, SlotToCoeffInvertsCoeffToSlot)
{
    BootHarness b(btParams());
    auto& h = b.h;
    auto v = test::randomComplexVec(h.ctx.slots(), 53, 0.01);
    auto ct = h.encryptVec(v);
    auto [re, im] = b.boot.coeffToSlot(h.eval, ct);
    auto back = b.boot.slotToCoeff(h.eval, re, im);
    EXPECT_LT(maxError(v, h.decryptVec(back)), 1e-3);
}

TEST(Bootstrap, EvalModApproximatesIdentityWithoutOverflow)
{
    // With I = 0 (values well below q0), EvalMod must act as identity.
    BootHarness b(btParams());
    auto& h = b.h;
    auto v = test::randomRealVec(h.ctx.slots(), 54, 0.01);
    auto ct = h.encryptVec(v);
    auto out = b.boot.evalMod(h.eval, ct, h.ctx.params().scale());
    EXPECT_LT(maxError(v, h.decryptVec(out)), 1e-3);
}

TEST(Bootstrap, EvalModRemovesQ0Multiples)
{
    // Slot values x = m + (q0/Delta) * I for small integers I must map
    // back to m.
    BootHarness b(btParams());
    auto& h = b.h;
    double q0 = static_cast<double>(h.ctx.basis()->mod(0).value());
    double delta = h.ctx.params().scale();
    double step = q0 / delta;

    size_t s = h.ctx.slots();
    auto m = test::randomRealVec(s, 55, 0.01);
    std::vector<cplx> x(s);
    Rng rng(56);
    for (size_t j = 0; j < s; ++j) {
        int big_i = static_cast<int>(rng.uniformU64(7)) - 3; // -3..3
        x[j] = m[j] + step * static_cast<double>(big_i);
    }
    auto ct = h.encryptVec(x);
    auto out = b.boot.evalMod(h.eval, ct, delta);
    EXPECT_LT(maxError(m, h.decryptVec(out)), 1e-3);
}

TEST(Bootstrap, EvalModHoldsAtMaxOverflow)
{
    // The worst overflow the fit range covers: every slot sits at
    // m +- (q0/Delta) * maxOverflow, |I| = 18.
    BootHarness b(btParams());
    auto& h = b.h;
    double q0 = static_cast<double>(h.ctx.basis()->mod(0).value());
    double delta = h.ctx.params().scale();
    double step = q0 / delta * BootstrapConfig{}.maxOverflow;

    size_t s = h.ctx.slots();
    auto m = test::randomRealVec(s, 62, 0.01);
    std::vector<cplx> x(s);
    Rng rng(63);
    for (size_t j = 0; j < s; ++j)
        x[j] = m[j] + (rng.uniformU64(2) ? step : -step);
    auto ct = h.encryptVec(x);
    auto out = b.boot.evalMod(h.eval, ct, delta);
    EXPECT_LT(maxError(m, h.decryptVec(out)), 1e-3);
}

TEST(Bootstrap, EndToEndRefresh)
{
    BootHarness b(btParams());
    auto& h = b.h;
    size_t s = h.ctx.slots();

    auto v = test::randomRealVec(s, 57, 0.01);
    auto ct = h.encryptVec(v, 1); // exhausted ciphertext at level 1
    ASSERT_EQ(ct.level(), 1u);

    auto fresh = b.boot.bootstrap(h.eval, ct);
    EXPECT_GE(fresh.level(), 2u);
    EXPECT_GT(fresh.level(), ct.level());
    EXPECT_LT(maxError(v, h.decryptVec(fresh)), 2e-3);
}

TEST(Bootstrap, RefreshedCiphertextSupportsFurtherComputation)
{
    BootHarness b(btParams());
    auto& h = b.h;
    auto v = test::randomRealVec(h.ctx.slots(), 58, 0.01);
    auto ct = h.encryptVec(v, 1);
    auto fresh = b.boot.bootstrap(h.eval, ct);
    ASSERT_GE(fresh.level(), 2u);

    auto sq = h.decryptVec(h.eval.rescale(h.eval.mulRelin(fresh, fresh)));
    for (size_t j = 0; j < v.size(); ++j)
        EXPECT_NEAR(std::abs(sq[j] - v[j] * v[j]), 0.0, 1e-3);
}

TEST(Bootstrap, ChebyshevEvalModSavesLevels)
{
    // Chebyshev exp on a wide range lets r drop from 9 to 5: the
    // refreshed ciphertext keeps more levels at the same accuracy.
    BootstrapConfig cheb;
    cheb.useChebyshev = true;
    cheb.chebyshevDegree = 15;
    cheb.doubleAngleIters = 5;

    BootHarness b(btParams(), cheb);
    auto& h = b.h;
    auto v = test::randomRealVec(h.ctx.slots(), 59, 0.01);
    auto ct = h.encryptVec(v, 1);
    auto fresh = b.boot.bootstrap(h.eval, ct);
    EXPECT_LT(maxError(v, h.decryptVec(fresh)), 2e-3);

    BootstrapConfig taylor; // defaults: deg 7, r = 7
    CkksParams p = btParams();
    CkksContext ctx(p);
    CkksEncoder enc(ctx);
    Bootstrapper bt(ctx, enc, taylor);
    Bootstrapper bc(ctx, enc, cheb);
    EXPECT_LT(bc.depth(), bt.depth());
    EXPECT_GT(fresh.level(), 2u);
}

TEST(Bootstrap, DepthMatchesConfiguration)
{
    BootstrapConfig cfg;
    cfg.taylorDegree = 7;
    cfg.doubleAngleIters = 9;
    CkksParams p = btParams();
    CkksContext ctx(p);
    CkksEncoder enc(ctx);
    Bootstrapper boot(ctx, enc, cfg);
    // c2s levels + 1 kappa + (4) taylor + 9 DAF + 1 sine + s2c levels
    size_t c2s = boot.coeffToSlotPlan().levels.size();
    size_t s2c = boot.slotToCoeffPlan().levels.size();
    EXPECT_EQ(c2s, 2u);
    EXPECT_EQ(s2c, 2u);
    EXPECT_EQ(boot.depth(), c2s + 1 + 4 + 9 + 1 + s2c);

    // Defaults: two-level C2S and S2C, r = 7 -> depth 17, so
    // bootstrapTest's 20 levels leave 3 for the caller.
    Bootstrapper def(ctx, enc);
    EXPECT_EQ(def.depth(), 17u);
    EXPECT_LT(def.depth(), p.levels);
    EXPECT_EQ(def.requiredRotations(),
              (std::vector<int>{1, 2, 3, 4, 8, 12, 16, 32, 48, 64, 112, 116,
                                120, 124}));
}

TEST(Bootstrap, EveryPrimeRunsOnTheIfmaTier)
{
    // The avx512ifma kernels take only moduli below 2^50; a limb above
    // it silently falls back to the 64-bit-product AVX-512 kernels.
    // Every chain and special prime of bootstrapTest() must qualify.
    CkksContext ctx(CkksParams::bootstrapTest());
    const RnsBasis& basis = *ctx.basis();
    EXPECT_EQ(basis.specialCount(), 5u);
    for (size_t t = 0; t < basis.totalCount(); ++t)
        EXPECT_TRUE(simd::fits52(basis.mod(t).value()))
            << "basis prime " << t << " = " << basis.mod(t).value();
}

/**
 * Rotations one factored DFT runs, in closed form over its plan (see
 * specialFftFactors): level 0 has r diagonals at base 0, every other
 * level 2r at base -r t.  Each level runs bs - 1 hoisted baby steps
 * and one rotation per giant step except the one whose shift is 0
 * (none for a non-top level whose bs spans all 2r diagonals).
 */
uint64_t
planRotations(const DftPlan& plan)
{
    uint64_t total = 0;
    for (size_t i = 0; i < plan.levels.size(); ++i) {
        size_t r = plan.levels[i].radix;
        size_t count = i == 0 ? r : 2 * r;
        size_t bs = std::min(plan.levels[i].bs, count);
        size_t gs = count / bs;
        bool zero_shift = i == 0 || bs <= r;
        total += (bs - 1) + gs - (zero_shift ? 1 : 0);
    }
    return total;
}

TEST(Bootstrap, DftRotationsMatchPlanClosedForm)
{
    // The functional C2S/S2C run exactly the rotations the Eq. 1 plan
    // prices: per level, the baby and giant steps it uses, plus the
    // one conjugation of C2S.
    struct Case
    {
        size_t n;
        size_t c2sLevels;
        size_t s2cLevels;
    };
    for (const Case& c : {Case{1 << 10, 2, 2}, Case{1 << 8, 1, 3},
                          Case{1 << 8, 3, 1}}) {
        CkksParams p = btParams(c.n);
        BootstrapConfig cfg;
        cfg.coeffToSlot = hostDftPlan(c.c2sLevels, p.n / 2);
        cfg.slotToCoeff = hostDftPlan(c.s2cLevels, p.n / 2);
        BootHarness b(p, cfg);
        auto& h = b.h;
        auto v = test::randomComplexVec(h.ctx.slots(), 64, 0.01);
        auto ct = h.encryptVec(v);

        OpCounter c2s;
        h.eval.setCounter(&c2s);
        auto [re, im] = b.boot.coeffToSlot(h.eval, ct);
        OpCounter s2c;
        h.eval.setCounter(&s2c);
        Ciphertext back = b.boot.slotToCoeff(h.eval, re, im);
        h.eval.setCounter(nullptr);

        uint64_t c2s_rot = planRotations(cfg.coeffToSlot);
        uint64_t s2c_rot = planRotations(cfg.slotToCoeff);
        std::string tag = "n=" + std::to_string(c.n) + " C2S " +
                          cfg.coeffToSlot.describe() + " S2C " +
                          cfg.slotToCoeff.describe();
        EXPECT_EQ(c2s.count(HeOpType::Rotate), c2s_rot) << tag;
        EXPECT_EQ(c2s.count(HeOpType::Conjugate), 1u) << tag;
        EXPECT_EQ(c2s.count(HeOpType::KeySwitch), c2s_rot + 1) << tag;
        EXPECT_EQ(s2c.count(HeOpType::Rotate), s2c_rot) << tag;
        EXPECT_EQ(s2c.count(HeOpType::KeySwitch), s2c_rot) << tag;
        // S2C runs at the level bootstrap() reaches it with, so it
        // lands on the bootstrap's output level whatever its input.
        EXPECT_EQ(re.level(), ct.level() - c.c2sLevels) << tag;
        EXPECT_EQ(back.level(), h.ctx.levels() - b.boot.depth()) << tag;
        EXPECT_LT(maxError(v, h.decryptVec(back)), 1e-3) << tag;
    }
}

TEST(Bootstrap, KeyswitchCountIsExactAtAnyThreadCount)
{
    // n = 2^10, 512 slots, default plans (two levels each way, r = 7).
    // C2S: 20 rotations + 1 conjugation; S2C: 20 rotations; EvalMod:
    // 2 x (6 Taylor + 7 double-angle relinearizations + 1 conjugation)
    // = 28.  The dense two-matrix C2S/S2C this replaced ran 187
    // keyswitches (153 rotations) at r = 9.  The keyswitch method does
    // not change the counts: alpha = 1 (one digit per limb, one special
    // prime) and alpha = 5 (dnum = 4, bootstrapTest()'s default) both
    // run C2S/S2C double-hoisted, with keyswitches chained over Q*P.
    // Every SIMD level the host runs must reproduce both digests: the
    // IFMA table takes every limb, the 42-bit chain primes and the
    // 50-bit special primes alike.
    test::SimdLevelGuard simd_guard;
    struct Pin
    {
        size_t alpha;
        uint64_t digest;
    };
    for (const Pin& pin : {Pin{1, 0x965504c6b3b14213ULL},
                           Pin{5, 0x124d61bef70a9beaULL}}) {
        CkksParams p = btParams(1 << 10);
        p.specialPrimes = pin.alpha;
        BootHarness b(p);
        auto& h = b.h;
        auto v = test::randomRealVec(h.ctx.slots(), 61, 0.01);
        auto ct = h.encryptVec(v, 1);
        uint64_t closed = planRotations(b.boot.coeffToSlotPlan()) + 1 +
                          planRotations(b.boot.slotToCoeffPlan()) +
                          2 * (6 + 7 + 1);
        EXPECT_EQ(closed, 69u);
        // The Galois keys, and so the key stream the digest depends
        // on, cover exactly these steps: the ones some stored
        // diagonal reads.
        EXPECT_EQ(b.probe_boot.requiredRotations(),
                  (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 16, 24, 32, 64,
                                    96, 128, 256, 384, 480, 488, 496,
                                    504}));

        // EvalMod's two lanes, the power-ladder rungs and short
        // giant-step batches run on thread teams whenever there are
        // fewer of them than threads: 3 threads split them unevenly,
        // 8 give every team several threads.
        for (SimdLevel level : test::runnableSimdLevels()) {
            ASSERT_EQ(simd::setLevel(level), level);
            for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
                test::ThreadCountGuard tc(threads);
                OpCounter counter;
                h.eval.setCounter(&counter);
                Ciphertext out = b.boot.bootstrap(h.eval, ct);
                h.eval.setCounter(nullptr);
                std::string where = "alpha " + std::to_string(pin.alpha) +
                                    ", " + std::to_string(threads) +
                                    " threads, " + simdLevelName(level);
                EXPECT_EQ(counter.count(HeOpType::KeySwitch), 69u) << where;
                EXPECT_EQ(counter.count(HeOpType::Rotate), 40u) << where;
                uint64_t digest = test::ciphertextDigest(out);
                EXPECT_EQ(digest, pin.digest)
                    << where << ", digest 0x" << std::hex << digest;
            }
        }
    }
}

/** Sparse product: out[j] = sum_k diags[k][j] v[j + base + k t]. */
std::vector<cplx>
applyDiagonals(const MatrixDiagonals& f, const std::vector<cplx>& v)
{
    size_t s = v.size();
    std::vector<cplx> out(s, cplx(0, 0));
    for (size_t k = 0; k < f.diags.size(); ++k)
        for (size_t j = 0; j < s; ++j)
            out[j] += f.diags[k][j] * v[(j + f.base + k * f.stride) % s];
    return out;
}

class SpecialFftFactorsTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(SpecialFftFactorsTest, ProductMatchesEncoderFft)
{
    // Column by column, the factors' product is the encoder's FFT
    // without its bit reversal.
    auto [n, levels] = GetParam();
    CkksParams p = btParams(n);
    CkksContext ctx(p);
    CkksEncoder enc(ctx);
    size_t s = enc.slots();
    int log_s = std::countr_zero(s);
    DftPlan plan = hostDftPlan(levels, s);
    ASSERT_EQ(plan.levels.size(), levels);
    auto inv = specialFftFactors(enc, plan, true);
    auto fwd = specialFftFactors(enc, plan, false);

    double worst_inv = 0.0, worst_fwd = 0.0;
    for (size_t c = 0; c < s; ++c) {
        std::vector<cplx> e(s, cplx(0, 0));
        e[c] = cplx(1, 0);

        std::vector<cplx> got = e;
        for (const auto& f : inv)
            got = applyDiagonals(f, got);
        std::vector<cplx> ref = e;
        enc.fftSpecialInv(ref);
        for (size_t i = 0; i < s; ++i)
            worst_inv = std::max(
                worst_inv,
                std::abs(got[i] - ref[bitReverse(i, log_s)]));

        // Forward factors read bit-reversed input: e_c there is
        // e_{bitrev(c)} in natural order.
        got = e;
        for (auto f = fwd.rbegin(); f != fwd.rend(); ++f)
            got = applyDiagonals(*f, got);
        ref.assign(s, cplx(0, 0));
        ref[bitReverse(c, log_s)] = cplx(1, 0);
        enc.fftSpecial(ref);
        worst_fwd = std::max(worst_fwd, maxError(got, ref));
    }
    EXPECT_LT(worst_inv, 1e-9) << plan.describe();
    EXPECT_LT(worst_fwd, 1e-9) << plan.describe();
}

INSTANTIATE_TEST_SUITE_P(
    Plans, SpecialFftFactorsTest,
    ::testing::Values(std::pair<size_t, size_t>{1 << 8, 1},
                      std::pair<size_t, size_t>{1 << 8, 2},
                      std::pair<size_t, size_t>{1 << 8, 3},
                      std::pair<size_t, size_t>{1 << 10, 1},
                      std::pair<size_t, size_t>{1 << 10, 2},
                      std::pair<size_t, size_t>{1 << 10, 3}));

} // namespace
} // namespace hydra
