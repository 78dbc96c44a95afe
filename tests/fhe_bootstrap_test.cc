/**
 * @file
 * Bootstrapping tests: each pipeline stage in isolation, then the full
 * refresh (paper Fig. 3(b): ModRaise -> C2S -> EvalMod -> S2C).
 */

#include <gtest/gtest.h>

#include <numbers>

#include "fhe/bootstrap.hh"
#include "fhe_test_util.hh"

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
    RnsPoly one_limb(h.ctx.basis(), 1, false, false);
    const Modulus& q0 = h.ctx.basis()->mod(0);
    for (size_t i = 0; i < h.ctx.n(); ++i)
        one_limb.limb(0)[i] = pt.poly.limb(0)[i] % q0.value();
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

    // Reference: the encoded plaintext's coefficients over the scale.
    Plaintext pt = h.encoder.encode(v, h.ctx.params().scale(), 1);
    const Modulus& q0 = h.ctx.basis()->mod(0);
    std::vector<cplx> c_lo(s), c_hi(s);
    for (size_t i = 0; i < s; ++i) {
        c_lo[i] = cplx(static_cast<double>(q0.toCentered(
                           pt.poly.limb(0)[i])) /
                           pt.scale,
                       0.0);
        c_hi[i] = cplx(static_cast<double>(q0.toCentered(
                           pt.poly.limb(0)[i + s])) /
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

    BootstrapConfig taylor; // defaults: deg 7, r = 9
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
    // 1 c2s + 1 kappa + (4) taylor + 9 DAF + 1 sine + 1 s2c = 17
    EXPECT_EQ(boot.depth(), 17u);
    EXPECT_LT(boot.depth(), p.levels);
}

TEST(Bootstrap, KeyswitchCountIsExactAtAnyThreadCount)
{
    // n = 2^10: 512 slots, 32 baby x 16 giant steps per transform.
    // C2S hoists its 31 baby steps once for both matrices (31 + 2 x 15
    // giant + 2 conjugations = 63), S2C pays 2 x (31 + 15) = 92, and
    // EvalMod's 30 relinearizations + 2 conjugations make 187.
    BootHarness b(btParams(1 << 10));
    auto& h = b.h;
    auto v = test::randomRealVec(h.ctx.slots(), 61, 0.01);
    auto ct = h.encryptVec(v, 1);

    Ciphertext first;
    for (size_t threads : {1u, 4u}) {
        test::ThreadCountGuard tc(threads);
        OpCounter counter;
        h.eval.setCounter(&counter);
        Ciphertext out = b.boot.bootstrap(h.eval, ct);
        h.eval.setCounter(nullptr);
        EXPECT_EQ(counter.count(HeOpType::KeySwitch), 187u)
            << threads << " threads";
        EXPECT_EQ(counter.count(HeOpType::Rotate), 153u)
            << threads << " threads";
        if (threads == 1)
            first = std::move(out);
        else
            EXPECT_TRUE(test::ciphertextsIdentical(first, out));
    }
}

} // namespace
} // namespace hydra
