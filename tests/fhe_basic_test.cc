/**
 * @file
 * CKKS scheme tests: encryption round trips and the full ciphertext
 * operation set (HAdd, PMult, CMult, Rescale, Rotate, Conjugate),
 * verified against plaintext arithmetic.
 */

#include <gtest/gtest.h>

#include "fhe_test_util.hh"

namespace hydra {
namespace {

using test::FheHarness;
using test::maxError;
using test::randomComplexVec;
using test::randomRealVec;

class FheBasicTest : public ::testing::Test
{
  protected:
    FheBasicTest()
        : h_(CkksParams::unitTest(), {1, 2, 3, 5, -1, 100})
    {
    }

    FheHarness h_;
};

TEST_F(FheBasicTest, EncryptDecryptRoundTrip)
{
    auto v = randomComplexVec(h_.ctx.slots(), 11);
    auto w = h_.decryptVec(h_.encryptVec(v));
    EXPECT_LT(maxError(v, w), 1e-5);
}

TEST_F(FheBasicTest, EncryptAtLowerLevel)
{
    auto v = randomComplexVec(h_.ctx.slots(), 12);
    auto w = h_.decryptVec(h_.encryptVec(v, 2));
    EXPECT_LT(maxError(v, w), 1e-5);
}

TEST_F(FheBasicTest, HomomorphicAddSub)
{
    auto a = randomComplexVec(h_.ctx.slots(), 13);
    auto b = randomComplexVec(h_.ctx.slots(), 14);
    auto ca = h_.encryptVec(a);
    auto cb = h_.encryptVec(b);
    auto sum = h_.decryptVec(h_.eval.add(ca, cb));
    auto dif = h_.decryptVec(h_.eval.sub(ca, cb));
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(std::abs(sum[i] - (a[i] + b[i])), 0.0, 1e-4);
        EXPECT_NEAR(std::abs(dif[i] - (a[i] - b[i])), 0.0, 1e-4);
    }
}

TEST_F(FheBasicTest, AddPlainAndMulPlain)
{
    auto a = randomComplexVec(h_.ctx.slots(), 15);
    auto b = randomComplexVec(h_.ctx.slots(), 16);
    auto ca = h_.encryptVec(a);
    Plaintext pb = h_.encoder.encode(b, h_.ctx.params().scale(),
                                     h_.ctx.levels());

    auto sum = h_.decryptVec(h_.eval.addPlain(ca, pb));
    auto prod = h_.decryptVec(h_.eval.rescale(h_.eval.mulPlain(ca, pb)));
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(std::abs(sum[i] - (a[i] + b[i])), 0.0, 1e-4);
        EXPECT_NEAR(std::abs(prod[i] - a[i] * b[i]), 0.0, 1e-4);
    }
}

TEST_F(FheBasicTest, CiphertextMultiplyWithRelin)
{
    auto a = randomComplexVec(h_.ctx.slots(), 17);
    auto b = randomComplexVec(h_.ctx.slots(), 18);
    auto ca = h_.encryptVec(a);
    auto cb = h_.encryptVec(b);
    auto prod = h_.decryptVec(h_.eval.rescale(h_.eval.mulRelin(ca, cb)));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(std::abs(prod[i] - a[i] * b[i]), 0.0, 1e-3);
}

TEST_F(FheBasicTest, MultiplicationChainToBottomLevel)
{
    // Repeated squaring of values near 1 must stay accurate down the
    // whole modulus chain.
    auto a = randomRealVec(h_.ctx.slots(), 19, 0.9);
    auto ct = h_.encryptVec(a);
    std::vector<cplx> expect = a;
    while (ct.level() > 2) {
        ct = h_.eval.rescale(h_.eval.mulRelin(ct, ct));
        for (auto& x : expect)
            x *= x;
    }
    auto got = h_.decryptVec(ct);
    EXPECT_LT(maxError(expect, got), 1e-2);
}

TEST_F(FheBasicTest, MulConstantAndAddConstant)
{
    auto a = randomComplexVec(h_.ctx.slots(), 20);
    auto ct = h_.encryptVec(a);
    cplx k(0.5, -2.0);
    auto scaled = h_.decryptVec(
        h_.eval.mulConstantRescale(ct, k, h_.ctx.params().scale()));
    auto shifted = h_.decryptVec(h_.eval.addConstant(ct, k));
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(std::abs(scaled[i] - a[i] * k), 0.0, 1e-4);
        EXPECT_NEAR(std::abs(shifted[i] - (a[i] + k)), 0.0, 1e-4);
    }
}

TEST_F(FheBasicTest, ConstantOpsMatchEncodedPlaintextBitForBit)
{
    // encodeConstant builds the constant's NTT form per limb (no
    // polynomial, no transform); it must equal the coefficient
    // construction followed by toNtt, and the constant ops built on it
    // the mulPlain / addPlain path, exactly, at every level, for real,
    // imaginary and complex constants of either sign.
    auto v = randomComplexVec(h_.ctx.slots(), 22);
    double scale = h_.ctx.params().scale();
    for (size_t level = h_.ctx.levels(); level >= 1; --level) {
        Ciphertext ct = h_.encryptVec(v, level);
        for (cplx c : {cplx(0.75, 0.0), cplx(-1.5, 0.0), cplx(0.0, 0.3),
                       cplx(0.0, -2.25), cplx(0.5, -2.0),
                       cplx(-0.125, 1.0)}) {
            Plaintext want =
                test::constantFromCoefficients(h_.ctx, c, scale, level);
            EXPECT_TRUE(test::polysIdentical(
                want.poly, h_.encoder.encodeConstant(c, scale, level).poly))
                << "level " << level << ", c " << c;

            EXPECT_TRUE(test::ciphertextsIdentical(
                h_.eval.mulPlain(ct, want),
                h_.eval.mulConstant(ct, c, scale)))
                << "mulConstant, level " << level << ", c " << c;
            Plaintext shift =
                test::constantFromCoefficients(h_.ctx, c, ct.scale, level);
            EXPECT_TRUE(test::ciphertextsIdentical(
                h_.eval.addPlain(ct, shift), h_.eval.addConstant(ct, c)))
                << "addConstant, level " << level << ", c " << c;
            if (level >= 2) {
                double q_last = static_cast<double>(
                    h_.ctx.basis()->mod(level - 1).value());
                Plaintext u = test::constantFromCoefficients(
                    h_.ctx, c, scale * q_last / ct.scale, level);
                Ciphertext manual =
                    h_.eval.rescale(h_.eval.mulPlain(ct, u));
                manual.scale = scale;
                EXPECT_TRUE(test::ciphertextsIdentical(
                    manual, h_.eval.mulConstantRescale(ct, c, scale)))
                    << "mulConstantRescale, level " << level << ", c "
                    << c;
            }
        }
    }
}

TEST_F(FheBasicTest, MultiplyByImaginaryUnit)
{
    auto a = randomComplexVec(h_.ctx.slots(), 21);
    auto ct = h_.encryptVec(a);
    auto got = h_.decryptVec(h_.eval.mulConstantRescale(
        ct, cplx(0.0, 1.0), h_.ctx.params().scale()));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(std::abs(got[i] - a[i] * cplx(0, 1)), 0.0, 1e-4);
}

TEST_F(FheBasicTest, MulByIIsExactAndFree)
{
    // The monomial X^{n/2} multiplies every slot by i without a level
    // or a key; twice it is an exact negation.
    auto a = randomComplexVec(h_.ctx.slots(), 22);
    auto ct = h_.encryptVec(a, 3);
    Ciphertext once = h_.eval.mulByI(ct);
    EXPECT_EQ(once.level(), ct.level());
    EXPECT_EQ(once.scale, ct.scale);
    auto got = h_.decryptVec(once);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(std::abs(got[i] - a[i] * cplx(0, 1)), 0.0, 1e-5);
    EXPECT_TRUE(test::ciphertextsIdentical(h_.eval.mulByI(once),
                                           h_.eval.negate(ct)));
}

TEST_F(FheBasicTest, RotationMovesSlotsLeft)
{
    size_t s = h_.ctx.slots();
    auto a = randomComplexVec(s, 22);
    auto ct = h_.encryptVec(a);
    for (int r : {1, 2, 3, 5, 100}) {
        auto got = h_.decryptVec(h_.eval.rotate(ct, r));
        for (size_t j = 0; j < s; ++j)
            EXPECT_NEAR(std::abs(got[j] - a[(j + r) % s]), 0.0, 1e-3)
                << "rotation " << r << " slot " << j;
    }
}

TEST_F(FheBasicTest, NegativeRotationIsRightShift)
{
    size_t s = h_.ctx.slots();
    auto a = randomComplexVec(s, 23);
    auto ct = h_.encryptVec(a);
    auto got = h_.decryptVec(h_.eval.rotate(ct, -1));
    for (size_t j = 0; j < s; ++j)
        EXPECT_NEAR(std::abs(got[j] - a[(j + s - 1) % s]), 0.0, 1e-3);
}

TEST_F(FheBasicTest, RotationComposition)
{
    size_t s = h_.ctx.slots();
    auto a = randomComplexVec(s, 24);
    auto ct = h_.encryptVec(a);
    auto r12 = h_.eval.rotate(h_.eval.rotate(ct, 1), 2);
    auto r3 = h_.eval.rotate(ct, 3);
    EXPECT_LT(maxError(h_.decryptVec(r12), h_.decryptVec(r3)), 1e-3);
}

TEST_F(FheBasicTest, ConjugationConjugatesSlots)
{
    auto a = randomComplexVec(h_.ctx.slots(), 25);
    auto ct = h_.encryptVec(a);
    auto got = h_.decryptVec(h_.eval.conjugate(ct));
    for (size_t j = 0; j < a.size(); ++j)
        EXPECT_NEAR(std::abs(got[j] - std::conj(a[j])), 0.0, 1e-3);
}

TEST_F(FheBasicTest, DropToLevelPreservesMessage)
{
    auto a = randomComplexVec(h_.ctx.slots(), 26);
    auto ct = h_.encryptVec(a);
    auto dropped = h_.eval.dropToLevel(ct, 2);
    EXPECT_EQ(dropped.level(), 2u);
    EXPECT_LT(maxError(a, h_.decryptVec(dropped)), 1e-4);
}

TEST_F(FheBasicTest, OpCounterRecordsOperations)
{
    OpCounter counter;
    h_.eval.setCounter(&counter);
    auto a = randomComplexVec(h_.ctx.slots(), 27);
    auto ct = h_.encryptVec(a);
    auto t = h_.eval.add(ct, ct);
    t = h_.eval.rescale(h_.eval.mulRelin(t, t));
    t = h_.eval.rotate(t, 1);
    h_.eval.setCounter(nullptr);

    EXPECT_EQ(counter.count(HeOpType::HAdd), 1u);
    EXPECT_EQ(counter.count(HeOpType::CMult), 1u);
    EXPECT_EQ(counter.count(HeOpType::Rescale), 1u);
    EXPECT_EQ(counter.count(HeOpType::Rotate), 1u);
    EXPECT_GE(counter.count(HeOpType::KeySwitch), 2u);
}

TEST_F(FheBasicTest, HybridOfEverything)
{
    // (rot(a,1) * b + conj(a)) * 0.5 checked against plaintext.
    size_t s = h_.ctx.slots();
    auto a = randomComplexVec(s, 28);
    auto b = randomComplexVec(s, 29);
    auto ca = h_.encryptVec(a);
    auto cb = h_.encryptVec(b);

    auto t = h_.eval.rescale(h_.eval.mulRelin(h_.eval.rotate(ca, 1), cb));
    auto cj = h_.eval.dropToLevel(h_.eval.conjugate(ca), t.level());
    cj.scale = t.scale; // same up to fp drift of one rescale
    auto out = h_.decryptVec(h_.eval.mulConstantRescale(
        h_.eval.add(t, cj), cplx(0.5, 0.0), h_.ctx.params().scale()));

    for (size_t j = 0; j < s; ++j) {
        cplx expect = (a[(j + 1) % s] * b[j] + std::conj(a[j])) * 0.5;
        EXPECT_NEAR(std::abs(out[j] - expect), 0.0, 1e-3);
    }
}

class HybridKeyswitchTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(HybridKeyswitchTest, ErrorBoundsAtEveryLevel)
{
    // alpha special primes split level l into ceil(l / alpha) digits;
    // alpha = 3 and 5 leave a partial last digit at most levels (l = 7
    // with alpha = 5 is digits {q0..q4}, {q5, q6}).  mulRelin, rotate
    // and hoisted rotations must decrypt correctly at every level.
    CkksParams p = CkksParams::unitTest();
    p.levels = 8;
    p.specialPrimes = GetParam();
    FheHarness h(p, {1, 3});
    size_t s = h.ctx.slots();
    auto a = randomComplexVec(s, 31);
    auto b = randomComplexVec(s, 32);
    for (size_t l = p.levels; l >= 2; --l) {
        auto ca = h.encryptVec(a, l);
        auto cb = h.encryptVec(b, l);
        auto prod = h.decryptVec(h.eval.rescale(h.eval.mulRelin(ca, cb)));
        auto rot = h.decryptVec(h.eval.rotate(ca, 1));
        auto hoisted = h.eval.rotateHoisted(ca, {1, 3});
        auto h1 = h.decryptVec(hoisted[0]);
        auto h3 = h.decryptVec(hoisted[1]);
        double err_mul = 0, err_rot = 0;
        for (size_t j = 0; j < s; ++j) {
            err_mul = std::max(err_mul, std::abs(prod[j] - a[j] * b[j]));
            err_rot = std::max({err_rot, std::abs(rot[j] - a[(j + 1) % s]),
                                std::abs(h1[j] - a[(j + 1) % s]),
                                std::abs(h3[j] - a[(j + 3) % s])});
        }
        EXPECT_LT(err_mul, 1e-3) << "alpha " << p.specialPrimes << " l " << l;
        EXPECT_LT(err_rot, 1e-3) << "alpha " << p.specialPrimes << " l " << l;
    }
}

INSTANTIATE_TEST_SUITE_P(SpecialPrimes, HybridKeyswitchTest,
                         ::testing::Values(1, 2, 3, 5));

} // namespace
} // namespace hydra
