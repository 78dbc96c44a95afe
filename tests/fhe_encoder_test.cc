/**
 * @file
 * Canonical-embedding encoder tests: FFT inverse pairing, encode/decode
 * round trips, precision, and agreement with direct polynomial
 * evaluation at the embedding roots.
 */

#include <gtest/gtest.h>

#include "fhe/context.hh"
#include "fhe/encoder.hh"
#include "fhe_test_util.hh"

namespace hydra {
namespace {

using test::maxError;
using test::randomComplexVec;

class EncoderTest : public ::testing::TestWithParam<size_t>
{
  protected:
    void
    SetUp() override
    {
        CkksParams p = CkksParams::unitTest();
        p.n = GetParam();
        p.levels = 3;
        ctx_ = std::make_unique<CkksContext>(p);
        enc_ = std::make_unique<CkksEncoder>(*ctx_);
    }

    std::unique_ptr<CkksContext> ctx_;
    std::unique_ptr<CkksEncoder> enc_;
};

TEST_P(EncoderTest, FftPairIsIdentity)
{
    auto v = randomComplexVec(enc_->slots(), 5);
    auto w = v;
    enc_->fftSpecialInv(w);
    enc_->fftSpecial(w);
    EXPECT_LT(maxError(v, w), 1e-9);
}

TEST_P(EncoderTest, EncodeDecodeRoundTrip)
{
    auto v = randomComplexVec(enc_->slots(), 6);
    Plaintext pt = enc_->encode(v, ctx_->params().scale(), 2);
    auto w = enc_->decode(pt);
    // Rounding error per coefficient is 1/2; after the FFT it stays
    // around sqrt(n)/scale.
    EXPECT_LT(maxError(v, w), 1e-6);
}

TEST_P(EncoderTest, ShortVectorIsZeroPadded)
{
    std::vector<cplx> v = {cplx(1.5, -0.25), cplx(-2.0, 0.0)};
    Plaintext pt = enc_->encode(v, ctx_->params().scale(), 1);
    auto w = enc_->decode(pt);
    EXPECT_NEAR(std::abs(w[0] - v[0]), 0.0, 1e-6);
    EXPECT_NEAR(std::abs(w[1] - v[1]), 0.0, 1e-6);
    for (size_t i = 2; i < w.size(); ++i)
        EXPECT_NEAR(std::abs(w[i]), 0.0, 1e-6);
}

TEST_P(EncoderTest, ConstantEncodeMatchesFullEncode)
{
    cplx c(0.75, -1.25);
    double scale = ctx_->params().scale();
    Plaintext direct = enc_->encodeConstant(c, scale, 2);
    EXPECT_TRUE(test::polysIdentical(
        direct.poly, test::constantFromCoefficients(*ctx_, c, scale, 2).poly));
    auto w = enc_->decode(direct);
    for (const auto& x : w)
        EXPECT_NEAR(std::abs(x - c), 0.0, 1e-9);
}

TEST_P(EncoderTest, DecodeMatchesDirectRootEvaluation)
{
    if (enc_->slots() > 64)
        GTEST_SKIP() << "direct evaluation too slow";
    auto v = randomComplexVec(enc_->slots(), 7);
    double scale = ctx_->params().scale();
    Plaintext pt = enc_->encode(v, scale, 1);
    RnsPoly coeffs = pt.poly;
    coeffs.fromNtt();

    // Evaluate the integer polynomial at each embedding root directly.
    size_t n = ctx_->n();
    const Modulus& q0 = ctx_->basis()->mod(0);
    for (size_t j = 0; j < enc_->slots(); ++j) {
        cplx zeta = enc_->embeddingRoot(j);
        cplx acc(0, 0);
        cplx zi(1, 0);
        for (size_t i = 0; i < n; ++i) {
            acc += static_cast<double>(q0.toCentered(coeffs.limb(0)[i])) *
                   zi;
            zi *= zeta;
        }
        EXPECT_NEAR(std::abs(acc / scale - v[j]), 0.0, 1e-6);
    }
}

TEST_P(EncoderTest, EncodeIsAdditivelyHomomorphic)
{
    auto a = randomComplexVec(enc_->slots(), 8);
    auto b = randomComplexVec(enc_->slots(), 9);
    double scale = ctx_->params().scale();
    Plaintext pa = enc_->encode(a, scale, 2);
    Plaintext pb = enc_->encode(b, scale, 2);
    pa.poly.add(pb.poly);
    auto w = enc_->decode(pa);
    for (size_t i = 0; i < w.size(); ++i)
        EXPECT_NEAR(std::abs(w[i] - (a[i] + b[i])), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Rings, EncoderTest,
                         ::testing::Values(16, 64, 256, 1024));

} // namespace
} // namespace hydra
