/**
 * @file
 * PCMM / CCMM functional kernel tests against plain matrix products
 * (the transformer building blocks of paper Section III-A).
 */

#include <gtest/gtest.h>

#include "fhe/matmul.hh"
#include "fhe_test_util.hh"

namespace hydra {
namespace {

using test::FheHarness;

CkksParams
mmParams()
{
    CkksParams p = CkksParams::unitTest();
    p.n = 1 << 8; // 128 slots
    p.levels = 6;
    return p;
}

RMatrix
randomMatrix(size_t d, uint64_t seed, double magnitude = 0.5)
{
    Rng rng(seed);
    RMatrix m(d, std::vector<double>(d));
    for (auto& row : m)
        for (auto& x : row)
            x = rng.uniformReal(-magnitude, magnitude);
    return m;
}

double
maxAbsDiff(const RMatrix& a, const RMatrix& b)
{
    double worst = 0;
    for (size_t i = 0; i < a.size(); ++i)
        for (size_t j = 0; j < a.size(); ++j)
            worst = std::max(worst, std::abs(a[i][j] - b[i][j]));
    return worst;
}

TEST(PackUnpack, RoundTrips)
{
    RMatrix m = randomMatrix(5, 90);
    auto slots = packMatrix(m, 64);
    RMatrix back = unpackMatrix(slots, 5);
    EXPECT_LT(maxAbsDiff(m, back), 1e-12);
    // Padding stays zero.
    for (size_t i = 25; i < 64; ++i)
        EXPECT_EQ(slots[i], cplx(0, 0));
}

TEST(MatMulRef, KnownProduct)
{
    RMatrix a = {{1, 2}, {3, 4}};
    RMatrix b = {{5, 6}, {7, 8}};
    RMatrix c = matMulRef(a, b);
    EXPECT_DOUBLE_EQ(c[0][0], 19);
    EXPECT_DOUBLE_EQ(c[0][1], 22);
    EXPECT_DOUBLE_EQ(c[1][0], 43);
    EXPECT_DOUBLE_EQ(c[1][1], 50);
}

class PcmmTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(PcmmTest, MatchesPlainProduct)
{
    size_t d = GetParam();
    CkksParams p = mmParams();
    RMatrix a = randomMatrix(d, 91);
    RMatrix w = randomMatrix(d, 92);

    CkksContext probe(p);
    CkksEncoder probe_enc(probe);
    PcmmPlan probe_plan(probe_enc, w, d, p.scale());

    FheHarness h(p, probe_plan.requiredRotations());
    PcmmPlan plan(h.encoder, w, d, p.scale());
    Ciphertext ct = h.encryptor.encrypt(h.encoder.encode(
        packMatrix(a, h.ctx.slots()), p.scale(), h.ctx.levels()));

    Ciphertext out = plan.apply(h.eval, ct);
    RMatrix got = unpackMatrix(h.decryptVec(out), d);
    EXPECT_LT(maxAbsDiff(got, matMulRef(a, w)), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Dims, PcmmTest, ::testing::Values(2, 4, 8));

TEST(PcmmDigest, OutputPinsParent)
{
    // PCMM rides on the dense LinearTransform path: its rotation keys
    // and output words are pinned bit for bit.  Of its 16 baby steps and
    // 8 giant steps, the block-diagonal W^T reads baby steps 1-7 and
    // 9-15 and one giant shift, so only those get keys.
    size_t d = 8;
    CkksParams p = mmParams();
    RMatrix a = randomMatrix(d, 91);
    RMatrix w = randomMatrix(d, 92);
    CkksContext probe(p);
    CkksEncoder probe_enc(probe);
    std::vector<int> rots =
        PcmmPlan(probe_enc, w, d, p.scale()).requiredRotations();
    EXPECT_EQ(rots, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12,
                                      13, 14, 15, 112}));

    FheHarness h(p, rots);
    PcmmPlan plan(h.encoder, w, d, p.scale());
    Ciphertext ct = h.encryptor.encrypt(h.encoder.encode(
        packMatrix(a, h.ctx.slots()), p.scale(), h.ctx.levels()));
    uint64_t digest = test::ciphertextDigest(plan.apply(h.eval, ct));
    EXPECT_EQ(digest, 0x5cae83eddd78d025ULL) << "digest 0x" << std::hex << digest;
}

class CcmmTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(CcmmTest, MatchesPlainProduct)
{
    size_t d = GetParam();
    CkksParams p = mmParams();
    FheHarness h(p, ccmmRotations(d));
    RMatrix a = randomMatrix(d, 93);
    RMatrix b = randomMatrix(d, 94);

    Ciphertext ca = h.encryptor.encrypt(h.encoder.encode(
        packMatrix(a, h.ctx.slots()), p.scale(), h.ctx.levels()));
    Ciphertext cb = h.encryptor.encrypt(h.encoder.encode(
        packMatrix(b, h.ctx.slots()), p.scale(), h.ctx.levels()));

    Ciphertext out = ccmm(h.eval, ca, cb, d);
    RMatrix got = unpackMatrix(h.decryptVec(out), d);
    EXPECT_LT(maxAbsDiff(got, matMulRef(a, b)), 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Dims, CcmmTest, ::testing::Values(2, 4, 8));

TEST(CcmmChain, AttentionLikeComposition)
{
    // scores = Q x K, context = scores x V -- two chained CCMMs, the
    // heart of the encrypted attention layer.
    size_t d = 4;
    CkksParams p = mmParams();
    p.levels = 9;
    FheHarness h(p, ccmmRotations(d));
    RMatrix q = randomMatrix(d, 95, 0.4);
    RMatrix k = randomMatrix(d, 96, 0.4);
    RMatrix v = randomMatrix(d, 97, 0.4);

    auto enc = [&](const RMatrix& m) {
        return h.encryptor.encrypt(h.encoder.encode(
            packMatrix(m, h.ctx.slots()), p.scale(), h.ctx.levels()));
    };
    Ciphertext scores = ccmm(h.eval, enc(q), enc(k), d);
    Ciphertext cv = h.eval.dropToLevel(enc(v), scores.level());
    cv.scale = scores.scale; // fp drift across rescales
    Ciphertext context = ccmm(h.eval, scores, cv, d);

    RMatrix expect = matMulRef(matMulRef(q, k), v);
    RMatrix got = unpackMatrix(h.decryptVec(context), d);
    EXPECT_LT(maxAbsDiff(got, expect), 1e-2);
}

TEST(CcmmRotations, SetSizes)
{
    auto steps = ccmmRotations(4);
    // 2d-2 row steps + 2d-2 column steps.
    EXPECT_EQ(steps.size(), 12u);
    for (int s : steps)
        EXPECT_NE(s, 0);
}

} // namespace
} // namespace hydra
