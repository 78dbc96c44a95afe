/**
 * @file
 * BSGS homomorphic linear-transform tests against plaintext
 * matrix-vector products.
 */

#include <gtest/gtest.h>

#include "fhe/lintrans.hh"
#include "fhe_test_util.hh"

namespace hydra {
namespace {

using test::FheHarness;
using test::maxError;
using test::randomComplexVec;

CkksParams
smallParams()
{
    CkksParams p = CkksParams::unitTest();
    p.n = 1 << 7; // 64 slots: dense-matrix reference stays fast
    p.levels = 4;
    return p;
}

CMatrix
randomMatrix(size_t s, uint64_t seed)
{
    Rng rng(seed);
    CMatrix m(s, std::vector<cplx>(s));
    for (auto& row : m)
        for (auto& x : row)
            x = cplx(rng.uniformReal(-1, 1), rng.uniformReal(-1, 1));
    return m;
}

class LinearTransformTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(LinearTransformTest, MatchesPlainMatVec)
{
    size_t bs = GetParam();
    CkksParams p = smallParams();
    CkksContext probe_ctx(p);
    CkksEncoder probe_enc(probe_ctx);
    CMatrix m = randomMatrix(probe_enc.slots(), 31);
    LinearTransform lt(probe_enc, m, p.scale(), bs);

    FheHarness h(p, lt.requiredRotations());
    // Rebuild against the harness encoder (identical params -> same
    // basis structure is not guaranteed; use the harness one).
    LinearTransform lt2(h.encoder, m, p.scale(), bs);

    auto v = randomComplexVec(h.ctx.slots(), 32);
    auto ct = h.encryptVec(v);
    auto got = h.decryptVec(lt2.apply(h.eval, ct));
    auto expect = matVec(m, v);
    EXPECT_LT(maxError(expect, got), 1e-2);
}

INSTANTIATE_TEST_SUITE_P(BabySteps, LinearTransformTest,
                         ::testing::Values(0, 4, 8, 16, 64));

TEST(LinearTransformSpecial, IdentityMatrix)
{
    CkksParams p = smallParams();
    FheHarness h(p, {}); // identity has only diagonal 0: no rotations
    size_t s = h.ctx.slots();
    CMatrix id(s, std::vector<cplx>(s, cplx(0, 0)));
    for (size_t i = 0; i < s; ++i)
        id[i][i] = cplx(1, 0);
    LinearTransform lt(h.encoder, id, p.scale());
    EXPECT_EQ(lt.diagonalCount(), 1u);

    auto v = randomComplexVec(s, 33);
    auto got = h.decryptVec(lt.apply(h.eval, h.encryptVec(v)));
    EXPECT_LT(maxError(v, got), 1e-3);
}

TEST(LinearTransformSpecial, CyclicShiftMatrix)
{
    // Permutation matrix P with P v = v shifted left by 1: exactly one
    // nonzero generalized diagonal (d = 1).
    CkksParams p = smallParams();
    CkksContext probe(p);
    size_t s = probe.slots();
    CMatrix m(s, std::vector<cplx>(s, cplx(0, 0)));
    for (size_t j = 0; j < s; ++j)
        m[j][(j + 1) % s] = cplx(1, 0);

    CkksEncoder probe_enc(probe);
    LinearTransform probe_lt(probe_enc, m, p.scale());
    EXPECT_EQ(probe_lt.diagonalCount(), 1u);

    FheHarness h(p, probe_lt.requiredRotations());
    LinearTransform lt(h.encoder, m, p.scale());
    auto v = randomComplexVec(s, 34);
    auto got = h.decryptVec(lt.apply(h.eval, h.encryptVec(v)));
    for (size_t j = 0; j < s; ++j)
        EXPECT_NEAR(std::abs(got[j] - v[(j + 1) % s]), 0.0, 1e-3);
}

TEST(LinearTransformSpecial, CompositionOfTwoTransforms)
{
    CkksParams p = smallParams();
    CkksContext probe(p);
    CkksEncoder probe_enc(probe);
    size_t s = probe.slots();
    CMatrix m1 = randomMatrix(s, 35);
    CMatrix m2 = randomMatrix(s, 36);
    // Scale down to keep products O(1).
    for (auto* m : {&m1, &m2})
        for (auto& row : *m)
            for (auto& x : row)
                x *= 0.1;

    LinearTransform probe_lt(probe_enc, m1, p.scale());
    FheHarness h(p, probe_lt.requiredRotations());
    LinearTransform lt1(h.encoder, m1, p.scale());
    LinearTransform lt2(h.encoder, m2, p.scale());

    auto v = randomComplexVec(s, 37);
    auto ct = h.encryptVec(v);
    auto got = h.decryptVec(lt2.apply(h.eval, lt1.apply(h.eval, ct)));
    auto expect = matVec(m2, matVec(m1, v));
    EXPECT_LT(maxError(expect, got), 1e-2);
}

TEST(LinearTransformSpecial, StridedDiagonalsMatchPlainMatVec)
{
    // Diagonals base + stride * k as a sparse FFT factor has them; the
    // keys are exactly requiredRotations(), so a missing one throws.
    CkksParams p = smallParams();
    CkksContext probe(p);
    CkksEncoder probe_enc(probe);
    size_t s = probe.slots();
    MatrixDiagonals f;
    f.base = s - 12;
    f.stride = 4;
    Rng rng(40);
    for (size_t k = 0; k < 7; ++k) {
        std::vector<cplx> d(s);
        for (auto& x : d)
            x = cplx(rng.uniformReal(-0.3, 0.3), rng.uniformReal(-0.3, 0.3));
        f.diags.push_back(std::move(d));
    }
    CMatrix m(s, std::vector<cplx>(s, cplx(0, 0)));
    for (size_t k = 0; k < f.diags.size(); ++k)
        for (size_t j = 0; j < s; ++j)
            m[j][(j + f.base + k * f.stride) % s] = f.diags[k][j];

    for (size_t bs : {0, 2, 3, 7}) {
        LinearTransform probe_lt(probe_enc, f, p.scale(), bs);
        std::vector<int> rots = probe_lt.requiredRotations();
        FheHarness h(p, rots, /*conjugation=*/false);
        LinearTransform lt(h.encoder, f, p.scale(), bs);
        auto v = randomComplexVec(s, 41);
        OpCounter counter;
        h.eval.setCounter(&counter);
        Ciphertext out = lt.apply(h.eval, h.encryptVec(v, 3));
        h.eval.setCounter(nullptr);
        EXPECT_EQ(counter.count(HeOpType::Rotate), rots.size())
            << "bs " << bs;
        EXPECT_EQ(lt.diagonalCount(), f.diags.size()) << "bs " << bs;
        EXPECT_LT(maxError(matVec(m, v), h.decryptVec(out)), 1e-3)
            << "bs " << bs;
    }
}

TEST(LinearTransformSpecial, DenseDigestPinsParent)
{
    // Dense matrices take the generalized-diagonal path with base 0 and
    // stride 1.  Keys and op counts are those of the one-path-per-matrix
    // transform; the output words are pinned for double hoisting, whose
    // one ModDown of the Q*P sum rounds differently from a ModDown per
    // rotation.
    CkksParams p = smallParams();
    CkksContext probe(p);
    CkksEncoder probe_enc(probe);
    size_t s = probe.slots();
    CMatrix m = randomMatrix(s, 38);
    for (size_t j = 0; j < s; ++j) // one structurally zero diagonal
        m[j][(j + 5) % s] = cplx(0, 0);
    struct Pin
    {
        size_t bs;
        size_t rotations;
        uint64_t rotates;
        uint64_t pmults;
        uint64_t digest;
    };
    for (const Pin& pin : {Pin{0, 14, 14, 63, 0x6b611b22bc3ba6a0ULL},
                           Pin{16, 18, 18, 63, 0x48977c2e2a679c04ULL}}) {
        LinearTransform probe_lt(probe_enc, m, p.scale(), pin.bs);
        std::vector<int> rots = probe_lt.requiredRotations();
        EXPECT_EQ(rots.size(), pin.rotations) << "bs " << pin.bs;
        FheHarness h(p, rots);
        LinearTransform lt(h.encoder, m, p.scale(), pin.bs);
        Ciphertext ct = h.encryptVec(randomComplexVec(s, 39), 3);
        OpCounter counter;
        h.eval.setCounter(&counter);
        Ciphertext out = lt.apply(h.eval, ct);
        h.eval.setCounter(nullptr);
        EXPECT_EQ(counter.count(HeOpType::Rotate), pin.rotates)
            << "bs " << pin.bs;
        EXPECT_EQ(counter.count(HeOpType::PMult), pin.pmults)
            << "bs " << pin.bs;
        EXPECT_EQ(test::ciphertextDigest(out), pin.digest)
            << "bs " << pin.bs << " digest 0x" << std::hex
            << test::ciphertextDigest(out);
        EXPECT_LT(maxError(matVec(m, randomComplexVec(s, 39)),
                           h.decryptVec(out)),
                  1e-2);
    }
}

} // namespace
} // namespace hydra
