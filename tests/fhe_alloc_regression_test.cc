/**
 * @file
 * Allocation-regression guard for the evaluator hot path: once a
 * CMult + Rescale + Rotate loop has run a couple of warm-up rounds,
 * every RnsPoly temporary (keyswitch digits, automorphism outputs,
 * rescale scratch, relin accumulators) must be served from the
 * BufferPool buckets — zero fresh allocations in steady state.  A miss
 * here means some path regressed to allocating per call.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/pool.hh"
#include "fhe_test_util.hh"

namespace hydra {
namespace {

using test::FheHarness;

CkksParams
loopParams()
{
    CkksParams p;
    p.n = 1 << 10;
    p.levels = 8;
    return p;
}

TEST(AllocRegression, SteadyStateEvaluatorLoopNeverMissesPool)
{
    FheHarness h(loopParams(), {1});
    auto v = test::randomComplexVec(h.ctx.slots(), 31);
    Ciphertext ct = h.encryptVec(v);

    auto loopBody = [&] {
        // One round of the hot ciphertext ops, all at fixed sizes so
        // the same buckets are exercised every round.
        Ciphertext t = h.eval.mulRelin(ct, ct);
        t = h.eval.rescale(t);
        t = h.eval.rotate(t, 1);
        return t;
    };

    // Warm-up: populates the buckets plus the evaluator-side caches
    // (automorphism index maps, keyswitch scratch).  `last` is held
    // across iterations exactly like the measured loop so the bucket
    // inventory matches steady state.
    Ciphertext last;
    for (int i = 0; i < 2; ++i)
        last = loopBody();

    BufferPool::global().resetStats();
    for (int i = 0; i < 8; ++i)
        last = loopBody();

    BufferPool::Stats s = BufferPool::global().stats();
    EXPECT_EQ(s.misses, 0u)
        << "steady-state evaluator loop allocated " << s.misses
        << " fresh buffers (hits: " << s.hits << ")";
    EXPECT_GT(s.hits, 0u);

    // The loop result must still decrypt correctly: pooling must never
    // hand out a buffer that is still referenced elsewhere.
    auto rotated = v;
    for (auto& x : rotated)
        x *= x; // one CMult of v with itself...
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    auto w = h.decryptVec(last);
    EXPECT_LT(test::maxError(rotated, w), 1e-3);
}

TEST(AllocRegression, HoistedRotationSteadyStateNeverMissesPool)
{
    FheHarness h(loopParams(), {1, 2, 3, 4});
    auto v = test::randomComplexVec(h.ctx.slots(), 33);
    Ciphertext ct = h.encryptVec(v);
    std::vector<int> steps = {1, 2, 3, 4};

    for (int i = 0; i < 2; ++i)
        h.eval.rotateHoisted(ct, steps);

    BufferPool::global().resetStats();
    for (int i = 0; i < 4; ++i)
        h.eval.rotateHoisted(ct, steps);

    BufferPool::Stats s = BufferPool::global().stats();
    EXPECT_EQ(s.misses, 0u)
        << "hoisted rotation allocated " << s.misses << " fresh buffers";
    EXPECT_GT(s.hits, 0u);
}

TEST(AllocRegression, OpLevelParallelTransformNeverMissesPool)
{
    // BSGS with op-level parallel giant steps and hoisted rotations:
    // each pool thread draws from its own buffer slot, so the warm
    // steady state is allocation-free at every thread count, not just
    // when the threads happen to interleave as they did in warm-up.
    FheHarness probe(loopParams());
    size_t s = probe.ctx.slots();
    CMatrix m(s);
    for (size_t i = 0; i < s; ++i)
        m[i] = test::randomComplexVec(s, 300 + i, 0.1);
    FheHarness h(loopParams(),
                 LinearTransform(probe.encoder, m, probe.ctx.params().scale())
                     .requiredRotations());
    LinearTransform lt(h.encoder, m, h.ctx.params().scale());
    Ciphertext ct = h.encryptVec(test::randomComplexVec(s, 35));

    for (size_t threads : {1u, 4u}) {
        test::ThreadCountGuard tc(threads);
        Ciphertext last;
        for (int i = 0; i < 2; ++i)
            last = lt.apply(h.eval, ct);

        BufferPool::global().resetStats();
        for (int i = 0; i < 4; ++i)
            last = lt.apply(h.eval, ct);

        BufferPool::Stats st = BufferPool::global().stats();
        EXPECT_EQ(st.misses, 0u)
            << "linear transform at " << threads << " threads allocated "
            << st.misses << " fresh buffers (hits: " << st.hits << ")";
        EXPECT_GT(st.hits, 0u);
    }
}

TEST(AllocRegression, WarmBootstrapNeverMissesPool)
{
    // EvalMod's two lanes and the power-ladder tasks run on thread
    // teams; every pool thread keeps its own buffer slot, so a warm
    // bootstrap allocates nothing at 4 threads (2 + 2 lanes) and at 3
    // (2 + 1) as at 1.
    CkksParams p = CkksParams::bootstrapTest();
    p.n = 1 << 8;
    CkksContext probe_ctx(p);
    CkksEncoder probe_enc(probe_ctx);
    Bootstrapper probe(probe_ctx, probe_enc);
    FheHarness h(p, probe.requiredRotations());
    Bootstrapper boot(h.ctx, h.encoder);
    Ciphertext ct =
        h.encryptVec(test::randomComplexVec(h.ctx.slots(), 41, 0.01), 1);

    for (size_t threads : {1u, 3u, 4u}) {
        test::ThreadCountGuard tc(threads);
        Ciphertext out;
        for (int i = 0; i < 2; ++i)
            out = boot.bootstrap(h.eval, ct);

        BufferPool::global().resetStats();
        for (int i = 0; i < 2; ++i)
            out = boot.bootstrap(h.eval, ct);

        BufferPool::Stats st = BufferPool::global().stats();
        EXPECT_EQ(st.misses, 0u)
            << "warm bootstrap at " << threads << " threads allocated "
            << st.misses << " fresh buffers (hits: " << st.hits << ")";
        EXPECT_GT(st.hits, 0u);
    }
}

} // namespace
} // namespace hydra
