/**
 * @file
 * Bit-exactness of the parallel RNS execution layer: every operation
 * must produce byte-identical limbs whatever the thread count, because
 * parallelFor partitions index ranges statically and each index writes
 * only its own outputs.  Also covers the lazy-reduction NTT rewrite:
 * roundtrip identity on both even and odd log2(n).
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "common/parallel.hh"
#include "fhe_test_util.hh"
#include "math/primes.hh"

namespace hydra {
namespace {

using test::ciphertextsIdentical;
using test::FheHarness;
using test::polysIdentical;
using test::ThreadCountGuard;

CkksParams
smallParams()
{
    CkksParams p;
    p.n = 1 << 8;
    p.levels = 4;
    return p;
}

TEST(ParallelDeterminism, MulRelinRotateBitExactAcrossThreadCounts)
{
    FheHarness h(smallParams(), {1, 3});
    auto v = test::randomComplexVec(h.ctx.slots(), 7);
    Ciphertext ct = h.encryptVec(v);

    Ciphertext prod_serial, rot_serial, hoist_serial;
    {
        ThreadCountGuard tc(1);
        prod_serial = h.eval.mulRelin(ct, ct);
        rot_serial = h.eval.rotate(ct, 1);
        hoist_serial = h.eval.rotateHoisted(ct, {3})[0];
    }
    for (size_t threads : {4u, 8u}) {
        ThreadCountGuard tc(threads);
        EXPECT_TRUE(
            ciphertextsIdentical(prod_serial, h.eval.mulRelin(ct, ct)))
            << "mulRelin diverges at " << threads << " threads";
        EXPECT_TRUE(
            ciphertextsIdentical(rot_serial, h.eval.rotate(ct, 1)))
            << "rotate diverges at " << threads << " threads";
        EXPECT_TRUE(ciphertextsIdentical(
            hoist_serial, h.eval.rotateHoisted(ct, {3})[0]))
            << "hoisted rotate diverges at " << threads << " threads";
    }
}

TEST(ParallelDeterminism, BootstrapStepBitExactAcrossThreadCounts)
{
    CkksParams p = CkksParams::bootstrapTest();
    p.n = 1 << 8;

    // The bootstrap C2S stage (factored BSGS linear transforms over
    // double-hoisted rotations, one conjugation) exercises ModUp, the
    // key MAC and ModDown (alpha = 5: multi-prime base conversions),
    // the automorphism memo and the Q*P diagonals all at once.  The
    // whole bootstrap runs its giant steps and hoisted baby steps as
    // op-level tasks, and EvalMod as two lanes whose power-ladder rungs
    // are tasks again, on thread teams.  Three threads split the 5
    // special limbs and 4 digits unevenly and the lanes 2 + 1.
    CkksContext probe_ctx(p);
    CkksEncoder probe_enc(probe_ctx);
    Bootstrapper probe_boot(probe_ctx, probe_enc);
    FheHarness h(p, probe_boot.requiredRotations());
    Bootstrapper boot(h.ctx, h.encoder);

    auto v = test::randomRealVec(h.ctx.slots(), 11, 0.01);
    Ciphertext ct = h.encryptVec(v, 1);
    Ciphertext raised = boot.modRaise(ct);

    std::pair<Ciphertext, Ciphertext> serial;
    Ciphertext serial_boot;
    {
        ThreadCountGuard tc(1);
        serial = boot.coeffToSlot(h.eval, raised);
        serial_boot = boot.bootstrap(h.eval, ct);
    }
    for (size_t threads : {2u, 3u, 4u, 8u}) {
        ThreadCountGuard tc(threads);
        auto parallel = boot.coeffToSlot(h.eval, raised);
        EXPECT_TRUE(ciphertextsIdentical(serial.first, parallel.first));
        EXPECT_TRUE(ciphertextsIdentical(serial.second, parallel.second));
        EXPECT_TRUE(
            ciphertextsIdentical(serial_boot, boot.bootstrap(h.eval, ct)))
            << "bootstrap diverges at " << threads << " threads";
    }
}

TEST(ParallelDeterminism, KeyGenDeterminism)
{
    // Key generation draws its randomness serially and computes the
    // rest on the pool, so every key is bit-identical at any thread
    // count, for one digit per limb (alpha = 1) and for dnum = 4.
    for (size_t alpha : {1u, 5u}) {
        CkksParams p = CkksParams::bootstrapTest();
        p.n = 1 << 8;
        p.specialPrimes = alpha;
        CkksContext ctx(p);
        auto keys = [&](size_t threads) {
            ThreadCountGuard tc(threads);
            KeyGenerator kg(ctx);
            SecretKey sk = kg.secretKey();
            std::vector<EvalKey> out;
            out.push_back(kg.relinKey(sk));
            GaloisKeys gk = kg.galoisKeys(sk, {1, 5});
            for (auto& [g, key] : gk.keys)
                out.push_back(std::move(key));
            return out;
        };
        std::vector<EvalKey> serial = keys(1);
        ASSERT_EQ(serial.size(), 4u); // relin, two rotations, conjugation
        ASSERT_EQ(serial[0].b.size(), p.dnum());
        for (size_t threads : {2u, 4u, 8u}) {
            std::vector<EvalKey> par = keys(threads);
            ASSERT_EQ(par.size(), serial.size());
            for (size_t i = 0; i < serial.size(); ++i) {
                ASSERT_EQ(par[i].b.size(), serial[i].b.size());
                for (size_t j = 0; j < serial[i].b.size(); ++j) {
                    EXPECT_TRUE(polysIdentical(par[i].b[j], serial[i].b[j]))
                        << "alpha " << alpha << " key " << i << " digit "
                        << j << " b at " << threads << " threads";
                    EXPECT_TRUE(polysIdentical(par[i].a[j], serial[i].a[j]))
                        << "alpha " << alpha << " key " << i << " digit "
                        << j << " a at " << threads << " threads";
                }
            }
        }
    }
}

TEST(ParallelDeterminism, DoubleHoistedApplyBitExactAcrossThreadCounts)
{
    // LinearTransform::apply keeps its hoisted baby steps over Q*P and
    // runs the giant steps (PMults over Q*P, a c1-only ModDown and a
    // keyswitch each) as op-level tasks before one final ModDown.  Its
    // output must not depend on the thread count: 3 threads take the 8
    // giant steps 3 + 3 + 2.  alpha = 1 (one special prime) and
    // alpha = 5 (multi-prime base conversions) both run.
    for (size_t alpha : {1u, 5u}) {
        CkksParams p = smallParams();
        p.levels = 6;
        p.specialPrimes = alpha;
        CkksContext probe_ctx(p);
        CkksEncoder probe_enc(probe_ctx);
        size_t s = probe_enc.slots();
        double scale = p.scale();
        CMatrix m(s);
        for (size_t i = 0; i < s; ++i)
            m[i] = test::randomComplexVec(s, 100 + i, 0.1);
        FheHarness h(p, LinearTransform(probe_enc, m, scale)
                            .requiredRotations());
        LinearTransform lt(h.encoder, m, scale);
        std::vector<cplx> v = test::randomComplexVec(s, 17);
        Ciphertext ct = h.encryptVec(v, 3);

        Ciphertext ref;
        {
            ThreadCountGuard tc(1);
            ref = lt.apply(h.eval, ct);
        }
        EXPECT_LT(test::maxError(matVec(m, v), h.decryptVec(ref)), 1e-2)
            << "alpha " << alpha;
        for (size_t threads : {3u, 4u, 8u}) {
            ThreadCountGuard tc(threads);
            EXPECT_TRUE(ciphertextsIdentical(ref, lt.apply(h.eval, ct)))
                << "alpha " << alpha << ", " << threads << " threads";
        }
    }
}

TEST(ParallelDeterminism, HoistedRotationsMatchRotateBitForBit)
{
    std::vector<int> steps = {1, 2, 3, 5, 7, 8, -1, 16};
    FheHarness h(smallParams(), steps);
    Ciphertext ct = h.encryptVec(test::randomComplexVec(h.ctx.slots(), 5));

    // 8 steps run as op-level tasks at up to 8 threads; 2 steps fall
    // back to limb-parallel rotations at 4 and 8.
    for (size_t threads : {1u, 4u, 8u}) {
        ThreadCountGuard tc(threads);
        for (size_t count : {steps.size(), size_t{2}}) {
            std::vector<int> sub(steps.begin(), steps.begin() + count);
            std::vector<Ciphertext> hoisted =
                h.eval.rotateHoisted(ct, sub);
            ASSERT_EQ(hoisted.size(), sub.size());
            for (size_t i = 0; i < sub.size(); ++i)
                EXPECT_TRUE(ciphertextsIdentical(
                    h.eval.rotate(ct, sub[i]), hoisted[i]))
                    << "step " << sub[i] << " at " << threads
                    << " threads";
        }
    }
}

class NttEquivalenceTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(NttEquivalenceTest, RoundtripAndRadix4MatchRadix2)
{
    size_t n = GetParam();
    Modulus q(nttPrimes(n, 50, 1)[0]);
    NttTable table(n, q);

    Rng rng(0xfeedu + n);
    std::vector<u64> orig(n);
    for (auto& x : orig)
        x = rng.uniformU64(q.value());

    // Roundtrip: inverse(forward(a)) == a with canonical residues.
    std::vector<u64> a = orig;
    table.forward(a);
    for (u64 x : a)
        ASSERT_LT(x, q.value()) << "forward output not normalized";
    table.inverse(a);
    EXPECT_EQ(a, orig);
}

// Even (2^10, 2^12) and odd (2^9, 2^13) log2(n).
INSTANTIATE_TEST_SUITE_P(EvenAndOddLogN, NttEquivalenceTest,
                         ::testing::Values(1 << 9, 1 << 10, 1 << 12,
                                           1 << 13));

TEST(ParallelDeterminism, ParallelForCoversRangeOnce)
{
    ThreadCountGuard tc(8);
    std::vector<int> hits(1013, 0);
    parallelFor(0, hits.size(), [&](size_t i) { hits[i] += 1; });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;

    // Nested calls degrade to serial but still cover the range.
    std::vector<int> nested(64 * 16, 0);
    parallelFor(0, 64, [&](size_t i) {
        parallelFor(0, 16, [&](size_t j) { nested[i * 16 + j] += 1; });
    });
    for (size_t i = 0; i < nested.size(); ++i)
        ASSERT_EQ(nested[i], 1) << "nested index " << i;
}

/** Expected size of sub-team i when `threads` split into k teams. */
size_t
teamSize(size_t threads, size_t k, size_t i)
{
    return threads / k + (i < threads % k ? 1 : 0);
}

TEST(ParallelDeterminism, TeamsCoverEveryIndexOnce)
{
    // parallelForOuter(k) around a nested parallelFor and a nested
    // parallelForOuter: every (task, inner) index runs exactly once,
    // whether k splits the pool into teams (1 < k < T) or not.
    constexpr size_t kInner = 37;
    for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        ThreadCountGuard tc(threads);
        for (size_t k = 1; k <= threads + 1; ++k) {
            std::vector<int> flat(k * kInner, 0);
            parallelForOuter(k, [&](size_t i) {
                parallelFor(0, kInner,
                            [&](size_t j) { flat[i * kInner + j] += 1; });
            });
            for (size_t x = 0; x < flat.size(); ++x)
                ASSERT_EQ(flat[x], 1) << threads << " threads, k " << k
                                      << ", index " << x;

            for (size_t m : {1u, 2u, 3u}) {
                std::vector<int> deep(k * m * kInner, 0);
                parallelForOuter(k, [&](size_t i) {
                    parallelForOuter(m, [&](size_t l) {
                        parallelFor(0, kInner, [&](size_t j) {
                            deep[(i * m + l) * kInner + j] += 1;
                        });
                    });
                });
                for (size_t x = 0; x < deep.size(); ++x)
                    ASSERT_EQ(deep[x], 1)
                        << threads << " threads, k " << k << ", m " << m
                        << ", index " << x;
            }
        }
    }
}

TEST(ParallelDeterminism, TeamsUseDisjointThreads)
{
    // Record which thread ran every inner index.  With 1 < k < T each
    // task's nested parallelFor spreads over exactly its own team of
    // floor(T/k) or ceil(T/k) threads, and the teams share no thread;
    // k == 1 keeps the whole pool, k >= T gives each task one thread.
    constexpr size_t kInner = 64;
    for (size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        ThreadCountGuard tc(threads);
        for (size_t k = 1; k <= threads + 1; ++k) {
            std::vector<std::thread::id> who(k * kInner);
            parallelForOuter(k, [&](size_t i) {
                parallelFor(0, kInner, [&](size_t j) {
                    who[i * kInner + j] = std::this_thread::get_id();
                });
            });
            std::set<std::thread::id> all;
            size_t total = 0;
            for (size_t i = 0; i < k; ++i) {
                std::set<std::thread::id> team(who.begin() + i * kInner,
                                               who.begin() +
                                                   (i + 1) * kInner);
                size_t want = k == 1         ? threads
                              : k >= threads ? 1
                                             : teamSize(threads, k, i);
                EXPECT_EQ(team.size(), want)
                    << threads << " threads, k " << k << ", task " << i;
                all.insert(team.begin(), team.end());
                total += team.size();
            }
            if (k < threads) {
                EXPECT_EQ(all.size(), total)
                    << "teams overlap at " << threads << " threads, k "
                    << k;
            }
            EXPECT_LE(all.size(), threads);
        }
    }
    // The uneven split the CI TSan leg runs at HYDRA_THREADS=3.
    EXPECT_EQ(teamSize(3, 2, 0), 2u);
    EXPECT_EQ(teamSize(3, 2, 1), 1u);
}

TEST(ParallelDeterminism, FreshPlaintextSharedByConcurrentTasks)
{
    // Concurrent tasks read one fresh full-chain plaintext through its
    // leading limbs; none of them writes it (a data race here shows on
    // the TSan leg).
    FheHarness h(smallParams());
    auto v = test::randomComplexVec(h.ctx.slots(), 29);
    Ciphertext ct = h.encryptVec(v, 3);
    Plaintext ref_pt = h.encoder.encode(v, h.ctx.params().scale(),
                                        h.ctx.levels());
    Ciphertext ref = h.eval.mulPlain(ct, ref_pt);
    for (size_t threads : {2u, 3u, 4u}) {
        ThreadCountGuard tc(threads);
        for (size_t tasks : {2u, 3u, 4u}) {
            Plaintext pt = h.encoder.encode(v, h.ctx.params().scale(),
                                            h.ctx.levels());
            std::vector<Ciphertext> out(tasks);
            parallelForOuter(tasks, [&](size_t i) {
                out[i] = h.eval.mulPlain(ct, pt);
            });
            for (size_t i = 0; i < tasks; ++i)
                EXPECT_TRUE(ciphertextsIdentical(ref, out[i]))
                    << threads << " threads, task " << i << " of " << tasks;
        }
    }
}

TEST(ParallelDeterminism, PlaintextPrefixMatchesLevelEncoding)
{
    // Each RNS limb's NTT is independent, so a full-chain plaintext
    // read through its leading limbs is the plaintext encoded at the
    // ciphertext's level, residue for residue.
    FheHarness h(smallParams());
    auto v = test::randomComplexVec(h.ctx.slots(), 23);
    double scale = h.ctx.params().scale();
    Plaintext full = h.encoder.encode(v, scale, h.ctx.levels());
    for (size_t level = 1; level < h.ctx.levels(); ++level) {
        Plaintext at = h.encoder.encode(v, scale, level);
        for (size_t k = 0; k < level; ++k)
            EXPECT_TRUE(full.poly.limb(k) == at.poly.limb(k))
                << "limb " << k << " at level " << level;

        Ciphertext ct = h.encryptVec(v, level);
        EXPECT_TRUE(ciphertextsIdentical(h.eval.mulPlain(ct, full),
                                         h.eval.mulPlain(ct, at)))
            << "mulPlain at level " << level;
        EXPECT_TRUE(ciphertextsIdentical(h.eval.addPlain(ct, full),
                                         h.eval.addPlain(ct, at)))
            << "addPlain at level " << level;
        Ciphertext acc_full = h.eval.mulPlain(ct, at);
        Ciphertext acc_at = acc_full;
        h.eval.addMulPlain(acc_full, ct, full);
        h.eval.addMulPlain(acc_at, ct, at);
        EXPECT_TRUE(ciphertextsIdentical(acc_full, acc_at))
            << "addMulPlain at level " << level;
    }
}

} // namespace
} // namespace hydra
