/**
 * @file
 * Property/fuzz tests of the Procedure-1 executor: randomized programs
 * with consistent message ordering must always complete (no deadlock),
 * deterministically, with conserved compute time -- under both
 * overlapping (Hydra) and blocking (FAB) networks.  Two digest pins
 * fix the executor's exact schedules, timelines and diagnostics.
 */

#include <gtest/gtest.h>

#include <optional>

#include "common/rng.hh"
#include "sync/executor.hh"

namespace hydra {
namespace {

class FuzzNetwork : public NetworkModel
{
  public:
    FuzzNetwork(Tick per_byte, Tick setup, bool overlaps)
        : perByte_(per_byte), setup_(setup), overlaps_(overlaps)
    {
    }

    std::unique_ptr<NetworkModel>
    clone() const override
    {
        return std::make_unique<FuzzNetwork>(*this);
    }

    Tick
    transferTime(uint64_t b, size_t, size_t) const override
    {
        return 100 + perByte_ * b;
    }

    Tick
    broadcastTime(uint64_t b, size_t, size_t) const override
    {
        return 150 + perByte_ * b;
    }

    Tick setupLatency() const override { return setup_; }
    bool overlapsCompute() const override { return overlaps_; }
    Tick stepSyncLatency() const override { return 0; }

  private:
    Tick perByte_;
    Tick setup_;
    bool overlaps_;
};

/**
 * Generate a random but deadlock-free program: messages get a global
 * total order; each card's comm queue lists its sends/recvs in that
 * order, which matches the executor's head-of-queue handshake.  With
 * `data_dependent`, about half the interleaved computes wait (CT_d) on
 * the latest message their card receives; that send precedes the wait
 * in the global order, so the program stays deadlock-free.  Either way
 * the same random draws are made, so the message pattern is the same.
 */
Program
randomProgram(size_t cards, uint64_t seed, size_t n_messages,
              size_t n_computes, Tick& total_compute,
              bool data_dependent = true)
{
    Rng rng(seed);
    ProgramBuilder pb(cards);
    uint32_t label = pb.label("fuzz");
    total_compute = 0;

    // Seed compute work per card so sends have producers.
    std::vector<uint64_t> last_compute(cards, 0);
    for (size_t c = 0; c < cards; ++c) {
        Tick d = 10 + rng.uniformU64(200);
        total_compute += d;
        last_compute[c] = pb.addCompute(c, d, OpCost{}, label);
    }

    std::vector<uint64_t> msgs;
    // Per card, the latest message it receives (none yet: empty).
    std::vector<std::optional<uint64_t>> received(cards);
    for (size_t m = 0; m < n_messages; ++m) {
        size_t src = rng.uniformU64(cards);
        if (cards < 2)
            break;
        if (rng.uniformU64(4) == 0) {
            // Broadcast: every other card receives it.
            msgs.push_back(pb.broadcastFrom(src, 1 + rng.uniformU64(999),
                                            last_compute[src]));
            for (size_t c = 0; c < cards; ++c)
                if (c != src)
                    received[c] = msgs.back();
        } else {
            size_t dst = rng.uniformU64(cards);
            if (dst == src)
                dst = (dst + 1) % cards;
            msgs.push_back(pb.sendTo(src, dst, 1 + rng.uniformU64(999),
                                     last_compute[src]));
            received[dst] = msgs.back();
        }
        // Interleave more compute, sometimes data-dependent (CT_d).
        size_t c = rng.uniformU64(cards);
        std::vector<uint64_t> waits;
        if (!msgs.empty() && rng.uniformU64(2) == 0 && data_dependent &&
            received[c])
            waits.push_back(*received[c]);
        Tick d = 5 + rng.uniformU64(100);
        total_compute += d;
        last_compute[c] = pb.addCompute(c, d, OpCost{}, label, waits);
    }
    for (size_t k = 0; k < n_computes; ++k) {
        size_t c = rng.uniformU64(cards);
        Tick d = 1 + rng.uniformU64(50);
        total_compute += d;
        last_compute[c] = pb.addCompute(c, d, OpCost{}, label);
    }
    return pb.take();
}

class FuzzTest
    : public ::testing::TestWithParam<std::tuple<size_t, bool, uint64_t>>
{
};

TEST_P(FuzzTest, CompletesDeterministically)
{
    auto [cards, overlaps, seed] = GetParam();
    ClusterConfig cfg{1, cards};
    FuzzNetwork net(3, 20, overlaps);
    ClusterExecutor ex(cfg, net);

    Tick total_a = 0, total_b = 0;
    Program pa = randomProgram(cards, seed, 40, 30, total_a);
    Program pb = randomProgram(cards, seed, 40, 30, total_b);

    // The programs exercise CT_d blocking and stay valid.
    size_t waits = 0;
    for (const CardProgram& card : pa.cards)
        waits += card.waits.size();
    EXPECT_GT(waits, 0u);
    EXPECT_TRUE(pa.validate().empty());

    RunStats a = ex.run(pa);
    RunStats b = ex.run(pb);

    // Determinism.
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.netBytes, b.netBytes);

    // Work conservation.
    Tick busy = 0;
    for (Tick t : a.computeBusy)
        busy += t;
    EXPECT_EQ(busy, total_a);

    // Makespan bounds: at least the busiest card, at most the sum of
    // everything serialized.
    EXPECT_GE(a.makespan, a.maxComputeBusy());
}

INSTANTIATE_TEST_SUITE_P(
    Programs, FuzzTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 8, 16),
                       ::testing::Bool(),
                       ::testing::Values(11, 22, 33, 44)));

/**
 * Derive a random-but-deterministic fault plan from a seed: transient
 * drop/corrupt rates, occasional link degradation, a straggler, and
 * sometimes a permanent card kill.
 */
FaultPlan
randomFaultPlan(uint64_t seed, size_t cards)
{
    Rng rng(seed * 7919 + 13);
    FaultPlan plan;
    plan.seed = seed;
    const double drops[] = {0.0, 0.05, 0.3, 0.8};
    plan.dropRate = drops[rng.uniformU64(4)];
    const double corrupts[] = {0.0, 0.1, 0.5};
    plan.corruptRate = corrupts[rng.uniformU64(3)];
    if (rng.uniformU64(3) == 0)
        plan.linkDegrade = 1.0 + rng.uniformReal(0.0, 3.0);
    if (rng.uniformU64(2) == 0)
        plan.stragglers[rng.uniformU64(cards)] =
            1.0 + rng.uniformReal(0.0, 4.0);
    if (rng.uniformU64(3) == 0)
        plan.cardFailAt[rng.uniformU64(cards)] =
            rng.uniformU64(20000);
    return plan;
}

/**
 * Robustness property: random valid programs under random fault plans
 * must either complete or return a structured error — the process
 * never aborts — and every outcome is deterministic in the seed.
 */
TEST_P(FuzzTest, FaultPlansNeverAbortAndStayDeterministic)
{
    auto [cards, overlaps, seed] = GetParam();
    ClusterConfig cfg{1, cards};
    FuzzNetwork net(3, 20, overlaps);
    ClusterExecutor ex(cfg, net);
    RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.backoffBase = 50;
    ex.setRetryPolicy(retry);

    for (uint64_t v = 0; v < 4; ++v) {
        uint64_t fault_seed = seed * 100 + v;
        ex.setFaultPlan(randomFaultPlan(fault_seed, cards));

        Tick total = 0;
        RunResult a = ex.tryRun(
            randomProgram(cards, seed, 30, 20, total));
        RunResult b = ex.tryRun(
            randomProgram(cards, seed, 30, 20, total));

        // Valid programs only fail through the fault machinery.
        if (!a.ok()) {
            EXPECT_TRUE(
                a.error.kind == RunError::Kind::TransferFailed ||
                a.error.kind == RunError::Kind::CardFailed)
                << RunError::kindName(a.error.kind) << ": "
                << a.error.message;
        }

        // Tick-identical re-run of the same (program, plan) pair.
        EXPECT_EQ(a.error.kind, b.error.kind);
        EXPECT_EQ(a.stats.makespan, b.stats.makespan);
        EXPECT_EQ(a.stats.retries, b.stats.retries);
        EXPECT_EQ(a.stats.droppedTransfers, b.stats.droppedTransfers);
        EXPECT_EQ(a.stats.netBytes, b.stats.netBytes);
    }
}

/**
 * Determinism guard: with an empty fault plan the fault-aware path is
 * tick-identical to the legacy run() path for the same seed.
 */
TEST_P(FuzzTest, EmptyFaultPlanIsTickIdenticalToLegacyRun)
{
    auto [cards, overlaps, seed] = GetParam();
    ClusterConfig cfg{1, cards};
    FuzzNetwork net(3, 20, overlaps);

    Tick total = 0;
    ClusterExecutor legacy(cfg, net);
    RunStats want = legacy.run(randomProgram(cards, seed, 40, 30, total));

    ClusterExecutor faulty(cfg, net);
    faulty.setFaultPlan(FaultPlan{}); // explicit empty plan
    RunResult got =
        faulty.tryRun(randomProgram(cards, seed, 40, 30, total));

    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.stats.makespan, want.makespan);
    EXPECT_EQ(got.stats.netBytes, want.netBytes);
    EXPECT_EQ(got.stats.netMessages, want.netMessages);
    EXPECT_EQ(got.stats.computeBusy, want.computeBusy);
    EXPECT_EQ(got.stats.commBusy, want.commBusy);
    EXPECT_EQ(got.stats.retries, 0u);
    EXPECT_EQ(got.stats.retryBackoffTicks, 0u);
}

/**
 * Broadcast-heavy program in the shape of a large-cluster keyswitch
 * step: each round one card computes and broadcasts, every other card
 * runs a CT_d task on the broadcast, and some rounds add a
 * point-to-point transfer.  Comm queues follow one global message
 * order, so the program never deadlocks.
 */
Program
broadcastProgram(size_t cards, uint64_t seed, size_t rounds)
{
    Rng rng(seed);
    ProgramBuilder pb(cards);
    uint32_t l = pb.label("bcast");
    std::vector<uint64_t> last_compute(cards, 0);
    for (size_t k = 0; k < rounds; ++k) {
        size_t src = rng.uniformU64(cards);
        last_compute[src] =
            pb.addCompute(src, 20 + rng.uniformU64(200), OpCost{}, l);
        uint64_t msg = pb.broadcastFrom(src, 1 + rng.uniformU64(4000),
                                        last_compute[src]);
        for (size_t c = 0; c < cards; ++c)
            if (c != src)
                last_compute[c] = pb.addCompute(
                    c, 5 + rng.uniformU64(80), OpCost{}, l, {msg});
        if (rng.uniformU64(3) == 0) {
            size_t a = rng.uniformU64(cards);
            size_t b = (a + 1 + rng.uniformU64(cards - 1)) % cards;
            pb.sendTo(a, b, 1 + rng.uniformU64(999), last_compute[a]);
        }
    }
    return pb.take();
}

/** FNV-1a over everything one executor run exposes. */
struct EngineDigest
{
    uint64_t h = 0xcbf29ce484222325ull;
    size_t runs = 0;

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const RunResult& r)
    {
        ++runs;
        u64(r.stats.fingerprint());
        u64(r.stats.timeline.size());
        for (const TaskEvent& e : r.stats.timeline) {
            u64(e.card);
            u64(e.start);
            u64(e.end);
            u64(static_cast<uint64_t>(e.kind));
            u64(e.label);
        }
        u64(static_cast<uint64_t>(r.error.kind));
        u64(r.error.card);
        u64(r.error.msg);
        u64(r.error.tick);
        u64(r.error.attempts);
        for (char c : r.error.deadlock.describe())
            u64(static_cast<unsigned char>(c));
    }
};

/**
 * Engine pin: one digest over the stats fingerprint, the timeline and
 * the structured error of every FuzzTest program with and without a
 * fault plan, 64-card broadcast-heavy programs on both network kinds
 * (the large host-mediated and overlapping cluster shapes), and
 * deadlocking programs.  Any change in event order, timing or
 * diagnostics moves it.
 */
TEST(FuzzGolden, EngineDigestPinsParent)
{
    EngineDigest d;
    RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.backoffBase = 50;

    for (size_t cards : {2, 3, 4, 8, 16}) {
        for (bool overlaps : {false, true}) {
            for (uint64_t seed : {11, 22, 33, 44}) {
                ClusterConfig cfg{1, cards};
                FuzzNetwork net(3, 20, overlaps);
                ClusterExecutor ex(cfg, net);
                ex.setRecordTimeline(true);
                ex.setRetryPolicy(retry);
                Tick total = 0;
                // The pin was captured on programs without CT_d waits.
                d.add(ex.tryRun(
                    randomProgram(cards, seed, 40, 30, total, false)));
                ex.setFaultPlan(randomFaultPlan(seed * 100 + cards, cards));
                d.add(ex.tryRun(
                    randomProgram(cards, seed, 40, 30, total, false)));
            }
        }
    }

    // A mild plan the 64-card programs survive through retries.
    FaultPlan mild;
    mild.seed = 9;
    mild.dropRate = 0.1;
    mild.corruptRate = 0.1;
    mild.linkDegrade = 1.3;
    mild.stragglers[9] = 2.5;
    RetryPolicy patient = retry;
    patient.maxAttempts = 8;
    RetryPolicy timed = retry;
    timed.timeout = 2000;
    for (bool overlaps : {false, true}) {
        for (uint64_t seed : {5, 6}) {
            ClusterConfig cfg{4, 16};
            FuzzNetwork net(1, 20, overlaps);
            ClusterExecutor ex(cfg, net);
            ex.setRecordTimeline(true);
            ex.setRetryPolicy(patient);
            d.add(ex.tryRun(broadcastProgram(64, seed, 24)));
            ex.setFaultPlan(mild);
            d.add(ex.tryRun(broadcastProgram(64, seed, 24)));
            ex.setRetryPolicy(timed);
            ex.setFaultPlan(randomFaultPlan(seed, 64));
            ex.setTimeOrigin(5000);
            d.add(ex.tryRun(broadcastProgram(64, seed, 24)));
        }
    }

    for (bool overlaps : {false, true}) {
        // A 4-card ring whose every card posts its recv before its
        // send: a wait-for cycle.
        ClusterConfig cfg{1, 4};
        FuzzNetwork net(3, 20, overlaps);
        ClusterExecutor ex(cfg, net);
        ex.setRecordTimeline(true);
        ProgramBuilder ring(4);
        uint32_t l = ring.label("ring");
        std::vector<uint64_t> msgs;
        for (size_t c = 0; c < 4; ++c)
            msgs.push_back(ring.newMsg());
        for (size_t c = 0; c < 4; ++c) {
            uint64_t id = ring.addCompute(c, 10 + c, OpCost{}, l);
            ring.addRecv(c, msgs[(c + 3) % 4], (c + 3) % 4, 8);
            ring.addSend(c, msgs[c], (c + 1) % 4, 8, id);
        }
        d.add(ex.tryRun(ring.take()));

        // A valid program where a third card also receives a
        // point-to-point message and posts ready for it first: the
        // send must still wait for its own receiver, whose recv sits
        // behind a late transfer.
        ProgramBuilder extra(4);
        uint32_t e = extra.label("extra");
        uint64_t slow = extra.addCompute(3, 500, OpCost{}, e);
        uint64_t late = extra.sendTo(3, 1, 8, slow);
        uint64_t early = extra.newMsg();
        uint64_t p0 = extra.addCompute(0, 9, OpCost{}, e);
        extra.addRecv(2, early, 0, 8);
        extra.addSend(0, early, 1, 8, p0);
        extra.addRecv(1, early, 0, 8);
        extra.addCompute(1, 5, OpCost{}, e, {late, early});
        d.add(ex.tryRun(extra.take()));

        // Invalid programs run without prevalidation: an unmatched
        // recv, a wait on a message that never arrives, a send whose
        // payload compute does not exist, and a broadcast one card
        // never receives.
        ex.setPrevalidate(false);
        ProgramBuilder bad(4);
        uint32_t b = bad.label("bad");
        uint64_t c0 = bad.addCompute(0, 7, OpCost{}, b);
        bad.addRecv(1, 900, 0, 8);
        bad.addCompute(2, 5, OpCost{}, b, {901});
        bad.addSend(3, 902, 2, 8, 12345);
        bad.addRecv(2, 902, 3, 8);
        uint64_t bc = bad.newMsg();
        bad.addSend(0, bc, kBroadcast, 16, c0);
        bad.addRecv(1, bc, 0, 16);
        bad.addRecv(3, bc, 0, 16);
        d.add(ex.tryRun(bad.take()));
    }

    EXPECT_EQ(d.runs, 98u);
    EXPECT_EQ(d.h, 0x8e1be80f6c1952b7ull);
}

/**
 * Second engine pin, captured while every host-mediated compute
 * completion still swept all cards: the FuzzTest programs with CT_d
 * waits on both network kinds, with and without a fault plan, and
 * 64-card broadcast-heavy programs on a host-mediated network started
 * at a time origin.  The CT_d waits and the 64-card host-mediated runs
 * are where a wake-up that misses a card shows first.
 */
TEST(FuzzGolden, DataDependentDigestPinsParent)
{
    EngineDigest d;
    RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.backoffBase = 50;

    for (size_t cards : {2, 3, 4, 8, 16}) {
        for (bool overlaps : {false, true}) {
            for (uint64_t seed : {11, 22, 33, 44}) {
                ClusterConfig cfg{1, cards};
                FuzzNetwork net(3, 20, overlaps);
                ClusterExecutor ex(cfg, net);
                ex.setRecordTimeline(true);
                ex.setRetryPolicy(retry);
                Tick total = 0;
                d.add(ex.tryRun(
                    randomProgram(cards, seed, 40, 30, total, true)));
                ex.setFaultPlan(randomFaultPlan(seed * 100 + cards, cards));
                d.add(ex.tryRun(
                    randomProgram(cards, seed, 40, 30, total, true)));
            }
        }
    }

    RetryPolicy patient = retry;
    patient.maxAttempts = 8;
    for (uint64_t seed : {5, 6, 7}) {
        ClusterConfig cfg{8, 8};
        FuzzNetwork net(1, 20, false);
        ClusterExecutor ex(cfg, net);
        ex.setRecordTimeline(true);
        ex.setRetryPolicy(patient);
        ex.setTimeOrigin(7000);
        d.add(ex.tryRun(broadcastProgram(64, seed, 32)));
        ex.setFaultPlan(randomFaultPlan(seed + 64, 64));
        d.add(ex.tryRun(broadcastProgram(64, seed, 32)));
    }

    EXPECT_EQ(d.runs, 86u);
    EXPECT_EQ(d.h, 0xca4267dd1eb714efull);
}

/** FNV-1a over a run's recorded timeline in event order. */
void
addTimeline(EngineDigest& d, const RunResult& r)
{
    ++d.runs;
    d.u64(r.stats.timeline.size());
    for (const TaskEvent& e : r.stats.timeline) {
        d.u64(e.card);
        d.u64(e.start);
        d.u64(e.end);
        d.u64(static_cast<uint64_t>(e.kind));
        d.u64(e.label);
    }
}

/**
 * Four host-mediated cards, one transfer whose first attempt fails.
 * Card 1 posts its recv for card 3's message while its first compute
 * runs, so its second compute waits out the DMA setup and then the
 * transfer.  Card 0's compute ends mid-transfer, and its SweepAll
 * leaves card 1 swept clean.  Card 2's compute ends on the tick the
 * attempt fails: that completion's SweepAll must find card 1 freed
 * and start its compute there, ahead of card 3's retry.
 */
Program
failedTransferFreesReceiver()
{
    ProgramBuilder pb(4);
    uint32_t l = pb.label("wake");
    pb.addCompute(1, 10, OpCost{}, l);
    uint64_t payload = pb.addCompute(3, 5, OpCost{}, l);
    pb.sendTo(3, 1, 8, payload);
    pb.addCompute(1, 50, OpCost{}, l);
    pb.addCompute(0, 50, OpCost{}, l);
    pb.addCompute(2, 120, OpCost{}, l);
    return pb.take();
}

/**
 * Third pin, on the recorded timelines alone in event order: the
 * FuzzTest programs with CT_d waits on a host-mediated network, each
 * with every first attempt dropped and under a random fault plan, and
 * failedTransferFreesReceiver().  Compute and transfer intervals are
 * emitted as their completions run, so a wake-up that reaches a card
 * later in the same tick reorders the timeline even when it moves no
 * tick and no fingerprint.
 */
TEST(FuzzGolden, TimelineEventOrderPinsParent)
{
    EngineDigest d;
    RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.backoffBase = 7;

    for (size_t cards : {2, 3, 4, 8, 16}) {
        for (uint64_t seed : {11, 22, 33, 44}) {
            ClusterConfig cfg{1, cards};
            FuzzNetwork net(3, 20, false);
            ClusterExecutor ex(cfg, net);
            ex.setRecordTimeline(true);
            ex.setRetryPolicy(retry);
            Tick total = 0;
            FaultPlan once;
            once.dropFirstAttempts = 1;
            ex.setFaultPlan(once);
            addTimeline(d, ex.tryRun(
                randomProgram(cards, seed, 40, 30, total, true)));
            ex.setFaultPlan(randomFaultPlan(seed * 100 + cards, cards));
            addTimeline(d, ex.tryRun(
                randomProgram(cards, seed, 40, 30, total, true)));
        }
    }
    ClusterConfig cfg{1, 4};
    FuzzNetwork net(0, 20, false);
    ClusterExecutor ex(cfg, net);
    ex.setRecordTimeline(true);
    ex.setRetryPolicy(retry);
    FaultPlan once;
    once.dropFirstAttempts = 1;
    ex.setFaultPlan(once);
    RunResult r = ex.tryRun(failedTransferFreesReceiver());
    ASSERT_TRUE(r.ok()) << r.error.message;
    addTimeline(d, r);

    EXPECT_EQ(d.runs, 41u);
    EXPECT_EQ(d.h, 0xcac9bfd9f19bcd43ull);
}

TEST(FuzzEdge, EmptyProgramFinishesInstantly)
{
    ClusterConfig cfg{1, 4};
    FuzzNetwork net(1, 1, true);
    ClusterExecutor ex(cfg, net);
    Program p(4);
    RunStats st = ex.run(p);
    EXPECT_EQ(st.makespan, 0u);
}

TEST(FuzzEdge, ZeroDurationChainsResolve)
{
    ClusterConfig cfg{1, 2};
    FuzzNetwork net(0, 0, true);
    ClusterExecutor ex(cfg, net);
    ProgramBuilder pb(2);
    uint32_t l = pb.label("z");
    uint64_t prev = 0;
    uint64_t msg = 0;
    for (int i = 0; i < 50; ++i) {
        prev = pb.addCompute(0, 0, OpCost{}, l,
                             msg ? std::vector<uint64_t>{msg}
                                 : std::vector<uint64_t>{});
        msg = pb.sendTo(0, 1, 1, prev);
        uint64_t echo = pb.addCompute(1, 0, OpCost{}, l, {msg});
        msg = pb.sendTo(1, 0, 1, echo);
    }
    pb.addCompute(0, 0, OpCost{}, l, {msg});
    RunStats st = ex.run(pb.take());
    // 100 transfers at fixed cost 100 each dominate.
    EXPECT_EQ(st.makespan, 100u * 100u);
}

TEST(FuzzEdge, LongPipelineManyCards)
{
    // Ring pipeline across 32 cards, 10 waves: each card computes then
    // forwards to its neighbour.
    size_t cards = 32;
    ClusterConfig cfg{4, 8};
    FuzzNetwork net(0, 0, true);
    ClusterExecutor ex(cfg, net);
    ProgramBuilder pb(cards);
    uint32_t l = pb.label("ring");
    uint64_t msg = 0;
    for (int wave = 0; wave < 10; ++wave) {
        for (size_t c = 0; c < cards; ++c) {
            uint64_t id = pb.addCompute(
                c, 10, OpCost{}, l,
                msg ? std::vector<uint64_t>{msg}
                    : std::vector<uint64_t>{});
            msg = pb.sendTo(c, (c + 1) % cards, 1, id);
        }
    }
    pb.addCompute(0, 10, OpCost{}, l, {msg});
    RunStats st = ex.run(pb.take());
    // 320 hops of (10 compute + 100 transfer) + final compute.
    EXPECT_EQ(st.makespan, 320u * 110u + 10u);
}

} // namespace
} // namespace hydra
