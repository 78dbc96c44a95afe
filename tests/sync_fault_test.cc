/**
 * @file
 * Fault-tolerance layer tests: retry accounting, timeout/budget
 * exhaustion, Program::validate() rejection cases, deadlock report
 * contents, straggler/card-failure injection, and degraded-mode
 * re-dispatch through InferenceRunner.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <numeric>

#include "baselines/prototypes.hh"
#include "sched/execplan.hh"
#include "sync/executor.hh"

namespace hydra {
namespace {

/** Fixed-latency test network. */
class FlatNetwork : public NetworkModel
{
  public:
    explicit FlatNetwork(Tick per_msg, bool overlaps = true)
        : perMsg_(per_msg), overlaps_(overlaps)
    {
    }

    std::unique_ptr<NetworkModel>
    clone() const override
    {
        return std::make_unique<FlatNetwork>(*this);
    }

    Tick
    transferTime(uint64_t, size_t, size_t) const override
    {
        return perMsg_;
    }

    Tick
    broadcastTime(uint64_t, size_t, size_t) const override
    {
        return perMsg_;
    }

    Tick setupLatency() const override { return 0; }
    bool overlapsCompute() const override { return overlaps_; }
    Tick stepSyncLatency() const override { return 0; }

  private:
    Tick perMsg_;
    bool overlaps_;
};

/** One producer->consumer transfer: compute(10) -> send -> CT_d(5). */
Program
oneTransferProgram(uint64_t bytes = 50)
{
    ProgramBuilder pb(2);
    uint32_t l = pb.label("t");
    uint64_t c0 = pb.addCompute(0, 10, OpCost{}, l);
    uint64_t msg = pb.sendTo(0, 1, bytes, c0);
    pb.addCompute(1, 5, OpCost{}, l, {msg});
    return pb.take();
}

RetryPolicy
testPolicy(uint32_t max_attempts, Tick backoff, Tick timeout = 0)
{
    RetryPolicy p;
    p.maxAttempts = max_attempts;
    p.backoffBase = backoff;
    p.backoffMax = backoff * 8;
    p.timeout = timeout;
    return p;
}

TEST(FaultRetry, FirstAttemptDroppedThenRecovered)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.dropFirstAttempts = 1;
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(4, 7));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_TRUE(res.ok()) << res.error.message;
    // compute [0,10); failed attempt [10,110); backoff 7; retry
    // [117,217); CT_d [217,222).
    EXPECT_EQ(res.stats.makespan, 222u);
    EXPECT_EQ(res.stats.retries, 1u);
    EXPECT_EQ(res.stats.droppedTransfers, 1u);
    EXPECT_EQ(res.stats.corruptedTransfers, 0u);
    EXPECT_EQ(res.stats.retryBackoffTicks, 7u);
    // The wire is charged for both attempts on both endpoints.
    EXPECT_EQ(res.stats.commBusy[0], 200u);
    EXPECT_EQ(res.stats.commBusy[1], 200u);
    // Logical message counted once; bytes per attempt.
    EXPECT_EQ(res.stats.netMessages, 1u);
    EXPECT_EQ(res.stats.netBytes, 100u);
}

TEST(FaultRetry, BudgetExhaustionReturnsStructuredError)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.dropFirstAttempts = 10; // every attempt drops
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(3, 7));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::TransferFailed);
    EXPECT_EQ(res.error.card, 0u);
    EXPECT_EQ(res.error.attempts, 3u);
    EXPECT_EQ(res.stats.droppedTransfers, 3u);
    EXPECT_EQ(res.stats.retries, 2u);
    // attempts [10,110) [117,217) [231,331): backoffs 7 then 14.
    EXPECT_EQ(res.stats.retryBackoffTicks, 21u);
    EXPECT_EQ(res.stats.makespan, 331u);
}

TEST(FaultRetry, TimeoutShortensDropDetection)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.dropFirstAttempts = 10;
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(2, 5, /*timeout=*/30));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::TransferFailed);
    // Attempts [10,40) and [45,75): the ack timer, not the wire time,
    // bounds each failed attempt.
    EXPECT_EQ(res.stats.makespan, 75u);
    EXPECT_EQ(res.stats.droppedTransfers, 2u);
}

TEST(FaultRetry, DegradedLinkExceedingTimeoutTimesOut)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.linkDegrade = 10.0; // wire time 1000 > timeout 500
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(2, 5, /*timeout=*/500));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::TransferFailed);
    EXPECT_EQ(res.stats.timedOutTransfers, 2u);
    EXPECT_EQ(res.stats.droppedTransfers, 0u);
}

TEST(FaultRetry, CorruptionIsDetectedAndCounted)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(100);
    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.corruptRate = 1.0; // checksum fails on every arrival
    ex.setFaultPlan(plan);
    ex.setRetryPolicy(testPolicy(2, 7));

    RunResult res = ex.tryRun(oneTransferProgram());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::TransferFailed);
    EXPECT_EQ(res.stats.corruptedTransfers, 2u);
    // A corrupted transfer burns the full wire time before detection:
    // compute 10 + attempt 100 + backoff 7 + attempt 100.
    EXPECT_EQ(res.stats.makespan, 217u);
}

TEST(FaultInject, StragglerStretchesComputeDeterministically)
{
    ClusterConfig cfg{1, 1};
    FlatNetwork net(0);
    ProgramBuilder pb(1);
    pb.addCompute(0, 100, OpCost{}, pb.label("c"));
    Program prog = pb.take();

    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.stragglers[0] = 2.5;
    ex.setFaultPlan(plan);
    RunResult res = ex.tryRun(prog);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.stats.makespan, 250u);
    EXPECT_EQ(res.stats.computeBusy[0], 250u);
}

TEST(FaultInject, CardDeathHaltsWithStructuredError)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(10);
    ProgramBuilder pb(2);
    uint32_t l = pb.label("c");
    pb.addCompute(0, 100, OpCost{}, l);
    pb.addCompute(1, 100, OpCost{}, l);
    Program prog = pb.take();

    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.cardFailAt[1] = 50;
    ex.setFaultPlan(plan);
    RunResult res = ex.tryRun(prog);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::CardFailed);
    EXPECT_EQ(res.error.card, 1u);
    EXPECT_EQ(res.error.tick, 50u);
    EXPECT_EQ(res.stats.makespan, 50u);
}

TEST(FaultInject, CardDeathAfterDrainIsIgnored)
{
    ClusterConfig cfg{1, 2};
    FlatNetwork net(10);
    ProgramBuilder pb(2);
    uint32_t l = pb.label("c");
    pb.addCompute(0, 100, OpCost{}, l);
    pb.addCompute(1, 100, OpCost{}, l);
    Program prog = pb.take();

    ClusterExecutor ex(cfg, net);
    FaultPlan plan;
    plan.cardFailAt[1] = 5000; // long after completion
    ex.setFaultPlan(plan);
    RunResult res = ex.tryRun(prog);
    ASSERT_TRUE(res.ok()) << res.error.message;
    // The pending kill event must not inflate the makespan.
    EXPECT_EQ(res.stats.makespan, 100u);
}

TEST(Validate, BuilderProgramsAreClean)
{
    ProgramBuilder pb(4);
    uint32_t l = pb.label("v");
    uint64_t c0 = pb.addCompute(0, 10, OpCost{}, l);
    uint64_t m = pb.sendTo(0, 2, 64, c0);
    pb.addCompute(2, 10, OpCost{}, l, {m});
    uint64_t b = pb.broadcastFrom(1, 32);
    for (size_t c = 0; c < 4; ++c)
        if (c != 1)
            pb.addCompute(c, 1, OpCost{}, l, {b});
    EXPECT_TRUE(pb.take().validate().empty());
}

bool
hasIssue(const std::vector<ProgramIssue>& issues, ProgramIssue::Kind k)
{
    for (const auto& i : issues)
        if (i.kind == k)
            return true;
    return false;
}

TEST(Validate, CatchesUnmatchedRecv)
{
    ProgramBuilder pb(2);
    pb.addRecv(1, 777, 0, 8);
    auto issues = pb.take().validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].kind, ProgramIssue::Kind::UnmatchedRecv);
    EXPECT_EQ(issues[0].card, 1u);
    EXPECT_EQ(issues[0].id, 777u);
}

TEST(Validate, CatchesUnmatchedSend)
{
    ProgramBuilder pb(2);
    pb.addSend(0, 5, 1, 8);
    auto issues = pb.take().validate();
    EXPECT_TRUE(hasIssue(issues, ProgramIssue::Kind::UnmatchedSend));
}

TEST(Validate, CatchesDanglingAfterCompute)
{
    ProgramBuilder pb(2);
    uint64_t m = pb.newMsg();
    pb.addSend(0, m, 1, 8, /*after_compute=*/9999);
    pb.addRecv(1, m, 0, 8);
    auto issues = pb.take().validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].kind,
              ProgramIssue::Kind::DanglingAfterCompute);
    EXPECT_EQ(issues[0].id, 9999u);
}

TEST(Validate, CatchesBadPeerAndSelfSend)
{
    // Hand-built program: the builder's asserts would reject these.
    Program p(2);
    p.cards[0].comm.push_back(
        CommTask{CommTask::Kind::Send, 1, /*peer=*/7, 8, 0});
    p.cards[1].comm.push_back(
        CommTask{CommTask::Kind::Send, 2, /*peer=*/1, 8, 0});
    auto issues = p.validate();
    EXPECT_TRUE(hasIssue(issues, ProgramIssue::Kind::BadPeer));
    EXPECT_TRUE(hasIssue(issues, ProgramIssue::Kind::SelfMessage));
}

TEST(Validate, CatchesDuplicateSender)
{
    Program p(3);
    p.cards[0].comm.push_back(
        CommTask{CommTask::Kind::Send, 9, 2, 8, 0});
    p.cards[1].comm.push_back(
        CommTask{CommTask::Kind::Send, 9, 2, 8, 0});
    p.cards[2].comm.push_back(
        CommTask{CommTask::Kind::Recv, 9, 0, 8, 0});
    auto issues = p.validate();
    EXPECT_TRUE(hasIssue(issues, ProgramIssue::Kind::DuplicateSender));
}

TEST(Validate, CatchesWaitOnMsgNeverReceivedHere)
{
    // Card 0 waits on a message only card 2 receives.
    ProgramBuilder pb(3);
    uint32_t l = pb.label("v");
    uint64_t c1 = pb.addCompute(1, 10, OpCost{}, l);
    uint64_t m = pb.sendTo(1, 2, 8, c1);
    pb.addCompute(0, 5, OpCost{}, l, {m});
    auto issues = pb.take().validate();
    ASSERT_EQ(issues.size(), 1u);
    EXPECT_EQ(issues[0].kind, ProgramIssue::Kind::WaitOnUnknownMsg);
    EXPECT_EQ(issues[0].card, 0u);
}

TEST(Deadlock, HeadOfLineCycleIsDiagnosed)
{
    // Both cards queue their send before their recv: neither receiver
    // ever posts ready, a classic head-of-line deadlock.  The program
    // is statically valid (all pairs matched).
    ClusterConfig cfg{1, 2};
    FlatNetwork net(10);
    ProgramBuilder pb(2);
    uint64_t m0 = pb.newMsg();
    uint64_t m1 = pb.newMsg();
    pb.addSend(0, m0, 1, 8);
    pb.addRecv(0, m1, 1, 8);
    pb.addSend(1, m1, 0, 8);
    pb.addRecv(1, m0, 0, 8);
    Program prog = pb.take();
    EXPECT_TRUE(prog.validate().empty());

    ClusterExecutor ex(cfg, net);
    RunResult res = ex.tryRun(prog);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::Deadlock);
    const DeadlockReport& rep = res.error.deadlock;
    ASSERT_EQ(rep.stuck.size(), 2u);
    EXPECT_EQ(rep.stuck[0].card, 0u);
    EXPECT_EQ(rep.stuck[0].commIdx, 0u);
    EXPECT_EQ(rep.stuck[0].commTotal, 2u);
    EXPECT_NE(rep.stuck[0].waitingOn.find("waits ready"),
              std::string::npos);
    // The wait-for cycle covers both cards.
    ASSERT_EQ(rep.cycle.size(), 2u);
    EXPECT_TRUE(rep.unmatchedMsgs.empty());
    // The report renders without crashing and names both cards.
    std::string text = rep.describe();
    EXPECT_NE(text.find("card 0"), std::string::npos);
    EXPECT_NE(text.find("card 1"), std::string::npos);
}

TEST(Deadlock, CrossCardComputeCycleIsDiagnosed)
{
    // Card 0's send waits on a compute that waits on card 1's message,
    // and vice versa: a compute-mediated cycle.
    ClusterConfig cfg{1, 2};
    FlatNetwork net(10);
    ProgramBuilder pb(2);
    uint32_t l = pb.label("d");
    uint64_t m0 = pb.newMsg();
    uint64_t m1 = pb.newMsg();
    uint64_t c0 = pb.addCompute(0, 10, OpCost{}, l, {m1});
    uint64_t c1 = pb.addCompute(1, 10, OpCost{}, l, {m0});
    pb.addSend(0, m0, 1, 8, c0);
    pb.addRecv(1, m0, 0, 8);
    pb.addSend(1, m1, 0, 8, c1);
    pb.addRecv(0, m1, 1, 8);
    Program prog = pb.take();
    EXPECT_TRUE(prog.validate().empty());

    ClusterExecutor ex(cfg, net);
    RunResult res = ex.tryRun(prog);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::Deadlock);
    EXPECT_EQ(res.error.deadlock.stuck.size(), 2u);
    EXPECT_FALSE(res.error.deadlock.cycle.empty());
}

TEST(FaultPolicy, BackoffGrowsExponentiallyWithCap)
{
    RetryPolicy p;
    p.backoffBase = 10;
    p.backoffMax = 50;
    EXPECT_EQ(p.backoffFor(0), 10u);
    EXPECT_EQ(p.backoffFor(1), 20u);
    EXPECT_EQ(p.backoffFor(2), 40u);
    EXPECT_EQ(p.backoffFor(3), 50u);
    EXPECT_EQ(p.backoffFor(9), 50u);
}

TEST(FaultPlanSpec, ParseRoundTrip)
{
    FaultPlan p = FaultPlan::parse(
        "seed=42,drop=0.25,corrupt=0.5,degrade=2,dropfirst=3,"
        "straggle=2:1.5,kill=1@0.001");
    EXPECT_EQ(p.seed, 42u);
    EXPECT_DOUBLE_EQ(p.dropRate, 0.25);
    EXPECT_DOUBLE_EQ(p.corruptRate, 0.5);
    EXPECT_DOUBLE_EQ(p.linkDegrade, 2.0);
    EXPECT_EQ(p.dropFirstAttempts, 3u);
    ASSERT_EQ(p.stragglers.count(2), 1u);
    EXPECT_DOUBLE_EQ(p.stragglers.at(2), 1.5);
    ASSERT_EQ(p.cardFailAt.count(1), 1u);
    EXPECT_EQ(p.cardFailAt.at(1), secondsToTicks(0.001));
    EXPECT_FALSE(p.empty());
    EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlanSpec, DrawsAreDeterministicAndSeedSensitive)
{
    FaultPlan a;
    a.seed = 1;
    a.dropRate = 0.5;
    FaultPlan b = a;
    FaultPlan c = a;
    c.seed = 2;
    size_t agree_ab = 0, agree_ac = 0, n = 256;
    for (uint64_t m = 1; m <= n; ++m) {
        agree_ab += a.dropsTransfer(m, 0) == b.dropsTransfer(m, 0);
        agree_ac += a.dropsTransfer(m, 0) == c.dropsTransfer(m, 0);
    }
    EXPECT_EQ(agree_ab, n);  // same seed: identical decisions
    EXPECT_LT(agree_ac, n);  // different seed: decisions diverge
}

/** Small two-step ConvBN workload for degraded-mode runs. */
WorkloadModel
toyWorkload()
{
    WorkloadModel wl;
    wl.name = "toy";
    wl.logSlots = 15;
    wl.maxLimbs = 24;
    wl.steps.push_back(Step{ProcKind::ConvBN, "conv0", 64, convBnMix(),
                            12, AggKind::BroadcastEach, 0, 1.0, 8});
    wl.steps.push_back(Step{ProcKind::FC, "fc0", 128, fcMix(), 12,
                            AggKind::ReduceTree, 0, 1.0, 1});
    return wl;
}

/** Whole-machine run of `wl` from tick 0 under `faults`. */
InferenceResult
runFaulted(const InferenceRunner& runner, const WorkloadModel& wl,
           const FaultPlan& faults)
{
    return runner.runJob(
        *runner.planFor(wl),
        CardGroup::contiguous(0, runner.spec().cluster.totalCards()), 0,
        faults);
}

TEST(Degraded, EmptyPlanMatchesLegacyRunner)
{
    InferenceRunner runner(hydraMSpec());
    WorkloadModel wl = toyWorkload();
    InferenceResult legacy = runner.runPlan(*runner.planFor(wl));
    InferenceResult faulty = runFaulted(runner, wl, FaultPlan{});
    ASSERT_TRUE(faulty.ok());
    EXPECT_FALSE(faulty.degraded());
    EXPECT_EQ(faulty.total.makespan, legacy.total.makespan);
    EXPECT_EQ(faulty.total.netBytes, legacy.total.netBytes);
    EXPECT_EQ(faulty.total.fingerprint(), legacy.total.fingerprint());
}

TEST(Degraded, SingleCardFailureRedispatchesAndReportsPenalty)
{
    InferenceRunner runner(hydraMSpec()); // 8 cards
    WorkloadModel wl = toyWorkload();
    InferenceResult healthy = runner.runPlan(*runner.planFor(wl));
    ASSERT_GT(healthy.total.makespan, 0u);

    FaultPlan plan;
    plan.cardFailAt[3] = healthy.total.makespan / 4;
    InferenceResult res = runFaulted(runner, wl, plan);

    ASSERT_TRUE(res.ok()) << res.error.message;
    EXPECT_TRUE(res.degraded());
    ASSERT_EQ(res.failedCards.size(), 1u);
    EXPECT_EQ(res.failedCards[0], 3u);
    EXPECT_EQ(res.redispatches, 1u);
    EXPECT_GT(res.recoveryPenalty, 0u);
    // All steps still completed, on fewer cards and later.
    EXPECT_EQ(res.steps.size(), wl.steps.size());
    EXPECT_GT(res.total.makespan, healthy.total.makespan);
}

TEST(Degraded, EveryCardDyingIsATerminalError)
{
    PrototypeSpec spec = hydraPrototype("tiny", 1, 2);
    InferenceRunner runner(spec);
    WorkloadModel wl = toyWorkload();
    FaultPlan plan;
    plan.cardFailAt[0] = 0;
    plan.cardFailAt[1] = 0;
    InferenceResult res = runFaulted(runner, wl, plan);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::CardFailed);
    // Both deaths are recorded before the runner gives up.
    EXPECT_EQ(res.failedCards.size(), 2u);
    EXPECT_NE(res.error.message.find("no surviving cards"),
              std::string::npos);
}

TEST(Degraded, FusedRunRedispatchesOntoSurvivors)
{
    // A fused plan is one unit like any other: a card death re-maps
    // the whole preloaded unit onto the survivors instead of failing.
    InferenceRunner runner(hydraMSpec());
    WorkloadModel wl = toyWorkload();
    std::shared_ptr<const ExecPlan> fused =
        runner.fusePlan(*runner.planFor(wl));
    FaultPlan plan;
    plan.cardFailAt[2] = 1; // immediately after launch
    InferenceResult res = runner.runJob(
        *fused, CardGroup::contiguous(0, runner.spec().cluster.totalCards()),
        0, plan);
    ASSERT_TRUE(res.ok()) << res.error.message;
    EXPECT_EQ(res.failedCards, std::vector<size_t>{2});
    EXPECT_EQ(res.redispatches, 1u);
    EXPECT_GT(res.recoveryPenalty, 0u);
    EXPECT_EQ(res.steps.size(), 1u);
}

/**
 * Degraded whole-machine runs pinned on the pre-unification runner
 * (whole-machine fault runs then shifted kill ticks per step on a
 * restarting clock; the one absolute clock reproduces them exactly).
 * Covers switched (hydra-m) and host-mediated (fab-m, and fab-l's 64
 * cards) networks and the single-card poseidon: single and double
 * kills, transient drop/corrupt/degrade faults, and stragglers with
 * and without kills.
 */
struct DegradedGolden
{
    const char* machine;
    const char* workload;
    const char* faults;
    uint64_t makespan;
    uint64_t fingerprint;
    std::vector<size_t> failedCards;
    size_t redispatches;
    uint64_t recoveryPenalty;
    bool ok;
};

const DegradedGolden kDegradedGoldens[] = {
    {"hydra-m", "resnet18", "kill=3@0.5", 8832300720982ull,
     0x2b89d670c9621b33ull, {3}, 1, 134891585984ull, true},
    {"hydra-m", "resnet20", "kill=2@0.2,kill=5@0.6", 1040419394344ull,
     0x589947517083e79dull, {2, 5}, 2, 86852935691ull, true},
    {"hydra-m", "resnet20", "straggle=1:1.5,kill=2@0.5",
     1206963306421ull, 0x0a07bdab21cf9efdull, {2}, 1, 95860319281ull,
     true},
    {"fab-m", "resnet20", "kill=4@1.0", 4743141530248ull,
     0x882b4069f8d3250cull, {4}, 1, 74257696100ull, true},
    {"fab-m", "resnet20", "seed=7,drop=0.02,corrupt=0.01,degrade=1.5",
     5836631674920ull, 0x24bfc785d83ec3b5ull, {}, 0, 0ull, true},
    {"fab-m", "resnet20", "straggle=0:1.5,kill=1@0.5,kill=6@2.0",
     6409830581488ull, 0x686f3d5688ab004full, {1, 6}, 2,
     873164042560ull, true},
    {"poseidon", "resnet20", "straggle=0:1.5", 5051315825334ull,
     0x177ab5cd9bc00409ull, {}, 0, 0ull, true},
    {"poseidon", "resnet20", "straggle=0:1.2,kill=0@0.5",
     500000000000ull, 0x5bf90bedb9e964a5ull, {0}, 1, 248357643372ull,
     false},
    {"fab-l", "resnet20", "seed=7,drop=0.02,corrupt=0.01,kill=5@0.5",
     23260158469104ull, 0x28816c2f31151ce3ull, {5}, 1, 21851519462ull, true},
};

TEST(Degraded, PinnedDegradedRunsKeepTheirTicks)
{
    for (const DegradedGolden& g : kDegradedGoldens) {
        InferenceRunner runner(machineByName(g.machine));
        InferenceResult res = runFaulted(
            runner, workloadByName(g.workload), FaultPlan::parse(g.faults));
        std::string what =
            std::string(g.machine) + "/" + g.workload + " " + g.faults;
        EXPECT_EQ(res.ok(), g.ok) << what << ": " << res.error.message;
        EXPECT_EQ(res.total.makespan, g.makespan) << what;
        EXPECT_EQ(res.total.fingerprint(), g.fingerprint) << what;
        EXPECT_EQ(res.failedCards, g.failedCards) << what;
        EXPECT_EQ(res.redispatches, g.redispatches) << what;
        EXPECT_EQ(res.recoveryPenalty, g.recoveryPenalty) << what;
        // A faulted run executes every unit: nothing is replayed.
        EXPECT_EQ(res.replayedUnits, 0u) << what;
    }
}

TEST(Degraded, TerminalErrorTickReadsTheRunClock)
{
    // One clock: a card killed at 0.5 s of a whole-machine run reports
    // its failure at 0.5 s, on the clock cardFailAt is written in —
    // not at an offset into the unit that happened to be running.
    InferenceRunner runner(machineByName("poseidon")); // one card
    InferenceResult res =
        runFaulted(runner, workloadByName("resnet20"),
                   FaultPlan::parse("kill=0@0.5"));
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::CardFailed);
    EXPECT_EQ(res.error.tick, secondsToTicks(0.5));
    EXPECT_EQ(res.total.makespan, secondsToTicks(0.5));
    EXPECT_GT(res.steps.size(), 0u); // died mid-run, not in unit 0
}

/**
 * FNV-1a over recorded timelines in event order: the order in which
 * the executor's completions emit occupancy intervals.  Two runs that
 * visit same-tick events in a different order move it even where
 * every interval, and so every fingerprint, stays the same.
 */
struct TimelineDigest
{
    uint64_t h = 0xcbf29ce484222325ull;
    size_t events = 0;

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const RunStats& s)
    {
        for (const TaskEvent& e : s.timeline) {
            ++events;
            u64(e.card);
            u64(e.start);
            u64(e.end);
            u64(static_cast<uint64_t>(e.kind));
            u64(e.label);
        }
    }
};

TEST(Degraded, FabLTimelinePinsEventOrder)
{
    // The fab-l row of kDegradedGoldens (64 host-mediated cards,
    // dropped and corrupted transfers, a card death and the survivors'
    // re-dispatch), run through the runner's own unit loop with the
    // timeline recorded.  Host-mediated programs finish many transfers
    // and computes on one tick, so a wake-up that reaches a card later
    // in the tick reorders the timeline before it moves any tick.
    const DegradedGolden& g =
        kDegradedGoldens[std::size(kDegradedGoldens) - 1];
    ASSERT_STREQ(g.machine, "fab-l");
    InferenceRunner runner(machineByName(g.machine));
    const PrototypeSpec& spec = runner.spec();
    const NetworkModel& net = runner.network();
    std::shared_ptr<const ExecPlan> plan =
        runner.planFor(workloadByName(g.workload));
    FaultPlan faults = FaultPlan::parse(g.faults);
    ASSERT_TRUE(faults.stragglers.empty());

    // alive[i] = machine index of the card run as local card i.
    std::vector<size_t> alive(spec.cluster.totalCards());
    std::iota(alive.begin(), alive.end(), size_t{0});
    ClusterConfig cluster = spec.cluster;
    bool degraded = false;
    RunStats total;
    TimelineDigest d;
    for (const ExecUnit& u : plan->units) {
        for (;;) {
            FaultPlan local = faults;
            local.cardFailAt.clear();
            for (size_t i = 0; i < alive.size(); ++i) {
                auto k = faults.cardFailAt.find(alive[i]);
                if (k != faults.cardFailAt.end())
                    local.cardFailAt[i] = k->second;
            }
            ClusterExecutor ex(cluster, net);
            ex.setPrevalidate(false);
            ex.setRecordTimeline(true);
            ex.setTimeOrigin(total.makespan);
            ex.setFaultPlan(local);
            auto compiled =
                degraded ? compileUnit(spec, cluster, spec.cluster,
                                       runner.costModel(), net,
                                       plan->logSlots, u.steps,
                                       plan->level)
                         : u.compiled;
            RunResult rr = ex.tryRun(compiled->program);
            d.add(rr.stats);
            rr.stats.timeline.clear();
            if (rr.ok()) {
                total.append(rr.stats, net.stepSyncLatency());
                break;
            }
            ASSERT_EQ(rr.error.kind, RunError::Kind::CardFailed);
            total.append(rr.stats, 0);
            alive.erase(alive.begin() + rr.error.card);
            cluster = ClusterConfig{1, alive.size()};
            degraded = true;
        }
    }
    // The loop is the runner's: the pinned row's ticks.
    ASSERT_TRUE(degraded);
    EXPECT_EQ(total.makespan, g.makespan);
    EXPECT_EQ(total.fingerprint(), g.fingerprint);
    EXPECT_EQ(d.events, 13307u);
    EXPECT_EQ(d.h, 0x1fdc7db037804044ull);
}

} // namespace
} // namespace hydra
