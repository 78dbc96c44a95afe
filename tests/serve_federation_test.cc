/**
 * @file
 * Chaos tests for the federated serving layer: cluster kills with
 * checkpointed job recovery, partition healing via canary probes,
 * error-rate quarantine, the no-progress watchdog, and the accounting
 * + determinism invariants that must survive all of it.
 */

#include <gtest/gtest.h>

#include "baselines/prototypes.hh"
#include "common/parallel.hh"
#include "sched/execplan.hh"
#include "serve/federation.hh"
#include "workloads/model.hh"

namespace hydra {
namespace {

ServeStats
runFed(const std::string& machine, const std::string& spec,
       const std::string& faults = "", HealthPolicy health = {})
{
    Federation fed(machineByName(machine), ServeSpec::parse(spec),
                   FaultPlan::parse(faults), RetryPolicy{}, health);
    return fed.run();
}

/**
 * The federation-wide accounting identities: every offered request is
 * completed or shed, and every admitted request is completed or shed
 * after admission (nothing is ever lost in flight, even across
 * failovers and stall flushes).
 */
void
expectAccounted(const ServeStats& st)
{
    EXPECT_EQ(st.offered, st.completed + st.shed);
    EXPECT_EQ(st.admitted, st.completed + st.shedAfterAdmit);
    EXPECT_EQ(st.shed, st.shedQueueFull + st.shedNoCapacity);
    uint64_t t_off = 0, t_done = 0, t_shed = 0;
    for (const auto& t : st.tenants) {
        t_off += t.offered;
        t_done += t.completed;
        t_shed += t.shed;
    }
    EXPECT_EQ(t_off, st.offered);
    EXPECT_EQ(t_done, st.completed);
    EXPECT_EQ(t_shed, st.shed);
    uint64_t c_done = 0;
    for (const auto& c : st.clusters)
        c_done += c.completed;
    EXPECT_EQ(c_done, st.completed);
}

// A closed-loop pool that keeps every cluster's group busy the whole
// run: deterministic pressure, so a mid-run cluster kill is guaranteed
// to catch in-flight jobs.
const char* kFedPool =
    "seed=9,duration=40,clusters=4,group=resnet18:8,"
    "tenant=pool:closed:resnet18:8:0";

TEST(Federation, SingleClusterRunStaysHealthy)
{
    ServeStats st = runFed("hydra-m",
                           "seed=5,duration=120,"
                           "tenant=vision:open:resnet18:0.05,"
                           "tenant=nlp:open:bert:0.005");
    ASSERT_GT(st.completed, 0u);
    ASSERT_EQ(st.clusters.size(), 1u);
    EXPECT_EQ(st.clusters[0].health, "healthy");
    EXPECT_FALSE(st.stalled);
}

TEST(Federation, ClusterKillFailsOverAndRecovers)
{
    ServeStats st = runFed("hydra-m", kFedPool, "ckill=1@30");

    EXPECT_EQ(st.clusterKills, 1u);
    // The killed cluster had a job in flight: it failed over and its
    // completed step boundaries were conserved.
    EXPECT_GE(st.failovers, 1u);
    EXPECT_GE(st.recoveredSteps, 1u);
    // At most the one partially-executed step per aborted job re-runs.
    EXPECT_LE(st.replayedSteps, st.failovers);
    // The failed-over request was re-dispatched on a survivor.
    EXPECT_GE(st.spilled, 1u);
    EXPECT_GE(st.healthTransitions, 1u);

    // Every non-shed request completed on the survivors; a kill with
    // three healthy clusters left sheds nothing.
    EXPECT_EQ(st.shedAfterAdmit, 0u);
    EXPECT_GT(st.completed, 0u);
    EXPECT_FALSE(st.stalled);
    expectAccounted(st);

    ASSERT_EQ(st.clusters.size(), 4u);
    EXPECT_TRUE(st.clusters[1].killed);
    EXPECT_EQ(st.clusters[1].health, "dead");
    EXPECT_EQ(st.clusters[1].deadCards, 8u);
    EXPECT_EQ(st.clusters[1].failovers, st.failovers);
    for (size_t c : {0u, 2u, 3u}) {
        EXPECT_FALSE(st.clusters[c].killed);
        EXPECT_EQ(st.clusters[c].health, "healthy");
        EXPECT_GT(st.clusters[c].completed, 0u);
    }
    ASSERT_EQ(st.groups.size(), 4u);
    for (size_t c = 0; c < 4; ++c)
        EXPECT_EQ(st.groups[c].cluster, c);
    EXPECT_TRUE(st.groups[1].retired);
}

TEST(Federation, ChaosRunsAreBitIdentical)
{
    ServeStats a = runFed("hydra-m", kFedPool, "ckill=1@30");
    ServeStats b = runFed("hydra-m", kFedPool, "ckill=1@30");
    EXPECT_EQ(a.hash(), b.hash());

    // ... and independent of the host thread count.
    size_t saved = ThreadPool::instance().threadCount();
    ThreadPool::instance().setThreadCount(1);
    ServeStats c = runFed("hydra-m", kFedPool, "ckill=1@30");
    ThreadPool::instance().setThreadCount(4);
    ServeStats d = runFed("hydra-m", kFedPool, "ckill=1@30");
    ThreadPool::instance().setThreadCount(saved);
    EXPECT_EQ(a.hash(), c.hash());
    EXPECT_EQ(a.hash(), d.hash());
}

TEST(Federation, CheckpointResumeIsExact)
{
    // The serving layer's recovery contract, at the runner level: a
    // job split at any step boundary replays to exactly the same
    // clock as the uninterrupted run.
    InferenceRunner runner(machineByName("hydra-m"));
    WorkloadModel m = workloadByName("resnet18");
    CardGroup g = CardGroup::contiguous(0, 8);
    std::shared_ptr<const ExecPlan> plan = runner.planForJob(m, g);
    InferenceResult full = runner.runJob(*plan, g, 0);
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(full.stepEnds.size(), m.steps.size());

    size_t k = m.steps.size() / 2;
    ASSERT_GT(k, 0u);
    InferenceResult head =
        runner.runJob(*plan, g, 0, FaultPlan{}, RetryPolicy{}, 0, k);
    ASSERT_TRUE(head.ok());
    ASSERT_EQ(head.stepEnds.size(), k);
    EXPECT_EQ(head.stepEnds.back(), full.stepEnds[k - 1]);
    // Resume from the checkpoint boundary, on the shared clock.
    InferenceResult tail = runner.runJob(*plan, g, head.total.makespan,
                                         FaultPlan{}, RetryPolicy{}, k);
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(head.total.makespan + tail.total.makespan,
              full.total.makespan);
    EXPECT_EQ(head.stepEnds.size() + tail.stepEnds.size(),
              full.stepEnds.size());
}

TEST(Federation, CheckpointResumeIsExactOnAggressivePlans)
{
    // The same recovery contract over an Aggressive ExecPlan: windows
    // index multi-layer units, and a job split at any *unit* boundary
    // replays to exactly the clock of the uninterrupted run.
    PrototypeSpec spec = machineByName("hydra-m");
    InferenceRunner runner(spec);
    WorkloadModel m = workloadByName("bert");
    CardGroup g = CardGroup::contiguous(0, 8);
    std::shared_ptr<const ExecPlan> plan =
        runner.planForJob(m, g, OptLevel::Aggressive);
    ASSERT_LT(plan->size(), m.steps.size()); // passes really fused
    size_t multi = 0;
    for (const ExecUnit& u : plan->units)
        multi += u.steps.size() > 1;
    ASSERT_GT(multi, 0u);

    InferenceResult full = runner.runJob(*plan, g, 0);
    ASSERT_TRUE(full.ok());
    ASSERT_EQ(full.stepEnds.size(), plan->size());

    size_t k = plan->size() / 2;
    ASSERT_GT(k, 0u);
    InferenceResult head =
        runner.runJob(*plan, g, 0, FaultPlan{}, RetryPolicy{}, 0, k);
    ASSERT_TRUE(head.ok());
    ASSERT_EQ(head.stepEnds.size(), k);
    EXPECT_EQ(head.stepEnds.back(), full.stepEnds[k - 1]);
    InferenceResult tail = runner.runJob(*plan, g, head.total.makespan,
                                         FaultPlan{}, RetryPolicy{}, k);
    ASSERT_TRUE(tail.ok());
    EXPECT_EQ(head.total.makespan + tail.total.makespan,
              full.total.makespan);
    EXPECT_EQ(head.stepEnds.size() + tail.stepEnds.size(),
              full.stepEnds.size());
}

TEST(Federation, AggressiveClusterKillFailsOverAtUnitBoundaries)
{
    // A mid-run cluster kill against opt=aggressive tenants: in-flight
    // jobs fail over with their completed *unit* boundaries conserved,
    // at most the one partially-executed unit replays, and the chaos
    // runs stay bit-identical.
    std::string spec = std::string(kFedPool) + ",opt=aggressive";
    ServeStats st = runFed("hydra-m", spec, "ckill=1@30");
    EXPECT_EQ(st.clusterKills, 1u);
    EXPECT_GE(st.failovers, 1u);
    EXPECT_GE(st.recoveredSteps, 1u);
    EXPECT_LE(st.replayedSteps, st.failovers);
    EXPECT_GE(st.spilled, 1u);
    EXPECT_EQ(st.shedAfterAdmit, 0u);
    EXPECT_GT(st.completed, 0u);
    EXPECT_FALSE(st.stalled);
    expectAccounted(st);

    EXPECT_EQ(st.hash(), runFed("hydra-m", spec, "ckill=1@30").hash());
    // Different plans, different fingerprint than the Safe chaos run.
    EXPECT_NE(st.hash(), runFed("hydra-m", kFedPool, "ckill=1@30").hash());
}

TEST(Federation, PartitionHealsViaCanaryProbe)
{
    ServeStats st = runFed(
        "hydra-m",
        "seed=3,duration=60,clusters=2,group=resnet18:8,"
        "tenant=pool:closed:resnet18:4:0",
        "cpart=1@10:15");

    EXPECT_EQ(st.clusterPartitions, 1u);
    EXPECT_EQ(st.clusterKills, 0u);
    // The healing window ended, a canary probed the cluster, and the
    // breaker closed again.
    EXPECT_GE(st.canaryProbes, 1u);
    EXPECT_GE(st.healthTransitions, 2u); // quarantined + healthy again
    ASSERT_EQ(st.clusters.size(), 2u);
    EXPECT_EQ(st.clusters[0].health, "healthy");
    EXPECT_EQ(st.clusters[1].health, "healthy");
    EXPECT_EQ(st.clusters[1].canaryProbes, st.canaryProbes);
    // Back in rotation after the heal: the cluster kept completing.
    EXPECT_GT(st.clusters[1].completed, 0u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_FALSE(st.stalled);
    expectAccounted(st);

    ServeStats again = runFed(
        "hydra-m",
        "seed=3,duration=60,clusters=2,group=resnet18:8,"
        "tenant=pool:closed:resnet18:4:0",
        "cpart=1@10:15");
    EXPECT_EQ(st.hash(), again.hash());
}

TEST(Federation, ErrorStormQuarantinesThenWritesOffCluster)
{
    // Every transfer drops: every job fails terminally, the breaker
    // opens on the error-rate window, every canary probe fails, and
    // the probe budget writes the cluster off as dead — after which
    // arrivals shed with a structured no-capacity reason instead of
    // queueing forever.
    ServeStats st = runFed(
        "hydra-m",
        "seed=4,duration=30,clusters=1,group=resnet18:8,"
        "tenant=vision:open:resnet18:1",
        "drop=1");

    EXPECT_EQ(st.completed, 0u);
    EXPECT_GT(st.shed, 0u);
    EXPECT_GE(st.canaryProbes, 1u);
    ASSERT_EQ(st.clusters.size(), 1u);
    EXPECT_EQ(st.clusters[0].health, "dead");
    EXPECT_FALSE(st.clusters[0].killed); // died of errors, not a fault
    EXPECT_FALSE(st.stalled); // the dead cluster flushed its queue
    expectAccounted(st);
}

TEST(Federation, StallWatchdogReportsInsteadOfWedging)
{
    // Probing disabled (maxProbes = 0): quarantine is sticky, so once
    // the error storm opens the breaker nothing can ever dispatch
    // again — the watchdog must report the wedge and shed the stuck
    // queue instead of losing it.
    HealthPolicy hp;
    hp.maxProbes = 0;
    ServeStats st = runFed(
        "hydra-m",
        "seed=4,duration=30,clusters=1,group=resnet18:8,"
        "tenant=vision:open:resnet18:1",
        "drop=1", hp);

    EXPECT_TRUE(st.stalled);
    EXPECT_NE(st.stallReport.find("stall at"), std::string::npos)
        << st.stallReport;
    EXPECT_NE(st.stallReport.find("quarantined"), std::string::npos)
        << st.stallReport;
    EXPECT_NE(st.stallReport.find("oldest pending"), std::string::npos)
        << st.stallReport;
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(st.canaryProbes, 0u);
    expectAccounted(st); // the identities survive the stall flush
}

TEST(Federation, DegradedRedispatchUnderServingLoad)
{
    // Card-granularity kill mid-run under sustained federated load
    // (satellite of PR 2's degraded re-dispatch): the in-flight job
    // consumes the kill, re-dispatches onto the group's survivors,
    // and the fleet repairs in place — no request is lost.
    const char* spec =
        "seed=11,duration=40,clusters=2,group=resnet18:8,"
        "tenant=pool:closed:resnet18:4:0,at=5:replay:resnet18";
    // Global card 11 = cluster 1, local card 3.
    ServeStats st = runFed("hydra-m", spec, "kill=11@10");

    ASSERT_EQ(st.failedCards.size(), 1u);
    EXPECT_EQ(st.failedCards[0], 11u);
    EXPECT_GE(st.redispatches, 1u);
    EXPECT_GT(st.recoveryPenalty, 0u);
    EXPECT_EQ(st.shedAfterAdmit, 0u); // degraded completion, not loss
    expectAccounted(st);
    ASSERT_EQ(st.groups.size(), 2u);
    EXPECT_EQ(st.groups[1].cluster, 1u);
    EXPECT_EQ(st.groups[1].cards, 7u); // shrank in place
    EXPECT_FALSE(st.groups[1].retired);

    ServeStats again = runFed("hydra-m", spec, "kill=11@10");
    EXPECT_EQ(st.hash(), again.hash());
}

TEST(Federation, SpilloverChargesAFairnessDeficit)
{
    // Two tenants share one surviving cluster after the other dies.
    // The spilled tenant's failover traffic counts double in the
    // least-served ledger, so the native tenant is not starved: both
    // keep completing on the survivor.
    ServeStats st = runFed(
        "hydra-m",
        "seed=13,duration=60,clusters=2,group=resnet18:8,"
        "tenant=alpha:closed:resnet18:2:0,"
        "tenant=beta:closed:resnet18:2:0",
        "ckill=0@20");
    EXPECT_EQ(st.clusterKills, 1u);
    expectAccounted(st);
    for (const auto& t : st.tenants)
        EXPECT_GT(t.completed, 4u) << t.name;
}

} // namespace
} // namespace hydra
