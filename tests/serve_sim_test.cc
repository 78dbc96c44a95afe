/**
 * @file
 * End-to-end serving-subsystem tests: deterministic replay, overload
 * shedding, fault-triggered repartitioning, and request accounting.
 */

#include <gtest/gtest.h>

#include "baselines/prototypes.hh"
#include "sched/progcache.hh"
#include "serve/federation.hh"

namespace hydra {
namespace {

ServeStats
runServe(const std::string& machine, const std::string& spec,
         const std::string& faults = "")
{
    Federation fed(machineByName(machine), ServeSpec::parse(spec),
                   FaultPlan::parse(faults));
    return fed.run();
}

/** Every offered request must end up completed or shed. */
void
expectAccounted(const ServeStats& st)
{
    EXPECT_EQ(st.offered, st.completed + st.shed);
    EXPECT_EQ(st.shed, st.shedQueueFull + st.shedNoCapacity);
    uint64_t tenant_offered = 0, tenant_completed = 0, tenant_shed = 0;
    for (const auto& t : st.tenants) {
        tenant_offered += t.offered;
        tenant_completed += t.completed;
        tenant_shed += t.shed;
    }
    EXPECT_EQ(tenant_offered, st.offered);
    EXPECT_EQ(tenant_completed, st.completed);
    EXPECT_EQ(tenant_shed, st.shed);
}

const char* kMixed =
    "seed=5,duration=120,tenant=vision:open:resnet18:0.05,"
    "tenant=nlp:open:bert:0.005";

TEST(ServeSim, SameSeedIdenticalStats)
{
    ServeStats a = runServe("hydra-m", kMixed);
    ServeStats b = runServe("hydra-m", kMixed);
    ASSERT_GT(a.completed, 0u);
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a.horizon, b.horizon);
    expectAccounted(a);

    ServeStats c = runServe(
        "hydra-m",
        "seed=6,duration=120,tenant=vision:open:resnet18:0.05,"
        "tenant=nlp:open:bert:0.005");
    EXPECT_NE(a.hash(), c.hash());
}

TEST(ServeSim, JobsReuseCompiledPrograms)
{
    ProgramCache& cache = ProgramCache::global();
    cache.clear();
    cache.resetStats();
    ServeStats st = runServe("hydra-m", kMixed);
    ASSERT_GT(st.completed, 1u);
    // Every job executes for real, but identical (workload, group)
    // jobs share compiled Programs: after the first job of each class
    // every step lookup hits.
    ProgramCache::Stats cs = cache.stats();
    EXPECT_GT(cs.hits, 0u);
    EXPECT_GT(cs.hitRate(), 0.5);
    EXPECT_LT(cs.entries, cs.hits + cs.misses);
}

TEST(ServeSim, ClosedLoopSustainsLoad)
{
    ServeStats st = runServe(
        "hydra-m",
        "seed=2,duration=100,tenant=pool:closed:resnet18:2:1");
    // Two clients on a ~13s service: each finishes several requests.
    EXPECT_GE(st.completed, 8u);
    EXPECT_EQ(st.shed, 0u);
    expectAccounted(st);
}

TEST(ServeSim, QueueOverflowSheds)
{
    // One slow 8-card BERT group (~60 s/job), queue bound 2, and an
    // aggressive open stream: most arrivals must shed on a full queue,
    // and everything admitted still drains.
    ServeStats st = runServe(
        "hydra-m",
        "seed=3,duration=120,queue=2,tenant=nlp:open:bert:0.5");
    EXPECT_GT(st.shedQueueFull, 0u);
    EXPECT_EQ(st.admitted, st.completed);
    EXPECT_LE(st.maxQueueDepth, 2u);
    expectAccounted(st);
}

TEST(ServeSim, KillBelowFloorDissolvesAndSheds)
{
    // The resnet18 group starts at its 2-card floor; the kill pushes
    // it below, there is no sibling to donate to, so the class loses
    // all capacity: queued and future vision requests shed.
    ServeStats st = runServe(
        "hydra-m",
        "seed=5,duration=120,tenant=vision:open:resnet18:0.05,"
        "tenant=nlp:open:bert:0.005,group=resnet18:2:2,group=bert:6",
        "kill=1@30");
    ASSERT_EQ(st.failedCards.size(), 1u);
    EXPECT_EQ(st.failedCards[0], 1u);
    EXPECT_EQ(st.repartitions, 1u);
    EXPECT_GT(st.shedNoCapacity, 0u);
    ASSERT_EQ(st.groups.size(), 2u);
    EXPECT_TRUE(st.groups[0].retired);
    EXPECT_FALSE(st.groups[1].retired);
    expectAccounted(st);

    // The nlp tenant's group is untouched: it sheds nothing.
    for (const auto& t : st.tenants) {
        if (t.name == "nlp") {
            EXPECT_EQ(t.shed, 0u);
        }
    }
}

TEST(ServeSim, KillWithSiblingDonatesAndCompletes)
{
    ServeStats st = runServe(
        "hydra-m",
        "seed=5,duration=120,tenant=vision:open:resnet18:0.05,"
        "group=resnet18:2:2,group=resnet18:6",
        "kill=1@30");
    EXPECT_EQ(st.repartitions, 1u);
    EXPECT_EQ(st.shed, 0u);
    EXPECT_EQ(st.offered, st.completed);
    ASSERT_EQ(st.groups.size(), 2u);
    EXPECT_TRUE(st.groups[0].retired);
    // The survivor joined the sibling group.
    EXPECT_EQ(st.groups[1].cards, 7u);
    expectAccounted(st);
}

TEST(ServeSim, FaultRunStaysDeterministic)
{
    const char* spec =
        "seed=5,duration=120,tenant=vision:open:resnet18:0.05,"
        "tenant=nlp:open:bert:0.005,group=resnet18:2:2,group=bert:6";
    ServeStats a = runServe("hydra-m", spec, "kill=1@30");
    ServeStats b = runServe("hydra-m", spec, "kill=1@30");
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(ServeSim, TraceReplayArrivesOnSchedule)
{
    ServeStats st = runServe(
        "hydra-m",
        "seed=1,duration=60,at=0:r:resnet18,at=5:r:resnet18,"
        "at=10:r:resnet18,group=resnet18:8");
    EXPECT_EQ(st.offered, 3u);
    EXPECT_EQ(st.completed, 3u);
    expectAccounted(st);
}

TEST(ServeSim, JsonCarriesHeadlineFields)
{
    ServeStats st = runServe("hydra-m", kMixed);
    std::string js = st.toJson("Hydra-M", "test-spec");
    for (const char* key :
         {"\"machine\"", "\"throughput_rps\"", "\"p50\"", "\"p95\"",
          "\"p99\"", "\"shed\"", "\"tenants\"", "\"groups\"",
          "\"hash\""})
        EXPECT_NE(js.find(key), std::string::npos) << key;
}

} // namespace
} // namespace hydra
