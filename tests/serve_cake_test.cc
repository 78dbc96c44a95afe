/**
 * @file
 * Tests for the serving schedulers (DESIGN.md §14): fifo
 * bit-compatibility (golden stats hashes, fault paths included), the
 * fifo rank against the reference AdmissionQueue order, the JobCache's
 * exact keys, the deficit-ledger conservation identity, step-boundary
 * preemption, work stealing across groups and clusters, starvation
 * kicks, and determinism of cake runs.
 */

#include <gtest/gtest.h>

#include "baselines/prototypes.hh"
#include "common/rng.hh"
#include "serve/cake.hh"
#include "serve/federation.hh"
#include "serve/jobcache.hh"
#include "serve/queue.hh"

namespace hydra {
namespace {

ServeStats
runServe(const std::string& spec, const std::string& faults = "",
         HealthPolicy health = {})
{
    Federation fed(machineByName("hydra-m"), ServeSpec::parse(spec),
                   FaultPlan::parse(faults), RetryPolicy{}, health);
    return fed.run();
}

/** The federation-wide accounting identities (same as the chaos
 *  tests): nothing offered is ever lost, under either scheduler. */
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
}

// A closed-loop mix that saturates hydra-m's default groups: enough
// continuous pressure that the cake path preempts, steals, and kicks.
const char* kCakePool =
    "seed=7,duration=120,tenant=vision:closed:resnet18:3:1,"
    "tenant=nlp:closed:bert:1:5";

// ---------------------------------------------------------------------
// Fifo compatibility: the fifo policy must stay bit-for-bit identical
// to the pre-scheduler code.  The first five hashes were captured
// before the cake scheduler landed, the fault-path ones while fifo
// still ran its own dispatcher over AdmissionQueue; a change to any
// of them means the fifo path regressed.
// ---------------------------------------------------------------------

TEST(CakeFifoCompat, GoldenFifoHashesAreBitStable)
{
    HealthPolicy noProbes;
    noProbes.maxProbes = 0;
    struct Golden
    {
        const char* spec;
        const char* faults;
        HealthPolicy health;
        uint64_t hash;
    };
    const Golden cases[] = {
        {"seed=7,duration=120,tenant=vision:open:resnet18:0.05,"
         "tenant=nlp:open:bert:0.005",
         "", {}, 0x7b35c52a6f692928ull},
        {"seed=7,duration=120,tenant=vision:closed:resnet18:3:1,"
         "tenant=nlp:closed:bert:1:5",
         "", {}, 0xe510dd7e58dcf5c7ull},
        {"seed=9,duration=40,clusters=4,group=resnet18:8,"
         "tenant=pool:closed:resnet18:8:0",
         "", {}, 0x1ad0755bad2e5775ull},
        {"seed=3,duration=60,queue=4,tenant=burst:open:resnet18:1,"
         "prio=burst:2,tenant=vip:open:resnet18:0.02,prio=vip:0",
         "", {}, 0xc4aea3970e1b2fd3ull},
        {"seed=7,duration=120,tenant=vision:open:resnet18:0.05,"
         "tenant=nlp:open:bert:0.005,group=resnet18:4:2,"
         "group=bert:4:1",
         "kill=1@40", {}, 0xfcff7877673b723full},
        // Fault paths: failover with checkpoint resume, probe healing,
        // error-storm write-off, the stall watchdog, degraded
        // re-dispatch and spillover.
        {"seed=9,duration=40,clusters=4,group=resnet18:8,"
         "tenant=pool:closed:resnet18:8:0",
         "ckill=1@30", {}, 0xbbc08f4466561766ull},
        {"seed=3,duration=60,clusters=2,group=resnet18:8,"
         "tenant=pool:closed:resnet18:4:0",
         "cpart=1@10:15", {}, 0xd8b0ce7e1c7d8f9bull},
        {"seed=4,duration=30,clusters=1,group=resnet18:8,"
         "tenant=vision:open:resnet18:1",
         "drop=1", {}, 0x8480df1f0d99e373ull},
        {"seed=4,duration=30,clusters=1,group=resnet18:8,"
         "tenant=vision:open:resnet18:1",
         "drop=1", noProbes, 0x5f8ebab6d9d102dfull},
        {"seed=11,duration=40,clusters=2,group=resnet18:8,"
         "tenant=pool:closed:resnet18:4:0,at=5:replay:resnet18",
         "kill=11@10", {}, 0x101f8a558a0bc797ull},
        {"seed=13,duration=60,clusters=2,group=resnet18:8,"
         "tenant=alpha:closed:resnet18:2:0,"
         "tenant=beta:closed:resnet18:2:0",
         "ckill=0@20", {}, 0x8274ba56a58e068full},
        // Two workload classes: a stall whose oldest pending request
        // is picked across classes, a class losing its only group
        // while the other keeps serving, and a failover of both.
        {"seed=4,duration=30,clusters=1,tenant=vision:open:resnet18:1,"
         "tenant=nlp:open:bert:0.2",
         "drop=1", noProbes, 0xdfe797f14d6bb6f1ull},
        {"seed=7,duration=120,tenant=vision:open:resnet18:0.05,"
         "tenant=nlp:open:bert:0.005,group=resnet18:4:4,"
         "group=bert:4:1",
         "kill=1@40", {}, 0x916304c855c28eddull},
        {"seed=5,duration=60,clusters=2,tenant=vision:closed:resnet18:3:1,"
         "tenant=nlp:closed:bert:2:2,opt=aggressive",
         "ckill=1@25", {}, 0x3c8f6e7106fae05eull},
        // Stalls whose queues hold failed-over work: the report names
        // the earliest-pushed request, not the earliest arrival.
        {"seed=4,duration=30,clusters=1,group=resnet18:8,"
         "tenant=pool:closed:resnet18:6:0",
         "drop=1", noProbes, 0x5c14bab48cadd278ull},
        {"seed=4,duration=30,clusters=1,tenant=pool:closed:resnet18:6:0,"
         "tenant=nlp:open:bert:0.5",
         "drop=1", noProbes, 0x6a8c7a71c00d652eull},
    };
    for (const auto& c : cases) {
        ServeStats st = runServe(c.spec, c.faults, c.health);
        EXPECT_EQ(st.hash(), c.hash) << c.spec << " " << c.faults;
        EXPECT_EQ(st.sched, "fifo") << c.spec;
        // The cake-only counters must stay zero under fifo.
        EXPECT_EQ(st.preemptions, 0u) << c.spec;
        EXPECT_EQ(st.steals, 0u) << c.spec;
        EXPECT_EQ(st.kicks, 0u) << c.spec;
        EXPECT_EQ(st.chargedTicks, 0u) << c.spec;
    }
}

// ---------------------------------------------------------------------
// The cake scheduler end to end
// ---------------------------------------------------------------------

TEST(CakeScheduler, PreemptsAtStepBoundariesAndConservesDeficit)
{
    ServeStats st =
        runServe(std::string("sched=cake,") + kCakePool);
    expectAccounted(st);
    EXPECT_EQ(st.sched, "cake");
    ASSERT_GT(st.completed, 0u);

    // Saturating closed loops force step-boundary slicing, and every
    // preempted job is eventually resumed (nothing is lost).
    EXPECT_GT(st.preemptions, 0u);
    EXPECT_EQ(st.preemptions, st.preemptResumes);

    // The conservation identity, exact in mod-2^64 arithmetic: every
    // tick charged at dispatch is either refunded by a preemption or
    // abort, or actually executed.
    EXPECT_EQ(st.chargedTicks, st.refundedTicks + st.executedTicks);
    EXPECT_GT(st.chargedTicks, 0u);
    EXPECT_GT(st.refundedTicks, 0u); // preemptions really refunded

    // With two competing tenant classes the AQM demotes the heavier
    // one at some point (and recovers it once its deficit drains).
    EXPECT_GT(st.demotions, 0u);
}

TEST(CakeScheduler, RunsAreBitIdentical)
{
    std::string spec = std::string("sched=cake,") + kCakePool;
    ServeStats a = runServe(spec);
    ServeStats b = runServe(spec);
    EXPECT_EQ(a.hash(), b.hash());
    // And the cake hash is not the fifo hash of the same workload:
    // the policy is folded into the fingerprint.
    ServeStats fifo = runServe(kCakePool);
    EXPECT_NE(a.hash(), fifo.hash());
}

TEST(CakeScheduler, AggressiveTenantsSliceAtUnitBoundaries)
{
    // opt=aggressive tenants run multi-layer ExecPlan units (fused +
    // boot-elided), so preemption slices and the deficit ledger now
    // index *unit* boundaries — every scheduler invariant must hold
    // unchanged, and the runs must stay bit-identical.
    std::string spec =
        std::string("sched=cake,opt=aggressive,") + kCakePool;
    ServeStats st = runServe(spec);
    expectAccounted(st);
    ASSERT_GT(st.completed, 0u);

    // Saturating closed loops still force slicing mid-plan, and every
    // preempted job resumes from its unit checkpoint.
    EXPECT_GT(st.preemptions, 0u);
    EXPECT_EQ(st.preemptions, st.preemptResumes);
    EXPECT_EQ(st.chargedTicks, st.refundedTicks + st.executedTicks);
    EXPECT_GT(st.refundedTicks, 0u);

    // Bit-identical rerun; and the aggressive plans really execute —
    // the fingerprint differs from the same mix compiled Safe.
    EXPECT_EQ(st.hash(), runServe(spec).hash());
    ServeStats safe = runServe(std::string("sched=cake,") + kCakePool);
    EXPECT_NE(st.hash(), safe.hash());
}

TEST(CakeScheduler, FifoAndCakeAgreeOnOfferedTraffic)
{
    // Same seed, same arrival process: the two schedulers may admit
    // and shed differently, but both must account for every request
    // and serve the same closed-loop tenants.
    ServeStats fifo = runServe(kCakePool);
    ServeStats cake =
        runServe(std::string("sched=cake,") + kCakePool);
    expectAccounted(fifo);
    expectAccounted(cake);
    ASSERT_EQ(fifo.tenants.size(), cake.tenants.size());
    for (size_t i = 0; i < fifo.tenants.size(); ++i)
        EXPECT_EQ(fifo.tenants[i].name, cake.tenants[i].name);
    EXPECT_GT(cake.completed, 0u);
}

TEST(CakeScheduler, IdleGroupsStealAcrossClassesAndClusters)
{
    // Two clusters; the short-job class queues deep while the
    // long-job groups go idle, so the idle groups must steal -- and
    // with per-cluster shards some of those steals cross clusters.
    ServeStats st = runServe(
        "sched=cake,seed=9,duration=90,clusters=2,queue=256,"
        "group=resnet20:2,group=resnet18:4,"
        "tenant=pool:closed:resnet20:24:0.5,"
        "tenant=lp:closed:resnet18:1:20");
    expectAccounted(st);
    EXPECT_GT(st.steals, 0u);
    EXPECT_GT(st.stealsCross, 0u);
    EXPECT_GE(st.steals, st.stealsCross);
}

TEST(CakeScheduler, StarvationKickBoundsQueueWait)
{
    // Adversarial hogs swamp a small queue while a sparse vip tenant
    // trickles in.  The wait-budget AQM demotes the hogs and the
    // starvation kick force-promotes anything older than the hard
    // cap, so no completed request can have waited much longer than
    // the cap plus one queue drain.
    ServeSpec spec = ServeSpec::parse(
        "sched=cake:1:5,seed=5,duration=90,queue=16,"
        "group=resnet20:2,group=resnet20:2,"
        "tenant=hogs:closed:resnet20:12:0,prio=hogs*:1,"
        "tenant=vip:open:resnet20:0.05,prio=vip:0");
    Federation fed(machineByName("hydra-m"), spec, FaultPlan{},
                   RetryPolicy{}, HealthPolicy{});
    ServeStats st = fed.run();
    expectAccounted(st);
    ASSERT_GT(st.completed, 0u);
    EXPECT_GT(st.kicks, 0u);
    // Hard bound: the kick cap plus the time to drain one full queue
    // of already-kicked short jobs through both groups.
    Tick drain = secondsToTicks(16.0 * 1.5 / 2.0);
    EXPECT_LE(st.maxWaitTicks, spec.kickTicks() + drain);
}

TEST(CakeScheduler, DescribeReportsSchedulerCountersOnlyWhenActive)
{
    ServeStats cake =
        runServe(std::string("sched=cake,") + kCakePool);
    std::string cd = cake.describe();
    EXPECT_NE(cd.find("preemption(s)"), std::string::npos);
    EXPECT_NE(cd.find("ledger: charged"), std::string::npos);

    ServeStats fifo = runServe(kCakePool);
    std::string fd = fifo.describe();
    EXPECT_EQ(fd.find("preemption(s)"), std::string::npos);
    EXPECT_EQ(fd.find("ledger:"), std::string::npos);
    EXPECT_EQ(fd.find("deficit"), std::string::npos);
}

// ---------------------------------------------------------------------
// Ledger unit behavior
// ---------------------------------------------------------------------

TEST(DeficitLedger, ChargesAdvanceAndRefundsDrain)
{
    ServeSpec spec = ServeSpec::parse(
        "sched=cake:1:10,duration=10,"
        "tenant=a:open:resnet20:1,tenant=b:open:resnet20:1");
    DeficitLedger led(spec);
    EXPECT_EQ(led.deficit(0), 0u);

    // Tenant 0 runs twice back to back: its second charge starts at
    // its own finish tag, so it accumulates deficit; tenant 1 stays
    // at zero deficit and wins the rank comparison.
    led.charge(0, 100, 1);
    led.charge(0, 100, 1);
    EXPECT_GT(led.deficit(0), 0u);
    EXPECT_EQ(led.deficit(1), 0u);
    EXPECT_LT(led.startTag(1), led.startTag(0));

    // Refunding the unrun remainder drains the deficit again.
    Tick before = led.deficit(0);
    led.refund(0, 100, 1);
    EXPECT_LT(led.deficit(0), before);
    EXPECT_EQ(led.chargedTicks(), 200u);
    EXPECT_EQ(led.refundedTicks(), 100u);
}

TEST(DeficitLedger, DemotionHasHysteresis)
{
    ServeSpec spec = ServeSpec::parse(
        "sched=cake:1:10,duration=10,"
        "tenant=hog:open:resnet20:1,tenant=bg:open:resnet20:1");
    DeficitLedger led(spec);
    Tick budget = spec.waitBudgetTicks(0);

    // Push the hog straight past the demotion threshold (8 budgets).
    led.charge(0, budget * 10, 1);
    EXPECT_TRUE(led.demoted(0));
    EXPECT_EQ(led.effectiveTier(0), led.effectiveTier(1) + 1);

    // Draining just below the threshold is not enough to promote...
    led.refund(0, budget * 2, 1);
    EXPECT_TRUE(led.demoted(0));
    // ...it must fall below a quarter of the threshold.
    led.refund(0, budget * 7, 1);
    EXPECT_FALSE(led.demoted(0));
    EXPECT_EQ(led.demotions(), 1u);
    EXPECT_EQ(led.promotions(), 1u);
}

TEST(CakeQueueUnit, RankOrderAndStealVictims)
{
    ServeSpec spec = ServeSpec::parse(
        "sched=cake,duration=10,"
        "tenant=a:open:resnet20:1,tenant=b:open:resnet20:1");
    DeficitLedger led(spec);
    auto rank = [&](const Request& r) { return rankOf(r, led); };
    CakeQueue q(3, 16);

    Request r0;
    r0.id = 0;
    r0.tenant = 0;
    r0.arrival = 5;
    Request r1;
    r1.id = 1;
    r1.tenant = 1;
    r1.arrival = 3;
    Request r2;
    r2.id = 2;
    r2.tenant = 1;
    r2.arrival = 9;
    q.push(0, r0);
    q.push(1, r1);
    q.push(1, r2);
    EXPECT_EQ(q.depth(), 3u);
    EXPECT_EQ(q.shardDepth(1), 2u);

    // Stealing from shard 0's perspective picks the deepest other
    // shard (1) and pops its best-ranked request (earlier arrival).
    size_t victim = 99;
    auto got = q.steal(0, rank, &victim);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(victim, 1u);
    EXPECT_EQ(got->id, 1u);

    // A kicked request outranks everything else in its shard.
    Request late;
    late.id = 7;
    late.tenant = 0;
    late.arrival = 100;
    late.kicked = true;
    q.push(1, late);
    auto best = q.popBest(1, rank);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->id, 7u);

    // kickStarved marks everything older than the cap exactly once
    // and reports the earliest arrival still queued.
    size_t kicked = 0;
    Tick earliest =
        q.kickStarved(200, 50, [&](const Request&) { ++kicked; });
    EXPECT_EQ(kicked, 2u); // r0 (shard 0) and r2 (shard 1)
    EXPECT_EQ(earliest, 5u);
    kicked = 0;
    q.kickStarved(200, 50, [&](const Request&) { ++kicked; });
    EXPECT_EQ(kicked, 0u); // idempotent: already marked
}

TEST(CakeQueueUnit, FifoRankReplaysAdmissionQueueOrder)
{
    // The fifo policy's claim: one shard per workload class ranked by
    // fifoRank pops exactly what AdmissionQueue::popFor pops, under
    // interleaved admissions, failover re-queues and served counts;
    // and its earliest push is the reference queue's front.
    constexpr size_t kClasses = 3;
    constexpr size_t kTenants = 5;
    Rng rng(42);
    AdmissionQueue ref(1u << 12);
    CakeQueue q(kClasses, 1u << 12);
    std::vector<uint64_t> served(kTenants, 0);
    auto rank = [&](const Request& r) { return fifoRank(r, served); };
    uint64_t nextId = 1;
    size_t pops = 0;
    for (Tick step = 0; step < 4000; ++step) {
        if (rng.uniformU64(2)) {
            Request r;
            r.id = nextId++;
            r.tenant = rng.uniformU64(kTenants);
            r.workload = rng.uniformU64(kClasses);
            r.priority = static_cast<int>(rng.uniformU64(3));
            r.arrival = step;
            ref.offer(r);
            q.push(r.workload, r);
        } else {
            size_t wl = rng.uniformU64(kClasses);
            auto want = ref.popFor(wl, served);
            auto got = q.popBest(wl, rank);
            ASSERT_EQ(want.has_value(), got.has_value()) << step;
            if (want) {
                ASSERT_EQ(got->id, want->id) << step;
                ++pops;
                served[want->tenant] += 1 + rng.uniformU64(2);
                if (rng.uniformU64(4) == 0) {
                    ref.requeue(*want);
                    q.push(got->workload, *got);
                }
            }
        }
        ASSERT_EQ(q.depth(), ref.depth());
        if (ref.oldest()) {
            ASSERT_EQ(q.firstPushed()->id, ref.oldest()->id) << step;
        }
    }
    EXPECT_GT(pops, 500u);
}

// ---------------------------------------------------------------------
// JobCache keys
// ---------------------------------------------------------------------

TEST(JobCacheUnit, DistinctPlansAndCardSetsNeverShareAnEntry)
{
    // Exact keys: a different plan object (even one with equal
    // content), card set or unit window is a different entry.
    ExecPlan a;
    ExecPlan b;
    InferenceResult res;
    res.total.makespan = 100;
    res.stepEnds = {40, 100};
    JobCache cache;
    EXPECT_EQ(cache.lookup(a, {0, 1}, 0, 2), nullptr);
    cache.insert(a, {0, 1}, 0, 2, res);

    const CachedJob* hit = cache.lookup(a, {0, 1}, 0, 2);
    ASSERT_NE(hit, nullptr);
    EXPECT_TRUE(hit->ok);
    EXPECT_EQ(hit->span, 100u);
    EXPECT_EQ(hit->stepEnds, res.stepEnds);

    EXPECT_EQ(cache.lookup(b, {0, 1}, 0, 2), nullptr); // other plan
    EXPECT_EQ(cache.lookup(a, {0, 2}, 0, 2), nullptr); // other cards
    EXPECT_EQ(cache.lookup(a, {0}, 0, 2), nullptr);    // shrunken group
    EXPECT_EQ(cache.lookup(a, {0, 1}, 1, 1), nullptr); // other window
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 5u);

    // A second entry for the other plan leaves the first intact.
    InferenceResult other = res;
    other.total.makespan = 7;
    cache.insert(b, {0, 1}, 0, 2, other);
    EXPECT_EQ(cache.lookup(a, {0, 1}, 0, 2)->span, 100u);
    EXPECT_EQ(cache.lookup(b, {0, 1}, 0, 2)->span, 7u);
}

} // namespace
} // namespace hydra
