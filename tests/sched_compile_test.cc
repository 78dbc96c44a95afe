/**
 * @file
 * Schedule-compiler tests: the plan -> lower -> optimize pipeline must
 * be execution-equivalent to the pre-pipeline direct mapper (golden
 * makespans for every registered machine x workload pair), the Safe
 * pass level must be tick-neutral (RunStats fingerprints), Aggressive
 * output must stay statically valid and executable (unit + fuzz), and
 * the shared ProgramCache must hit on repeated compiles while keying
 * on step content, not step names.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/prototypes.hh"
#include "common/rng.hh"
#include "sched/progcache.hh"
#include "sync/executor.hh"

namespace hydra {
namespace {

/**
 * Final ticks of every registered (machine, workload) pair, captured
 * on the direct StepMapper::mapStep path before the compiler split.
 * The pipeline (and its Safe pass level) must reproduce these exactly.
 */
struct Golden
{
    const char* machine;
    const char* workload;
    uint64_t makespan;
};

const Golden kGoldens[] = {
    {"hydra-s", "resnet18", 52691418458776ull},
    {"hydra-s", "resnet50", 655834251580152ull},
    {"hydra-s", "bert", 408704936259736ull},
    {"hydra-s", "opt", 17637541280413872ull},
    {"hydra-s", "resnet20", 2220523528524ull},
    {"hydra-m", "resnet18", 6857565190612ull},
    {"hydra-m", "resnet50", 82584461339718ull},
    {"hydra-m", "bert", 53122397900053ull},
    {"hydra-m", "opt", 2214560898140687ull},
    {"hydra-m", "resnet20", 1040746374372ull},
    {"hydra-l", "resnet18", 2931152948723ull},
    {"hydra-l", "resnet50", 12441962309636ull},
    {"hydra-l", "bert", 9928055869936ull},
    {"hydra-l", "opt", 282793641201986ull},
    {"hydra-l", "resnet20", 4074712084371ull},
    {"fab-s", "resnet18", 152047346888172ull},
    {"fab-s", "resnet50", 1940709169586428ull},
    {"fab-s", "bert", 1213166176400924ull},
    {"fab-s", "opt", 52860947277381752ull},
    {"fab-s", "resnet20", 6303837625832ull},
    {"fab-m", "resnet18", 22672157922188ull},
    {"fab-m", "resnet50", 258872566044188ull},
    {"fab-m", "bert", 159294942125964ull},
    {"fab-m", "opt", 6640184078890908ull},
    {"fab-m", "resnet20", 4427843626920ull},
    {"fab-l", "resnet18", 56571113009520ull},
    {"fab-l", "resnet50", 286750963399388ull},
    {"fab-l", "bert", 53553936749234ull},
    {"fab-l", "opt", 945129268191504ull},
    {"fab-l", "resnet20", 43111632301050ull},
    {"poseidon", "resnet18", 78696081052797ull},
    {"poseidon", "resnet50", 937303258235333ull},
    {"poseidon", "bert", 545952360060732ull},
    {"poseidon", "opt", 23013800065115272ull},
    {"poseidon", "resnet20", 3367559216914ull},
};

TEST(CompileGolden, EveryMachineWorkloadPairKeepsItsTicks)
{
    for (const Golden& g : kGoldens) {
        InferenceRunner runner(machineByName(g.machine));
        InferenceResult res =
            runner.runPlan(*runner.planFor(workloadByName(g.workload)));
        ASSERT_TRUE(res.ok()) << g.machine << "/" << g.workload;
        EXPECT_EQ(res.total.makespan, g.makespan)
            << g.machine << "/" << g.workload;
    }
}

/** Compile/executor fixture for one (machine, workload). */
struct Rig
{
    PrototypeSpec spec;
    WorkloadModel wl;
    OpCostModel cost;
    std::unique_ptr<NetworkModel> net;
    ClusterExecutor ex;

    Rig(const char* machine, const char* workload)
        : spec(machineByName(machine)), wl(workloadByName(workload)),
          cost(spec.fpga, size_t{1} << 16, spec.dnum),
          net(spec.makeNetwork()), ex(spec.cluster, *net)
    {
    }

    CompiledStep
    compile(const Step& step, OptLevel level)
    {
        return compileSteps(cost, *net, spec.cluster.totalCards(),
                            wl.logSlots, spec.mapping, {step}, level);
    }
};

TEST(CompilePipeline, SafeLevelIsTickNeutralPerStep)
{
    for (const char* machine : {"hydra-m", "fab-m", "poseidon"}) {
        Rig rig(machine, "resnet20");
        for (const auto& step : rig.wl.steps) {
            RunStats none =
                rig.ex.run(rig.compile(step, OptLevel::None).program);
            RunStats safe =
                rig.ex.run(rig.compile(step, OptLevel::Safe).program);
            EXPECT_EQ(none.fingerprint(), safe.fingerprint())
                << machine << " step " << step.name;
        }
    }
}

TEST(CompilePipeline, MapStepEqualsPlanThenLower)
{
    for (const char* machine : {"hydra-m", "fab-m"}) {
        Rig rig(machine, "resnet20");
        StepMapper mapper(rig.cost, *rig.net,
                          rig.spec.cluster.totalCards(), rig.wl.logSlots,
                          rig.spec.mapping);
        for (const auto& step : rig.wl.steps) {
            Program direct = mapper.mapStep(step);
            Program staged = lowerPlan(mapper.planStep(step), rig.cost,
                                       *rig.net, rig.spec.mapping);
            EXPECT_TRUE(countProgram(direct) == countProgram(staged));
            EXPECT_EQ(rig.ex.run(direct).fingerprint(),
                      rig.ex.run(staged).fingerprint())
                << machine << " step " << step.name;
        }
    }
}

TEST(CompilePipeline, AggressiveOutputValidatesAndExecutes)
{
    for (const char* machine : {"hydra-m", "fab-m"}) {
        Rig rig(machine, "resnet20");
        for (const auto& step : rig.wl.steps) {
            CompiledStep cs = rig.compile(step, OptLevel::Aggressive);
            EXPECT_TRUE(cs.program.validate().empty())
                << machine << " step " << step.name;
            RunResult rr = rig.ex.tryRun(cs.program);
            EXPECT_TRUE(rr.ok()) << rr.error.message;
        }
    }
}

TEST(CompilePipeline, LoweringRebindsMachineModelsOnOnePlan)
{
    // One machine-independent plan, lowered against two different card
    // microarchitectures: the structure (task counts, ids, queues) is
    // identical, only durations and costs re-bind.
    Rig rig("hydra-m", "resnet20");
    StepMapper mapper(rig.cost, *rig.net, rig.spec.cluster.totalCards(),
                      rig.wl.logSlots, rig.spec.mapping);
    PrototypeSpec fast = rig.spec;
    fast.fpga.clockHz *= 2.0;
    OpCostModel fastCost(fast.fpga, size_t{1} << 16, fast.dnum);

    bool some_faster = false;
    for (const auto& step : rig.wl.steps) {
        LogicalPlan plan = mapper.planStep(step);
        Program base = lowerPlan(plan, rig.cost, *rig.net,
                                 rig.spec.mapping);
        Program rebound = lowerPlan(plan, fastCost, *rig.net,
                                    fast.mapping);
        ASSERT_EQ(base.cards.size(), rebound.cards.size());
        for (size_t c = 0; c < base.cards.size(); ++c) {
            ASSERT_EQ(base.cards[c].compute.size(),
                      rebound.cards[c].compute.size());
            for (size_t i = 0; i < base.cards[c].compute.size(); ++i) {
                EXPECT_EQ(base.cards[c].compute[i].id,
                          rebound.cards[c].compute[i].id);
                if (rebound.cards[c].compute[i].duration <
                    base.cards[c].compute[i].duration)
                    some_faster = true;
            }
        }
    }
    EXPECT_TRUE(some_faster);
}

TEST(ProgramCacheTest, SecondRunHitsEveryStep)
{
    ProgramCache& cache = ProgramCache::global();
    cache.clear();
    cache.resetStats();

    InferenceRunner runner(machineByName("hydra-m"));
    WorkloadModel wl = workloadByName("resnet18");
    runner.runPlan(*runner.planFor(wl));
    ProgramCache::Stats first = cache.stats();
    EXPECT_GT(first.misses, 0u);
    // Repeated identical layers share entries: fewer compiles than
    // steps.
    EXPECT_LT(first.entries, wl.steps.size());
    EXPECT_EQ(first.hits + first.misses, wl.steps.size());

    runner.runPlan(*runner.planFor(wl));
    ProgramCache::Stats second = cache.stats();
    EXPECT_EQ(second.misses, first.misses);
    EXPECT_EQ(second.hits, first.hits + wl.steps.size());
    EXPECT_GT(second.hitRate(), 0.5);
}

TEST(ProgramCacheTest, RunAndRunJobShareEntries)
{
    ProgramCache& cache = ProgramCache::global();
    cache.clear();
    cache.resetStats();

    PrototypeSpec spec = machineByName("hydra-m");
    InferenceRunner runner(spec);
    WorkloadModel wl = workloadByName("resnet20");
    runner.runPlan(*runner.planFor(wl));
    ProgramCache::Stats after_run = cache.stats();

    // A whole-machine job group maps to the same sub-spec as planFor(),
    // so the job plan compiles nothing new.
    CardGroup all =
        CardGroup::contiguous(0, spec.cluster.totalCards());
    InferenceResult res = runner.runJob(*runner.planForJob(wl, all), all, 0);
    ASSERT_TRUE(res.ok());
    ProgramCache::Stats after_job = cache.stats();
    EXPECT_EQ(after_job.misses, after_run.misses);
    EXPECT_EQ(after_job.entries, after_run.entries);
    EXPECT_GE(after_job.hits, after_run.hits + wl.steps.size());
}

TEST(ProgramCacheTest, KeyTracksContentNotName)
{
    PrototypeSpec spec = machineByName("hydra-m");
    WorkloadModel wl = workloadByName("resnet20");
    Step a = wl.steps[0];
    Step b = a;
    b.name = "renamed_step";
    std::string ka = unitCacheKey(spec, spec.cluster, spec.cluster,
                                  size_t{1} << 16, wl.logSlots, {a});
    EXPECT_EQ(ka, unitCacheKey(spec, spec.cluster, spec.cluster,
                               size_t{1} << 16, wl.logSlots, {b}));

    b.limbs += 1;
    EXPECT_NE(ka, unitCacheKey(spec, spec.cluster, spec.cluster,
                               size_t{1} << 16, wl.logSlots, {b}));

    // Shrunken executing cluster (degraded re-dispatch) re-keys.
    ClusterConfig degraded{1, spec.cluster.totalCards() - 1};
    EXPECT_NE(ka, unitCacheKey(spec, degraded, spec.cluster,
                               size_t{1} << 16, wl.logSlots, {a}));

    // Pass level re-keys.
    EXPECT_NE(ka, unitCacheKey(spec, spec.cluster, spec.cluster,
                               size_t{1} << 16, wl.logSlots, {a},
                               OptLevel::Aggressive));

    // A different machine re-keys even with equal geometry.
    PrototypeSpec other = spec;
    other.fpga.clockHz *= 2.0;
    EXPECT_NE(ka, unitCacheKey(other, other.cluster, other.cluster,
                               size_t{1} << 16, wl.logSlots, {a}));
}

/** Minimal configurable network for the synthetic pass tests. */
class PassNetwork : public NetworkModel
{
  public:
    explicit PassNetwork(bool overlaps) : overlaps_(overlaps) {}

    std::unique_ptr<NetworkModel>
    clone() const override
    {
        return std::make_unique<PassNetwork>(*this);
    }

    Tick
    transferTime(uint64_t b, size_t, size_t) const override
    {
        return 100 + 3 * b;
    }

    Tick
    broadcastTime(uint64_t b, size_t, size_t) const override
    {
        return 150 + 3 * b;
    }

    Tick setupLatency() const override { return 20; }
    bool overlapsCompute() const override { return overlaps_; }
    Tick stepSyncLatency() const override { return 0; }

  private:
    bool overlaps_;
};

TEST(Passes, CanonicalOrderSortsFreeRunsAndStaysTickNeutral)
{
    ProgramBuilder pb(2);
    uint32_t la = pb.label("a");
    uint32_t lb = pb.label("b");
    // Card 0: b, a, b, a — all dependency-free, one maximal run.
    pb.addCompute(0, 10, OpCost{}, lb);
    pb.addCompute(0, 20, OpCost{}, la);
    pb.addCompute(0, 30, OpCost{}, lb);
    pb.addCompute(0, 40, OpCost{}, la);
    pb.addCompute(1, 5, OpCost{}, la);
    Program prog = pb.take();

    PassNetwork net(true);
    ClusterExecutor ex(ClusterConfig{1, 2}, net);
    uint64_t before = ex.run(prog).fingerprint();

    OptReport report;
    Program opt = optimizeProgram(prog, OptLevel::Safe, true, &report);
    ASSERT_EQ(report.passes.size(), 1u);
    EXPECT_EQ(report.passes[0].pass, "canonical-order");
    EXPECT_GT(report.passes[0].changes, 0u);
    std::vector<uint32_t> labels;
    for (const auto& t : opt.cards[0].compute)
        labels.push_back(t.label);
    EXPECT_EQ(labels, (std::vector<uint32_t>{la, la, lb, lb}));
    EXPECT_EQ(ex.run(opt).fingerprint(), before);
}

TEST(Passes, CanonicalOrderRespectsAnchorsAndWaits)
{
    ProgramBuilder pb(2);
    uint32_t la = pb.label("a");
    uint32_t lb = pb.label("b");
    uint64_t anchor = pb.addCompute(0, 10, OpCost{}, lb);
    uint64_t msg = pb.sendTo(0, 1, 64, anchor);
    pb.addCompute(0, 20, OpCost{}, la);
    pb.addCompute(1, 5, OpCost{}, lb, {msg});
    pb.addCompute(1, 5, OpCost{}, la);
    Program prog = pb.take();

    Program opt = optimizeProgram(prog, OptLevel::Safe, true);
    // The anchored b-task cannot swap with the later a-task, and card
    // 1's waiting task breaks its run: both queues keep their order.
    EXPECT_EQ(opt.cards[0].compute[0].label, lb);
    EXPECT_EQ(opt.cards[1].compute[0].label, lb);
}

TEST(Passes, SafeIsIdentityOnHostMediatedNetworks)
{
    ProgramBuilder pb(1);
    uint32_t lb = pb.label("b");
    uint32_t la = pb.label("a");
    pb.addCompute(0, 10, OpCost{}, lb);
    pb.addCompute(0, 20, OpCost{}, la);
    OptReport report;
    Program opt = optimizeProgram(pb.take(), OptLevel::Safe, false,
                                  &report);
    EXPECT_TRUE(report.passes.empty());
    EXPECT_EQ(opt.cards[0].compute[0].label, lb);
}

TEST(Passes, DeadTransferEliminationDropsUnwaitedZeroByteMsgs)
{
    ProgramBuilder pb(2);
    uint32_t l = pb.label("x");
    uint64_t p = pb.addCompute(0, 10, OpCost{}, l);
    pb.sendTo(0, 1, 0, p);             // dead: zero bytes, never waited
    uint64_t live = pb.sendTo(0, 1, 0, p); // zero bytes but waited
    pb.addCompute(1, 5, OpCost{}, l, {live});
    Program prog = pb.take();

    OptReport report;
    Program opt = optimizeProgram(prog, OptLevel::Aggressive, true,
                                  &report);
    ProgramCounts c = countProgram(opt);
    EXPECT_EQ(c.sends, 1u);
    EXPECT_EQ(c.recvs, 1u);
    EXPECT_TRUE(opt.validate().empty());
    PassNetwork net(true);
    ClusterExecutor ex(ClusterConfig{1, 2}, net);
    EXPECT_TRUE(ex.tryRun(opt).ok());
}

TEST(Passes, BroadcastCoalesceMergesAdjacentSameAnchor)
{
    ProgramBuilder pb(3);
    uint32_t l = pb.label("x");
    uint64_t p = pb.addCompute(0, 10, OpCost{}, l);
    uint64_t m1 = pb.broadcastFrom(0, 100, p);
    uint64_t m2 = pb.broadcastFrom(0, 28, p);
    pb.addCompute(1, 5, OpCost{}, l, {m1, m2});
    pb.addCompute(2, 5, OpCost{}, l, {m2});
    Program prog = pb.take();

    OptReport report;
    Program opt = optimizeProgram(prog, OptLevel::Aggressive, true,
                                  &report);
    ProgramCounts c = countProgram(opt);
    EXPECT_EQ(c.sends, 1u);
    EXPECT_EQ(c.messages, 1u);
    EXPECT_EQ(c.bytes, 128u);
    // Waits on the merged message collapse to the survivor, deduped.
    EXPECT_EQ(opt.cards[1].compute[0].waitMsgs,
              (std::vector<uint64_t>{m1}));
    EXPECT_EQ(opt.cards[2].compute[0].waitMsgs,
              (std::vector<uint64_t>{m1}));
    EXPECT_TRUE(opt.validate().empty());
    PassNetwork net(true);
    ClusterExecutor ex(ClusterConfig{1, 3}, net);
    EXPECT_TRUE(ex.tryRun(opt).ok());
}

TEST(Passes, StallHoistMovesFreeComputeAheadOfWaiters)
{
    ProgramBuilder pb(2);
    uint32_t l = pb.label("x");
    uint64_t p = pb.addCompute(0, 1000, OpCost{}, l);
    uint64_t msg = pb.sendTo(0, 1, 64, p);
    uint64_t waiter = pb.addCompute(1, 5, OpCost{}, l, {msg});
    uint64_t free1 = pb.addCompute(1, 7, OpCost{}, l);
    uint64_t free2 = pb.addCompute(1, 9, OpCost{}, l);
    Program prog = pb.take();

    OptReport report;
    Program opt = optimizeProgram(prog, OptLevel::Aggressive, true,
                                  &report);
    std::vector<uint64_t> order;
    for (const auto& t : opt.cards[1].compute)
        order.push_back(t.id);
    EXPECT_EQ(order, (std::vector<uint64_t>{free1, free2, waiter}));
    PassNetwork net(true);
    ClusterExecutor ex(ClusterConfig{1, 2}, net);
    RunResult rr = ex.tryRun(opt);
    ASSERT_TRUE(rr.ok());
    // The hoisted tasks fill the stall: card 1 now computes while the
    // producer runs, so its makespan is bounded by producer + transfer
    // + waiter rather than adding the free tasks at the end.
    EXPECT_LE(rr.stats.makespan,
              ex.tryRun(prog).stats.makespan);
}

/** Random deadlock-free program in the sync_fuzz_test style. */
Program
randomProgram(size_t cards, uint64_t seed)
{
    Rng rng(seed);
    ProgramBuilder pb(cards);
    uint32_t labels[3] = {pb.label("f0"), pb.label("f1"),
                          pb.label("f2")};
    std::vector<uint64_t> last(cards, 0);
    for (size_t c = 0; c < cards; ++c)
        last[c] = pb.addCompute(c, 10 + rng.uniformU64(100), OpCost{},
                                labels[rng.uniformU64(3)]);
    // (msg, source) of every broadcast: a card may wait only on
    // broadcasts it actually receives, i.e. from another source.
    std::vector<std::pair<uint64_t, size_t>> bcasts;
    for (size_t m = 0; m < 30; ++m) {
        size_t src = rng.uniformU64(cards);
        if (rng.uniformU64(3) == 0) {
            bcasts.emplace_back(
                pb.broadcastFrom(src,
                                 rng.uniformU64(3) == 0
                                     ? 0
                                     : 1 + rng.uniformU64(500),
                                 last[src]),
                src);
        } else {
            size_t dst = rng.uniformU64(cards);
            if (dst == src)
                dst = (dst + 1) % cards;
            pb.sendTo(src, dst,
                      rng.uniformU64(4) == 0 ? 0
                                             : 1 + rng.uniformU64(500),
                      last[src]);
        }
        size_t c = rng.uniformU64(cards);
        std::vector<uint64_t> waits;
        if (!bcasts.empty() && rng.uniformU64(2) == 0) {
            auto [msg, bsrc] = bcasts[rng.uniformU64(bcasts.size())];
            if (bsrc != c)
                waits.push_back(msg);
        }
        last[c] = pb.addCompute(c, 5 + rng.uniformU64(50), OpCost{},
                                labels[rng.uniformU64(3)], waits);
    }
    return pb.take();
}

TEST(Passes, FuzzAggressiveKeepsProgramsValidAndRunnable)
{
    for (uint64_t seed : {1u, 7u, 19u, 42u, 77u, 101u}) {
        for (bool overlaps : {true, false}) {
            Program prog = randomProgram(4, seed);
            Tick work = 0;
            for (const auto& card : prog.cards)
                for (const auto& t : card.compute)
                    work += t.duration;

            Program opt = optimizeProgram(prog, OptLevel::Aggressive,
                                          overlaps);
            EXPECT_TRUE(opt.validate().empty())
                << "seed " << seed << " overlaps " << overlaps;

            PassNetwork net(overlaps);
            ClusterExecutor ex(ClusterConfig{1, 4}, net);
            RunResult a = ex.tryRun(opt);
            ASSERT_TRUE(a.ok()) << a.error.message;
            RunResult b = ex.tryRun(opt);
            EXPECT_EQ(a.stats.fingerprint(), b.stats.fingerprint());

            // Passes drop transfers, never compute: work conserved.
            Tick busy = 0;
            for (Tick t : a.stats.computeBusy)
                busy += t;
            EXPECT_EQ(busy, work);
        }
    }
}

} // namespace
} // namespace hydra
