/**
 * @file
 * Schedule-compiler tests: the map -> optimize pipeline must keep the
 * golden makespans and Program digests of every registered machine x
 * workload pair, the Safe pass level must be tick-neutral (RunStats
 * fingerprints), Aggressive output must stay statically valid and
 * executable (unit + fuzz), and the shared ProgramCache must hit on
 * repeated compiles while keying on step content, not step names.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/prototypes.hh"
#include "common/rng.hh"
#include "sched/execplan.hh"
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

/** FNV-1a over every field of a compiled Program. */
struct ProgramDigest
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    add(const Program& prog)
    {
        u64(prog.cards.size());
        u64(prog.labels.size());
        for (const std::string& l : prog.labels) {
            u64(l.size());
            for (char c : l)
                u64(static_cast<unsigned char>(c));
        }
        for (const CardProgram& card : prog.cards) {
            u64(card.compute.size());
            for (const ComputeTask& t : card.compute) {
                const OpCost& cost = prog.costs[t.costId];
                u64(t.id);
                u64(t.duration);
                u64(cost.cycles);
                u64(cost.hbmBytes);
                for (uint64_t ops : cost.cuOps)
                    u64(ops);
                u64(cost.limbs);
                u64(t.label);
                u64(t.waitCount);
                for (uint64_t m : card.waitMsgs(t))
                    u64(m);
            }
            u64(card.comm.size());
            for (const CommTask& t : card.comm) {
                u64(static_cast<uint64_t>(t.kind));
                u64(t.msg);
                u64(t.peer);
                u64(t.bytes);
                u64(t.afterCompute);
            }
        }
    }
};

/**
 * Program digests of every registered (machine, workload) pair:
 * `steps` folds every one-step unit at OptLevel::None in step order,
 * `model` is the whole-model unit at OptLevel::None.  Unlike the
 * makespan goldens these see every OpCost and byte field, so they pin
 * the mapper's pricing as well as its schedule.
 */
struct DigestGolden
{
    const char* machine;
    const char* workload;
    uint64_t steps;
    uint64_t model;
};

const DigestGolden kDigests[] = {
    {"hydra-s", "resnet18", 0x8d0f4d05faa37556ull, 0xb65c8a98a9de87acull},
    {"hydra-s", "resnet50", 0x752c2f3793137f8dull, 0x08d04fdaffa24f8dull},
    {"hydra-s", "bert", 0xe6cfa9ac8d7fba16ull, 0x7c4adafbce44c9aeull},
    {"hydra-s", "opt", 0x635fd49c67f549f3ull, 0x136ad3f66b2a0c48ull},
    {"hydra-s", "resnet20", 0xeb6cfcec434ef134ull, 0x02ff1047bc434153ull},
    {"hydra-s", "mlp3", 0x007906edeb4542e2ull, 0x25b90ed62cae9d50ull},
    {"hydra-m", "resnet18", 0x3a78b8e5861cd3d5ull, 0x029bc7420abf99e2ull},
    {"hydra-m", "resnet50", 0x5422548427251d2aull, 0xa01b980a900bbd9cull},
    {"hydra-m", "bert", 0x7855456a12adb402ull, 0xbf28fb31b95e4f97ull},
    {"hydra-m", "opt", 0xf2be7486f4b0bf37ull, 0xb69b8e8b168695a0ull},
    {"hydra-m", "resnet20", 0x715e225bbbe408f3ull, 0x9cc13e0546bfc350ull},
    {"hydra-m", "mlp3", 0xfed308c6ceb505b0ull, 0x6f979133a8b5c4c9ull},
    {"hydra-l", "resnet18", 0x3cf0289b73a88df9ull, 0x048a9fba69a695c8ull},
    {"hydra-l", "resnet50", 0xbde104c8a611160bull, 0x5574d8d3579cb391ull},
    {"hydra-l", "bert", 0xf369a6d2bd9ac786ull, 0xdde225ac5f1f896cull},
    {"hydra-l", "opt", 0x947c310e3bfb7338ull, 0xa9d080b686c4ca63ull},
    {"hydra-l", "resnet20", 0xa5f5ebc84bf4b277ull, 0x6a873a1cf04add13ull},
    {"hydra-l", "mlp3", 0x6dc9ea444dcad684ull, 0xf44e65de96d34f16ull},
    {"fab-s", "resnet18", 0x6736838ff6e6eb9aull, 0x48fe252689340448ull},
    {"fab-s", "resnet50", 0xc453e3a227feb377ull, 0xfc48d964362e6cffull},
    {"fab-s", "bert", 0xe86dabf937146c16ull, 0xfc38188d7a4b06aeull},
    {"fab-s", "opt", 0xae135f125b8842a6ull, 0xfd2293f1b9c28af9ull},
    {"fab-s", "resnet20", 0x967819384543813cull, 0xb6aba91c9e5e870full},
    {"fab-s", "mlp3", 0x90dff84e2593063eull, 0xee5f6a6c70e8a138ull},
    {"fab-m", "resnet18", 0xbd2e7e7edac24d32ull, 0x3115d3d160f11ef1ull},
    {"fab-m", "resnet50", 0xac6762a4b1fb71fdull, 0x57fded7150445843ull},
    {"fab-m", "bert", 0xe7a633827532b00cull, 0x171e336e54bd9a61ull},
    {"fab-m", "opt", 0x6368af4b5c3d4a49ull, 0x69734cb137092222ull},
    {"fab-m", "resnet20", 0x67213cee594c5c25ull, 0xaa2d99131c4da86aull},
    {"fab-m", "mlp3", 0x98a7f75e0eb8326eull, 0xde734904665b7603ull},
    {"fab-l", "resnet18", 0xf88bd537aa0648e0ull, 0xa2f1f3047893abd5ull},
    {"fab-l", "resnet50", 0x9a2a18bd10eafae4ull, 0x32fe477f4df3a736ull},
    {"fab-l", "bert", 0x7bc8631780bfb93cull, 0x999a6dddfca20e66ull},
    {"fab-l", "opt", 0xe53700e4b30b0006ull, 0x4f1ba782d1e8cb55ull},
    {"fab-l", "resnet20", 0x22eb60d4f66657adull, 0x2f98c7ce079abc8dull},
    {"fab-l", "mlp3", 0x09fbc07a08ab710aull, 0x42b4a617a60f63fcull},
    {"poseidon", "resnet18", 0x48671f5a32b8c916ull, 0xd42bad289b187eb4ull},
    {"poseidon", "resnet50", 0x68935a6628966675ull, 0x9596f556b57e52edull},
    {"poseidon", "bert", 0x0da0f415d9b8142cull, 0x280e4813266a3940ull},
    {"poseidon", "opt", 0xc3aed2cdd5fa5be4ull, 0x1aad0b14e03840d7ull},
    {"poseidon", "resnet20", 0x09d13eb964d921a8ull, 0x1063b3e74d12b2afull},
    {"poseidon", "mlp3", 0x803efe5b1874d64eull, 0xdd743f275ef975e8ull},
};

TEST(CompileGolden, ProgramDigestPinsEveryPair)
{
    size_t checked = 0;
    for (const std::string& machine : machineNames()) {
        for (const std::string& workload : workloadNames()) {
            PrototypeSpec spec = machineByName(machine);
            WorkloadModel wl = workloadByName(workload);
            OpCostModel cost(spec.fpga, size_t{1} << 16, spec.dnum);
            std::unique_ptr<NetworkModel> net = spec.makeNetwork();
            size_t cards = spec.cluster.totalCards();
            ProgramDigest steps;
            for (const Step& step : wl.steps)
                steps.add(compileSteps(cost, *net, cards, wl.logSlots,
                                       spec.mapping, {step},
                                       OptLevel::None)
                              .program);
            ProgramDigest model;
            model.add(compileSteps(cost, *net, cards, wl.logSlots,
                                   spec.mapping, wl.steps,
                                   OptLevel::None)
                          .program);
            for (const DigestGolden& g : kDigests) {
                if (machine != g.machine || workload != g.workload)
                    continue;
                EXPECT_EQ(steps.h, g.steps) << machine << "/" << workload;
                EXPECT_EQ(model.h, g.model) << machine << "/" << workload;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, std::size(kDigests));
    EXPECT_EQ(checked, machineNames().size() * workloadNames().size());
}

TEST(CompileGolden, CompiledQueuesAreExactSize)
{
    // Cached programs never grow after compileSteps(): no queue keeps
    // push_back slack.
    for (const Golden& g : kGoldens) {
        InferenceRunner runner(machineByName(g.machine));
        for (OptLevel level :
             {OptLevel::None, OptLevel::Safe, OptLevel::Aggressive}) {
            auto plan = runner.planFor(workloadByName(g.workload), level);
            for (const ExecUnit& u : plan->units) {
                for (const CardProgram& card : u.compiled->program.cards) {
                    EXPECT_EQ(card.compute.capacity(), card.compute.size())
                        << g.machine << "/" << g.workload << " " << u.name;
                    EXPECT_EQ(card.comm.capacity(), card.comm.size())
                        << g.machine << "/" << g.workload << " " << u.name;
                    EXPECT_EQ(card.waits.capacity(), card.waits.size())
                        << g.machine << "/" << g.workload << " " << u.name;
                }
            }
        }
    }
}

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

/**
 * Every Program a plan runs comes from compileSteps(), which asserts
 * Program::validate() once; InferenceRunner's executors then skip the
 * per-run prevalidation.  Check that contract on every machine x
 * workload at every pass level: each distinct unit Program validates
 * clean and runs on a default (prevalidating) executor.  The one-step
 * Aggressive Programs of resnet20 are checked on their own too: at
 * Aggressive a plan fuses or prefetches them, so the sweep below does
 * not reach them.
 */
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

    size_t programs = 0;
    for (const std::string& machine : machineNames()) {
        PrototypeSpec spec = machineByName(machine);
        InferenceRunner runner(spec);
        std::unique_ptr<NetworkModel> net = spec.makeNetwork();
        ClusterExecutor ex(spec.cluster, *net);
        for (const std::string& workload : workloadNames()) {
            for (OptLevel level :
                 {OptLevel::None, OptLevel::Safe, OptLevel::Aggressive}) {
                auto plan = runner.planFor(workloadByName(workload), level);
                ASSERT_TRUE(plan->error.ok()) << plan->error.message;
                std::set<const CompiledStep*> seen;
                for (const ExecUnit& u : plan->units) {
                    if (!seen.insert(u.compiled.get()).second)
                        continue;
                    ++programs;
                    const Program& prog = u.compiled->program;
                    EXPECT_TRUE(prog.validate().empty())
                        << machine << "/" << workload << " @ "
                        << optLevelName(level) << " unit " << u.name;
                    RunResult rr = ex.tryRun(prog);
                    EXPECT_TRUE(rr.ok())
                        << machine << "/" << workload << " @ "
                        << optLevelName(level) << " unit " << u.name
                        << ": " << rr.error.message;
                }
            }
        }
    }
    EXPECT_GT(programs, machineNames().size() * workloadNames().size());
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
    for (size_t c = 1; c <= 2; ++c) {
        auto waits = opt.cards[c].waitMsgs(opt.cards[c].compute[0]);
        EXPECT_EQ(std::vector<uint64_t>(waits.begin(), waits.end()),
                  (std::vector<uint64_t>{m1}))
            << "card " << c;
    }
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
