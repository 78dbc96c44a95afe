/**
 * @file
 * Fused-queue scheduling tests (paper Section IV-D: multiple tasks
 * preloaded per card).  Fusion is a plan transform:
 * InferenceRunner::fusePlan() merges every unit of a plan into one
 * compiled unit that the ordinary execution driver runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/prototypes.hh"
#include "sched/execplan.hh"

namespace hydra {
namespace {

/** The fused unit's own RunStats (one program, no per-step barrier). */
RunStats
fusedUnitStats(const InferenceRunner& runner, const WorkloadModel& wl,
             OptLevel level = OptLevel::Safe)
{
    InferenceResult res =
        runner.runPlan(*runner.fusePlan(*runner.planFor(wl, level)));
    EXPECT_TRUE(res.ok()) << res.error.message;
    EXPECT_EQ(res.steps.size(), 1u);
    return res.steps.empty() ? RunStats{} : res.steps.front().stats;
}

InferenceResult
runStepwise(const InferenceRunner& runner, const WorkloadModel& wl)
{
    return runner.runPlan(*runner.planFor(wl));
}

/**
 * The fused unit's makespan and fingerprint for every registered
 * (machine, workload) pair, captured from the pre-ExecPlan fused path
 * (every step's tasks appended into one ProgramBuilder).
 */
struct FusedGolden
{
    const char* machine;
    const char* workload;
    uint64_t makespan;
    uint64_t fingerprint;
};

const FusedGolden kFusedGoldens[] = {
    {"hydra-s", "resnet18", 52691368458776ull, 0x7dbf0b5082b96ca7ull},
    {"hydra-s", "resnet50", 655834128580152ull, 0x336eca5b3fd187c7ull},
    {"hydra-s", "bert", 408704790259736ull, 0x8d0fed9d90034e38ull},
    {"hydra-s", "opt", 17637540894413872ull, 0x0d4a4db792070600ull},
    {"hydra-s", "resnet20", 2220477528524ull, 0x03d8507e8eab2e83ull},
    {"hydra-m", "resnet18", 6843405591220ull, 0x78e288268cda0d94ull},
    {"hydra-m", "resnet50", 82144596712809ull, 0x4478647da70dde51ull},
    {"hydra-m", "bert", 53013488649053ull, 0x52cb4f06bfc1f769ull},
    {"hydra-m", "opt", 2214412802595914ull, 0xf6fa83654cad6a52ull},
    {"hydra-m", "resnet20", 1018393713240ull, 0x0bbf8a417be8dab5ull},
    {"hydra-l", "resnet18", 2825227602449ull, 0xfaf46fa59f05ff95ull},
    {"hydra-l", "resnet50", 11934699476738ull, 0x89d68a8e7abb51eeull},
    {"hydra-l", "bert", 9866250136514ull, 0xf622abca98b1bfa2ull},
    {"hydra-l", "opt", 282408431651645ull, 0x892d52d516761e19ull},
    {"hydra-l", "resnet20", 4042373646597ull, 0xfadc50d922f86fe8ull},
    {"fab-s", "resnet18", 152046846888172ull, 0x9e1e72d2b9c6d4e3ull},
    {"fab-s", "resnet50", 1940707939586428ull, 0x3e39215664c7f653ull},
    {"fab-s", "bert", 1213164716400924ull, 0x97e3a62b1666526cull},
    {"fab-s", "opt", 52860943417381752ull, 0x63f21bf625154b58ull},
    {"fab-s", "resnet20", 6303377625832ull, 0x91bbf8a69a70b117ull},
    {"fab-m", "resnet18", 24405757067438ull, 0xc3a416734f26aec6ull},
    {"fab-m", "resnet50", 259328844524188ull, 0x15d674c8651a3492ull},
    {"fab-m", "bert", 314437791754450ull, 0xbb64b68e0e5f4760ull},
    {"fab-m", "opt", 13279247034138174ull, 0xbd242f98e3d4dac6ull},
    {"fab-m", "resnet20", 5196656012848ull, 0xa56b90d657a6a5a9ull},
    {"fab-l", "resnet18", 58509534571420ull, 0xef4a77e902b91974ull},
    {"fab-l", "resnet50", 317806399698618ull, 0x89f51a93fb9d02f4ull},
    {"fab-l", "bert", 71884314137378ull, 0xfe95ebb200cb94d4ull},
    {"fab-l", "opt", 1800798044010282ull, 0xb00d26a9c24d75faull},
    {"fab-l", "resnet20", 43333336898614ull, 0xc99e70ea542142ebull},
    {"poseidon", "resnet18", 78696031052797ull, 0xf6dd1b9d005da91eull},
    {"poseidon", "resnet50", 937303135235333ull, 0x033538855d7c55f2ull},
    {"poseidon", "bert", 545952214060732ull, 0x6c77ee7430f8980cull},
    {"poseidon", "opt", 23013799679115272ull, 0xeabf0beabbc18548ull},
    {"poseidon", "resnet20", 3367513216914ull, 0xaab62557b2794f19ull},
};

TEST(Fused, EveryMachineWorkloadPairKeepsItsFusedTicks)
{
    for (const FusedGolden& g : kFusedGoldens) {
        InferenceRunner runner(machineByName(g.machine));
        WorkloadModel wl = workloadByName(g.workload);
        // Safe everywhere; None (no optimizer pass) on the cheap
        // resnet20 column, where the fused program lands identically.
        std::vector<OptLevel> levels{OptLevel::Safe};
        if (std::string(g.workload) == "resnet20")
            levels.push_back(OptLevel::None);
        for (OptLevel level : levels) {
            RunStats st = fusedUnitStats(runner, wl, level);
            EXPECT_EQ(st.makespan, g.makespan)
                << g.machine << "/" << g.workload << " @ "
                << optLevelName(level);
            EXPECT_EQ(st.fingerprint(), g.fingerprint)
                << g.machine << "/" << g.workload << " @ "
                << optLevelName(level);
        }
    }
}

TEST(Fused, FusePlanMergesEveryStepIntoOneCompiledUnit)
{
    InferenceRunner runner(hydraMSpec());
    WorkloadModel wl = makeResNet20Cifar();
    std::shared_ptr<const ExecPlan> plan = runner.planFor(wl);
    std::shared_ptr<const ExecPlan> fused = runner.fusePlan(*plan);
    ASSERT_EQ(fused->size(), 1u);
    const ExecUnit& u = fused->units.front();
    EXPECT_EQ(u.kind, ExecUnit::Kind::Fused);
    ASSERT_NE(u.compiled, nullptr); // compiled when fused
    EXPECT_EQ(u.compiled->program.cards.size(),
              plan->cluster.totalCards());
    EXPECT_EQ(u.steps.size(), wl.steps.size());
    EXPECT_EQ(u.name,
              wl.steps.front().name + ".." + wl.steps.back().name);
    EXPECT_EQ(fused->workload, plan->workload);
    EXPECT_EQ(fused->cluster, plan->cluster);
}

TEST(Fused, NeverSlowerThanStepwise)
{
    for (const auto& wl : {makeResNet20Cifar(), makeBertBase()}) {
        for (auto spec : {hydraMSpec(), hydraLSpec()}) {
            InferenceRunner runner(spec);
            Tick stepwise = runStepwise(runner, wl).total.makespan;
            Tick fused = fusedUnitStats(runner, wl).makespan;
            EXPECT_LE(fused, stepwise)
                << wl.name << " on " << spec.name;
        }
    }
}

TEST(Fused, SingleCardMatchesStepwiseCompute)
{
    // With one card there is no cross-card slack to reclaim; the fused
    // makespan equals the stepwise makespan minus the sync gaps.
    WorkloadModel wl = makeResNet20Cifar();
    InferenceRunner runner(hydraSSpec());
    InferenceResult stepwise = runStepwise(runner, wl);
    RunStats fused = fusedUnitStats(runner, wl);
    Tick busy_stepwise = 0;
    for (const auto& s : stepwise.steps)
        busy_stepwise += s.stats.computeBusy[0];
    EXPECT_EQ(fused.computeBusy[0], busy_stepwise);
    EXPECT_EQ(fused.makespan, fused.computeBusy[0]);
}

TEST(Fused, WorkIsConserved)
{
    WorkloadModel wl = makeResNet18();
    InferenceRunner runner(hydraMSpec());
    InferenceResult stepwise = runStepwise(runner, wl);
    RunStats fused = fusedUnitStats(runner, wl);
    Tick sw = 0, fu = 0;
    for (Tick t : stepwise.total.computeBusy)
        sw += t;
    for (Tick t : fused.computeBusy)
        fu += t;
    EXPECT_EQ(sw, fu);
    EXPECT_EQ(stepwise.total.netBytes, fused.netBytes);
}

TEST(Fused, Deterministic)
{
    WorkloadModel wl = makeBertBase();
    InferenceRunner runner(hydraLSpec());
    EXPECT_EQ(fusedUnitStats(runner, wl).makespan,
              fusedUnitStats(runner, wl).makespan);
}

} // namespace
} // namespace hydra
