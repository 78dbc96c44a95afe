/**
 * @file
 * Whole-inference runner tests: end-to-end execution on every machine,
 * determinism, per-procedure aggregation, and paper-shape properties
 * (scaling bands, baseline orderings).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "baselines/prototypes.hh"
#include "sched/execplan.hh"
#include "sched/progcache.hh"

namespace hydra {
namespace {

/** Whole-machine Safe run of `wl`. */
InferenceResult
runWhole(const InferenceRunner& runner, const WorkloadModel& wl)
{
    return runner.runPlan(*runner.planFor(wl));
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

TEST(Runner, AllMachinesCompleteResNet18)
{
    WorkloadModel wl = makeResNet18();
    for (auto spec : {hydraSSpec(), hydraMSpec(), hydraLSpec(),
                      fabSSpec(), fabMSpec(), poseidonSpec()}) {
        InferenceRunner runner(spec);
        InferenceResult res = runWhole(runner, wl);
        EXPECT_GT(res.seconds(), 0.0) << spec.name;
        EXPECT_EQ(res.steps.size(), wl.steps.size()) << spec.name;
        EXPECT_GE(res.commFraction(), 0.0) << spec.name;
        EXPECT_LT(res.commFraction(), 1.0) << spec.name;
    }
}

TEST(Runner, DeterministicAcrossRuns)
{
    PrototypeSpec spec = hydraMSpec();
    InferenceRunner runner(spec);
    WorkloadModel wl = makeResNet18();
    InferenceResult a = runWhole(runner, wl);
    InferenceResult b = runWhole(runner, wl);
    EXPECT_EQ(a.total.makespan, b.total.makespan);
    EXPECT_EQ(a.total.netBytes, b.total.netBytes);
}

TEST(Runner, ProcedureTimesSumToTotal)
{
    PrototypeSpec spec = hydraMSpec();
    InferenceRunner runner(spec);
    InferenceResult res = runWhole(runner, makeResNet18());
    Tick sum = 0;
    for (size_t k = 0; k < kNumProcKinds; ++k)
        sum += res.procTime(static_cast<ProcKind>(k));
    // Total includes per-step sync gaps, so it is >= the sum of steps.
    EXPECT_GE(res.total.makespan, sum);
    double slack = static_cast<double>(res.total.makespan - sum) /
                   static_cast<double>(res.total.makespan);
    EXPECT_LT(slack, 0.01); // sync overhead is negligible on Hydra
}

TEST(Runner, ScalingWithinPaperBands)
{
    // Hydra-M over Hydra-S: paper reports 6.3x - 7.5x; allow a
    // tolerance band of 5x - 9x for the reproduction.
    WorkloadModel wl = makeResNet18();
    InferenceRunner rs{hydraSSpec()};
    InferenceRunner rm{hydraMSpec()};
    double speedup = runWhole(rs, wl).seconds() / runWhole(rm, wl).seconds();
    EXPECT_GT(speedup, 5.0);
    EXPECT_LT(speedup, 9.0);
}

TEST(Runner, FabSlowerThanHydraSameCards)
{
    WorkloadModel wl = makeBertBase();
    InferenceRunner hm{hydraMSpec()};
    InferenceRunner fm{fabMSpec()};
    double ratio = runWhole(fm, wl).seconds() / runWhole(hm, wl).seconds();
    // Paper: 2.8x - 3.3x; allow 2.5x - 4x.
    EXPECT_GT(ratio, 2.5);
    EXPECT_LT(ratio, 4.0);
}

TEST(Runner, PoseidonBetweenFabAndHydra)
{
    WorkloadModel wl = makeResNet18();
    double h = runWhole(InferenceRunner{hydraSSpec()}, wl).seconds();
    double p = runWhole(InferenceRunner{poseidonSpec()}, wl).seconds();
    double f = runWhole(InferenceRunner{fabSSpec()}, wl).seconds();
    EXPECT_LT(h, p);
    EXPECT_LT(p, f);
}

TEST(Runner, CommOverheadGrowsWithCards)
{
    WorkloadModel wl = makeResNet18();
    double m = runWhole(InferenceRunner{hydraMSpec()}, wl).commFraction();
    double l = runWhole(InferenceRunner{hydraLSpec()}, wl).commFraction();
    EXPECT_LT(m, l);
}

TEST(Runner, OptCommOverheadStaysTiny)
{
    // Paper headline: 0.04% (Hydra-M) and 1.4% (Hydra-L) on OPT-6.7B.
    WorkloadModel wl = makeOpt67B();
    double m = runWhole(InferenceRunner{hydraMSpec()}, wl).commFraction();
    double l = runWhole(InferenceRunner{hydraLSpec()}, wl).commFraction();
    EXPECT_LT(m, 0.005);
    EXPECT_LT(l, 0.05);
    EXPECT_LT(m, l);
}

TEST(Runner, LlmScalesBetterThanCnnAt64Cards)
{
    // Discussion section: transformers exploit Hydra more than the
    // ResNet family.
    InferenceRunner rs{hydraSSpec()};
    InferenceRunner rl{hydraLSpec()};
    double cnn = runWhole(rs, makeResNet18()).seconds() /
                 runWhole(rl, makeResNet18()).seconds();
    double llm = runWhole(rs, makeOpt67B()).seconds() /
                 runWhole(rl, makeOpt67B()).seconds();
    EXPECT_GT(llm, cnn);
}

TEST(Runner, StepResultsCarryLabels)
{
    InferenceRunner runner{hydraMSpec()};
    InferenceResult res = runWhole(runner, makeBertBase());
    size_t boot_steps = 0;
    for (const auto& s : res.steps)
        if (s.kind == ProcKind::Bootstrap)
            ++boot_steps;
    EXPECT_EQ(boot_steps, makeBertBase().stepCount(ProcKind::Bootstrap));
}

TEST(RunnerFaults, RepeatedCardDeathsDedupAndTerminate)
{
    InferenceRunner runner{hydraMSpec()};
    WorkloadModel wl = makeResNet18();

    FaultPlan one;
    one.cardFailAt[2] = secondsToTicks(0.5);
    InferenceResult r1 = runFaulted(runner, wl, one);
    ASSERT_TRUE(r1.ok()) << r1.error.message;
    ASSERT_EQ(r1.failedCards.size(), 1u);
    EXPECT_EQ(r1.failedCards[0], 2u);

    // A second death later in the same inference: the survivors-only
    // re-dispatch must shrink again and still terminate.
    FaultPlan two = one;
    two.cardFailAt[5] = secondsToTicks(2.0);
    InferenceResult r2 = runFaulted(runner, wl, two);
    ASSERT_TRUE(r2.ok()) << r2.error.message;

    // Each card appears at most once even though several steps abort
    // on it before the re-dispatch takes effect.
    std::vector<size_t> cards = r2.failedCards;
    std::sort(cards.begin(), cards.end());
    EXPECT_TRUE(std::adjacent_find(cards.begin(), cards.end()) ==
                cards.end());
    EXPECT_EQ(cards.size(), 2u);

    // Losing more cards can only waste more time: the recovery
    // penalty is monotone in the set of deaths.
    EXPECT_GE(r2.recoveryPenalty, r1.recoveryPenalty);
    EXPECT_GT(r2.recoveryPenalty, 0u);
    EXPECT_GE(r2.redispatches, r1.redispatches);
}

/**
 * The replay oracle: every unit of `plan` run on a fresh executor for
 * `sub`'s cluster at its serial origin (start + makespan so far), with
 * no stats reused between units.
 */
InferenceResult
runUnitByUnit(const PrototypeSpec& sub, const ExecPlan& plan, Tick start)
{
    std::unique_ptr<NetworkModel> net = sub.makeNetwork();
    InferenceResult r;
    for (const ExecUnit& u : plan.units) {
        ClusterExecutor ex(sub.cluster, *net);
        ex.setTimeOrigin(start + r.total.makespan);
        RunResult rr = ex.tryRun(u.compiled->program);
        if (!rr.ok()) {
            r.error = rr.error;
            return r;
        }
        r.total.append(rr.stats, net->stepSyncLatency());
        r.steps.push_back(StepResult{u.name, u.lead, rr.stats});
        r.stepEnds.push_back(r.total.makespan);
    }
    return r;
}

/** Every step fingerprint, the unit boundaries and the total agree. */
void
expectSameRun(const InferenceResult& got, const InferenceResult& want,
              const std::string& what)
{
    ASSERT_TRUE(got.ok()) << what << ": " << got.error.message;
    ASSERT_TRUE(want.ok()) << what << ": " << want.error.message;
    ASSERT_EQ(got.steps.size(), want.steps.size()) << what;
    for (size_t i = 0; i < got.steps.size(); ++i)
        EXPECT_EQ(got.steps[i].stats.fingerprint(),
                  want.steps[i].stats.fingerprint())
            << what << " unit " << i;
    EXPECT_EQ(got.stepEnds, want.stepEnds) << what;
    EXPECT_EQ(got.total.fingerprint(), want.total.fingerprint()) << what;
}

TEST(RunnerPlan, ReplayMatchesUnitByUnitExecution)
{
    const char* const workloads[] = {"resnet18", "resnet50", "bert", "opt",
                                     "resnet20"};
    size_t replayed = 0;
    for (const std::string& machine : machineNames()) {
        InferenceRunner runner(machineByName(machine));
        for (const char* workload : workloads) {
            for (OptLevel level : {OptLevel::Safe, OptLevel::Aggressive}) {
                auto plan = runner.planFor(workloadByName(workload), level);
                std::string what = machine + "/" + workload + "@" +
                                   optLevelName(level);
                InferenceResult res = runner.runPlan(*plan);
                expectSameRun(res,
                              runUnitByUnit(runner.spec(), *plan, 0),
                              what);
                replayed += res.replayedUnits;
            }
        }
    }
    EXPECT_GT(replayed, 0u);

    // A job plan on a ragged group replays the same way, and a nonzero
    // start only shifts the origin.
    InferenceRunner runner{hydraMSpec()};
    CardGroup group;
    group.cards = {1, 4, 6};
    auto job = runner.planForJob(makeResNet18(), group);
    const Tick start = secondsToTicks(10.0);
    InferenceResult res = runner.runJob(*job, group, start);
    expectSameRun(res,
                  runUnitByUnit(groupSubSpec(runner.spec(), group), *job,
                                start),
                  "hydra-m/resnet18 on cards {1, 4, 6}");
    EXPECT_GT(res.replayedUnits, 0u);
}

TEST(RunnerPlan, ReplayedUnitsCountRepeatedPrograms)
{
    InferenceRunner runner{hydraLSpec()};
    auto plan = runner.planFor(makeResNet50());
    std::set<const CompiledStep*> distinct;
    for (const ExecUnit& u : plan->units)
        distinct.insert(u.compiled.get());
    InferenceResult res = runner.runPlan(*plan);
    ASSERT_TRUE(res.ok());
    EXPECT_LT(distinct.size(), plan->units.size());
    EXPECT_EQ(res.replayedUnits, plan->units.size() - distinct.size());

    // Any non-empty fault plan executes every unit, even one whose
    // only fault lands after the run has ended.
    FaultPlan late;
    late.cardFailAt[0] = 2 * res.total.makespan;
    InferenceResult faulted = runner.runJob(
        *plan, CardGroup::contiguous(0, runner.spec().cluster.totalCards()),
        0, late);
    EXPECT_EQ(faulted.replayedUnits, 0u);
    expectSameRun(faulted, res, "hydra-l/resnet50 with a late kill");
}

TEST(RunnerJobs, AlignedGroupMatchesWholeMachine)
{
    // A whole-server 8-card slice of Hydra-L is exactly a Hydra-M:
    // the job-scoped path must reproduce the standalone run tick for
    // tick, including on a non-zero start tick.
    WorkloadModel wl = makeResNet18();
    InferenceResult whole = runWhole(InferenceRunner{hydraMSpec()}, wl);

    InferenceRunner large{hydraLSpec()};
    CardGroup slice = CardGroup::contiguous(8, 8);
    ASSERT_TRUE(slice.alignedTo(hydraLSpec().cluster));
    InferenceResult job = large.runJob(*large.planForJob(wl, slice),
                                       slice, secondsToTicks(3.0));
    ASSERT_TRUE(job.ok()) << job.error.message;
    EXPECT_EQ(job.total.makespan, whole.total.makespan);
}

TEST(RunnerJobs, ShapeMismatchIsAnInvalidProgram)
{
    // A plan runs only on a group of the shape it was compiled for: a
    // whole-machine Hydra-L plan on one 8-card server is a structured
    // error, like an empty group, not a silent recompile.
    InferenceRunner runner{hydraLSpec()};
    std::shared_ptr<const ExecPlan> plan = runner.planFor(makeResNet18());
    CardGroup server = CardGroup::contiguous(0, 8);
    ASSERT_NE(groupSubSpec(runner.spec(), server).cluster, plan->cluster);
    InferenceResult res = runner.runJob(*plan, server, 0);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::InvalidProgram);
    EXPECT_TRUE(res.steps.empty());
    EXPECT_EQ(res.total.makespan, 0u);

    // The same group runs its own job plan.
    EXPECT_TRUE(
        runner.runJob(*runner.planForJob(makeResNet18(), server), server, 0)
            .ok());
}

TEST(RunnerJobs, ResumeComposesWithFullRun)
{
    InferenceRunner runner{hydraMSpec()};
    WorkloadModel wl = makeResNet18();
    CardGroup all = CardGroup::contiguous(0, 8);
    std::shared_ptr<const ExecPlan> plan = runner.planForJob(wl, all);

    InferenceResult full = runner.runJob(*plan, all, 0);
    ASSERT_TRUE(full.ok());

    const size_t cut = wl.steps.size() / 2;
    InferenceResult head = runner.runJob(*plan, all, 0, {}, {}, 0, cut);
    ASSERT_TRUE(head.ok());
    InferenceResult tail = runner.runJob(*plan, all, head.total.makespan,
                                         {}, {}, cut,
                                         wl.steps.size() - cut);
    ASSERT_TRUE(tail.ok());

    EXPECT_EQ(head.steps.size() + tail.steps.size(),
              full.steps.size());
    EXPECT_EQ(head.total.makespan + tail.total.makespan,
              full.total.makespan);
}

TEST(RunnerJobs, PreemptedResumeFingerprintIsExact)
{
    // The cake scheduler's step-boundary preemption re-dispatches the
    // tail of a sliced job via runJob(first_unit, num_units); for the
    // slicing to be invisible, head + tail must reproduce the whole
    // run bit for bit — not just the makespan, but every
    // execution-visible RunStats field, at every possible split point.
    InferenceRunner runner{hydraMSpec()};
    WorkloadModel wl = makeResNet18();
    CardGroup all = CardGroup::contiguous(0, 8);
    std::shared_ptr<const ExecPlan> plan = runner.planForJob(wl, all);

    InferenceResult full = runner.runJob(*plan, all, 0);
    ASSERT_TRUE(full.ok());

    for (size_t cut = 1; cut < wl.steps.size(); ++cut) {
        InferenceResult head =
            runner.runJob(*plan, all, 0, {}, {}, 0, cut);
        ASSERT_TRUE(head.ok()) << "cut " << cut;
        InferenceResult tail = runner.runJob(
            *plan, all, head.total.makespan, {}, {}, cut,
            wl.steps.size() - cut);
        ASSERT_TRUE(tail.ok()) << "cut " << cut;

        RunStats composed = head.total;
        composed.append(tail.total);
        EXPECT_EQ(composed.fingerprint(), full.total.fingerprint())
            << "cut " << cut;

        // Checkpoint boundaries compose too: the tail's stepEnds are
        // offsets from its own start, so shifting them by the head's
        // makespan must reproduce the whole run's boundary list.
        ASSERT_EQ(head.stepEnds.size(), cut) << "cut " << cut;
        std::vector<Tick> ends = head.stepEnds;
        for (Tick e : tail.stepEnds)
            ends.push_back(head.total.makespan + e);
        EXPECT_EQ(ends, full.stepEnds) << "cut " << cut;
    }
}

TEST(RunnerJobs, RaggedGroupDegradesAndSurvives)
{
    // Kill a card of a 3-card ragged group mid-job: the job must
    // re-dispatch onto the survivors and finish degraded, reporting
    // the dead card by its original machine index.
    InferenceRunner runner{hydraMSpec()};
    WorkloadModel wl = makeResNet18();
    CardGroup group;
    group.cards = {1, 4, 6};

    std::shared_ptr<const ExecPlan> job = runner.planForJob(wl, group);
    InferenceResult clean = runner.runJob(*job, group, 0);
    ASSERT_TRUE(clean.ok());

    FaultPlan plan;
    const Tick start = secondsToTicks(10.0);
    plan.cardFailAt[4] = start + clean.total.makespan / 2;
    InferenceResult hurt = runner.runJob(*job, group, start, plan);
    ASSERT_TRUE(hurt.ok()) << hurt.error.message;
    ASSERT_EQ(hurt.failedCards.size(), 1u);
    EXPECT_EQ(hurt.failedCards[0], 4u);
    EXPECT_GT(hurt.redispatches, 0u);
    EXPECT_GT(hurt.total.makespan, clean.total.makespan);
}

} // namespace
} // namespace hydra
