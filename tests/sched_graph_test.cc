/**
 * @file
 * Graph-compiler tests (DESIGN.md §15): the NetworkGraph IR must
 * round-trip losslessly with the flat step-list world, unknown
 * workload names must fail listing the registry, Safe-level graph
 * execution must be tick-identical to the step lists (golden pins on
 * two machines), and the Aggressive cross-step passes (boot-plan,
 * fuse-linear, prefetch) must fire where modeled and strictly reduce
 * the BERT makespan.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/prototypes.hh"
#include "sched/execplan.hh"
#include "sched/graph/netcompile.hh"
#include "sched/progcache.hh"
#include "serve/federation.hh"

namespace hydra {
namespace {

/** A chain graph named "m" over `steps`, lifted like any workload. */
NetworkGraph
chainGraph(std::vector<Step> steps)
{
    WorkloadModel m;
    m.name = "m";
    m.steps = std::move(steps);
    return NetworkGraph::fromModel(m);
}

/** The registry workload `name` lifted into the graph IR. */
NetworkGraph
registryGraph(const std::string& name)
{
    return NetworkGraph::fromModel(workloadByName(name));
}

/** Compile `graph` at `level` and run it on the whole machine. */
InferenceResult
executeGraph(const InferenceRunner& runner, const NetworkGraph& graph,
             OptLevel level = OptLevel::Safe)
{
    return runner.runPlan(*runner.planFor(graph, level));
}

void
expectStepEq(const Step& a, const Step& b, const std::string& ctx)
{
    EXPECT_EQ(a.kind, b.kind) << ctx;
    EXPECT_EQ(a.name, b.name) << ctx;
    EXPECT_EQ(a.parallelism, b.parallelism) << ctx;
    EXPECT_EQ(a.perUnit.rotations, b.perUnit.rotations) << ctx;
    EXPECT_EQ(a.perUnit.cmults, b.perUnit.cmults) << ctx;
    EXPECT_EQ(a.perUnit.pmults, b.perUnit.pmults) << ctx;
    EXPECT_EQ(a.perUnit.hadds, b.perUnit.hadds) << ctx;
    EXPECT_EQ(a.limbs, b.limbs) << ctx;
    EXPECT_EQ(a.agg, b.agg) << ctx;
    EXPECT_EQ(a.polyDegree, b.polyDegree) << ctx;
    EXPECT_EQ(a.unitScale, b.unitScale) << ctx; // bit-exact
    EXPECT_EQ(a.outputCts, b.outputCts) << ctx;
}

// ---------------------------------------------------------------------------
// The IR itself: round-trip, level annotation, structural validation.

TEST(GraphIR, RoundTripsEveryRegistryWorkload)
{
    for (const std::string& name : workloadNames()) {
        WorkloadModel wl = workloadByName(name);
        NetworkGraph g = NetworkGraph::fromModel(wl);
        SpecError err;
        EXPECT_TRUE(g.validate(err)) << name << ": " << err.describe();
        ASSERT_EQ(g.nodes.size(), wl.steps.size()) << name;
        // A lifted chain has exactly one edge per adjacent step pair.
        ASSERT_EQ(g.edges.size(), wl.steps.size() - 1) << name;
        EXPECT_GT(g.totalEdgeCts(), 0u) << name;

        EXPECT_EQ(g.name, wl.name);
        EXPECT_EQ(g.logSlots, wl.logSlots);
        EXPECT_EQ(g.maxLimbs, wl.maxLimbs);
        for (size_t i = 0; i < wl.steps.size(); ++i)
            expectStepEq(g.nodes[i].step, wl.steps[i],
                         name + "/" + wl.steps[i].name);
    }
}

TEST(GraphIR, AnnotateLevelsFollowsEquationOne)
{
    WorkloadModel m;
    m.name = "tiny";
    m.maxLimbs = 24;
    m.steps = {makeConvStep("c", 8), makeReluStep("r", 8),
               makeBootStep("b", 4), makeFcStep("f", 16)};
    NetworkGraph g = NetworkGraph::fromModel(m);
    ASSERT_EQ(g.nodes.size(), 4u);

    // Linear layer: one level.  ReLU degree 15: ceil(log2(16)) = 4.
    // Bootstrap: zero depth, resets the chain to maxLimbs.
    EXPECT_EQ(g.nodes[0].levelIn, 24u);
    EXPECT_EQ(g.nodes[0].depth, 1u);
    EXPECT_EQ(g.nodes[1].levelIn, 23u);
    EXPECT_EQ(g.nodes[1].depth, 4u);
    EXPECT_EQ(g.nodes[2].levelIn, 19u);
    EXPECT_EQ(g.nodes[2].depth, 0u);
    EXPECT_EQ(g.nodes[3].levelIn, 24u);
    EXPECT_EQ(g.nodes[3].depth, 1u);

    // Rotation totals scale with the effective unit count.
    const Step& c = m.steps[0];
    EXPECT_EQ(g.nodes[0].rotations,
              static_cast<uint64_t>(c.perUnit.rotations) *
                  c.effectiveUnits());
}

TEST(GraphIR, ValidateRejectsStructuralBreakage)
{
    WorkloadModel m;
    m.name = "tiny";
    m.steps = {makeConvStep("c", 8), makeFcStep("f", 16)};
    NetworkGraph good = NetworkGraph::fromModel(m);
    SpecError err;
    ASSERT_TRUE(good.validate(err)) << err.describe();

    {
        NetworkGraph g = good;
        g.edges.push_back({0, 0, 32}); // self-loop
        EXPECT_FALSE(g.validate(err));
    }
    {
        NetworkGraph g = good;
        g.edges.push_back({1, 7, 32}); // dangling dst
        EXPECT_FALSE(g.validate(err));
    }
    {
        NetworkGraph g = good;
        g.edges.push_back({1, 0, 32}); // cycle with 0 -> 1
        EXPECT_FALSE(g.validate(err));
        std::vector<uint32_t> order;
        EXPECT_FALSE(g.topoOrder(order, err));
        EXPECT_FALSE(err.message.empty());
    }
    {
        NetworkGraph g = good;
        g.nodes[0].step.limbs = g.maxLimbs + 1;
        EXPECT_FALSE(g.validate(err));
    }
    {
        NetworkGraph g = good;
        g.nodes[0].step.parallelism = 0;
        EXPECT_FALSE(g.validate(err));
    }
    {
        NetworkGraph g = good;
        g.nodes[1].id = 5; // ids must stay dense
        EXPECT_FALSE(g.validate(err));
    }
    {
        NetworkGraph g = good;
        g.name.clear();
        EXPECT_FALSE(g.validate(err));
    }
}

TEST(GraphIR, DescribeAndJsonCarryTheLayers)
{
    NetworkGraph g =
        chainGraph({makeConvStep("alpha", 8), makeReluStep("beta", 8)});
    std::string text = g.describe();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("beta"), std::string::npos);

    std::string json = g.toJson();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"nodes\""), std::string::npos);
    EXPECT_NE(json.find("\"edges\""), std::string::npos);
    EXPECT_NE(json.find("\"alpha\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The workload registry: the one name -> model table.

TEST(ModelSpec, Mlp3IsARegistryWorkload)
{
    // The serving-tenant MLP resolves and runs like any paper model.
    ASSERT_TRUE(workloadExists("mlp3"));
    WorkloadModel m = workloadByName("mlp3");
    EXPECT_EQ(m.name, "MLP-3");
    InferenceRunner runner(machineByName("hydra-m"));
    InferenceResult res = runner.runPlan(*runner.planFor(m));
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.steps.size(), m.steps.size());
}

TEST(ModelSpec, UnknownNamesListTheRegistry)
{
    EXPECT_DEATH(workloadByName("nope"),
                 "unknown workload 'nope' \\(want "
                 "resnet18\\|resnet50\\|bert\\|opt\\|resnet20\\|mlp3\\)");
}

// ---------------------------------------------------------------------------
// The network compiler: Safe tick-identity, Aggressive passes.

struct GraphGolden
{
    const char* machine;
    const char* model;
    uint64_t makespan; // == the hand-built pin in sched_compile_test
};

/** Safe-level graph runs must land on the step-list golden ticks. */
const GraphGolden kGraphGoldens[] = {
    {"hydra-m", "resnet50", 82584461339718ull},
    {"hydra-m", "bert", 53122397900053ull},
    {"hydra-m", "opt", 2214560898140687ull},
    {"fab-m", "resnet50", 258872566044188ull},
    {"fab-m", "bert", 159294942125964ull},
    {"fab-m", "opt", 6640184078890908ull},
};

TEST(NetCompile, SafeLoweringIsTickIdenticalToStepLists)
{
    for (const GraphGolden& g : kGraphGoldens) {
        InferenceRunner runner(machineByName(g.machine));
        NetworkGraph graph = registryGraph(g.model);
        InferenceResult viaGraph = executeGraph(runner, graph);
        InferenceResult viaSteps =
            runner.runPlan(*runner.planFor(workloadByName(g.model)));
        ASSERT_TRUE(viaGraph.ok()) << g.machine << "/" << g.model;
        ASSERT_TRUE(viaSteps.ok());
        EXPECT_EQ(viaGraph.total.makespan, g.makespan)
            << g.machine << "/" << g.model;
        EXPECT_EQ(viaGraph.total.fingerprint(),
                  viaSteps.total.fingerprint())
            << g.machine << "/" << g.model;
        ASSERT_EQ(viaGraph.steps.size(), viaSteps.steps.size());
    }
}

TEST(NetCompile, NoneLevelMatchesSafeTicks)
{
    InferenceRunner runner(machineByName("hydra-m"));
    NetworkGraph graph = registryGraph("resnet50");
    EXPECT_EQ(executeGraph(runner, graph, OptLevel::None).total.makespan,
              executeGraph(runner, graph, OptLevel::Safe).total.makespan);
}

TEST(NetCompile, AggressiveElidesBertBootstrapsAndWins)
{
    InferenceRunner runner(machineByName("hydra-m"));
    NetworkGraph graph = registryGraph("bert");
    std::shared_ptr<const ExecPlan> plan =
        runner.planFor(graph, OptLevel::Aggressive);
    const NetOptReport& rep = plan->report;
    InferenceResult aggressive = runner.runPlan(*plan);
    InferenceResult safe = executeGraph(runner, graph);
    ASSERT_TRUE(aggressive.ok());
    ASSERT_TRUE(safe.ok());

    // Eq. 1 walk: every per-layer boot1 is redundant (the chain reaches
    // boot2 with headroom), boot2 is load-bearing and must survive.
    EXPECT_GE(rep.bootsElided, 12u);
    EXPECT_GT(rep.modeledBootSavings, 0u);
    EXPECT_LT(aggressive.total.makespan, safe.total.makespan);
    EXPECT_NE(rep.describe().find("elided"), std::string::npos);

    size_t bootsLeft = 0;
    for (const StepResult& s : aggressive.steps)
        bootsLeft += s.kind == ProcKind::Bootstrap;
    EXPECT_GT(bootsLeft, 0u);
}

/** Compiler rig over one machine for unit-level inspection. */
struct NetRig
{
    PrototypeSpec spec;
    OpCostModel cost;
    std::unique_ptr<NetworkModel> net;

    explicit NetRig(const char* machine)
        : spec(machineByName(machine)),
          cost(spec.fpga, size_t{1} << 16, spec.dnum),
          net(spec.makeNetwork())
    {
    }
};

/** The materialized Aggressive plan of `g` on `machine`. */
std::shared_ptr<const ExecPlan>
aggressivePlan(const char* machine, const NetworkGraph& g)
{
    return InferenceRunner(machineByName(machine))
        .planFor(g, OptLevel::Aggressive);
}

TEST(NetCompile, AggressiveFusesLinearChains)
{
    // fab-m's host-mediated network cannot overlap transfers with
    // compute, so prefetch stays off and fused units stay visible.
    std::shared_ptr<const ExecPlan> plan =
        aggressivePlan("fab-m", registryGraph("resnet50"));
    EXPECT_GT(plan->report.fusedSteps, 0u);
    EXPECT_EQ(plan->report.prefetchedBoundaries, 0u);

    bool anyFused = false;
    for (const ExecUnit& u : plan->units) {
        EXPECT_NE(u.compiled, nullptr) << u.name;
        if (u.kind == ExecUnit::Kind::Fused) {
            anyFused = true;
            EXPECT_GE(u.steps.size(), 2u);
            EXPECT_NE(u.name.find(".."), std::string::npos);
        }
    }
    EXPECT_TRUE(anyFused);
}

TEST(NetCompile, AggressivePrefetchesOnOverlappingNetworks)
{
    // hydra-m is switched: transfers overlap compute.
    std::shared_ptr<const ExecPlan> plan =
        aggressivePlan("hydra-m", registryGraph("resnet50"));
    EXPECT_GT(plan->report.prefetchedBoundaries, 0u);
    bool anyPrefetch = false;
    for (const ExecUnit& u : plan->units) {
        anyPrefetch |= u.kind == ExecUnit::Kind::Prefetch;
        EXPECT_LE(u.steps.size(), kPrefetchWindow * 4);
    }
    EXPECT_TRUE(anyPrefetch);
}

TEST(NetCompile, BootPlanMergesAdjacentAndElidesRedundant)
{
    // Two back-to-back refreshes right after a depth-1 layer: they
    // merge into one combined refresh, which the level walk then
    // elides outright (23 levels of headroom, 1 needed).
    NetworkGraph g =
        chainGraph({makePcmmStep("q", 64, 1.0), makeBootStep("b1", 4),
                    makeBootStep("b2", 4), makeFcStep("out", 64)});
    std::shared_ptr<const ExecPlan> plan = aggressivePlan("hydra-m", g);
    EXPECT_EQ(plan->report.bootsMerged, 1u);
    EXPECT_EQ(plan->report.bootsElided, 1u);
    for (const ExecUnit& u : plan->units)
        for (const Step& s : u.steps)
            EXPECT_NE(s.kind, ProcKind::Bootstrap) << s.name;
}

TEST(NetCompile, BootPlanKeepsLoadBearingRefreshAndRelevels)
{
    // 5 softmax layers burn 20 of 24 levels; the merged refresh in the
    // middle is load-bearing (20 more levels follow) and must survive
    // with the combined ciphertext count.  Layers that run past the
    // tracked level get re-levelled instead of silently overdrawing.
    std::vector<Step> steps;
    for (const char* n : {"s1", "s2", "s3", "s4", "s5"})
        steps.push_back(makeNonLinStep(n, 8));
    steps.push_back(makeBootStep("b1", 4));
    steps.push_back(makeBootStep("b2", 4));
    for (const char* n : {"t1", "t2", "t3", "t4", "t5"})
        steps.push_back(makeNonLinStep(n, 8));
    steps.push_back(makeFcStep("out", 16));
    NetworkGraph g = chainGraph(std::move(steps));
    std::shared_ptr<const ExecPlan> plan = aggressivePlan("hydra-m", g);
    EXPECT_EQ(plan->report.bootsMerged, 1u);
    EXPECT_EQ(plan->report.bootsElided, 0u);
    EXPECT_GE(plan->report.relevelled, 2u);

    size_t boots = 0;
    for (const ExecUnit& u : plan->units)
        for (const Step& s : u.steps)
            if (s.kind == ProcKind::Bootstrap) {
                ++boots;
                EXPECT_EQ(s.parallelism, 8u); // 4 + 4 combined
            }
    EXPECT_EQ(boots, 1u);

    // The rewritten graph still executes end to end.
    InferenceRunner runner(machineByName("hydra-m"));
    EXPECT_TRUE(executeGraph(runner, g, OptLevel::Aggressive).ok());
}

TEST(NetCompile, InvalidGraphSurfacesStructuredError)
{
    WorkloadModel m;
    m.name = "tiny";
    m.steps = {makeConvStep("c", 8), makeFcStep("f", 16)};
    NetworkGraph g = NetworkGraph::fromModel(m);
    g.edges.push_back({1, 0, 32}); // cycle

    InferenceRunner runner(machineByName("hydra-m"));
    std::shared_ptr<const ExecPlan> plan = runner.planFor(g);
    EXPECT_EQ(plan->size(), 0u);
    EXPECT_EQ(plan->error.kind, RunError::Kind::InvalidProgram);
    InferenceResult res = runner.runPlan(*plan);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.error.kind, RunError::Kind::InvalidProgram);
    EXPECT_NE(res.error.message.find("planFor:"), std::string::npos);
    // The job driver surfaces the same compile error.
    InferenceResult job =
        runner.runJob(*plan, CardGroup::contiguous(0, 8), 0);
    EXPECT_EQ(job.error.kind, RunError::Kind::InvalidProgram);
}

TEST(NetCompile, DeclarativeModelServesAsTenant)
{
    // Serving tenants resolve through the workload registry, so mlp3
    // is a workload class like any paper model; the hash pins the
    // whole run.
    Federation fed(machineByName("hydra-m"),
                   ServeSpec::parse(
                       "seed=3,duration=120,tenant=enc:open:mlp3:0.05"),
                   FaultPlan::parse(""));
    ServeStats st = fed.run();
    EXPECT_EQ(st.completed, 6u);
    EXPECT_EQ(st.offered, st.completed + st.shed);
    EXPECT_EQ(st.hash(), 0xf9085e37c98f796bull);
}

// ---------------------------------------------------------------------------
// DAG-shaped graphs and the unified ExecPlan path (DESIGN.md §16).

/** A branch-and-join diamond built through the IR API: one stem
 *  feeding two parallel branches that merge in a single head. */
NetworkGraph
diamondGraph()
{
    WorkloadModel m;
    m.name = "diamond";
    m.maxLimbs = 24;
    m.steps = {makeConvStep("stem", 8), makeConvStep("left", 8),
               makeReluStep("right", 8), makeFcStep("join", 16)};
    NetworkGraph g = NetworkGraph::fromModel(m);
    g.edges.clear();
    auto link = [&](uint32_t src, uint32_t dst) {
        g.edges.push_back(
            GraphEdge{src, dst, g.nodes[src].step.outputCts});
    };
    link(0, 1); // stem -> left
    link(0, 2); // stem -> right
    link(1, 3); // left -> join
    link(2, 3); // right -> join
    g.annotateLevels();
    return g;
}

TEST(GraphIR, BranchAndJoinValidatesAndOrdersDeterministically)
{
    NetworkGraph g = diamondGraph();
    SpecError err;
    ASSERT_TRUE(g.validate(err)) << err.describe();

    // Kahn with a smallest-id-first scan: the order is a function of
    // the graph alone, identical on every call.
    std::vector<uint32_t> order, again;
    ASSERT_TRUE(g.topoOrder(order, err));
    ASSERT_TRUE(g.topoOrder(again, err));
    EXPECT_EQ(order, again);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[3], 3u);

    // The join's entry level is the minimum across its predecessors:
    // the conv branch leaves 22, the degree-15 ReLU branch 19.
    EXPECT_EQ(g.nodes[1].levelIn, 23u);
    EXPECT_EQ(g.nodes[2].levelIn, 23u);
    EXPECT_EQ(g.nodes[3].levelIn, 19u);

    // The order walks the diamond stem, branches, join.
    EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2, 3}));
    EXPECT_EQ(g.nodes[order[0]].step.name, "stem");
    EXPECT_EQ(g.nodes[order[3]].step.name, "join");
}

TEST(ExecPlanPath, DagSafePlansAreTickIdenticalAcrossReruns)
{
    NetworkGraph g = diamondGraph();
    InferenceRunner runner(machineByName("hydra-m"));
    std::shared_ptr<const ExecPlan> a = runner.planFor(g);
    std::shared_ptr<const ExecPlan> b = runner.planFor(g);
    ASSERT_EQ(a->size(), 4u); // Safe: one Single unit per layer
    ASSERT_EQ(b->size(), a->size());
    for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ(a->units[i].kind, ExecUnit::Kind::Single);
        ASSERT_NE(a->units[i].compiled, nullptr);
        // The rerun resolves the very same cache entry.
        EXPECT_EQ(a->units[i].compiled, b->units[i].compiled);
    }

    InferenceResult ra = runner.runPlan(*a);
    InferenceResult rb = runner.runPlan(*b);
    ASSERT_TRUE(ra.ok()) << ra.error.message;
    EXPECT_EQ(ra.total.makespan, rb.total.makespan);
    EXPECT_EQ(ra.total.fingerprint(), rb.total.fingerprint());
    EXPECT_EQ(ra.stepEnds, rb.stepEnds);

    // The runner's graph compile lands on the same ticks through the
    // same plan — DAG inputs flow through the one unified path.
    EXPECT_EQ(executeGraph(runner, g).total.makespan, ra.total.makespan);
}

TEST(ExecPlanPath, SafePlanRunsBitIdenticalToLegacyRun)
{
    InferenceRunner runner(machineByName("hydra-m"));
    WorkloadModel wl = workloadByName("resnet18");
    std::shared_ptr<const ExecPlan> plan = runner.planFor(wl);
    ASSERT_EQ(plan->size(), wl.steps.size());
    EXPECT_EQ(plan->level, OptLevel::Safe);

    // The pre-ExecPlan runner's ticks and fingerprint, pinned.
    InferenceResult viaPlan = runner.runPlan(*plan);
    ASSERT_TRUE(viaPlan.ok());
    EXPECT_EQ(viaPlan.total.makespan, 6857565190612ull);
    EXPECT_EQ(viaPlan.total.fingerprint(), 0xb3f7f8fb739406d4ull);
    // runPlan is the job driver over every card from tick 0.
    InferenceResult viaJob = runner.runJob(
        *plan, CardGroup::contiguous(0, runner.spec().cluster.totalCards()),
        0);
    EXPECT_EQ(viaJob.total.fingerprint(), viaPlan.total.fingerprint());
    EXPECT_EQ(viaJob.stepEnds, viaPlan.stepEnds);
}

TEST(ExecPlanPath, AggressivePlanMatchesRunGraphAndFusesUnits)
{
    InferenceRunner runner(machineByName("hydra-m"));
    WorkloadModel wl = workloadByName("bert");
    std::shared_ptr<const ExecPlan> plan =
        runner.planFor(wl, OptLevel::Aggressive);

    // The cross-step passes compress the unit sequence: fewer units
    // than layers, at least one unit spanning several member steps.
    EXPECT_LT(plan->size(), wl.steps.size());
    size_t multi = 0;
    for (const ExecUnit& u : plan->units)
        multi += u.steps.size() > 1;
    EXPECT_GT(multi, 0u);
    std::shared_ptr<const ExecPlan> graphPlan =
        runner.planFor(NetworkGraph::fromModel(wl), OptLevel::Aggressive);
    EXPECT_EQ(graphPlan->size(), plan->size());

    InferenceResult viaPlan = runner.runPlan(*plan);
    InferenceResult viaGraph = runner.runPlan(*graphPlan);
    ASSERT_TRUE(viaPlan.ok());
    EXPECT_EQ(viaPlan.total.makespan, viaGraph.total.makespan);
    EXPECT_EQ(viaPlan.stepEnds.size(), plan->size());
}

TEST(ExecPlanPath, JobPlanMatchesLegacyRunJob)
{
    PrototypeSpec spec = machineByName("hydra-m");
    InferenceRunner runner(spec);
    WorkloadModel wl = workloadByName("resnet18");
    CardGroup group =
        CardGroup::contiguous(0, spec.cluster.cardsPerServer);
    std::shared_ptr<const ExecPlan> plan = runner.planForJob(wl, group);
    for (const ExecUnit& u : plan->units)
        EXPECT_NE(u.compiled, nullptr); // compiled at plan time

    // The pre-ExecPlan step-list runJob's ticks and fingerprints,
    // pinned; the job plan is start-invariant, so its boundaries match
    // the whole-machine plan's.
    const Tick start = secondsToTicks(3.0);
    InferenceResult viaPlan = runner.runJob(*plan, group, start);
    ASSERT_TRUE(viaPlan.ok()) << viaPlan.error.message;
    EXPECT_EQ(viaPlan.total.makespan, 6857565190612ull);
    EXPECT_EQ(viaPlan.total.fingerprint(), 0xb3f7f8fb739406d4ull);
    EXPECT_EQ(viaPlan.stepEnds,
              runner.runPlan(*runner.planFor(wl)).stepEnds);

    // Resumable windows index plan units; a mid-plan window keeps the
    // legacy first_step/num_steps slicing's ticks.
    InferenceResult planWin = runner.runJob(*plan, group, start, {}, {},
                                            2, 3);
    EXPECT_EQ(planWin.total.makespan, 970587157504ull);
    EXPECT_EQ(planWin.total.fingerprint(), 0x55fc68cb9789d9a3ull);
    ASSERT_EQ(planWin.steps.size(), 3u);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(planWin.steps[i].stats.fingerprint(),
                  viaPlan.steps[2 + i].stats.fingerprint())
            << i;
}

TEST(ExecPlanPath, AggressiveUnitCountIsShapeInvariant)
{
    // Resumable unit indices (preemption slices, checkpointed
    // failover) are meaningful across card groups only because every
    // group's Aggressive plan partitions into the same units.
    for (const char* machine : {"hydra-l", "fab-l"}) {
        PrototypeSpec spec = machineByName(machine);
        InferenceRunner runner(spec);
        size_t per = spec.cluster.cardsPerServer;
        CardGroup aligned = CardGroup::contiguous(per, per);
        CardGroup ragged;
        ragged.cards = {1, 4, 6};
        CardGroup single = CardGroup::contiguous(5, 1);
        ASSERT_TRUE(aligned.alignedTo(spec.cluster));
        ASSERT_FALSE(ragged.alignedTo(spec.cluster));
        for (const std::string& name : workloadNames()) {
            WorkloadModel wl = workloadByName(name);
            size_t units =
                runner.planFor(wl, OptLevel::Aggressive)->size();
            for (const CardGroup* g : {&aligned, &ragged, &single})
                EXPECT_EQ(
                    runner.planForJob(wl, *g, OptLevel::Aggressive)->size(),
                    units)
                    << machine << "/" << name << " on "
                    << g->size() << " card(s)";
        }
    }
}

TEST(ExecPlanPath, UnitsAreTheProgramCacheEntries)
{
    // One compile pipeline: a workload plan is its chain graph's plan,
    // unit for unit, and every unit of every plan the runner returns
    // (planFor, planForJob, fusePlan) IS the ProgramCache entry under
    // its unitCacheKey for the plan's cluster (no second key rule, no
    // copy, no unit left to resolve at execution).
    CardGroup ragged;
    ragged.cards = {1, 4, 6};
    for (const char* machine : {"hydra-m", "fab-m"}) {
        PrototypeSpec spec = machineByName(machine);
        InferenceRunner runner(spec);
        auto expectCacheEntries = [&](const ExecPlan& p,
                                      const std::string& ctx) {
            for (size_t i = 0; i < p.size(); ++i) {
                const ExecUnit& u = p.units[i];
                std::shared_ptr<const CompiledStep> entry =
                    ProgramCache::global().lookup(unitCacheKey(
                        spec, p.cluster, p.cluster,
                        runner.costModel().n(), p.logSlots, u.steps,
                        p.level));
                ASSERT_NE(entry, nullptr) << ctx << " unit " << i;
                EXPECT_EQ(u.compiled, entry) << ctx << " unit " << i;
            }
        };
        for (const std::string& name : workloadNames()) {
            WorkloadModel wl = workloadByName(name);
            for (OptLevel lv : {OptLevel::None, OptLevel::Safe,
                                OptLevel::Aggressive}) {
                std::string ctx = std::string(machine) + "/" + name +
                                  " @ " + optLevelName(lv);
                std::shared_ptr<const ExecPlan> plan =
                    runner.planFor(wl, lv);
                std::shared_ptr<const ExecPlan> graphPlan =
                    runner.planFor(NetworkGraph::fromModel(wl), lv);
                ASSERT_EQ(plan->size(), graphPlan->size()) << ctx;
                for (size_t i = 0; i < plan->size(); ++i) {
                    const ExecUnit& u = plan->units[i];
                    const ExecUnit& g = graphPlan->units[i];
                    EXPECT_EQ(u.kind, g.kind) << ctx << " unit " << i;
                    EXPECT_EQ(u.name, g.name) << ctx << " unit " << i;
                    ASSERT_EQ(u.steps.size(), g.steps.size()) << ctx;
                    for (size_t k = 0; k < u.steps.size(); ++k)
                        expectStepEq(u.steps[k], g.steps[k],
                                     ctx + " unit " + std::to_string(i));
                }
                expectCacheEntries(*plan, ctx);
                expectCacheEntries(*graphPlan, ctx + " (graph)");
                std::shared_ptr<const ExecPlan> job =
                    runner.planForJob(wl, ragged, lv);
                ASSERT_NE(job->cluster, spec.cluster) << ctx;
                expectCacheEntries(*job, ctx + " (job)");
                expectCacheEntries(*runner.fusePlan(*plan),
                                   ctx + " (fused)");
                expectCacheEntries(*runner.fusePlan(*job),
                                   ctx + " (fused job)");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bounded ProgramCache: LRU order, eviction counter.

TEST(ProgCache, OneStepUnitKeyIsTheLegacyStepKey)
{
    // The per-step key of the step-at-a-time compiler, captured before
    // the unit key rule replaced it: a one-step unit keys the same
    // ProgramCache entry byte for byte.
    PrototypeSpec spec = machineByName("hydra-m");
    WorkloadModel wl = workloadByName("resnet18");
    ASSERT_EQ(wl.steps[1].name, "relu1");
    EXPECT_EQ(unitCacheKey(spec, spec.cluster, spec.cluster,
                           size_t{1} << 16, wl.logSlots, {wl.steps[1]}),
              "m=Hydra-M|x=1x8|nx=1x8|n=65536|d=4|f=300000000,512,4,"
              "460000000000,33554432,1,0,1|k=0|nw=12500000000,1000000,"
              "500000,2|mc=8,59,3,3|ls=15|o=safe"
              "|s=3,128,0,8,0,15,10,1,15,1,32");
}

TEST(ProgCache, BoundedCapacityEvictsLeastRecentlyUsed)
{
    NetRig rig("hydra-m");
    WorkloadModel wl = workloadByName("resnet18");
    ASSERT_GE(wl.steps.size(), 3u);

    ProgramCache cache; // local: the global cache stays untouched
    cache.setCapacity(2);
    auto get = [&](size_t i) {
        std::vector<Step> unit{wl.steps[i]};
        std::string key = unitCacheKey(rig.spec, rig.spec.cluster,
                                       rig.spec.cluster, rig.cost.n(),
                                       wl.logSlots, unit);
        return cache.getOrCompile(key, [&] {
            return compileSteps(rig.cost, *rig.net,
                                rig.spec.cluster.totalCards(),
                                wl.logSlots, rig.spec.mapping, unit);
        });
    };

    get(0);
    get(1);
    get(2); // evicts step 0 (capacity 2)
    ProgramCache::Stats st = cache.stats();
    EXPECT_EQ(st.misses, 3u);
    EXPECT_EQ(st.evictions, 1u);
    EXPECT_EQ(st.entries, 2u);

    get(0); // miss again: it was the LRU victim; evicts step 1
    get(2); // hit: still resident
    st = cache.stats();
    EXPECT_EQ(st.misses, 4u);
    EXPECT_EQ(st.evictions, 2u);
    EXPECT_EQ(st.hits, 1u);

    cache.setCapacity(0); // unbounded again
    get(1);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().entries, 3u);
}

} // namespace
} // namespace hydra
