/**
 * @file
 * Command-line simulator driver: pick a machine and a workload, get
 * the full report (per-procedure budget, comm overhead, energy).
 *
 * Usage:
 *   hydra_sim_cli [--machine hydra-s|hydra-m|hydra-l|fab-s|fab-m|
 *                  fab-l|poseidon]
 *                 [--workload resnet18|resnet50|bert|opt|resnet20]
 *                 [--cards N]          (custom Hydra with N cards)
 *                 [--fused]            (Section IV-D preloading)
 *                 [--faults SPEC]      (fault injection; SPEC is a
 *                  comma list: seed=N,drop=P,corrupt=P,degrade=F,
 *                  dropfirst=K,straggle=CARD:F,kill=CARD@SECONDS)
 *                 [--max-attempts N]   (per-transfer retry budget)
 *                 [--dump-program]     (print each unit's compiled
 *                  Program of the plan the run would execute — after
 *                  --opt, --model and --fused: per-card queue depths,
 *                  message counts, bytes, and the optimizer's pass
 *                  deltas; no run)
 *                 [--opt LEVEL]        (compile pass level for every
 *                  run, --dump-program and --dump-graph:
 *                  none|safe|aggressive; default safe)
 *                 [--model NAME]       (compile a declarative-registry
 *                  model through the network compiler instead of a
 *                  --workload step list; --fused and --faults apply
 *                  to it like to any plan)
 *                 [--dump-graph]       (print the model's NetworkGraph
 *                  IR — layers, levels, rotations, edges — after the
 *                  --opt passes; no run.  Without --model the
 *                  --workload step list is lifted into a graph)
 *                 [--json]             (emit --dump-graph as JSON)
 *                 [--list-machines]    (print machine registry, exit)
 *                 [--list-workloads]   (print workload registry, exit)
 *                 [--list-models]      (print declarative model
 *                  registry, exit)
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/energy.hh"
#include "baselines/prototypes.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "math/simd/simd.hh"
#include "sched/graph/modelspec.hh"
#include "sched/execplan.hh"
#include "sched/progcache.hh"

using namespace hydra;

namespace {

PrototypeSpec
resolveMachine(const std::string& name, size_t cards)
{
    if (cards) {
        size_t servers = cards <= 8 ? 1 : (cards + 7) / 8;
        size_t per = cards <= 8 ? cards : 8;
        return hydraPrototype("Hydra-" + std::to_string(cards), servers,
                              per);
    }
    return machineByName(name);
}

void
printRegistry(const char* what, const std::vector<std::string>& names)
{
    std::printf("%s:\n", what);
    for (const auto& n : names)
        std::printf("  %s\n", n.c_str());
}

OptLevel
parseOptLevel(const std::string& s)
{
    if (s == "none")
        return OptLevel::None;
    if (s == "safe")
        return OptLevel::Safe;
    if (s == "aggressive")
        return OptLevel::Aggressive;
    fatal("unknown opt level '%s' (none|safe|aggressive)", s.c_str());
}

/** Print every unit's compiled Program plus the optimizer's pass
 *  deltas (the --dump-program flag).  Skeleton units (a fused plan)
 *  resolve exactly as the execution driver resolves them. */
void
dumpPrograms(const InferenceRunner& runner, const ExecPlan& plan)
{
    for (size_t ui = 0; ui < plan.units.size(); ++ui) {
        const ExecUnit& u = plan.units[ui];
        std::shared_ptr<const CompiledStep> cs =
            u.compiled ? u.compiled
                       : compileUnit(runner.spec(), plan.cluster,
                                     plan.cluster, runner.costModel(),
                                     runner.network(), plan.logSlots,
                                     u.steps, plan.level);
        std::printf("unit %3zu %-24s [%s, %zu step(s)]\n", ui,
                    u.name.c_str(), procName(u.lead), u.steps.size());
        std::printf("%s\n",
                    describeProgram(cs->program, &cs->report).c_str());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    std::string machine = "hydra-m";
    std::string workload = "resnet18";
    std::string model;
    std::string faultSpec;
    size_t cards = 0;
    bool fused = false;
    bool dumpProgram = false;
    bool dumpGraph = false;
    bool json = false;
    OptLevel optLevel = OptLevel::Safe;
    RetryPolicy retry;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--machine")
            machine = next();
        else if (arg == "--workload")
            workload = next();
        else if (arg == "--model")
            model = next();
        else if (arg == "--dump-graph")
            dumpGraph = true;
        else if (arg == "--json")
            json = true;
        else if (arg == "--cards")
            cards = std::strtoul(next().c_str(), nullptr, 10);
        else if (arg == "--fused")
            fused = true;
        else if (arg == "--dump-program")
            dumpProgram = true;
        else if (arg == "--opt")
            optLevel = parseOptLevel(next());
        else if (arg == "--faults")
            faultSpec = next();
        else if (arg == "--max-attempts")
            retry.maxAttempts = static_cast<uint32_t>(
                std::strtoul(next().c_str(), nullptr, 10));
        else if (arg == "--list-machines") {
            printRegistry("machines", machineNames());
            return 0;
        } else if (arg == "--list-workloads") {
            printRegistry("workloads", workloadNames());
            return 0;
        } else if (arg == "--list-models") {
            printRegistry("models", modelSpecNames());
            return 0;
        } else
            fatal("unknown argument '%s' (see the file header)",
                  arg.c_str());
    }

    PrototypeSpec spec = resolveMachine(machine, cards);

    // The graph path: resolve a declarative model (or lift the
    // workload's step list) into the NetworkGraph IR.
    NetworkGraph graph;
    if (!model.empty()) {
        SpecError err;
        if (!tryModelGraphByName(model, graph, err)) {
            std::fprintf(stderr, "bad --model: %s\n",
                         err.describe().c_str());
            return 1;
        }
    }
    WorkloadModel wl =
        model.empty() ? resolveWorkloadModel(workload) : graph.toModel();
    if (model.empty() && dumpGraph)
        graph = NetworkGraph::fromModel(wl);

    // One compile step and one execution driver for every mode: the
    // workload or model compiles to a plan, --fused merges it into one
    // preloaded unit, and the plan runs on the whole machine.  The
    // dumps print that same plan.
    InferenceRunner runner(spec);
    std::shared_ptr<const ExecPlan> plan =
        model.empty() ? runner.planFor(wl, optLevel)
                      : runner.planFor(graph, optLevel);

    if (dumpGraph) {
        if (optLevel == OptLevel::Aggressive) {
            // Show the post-pass graph: what actually compiles.
            WorkloadModel post;
            post.name = graph.name;
            post.logSlots = graph.logSlots;
            post.maxLimbs = graph.maxLimbs;
            for (const ExecUnit& u : plan->units)
                post.steps.insert(post.steps.end(), u.steps.begin(),
                                  u.steps.end());
            graph = NetworkGraph::fromModel(post);
            if (!json)
                std::printf("%s\n", plan->report.describe().c_str());
        }
        std::printf("%s\n", json ? graph.toJson().c_str()
                                 : graph.describe().c_str());
        return 0;
    }
    if (json)
        fatal("--json only applies to --dump-graph");

    if (fused)
        plan = std::make_shared<ExecPlan>(fusePlan(*plan));

    if (dumpProgram) {
        std::printf("machine : %s, workload: %s, opt level: %s, "
                    "%zu unit(s)\n\n",
                    spec.name.c_str(), wl.name.c_str(),
                    optLevelName(optLevel), plan->size());
        dumpPrograms(runner, *plan);
        return 0;
    }

    std::printf("machine : %s (%zu server(s) x %zu card(s))\n",
                spec.name.c_str(), spec.cluster.servers,
                spec.cluster.cardsPerServer);
    std::printf("workload: %s (%zu steps)\n", wl.name.c_str(),
                wl.steps.size());
    std::printf("simd    : %s (best available %s)\n\n",
                simdLevelName(simd::activeLevel()),
                simdLevelName(simd::bestAvailableLevel()));

    FaultPlan faults = FaultPlan::parse(faultSpec);
    if (!faults.empty())
        std::printf("faults  : %s\n\n", faults.describe().c_str());

    if (!model.empty())
        std::printf("graph   : %zu layer(s), %s\n\n", graph.nodes.size(),
                    plan->report.describe().c_str());
    InferenceResult res = runner.runJob(
        *plan, CardGroup::contiguous(0, spec.cluster.totalCards()), 0,
        faults, retry);
    if (!res.ok()) {
        std::printf("run failed [%s]: %s\n",
                    RunError::kindName(res.error.kind),
                    res.error.message.c_str());
        if (res.error.kind == RunError::Kind::Deadlock)
            std::printf("%s\n", res.error.deadlock.describe().c_str());
        return 1;
    }
    std::printf("end to end: %.3f s, comm overhead %.2f%%, "
                "%.2f GiB moved\n\n",
                res.seconds(), res.commFraction() * 100,
                static_cast<double>(res.total.netBytes) / (1 << 30));
    if (!faults.empty()) {
        std::printf("fault recovery: %" PRIu64 " retries (%" PRIu64
                    " dropped, %" PRIu64 " corrupted, %" PRIu64
                    " timed out)\n",
                    res.total.retries, res.total.droppedTransfers,
                    res.total.corruptedTransfers,
                    res.total.timedOutTransfers);
        if (res.degraded()) {
            std::printf("degraded: lost card(s)");
            for (size_t c : res.failedCards)
                std::printf(" %zu", c);
            std::printf(", %zu re-dispatch(es), recovery penalty "
                        "%.3f s\n",
                        res.redispatches,
                        ticksToSeconds(res.recoveryPenalty));
        }
        std::printf("\n");
    }

    TextTable t("per-procedure budget");
    t.header({"procedure", "units", "time (s)", "share", "comm%"});
    for (size_t k = 0; k < kNumProcKinds; ++k) {
        ProcKind kind = static_cast<ProcKind>(k);
        Tick pt = res.procTime(kind);
        if (!pt)
            continue;
        size_t units = 0;
        for (const auto& s : res.steps)
            units += s.kind == kind;
        t.addRow({procName(kind), std::to_string(units),
                  fmtF(ticksToSeconds(pt), 3),
                  fmtPct(static_cast<double>(pt) /
                             static_cast<double>(res.total.makespan),
                         1),
                  fmtPct(res.procCommFraction(kind), 1)});
    }
    t.print();

    EnergyBreakdown e = computeEnergy(res.total, EnergyParams{},
                                      spec.fpga,
                                      spec.cluster.totalCards());
    std::printf("\nenergy: %.1f J (HBM %.0f%%, NTT %.0f%%, NIC %.2f%%)\n",
                e.total(), e.dynamicShare(e.hbmJ) * 100,
                e.dynamicShare(e.cuJ[0]) * 100,
                e.dynamicShare(e.nicJ) * 100);
    return 0;
}
