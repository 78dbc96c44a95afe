/**
 * @file
 * Command-line simulator driver: pick a machine and a workload, get
 * the full report (per-procedure budget, comm overhead, energy).
 *
 * Usage:
 *   hydra_sim_cli [--machine hydra-s|hydra-m|hydra-l|fab-s|fab-m|
 *                  fab-l|poseidon]
 *                 [--workload NAME]    (see --list-workloads)
 *                 [--cards N]          (custom Hydra with N cards)
 *                 [--fused]            (Section IV-D preloading)
 *                 [--faults SPEC]      (fault injection; SPEC is a
 *                  comma list: seed=N,drop=P,corrupt=P,degrade=F,
 *                  dropfirst=K,straggle=CARD:F,kill=CARD@SECONDS)
 *                 [--max-attempts N]   (per-transfer retry budget)
 *                 [--dump-program]     (print each unit's compiled
 *                  Program of the plan the run would execute — after
 *                  --opt and --fused: per-card queue depths,
 *                  message counts, bytes, and the optimizer's pass
 *                  deltas; no run)
 *                 [--opt LEVEL]        (compile pass level for every
 *                  run, --dump-program and --dump-graph:
 *                  none|safe|aggressive; default safe)
 *                 [--dump-graph]       (print the workload's NetworkGraph
 *                  IR — layers, levels, rotations, edges — after the
 *                  --opt passes; no run)
 *                 [--json]             (emit --dump-graph as JSON)
 *                 [--list-machines]    (print machine registry, exit)
 *                 [--list-workloads]   (print workload registry, exit)
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/energy.hh"
#include "baselines/prototypes.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "math/simd/simd.hh"
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

/** The value of `flag` as a whole-token count in 1..max(T); fatal()
 *  on anything else. */
template <typename T>
T
parseCount(const std::string& flag, const std::string& v)
{
    size_t n = 0;
    if (!parseSize(v, n) || n == 0 || n > std::numeric_limits<T>::max())
        fatal("%s wants an integer in 1..%ju, got '%s'", flag.c_str(),
              static_cast<uintmax_t>(std::numeric_limits<T>::max()),
              v.c_str());
    return static_cast<T>(n);
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
 *  deltas (the --dump-program flag). */
void
dumpPrograms(const ExecPlan& plan)
{
    for (size_t ui = 0; ui < plan.units.size(); ++ui) {
        const ExecUnit& u = plan.units[ui];
        std::printf("unit %3zu %-24s [%s, %zu step(s)]\n", ui,
                    u.name.c_str(), procName(u.lead), u.steps.size());
        std::printf("%s\n", describeProgram(u.compiled->program,
                                            &u.compiled->report)
                                .c_str());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    std::string machine = "hydra-m";
    std::string workload = "resnet18";
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
        else if (arg == "--dump-graph")
            dumpGraph = true;
        else if (arg == "--json")
            json = true;
        else if (arg == "--cards")
            cards = parseCount<size_t>(arg, next());
        else if (arg == "--fused")
            fused = true;
        else if (arg == "--dump-program")
            dumpProgram = true;
        else if (arg == "--opt")
            optLevel = parseOptLevel(next());
        else if (arg == "--faults")
            faultSpec = next();
        else if (arg == "--max-attempts")
            retry.maxAttempts = parseCount<uint32_t>(arg, next());
        else if (arg == "--list-machines") {
            printRegistry("machines", machineNames());
            return 0;
        } else if (arg == "--list-workloads") {
            printRegistry("workloads", workloadNames());
            return 0;
        } else
            fatal("unknown argument '%s' (see the file header)",
                  arg.c_str());
    }

    PrototypeSpec spec = resolveMachine(machine, cards);

    WorkloadModel wl = workloadByName(workload);

    // One compile step and one execution driver for every mode: the
    // workload compiles to a plan, --fused merges it into one
    // preloaded unit, and the plan runs on the whole machine.  The
    // dumps print that same plan.
    InferenceRunner runner(spec);
    std::shared_ptr<const ExecPlan> plan = runner.planFor(wl, optLevel);

    if (dumpGraph) {
        NetworkGraph graph = NetworkGraph::fromModel(wl);
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
        plan = runner.fusePlan(*plan);

    if (dumpProgram) {
        std::printf("machine : %s, workload: %s, opt level: %s, "
                    "%zu unit(s)\n\n",
                    spec.name.c_str(), wl.name.c_str(),
                    optLevelName(optLevel), plan->size());
        dumpPrograms(*plan);
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

    std::printf("graph   : %zu layer(s), %s\n\n", wl.steps.size(),
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
                "%.2f GiB moved\n",
                res.seconds(), res.commFraction() * 100,
                static_cast<double>(res.total.netBytes) / (1 << 30));
    std::printf("replayed: %zu of %zu unit(s) reused an earlier run "
                "of the same program\n\n",
                res.replayedUnits, res.steps.size());
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
