/**
 * @file
 * Multi-tenant serving driver: carve one machine into card groups (or
 * a whole federation of identical clusters), push a deterministic
 * request stream through the admission queue, and report throughput,
 * utilization, p50/p95/p99 latency, and federation fault accounting.
 *
 * Usage:
 *   serve_cluster [--machine NAME]      (see --list-machines)
 *                 [--serve SPEC]        (serving spec; see below)
 *                 [--serve-file PATH]   (read the serving spec from a
 *                  file — newlines are treated as commas, so bulk
 *                  10k-tenant specs from scripts/gen_workload.py can
 *                  be line-wrapped)
 *                 [--faults SPEC]       (fault plan; kill=CARD@SECONDS
 *                  ticks are absolute serve-clock times)
 *                 [--clusters N]        (federate N identical clusters
 *                  behind the health-gated routing tier; shorthand for
 *                  clusters=N in the serve spec)
 *                 [--cluster-faults SPEC] (cluster-granularity faults:
 *                  ckill=CLUSTER@SECONDS, cpart=CLUSTER@SECONDS:HEAL_S;
 *                  merged into --faults)
 *                 [--max-attempts N]    (per-transfer retry budget)
 *                 [--json]              (one JSON object on stdout)
 *                 [--dump-program]      (print each fleet group's
 *                  compiled ExecPlan unit Programs — queue depths,
 *                  message counts, bytes, pass deltas — and exit)
 *                 [--list-machines] [--list-workloads]
 *
 * The serve SPEC is a comma list (defaults in parentheses):
 *   seed=N (1)  clusters=N (1)  duration=S (5)  queue=N (64)
 *   requests=N (200000)
 *   sched=fifo|cake[:WAIT_S[:KICK_S]]   admission policy (fifo); cake
 *                                       is the deficit scheduler of
 *                                       DESIGN.md §14 (wait budget 1s,
 *                                       starvation kick cap 10s)
 *   tenant=NAME:open:WL:RATE            open-loop Poisson, RATE req/s
 *   tenant=NAME:closed:WL:CLIENTS[:THINK_S]
 *   tenants=COUNT:PREFIX:MODE:WL:ARG[...]  bulk block: COUNT clones
 *                                       named PREFIX#0..PREFIX#COUNT-1
 *   prio=NAME:P                         priority tier (0 highest);
 *                                       a trailing '*' prefix-matches
 *   opt=[NAME:]safe|aggressive          compile level: spec-wide
 *                                       default or per-tenant (NAME*
 *                                       prefix-matches); aggressive
 *                                       runs the cross-step passes
 *   at=SEC:NAME:WL                      trace-replay arrival
 *   group=WL:CARDS[:MIN]                partition plan (else even split)
 *
 * Example: a 4-cluster federation losing one cluster mid-run:
 *   serve_cluster --machine hydra-m --clusters 4 \
 *     --serve "duration=120,tenant=pool:closed:resnet18:8:0" \
 *     --cluster-faults "ckill=1@30" --json
 *
 * Example: the fifo-vs-cake SLO A/B over a generated 10k-tenant spec:
 *   scripts/gen_workload.py --duration 140000 > slo.spec
 *   serve_cluster --machine hydra-m --serve-file slo.spec --json
 *   scripts/gen_workload.py --duration 140000 --sched cake > slo2.spec
 *   serve_cluster --machine hydra-m --serve-file slo2.spec --json
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/prototypes.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "sched/execplan.hh"
#include "sched/progcache.hh"
#include "serve/federation.hh"
#include "serve/partition.hh"
#include "workloads/model.hh"

using namespace hydra;

namespace {

/** Compile and print every fleet group's ExecPlan — the unit Programs
 *  the serving layer preloads and reuses across jobs (--dump-program).
 *  One plan is printed per distinct opt level the spec's tenants
 *  request for the group's workload, so an `opt=aggressive` tenant's
 *  fused multi-layer units show up next to the Safe per-step plan. */
void
dumpGroupPrograms(const PrototypeSpec& spec, const ServeSpec& serve)
{
    std::vector<std::string> wlNames = serve.workloadTable();
    FleetPartition fleet(spec, serve, wlNames);
    InferenceRunner runner(spec);
    for (const auto& g : fleet.groups()) {
        WorkloadModel wl = workloadByName(wlNames[g.workload]);
        std::vector<OptLevel> levels;
        for (const auto& t : serve.tenants)
            if (t.workload == wlNames[g.workload] &&
                std::find(levels.begin(), levels.end(), t.opt) ==
                    levels.end())
                levels.push_back(t.opt);
        if (levels.empty())
            levels.push_back(OptLevel::Safe);
        for (OptLevel lv : levels) {
            std::shared_ptr<const ExecPlan> plan =
                runner.planForJob(wl, g.cards, lv);
            std::printf("group %zu: %s on %zu card(s) "
                        "(%zu server(s) x %zu), opt=%s, %zu unit(s)\n",
                        g.id, wl.name.c_str(), g.cards.size(),
                        plan->cluster.servers,
                        plan->cluster.cardsPerServer,
                        optLevelName(lv), plan->size());
            for (size_t ui = 0; ui < plan->units.size(); ++ui) {
                const ExecUnit& u = plan->units[ui];
                std::printf("  unit %3zu %-24s [%s, %zu step(s)]\n",
                            ui, u.name.c_str(), procName(u.lead),
                            u.steps.size());
                std::printf("%s\n",
                            describeProgram(u.compiled->program,
                                            &u.compiled->report)
                                .c_str());
            }
        }
    }
}

} // namespace

int
main(int argc, char** argv)
{
    std::string machine = "hydra-m";
    std::string serveSpecStr =
        "duration=300,tenant=vision:open:resnet18:0.05,"
        "tenant=nlp:open:bert:0.005";
    std::string faultSpecStr;
    std::string clusterFaultStr;
    size_t clustersOverride = 0;
    RetryPolicy retry;
    bool json = false;
    bool dumpProgram = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--machine")
            machine = next();
        else if (arg == "--serve")
            serveSpecStr = next();
        else if (arg == "--serve-file") {
            std::string path = next();
            std::ifstream in(path);
            if (!in)
                fatal("--serve-file: cannot read '%s'", path.c_str());
            std::stringstream buf;
            buf << in.rdbuf();
            serveSpecStr.clear();
            // Newlines (and a trailing one) act as token separators so
            // generated specs can be line-wrapped for readability.
            for (char c : buf.str())
                serveSpecStr += (c == '\n' || c == '\r') ? ',' : c;
            while (!serveSpecStr.empty() &&
                   serveSpecStr.back() == ',')
                serveSpecStr.pop_back();
            size_t lead = serveSpecStr.find_first_not_of(',');
            serveSpecStr.erase(0, lead == std::string::npos
                                      ? serveSpecStr.size()
                                      : lead);
            std::string squashed;
            for (char c : serveSpecStr)
                if (c != ',' || squashed.empty() ||
                    squashed.back() != ',')
                    squashed += c;
            serveSpecStr = std::move(squashed);
        } else if (arg == "--faults")
            faultSpecStr = next();
        else if (arg == "--clusters") {
            std::string v = next();
            if (!parseSize(v, clustersOverride) || clustersOverride == 0)
                fatal("--clusters wants an integer >= 1, got '%s'",
                      v.c_str());
        } else if (arg == "--cluster-faults")
            clusterFaultStr = next();
        else if (arg == "--max-attempts") {
            std::string v = next();
            size_t n = 0;
            if (!parseSize(v, n) || n == 0 || n > UINT32_MAX)
                fatal("--max-attempts wants an integer in 1..%u, got "
                      "'%s'",
                      UINT32_MAX, v.c_str());
            retry.maxAttempts = static_cast<uint32_t>(n);
        } else if (arg == "--json")
            json = true;
        else if (arg == "--dump-program")
            dumpProgram = true;
        else if (arg == "--list-machines") {
            for (const auto& n : machineNames())
                std::printf("%s\n", n.c_str());
            return 0;
        } else if (arg == "--list-workloads") {
            for (const auto& n : workloadNames())
                std::printf("%s\n", n.c_str());
            return 0;
        } else
            fatal("unknown argument '%s' (see the file header)",
                  arg.c_str());
    }

    PrototypeSpec spec = machineByName(machine);
    ServeSpec serve = ServeSpec::parse(serveSpecStr);
    if (clustersOverride)
        serve.clusters = clustersOverride;
    FaultPlan faults = FaultPlan::parse(faultSpecStr);
    if (!clusterFaultStr.empty()) {
        // --cluster-faults is plain fault-spec syntax, merged on top of
        // --faults so the two flags compose.
        FaultPlan extra = FaultPlan::parse(clusterFaultStr);
        for (const auto& [c, t] : extra.clusterKillAt)
            faults.clusterKillAt[c] = t;
        for (const auto& [c, p] : extra.clusterPartitionAt)
            faults.clusterPartitionAt[c] = p;
        for (const auto& [c, t] : extra.cardFailAt)
            faults.cardFailAt[c] = t;
    }

    if (dumpProgram) {
        std::printf("machine : %s, serve: %s\n\n", spec.name.c_str(),
                    serve.describe().c_str());
        dumpGroupPrograms(spec, serve);
        return 0;
    }

    Federation sim(std::move(spec), serve, faults, retry);
    ServeStats stats = sim.run();

    if (json) {
        std::printf("%s\n",
                    stats.toJson(sim.spec().name, serve.describe())
                        .c_str());
        return 0;
    }

    std::printf("machine : %s (%zu server(s) x %zu card(s))",
                sim.spec().name.c_str(), sim.spec().cluster.servers,
                sim.spec().cluster.cardsPerServer);
    if (serve.clusters > 1)
        std::printf(" x %zu cluster(s)", serve.clusters);
    std::printf("\nserve   : %s\n", serve.describe().c_str());
    if (!faults.empty())
        std::printf("faults  : %s\n", faults.describe().c_str());
    std::printf("\n%s", stats.describe().c_str());
    return 0;
}
