/**
 * @file
 * Scale-out playground: build a custom cluster (servers x cards),
 * map a single procedure onto it, execute, and print a Fig. 5-style
 * per-card timeline of compute vs communication occupancy.
 *
 * Usage: scaleout_playground [servers] [cards_per_server] [faults]
 *
 * The optional third argument is a fault-injection spec (see
 * FaultPlan::parse), e.g. "seed=7,drop=0.3" or "kill=2@0.0005";
 * faulty runs print retry statistics and, on failure, the structured
 * error -- including the full deadlock report when relevant.
 */

#include <cstdio>

#include "baselines/prototypes.hh"
#include "common/logging.hh"
#include "common/parse.hh"
#include "common/table.hh"
#include "sched/mapping.hh"
#include "sync/executor.hh"

using namespace hydra;

int
main(int argc, char** argv)
{
    size_t servers = 2, per_server = 4;
    if ((argc > 1 && !parseSize(argv[1], servers)) ||
        (argc > 2 && !parseSize(argv[2], per_server)) || !servers ||
        !per_server)
        fatal("usage: %s [servers] [cards_per_server] [faults] "
              "(counts are integers >= 1)",
              argv[0]);
    FaultPlan plan =
        FaultPlan::parse(argc > 3 ? argv[3] : std::string());

    ClusterConfig cluster{servers, per_server};
    size_t cards = cluster.totalCards();
    std::printf("Cluster: %zu server(s) x %zu card(s) = %zu cards\n\n",
                servers, per_server, cards);

    OpCostModel cost(FpgaParams{}, size_t{1} << 16, 4);
    SwitchedNetwork net(NetParams{}, cluster);
    StepMapper mapper(cost, net, cards, 15);
    ClusterExecutor executor(cluster, net);

    struct Demo
    {
        const char* title;
        Step step;
    };
    const Demo demos[] = {
        {"Convolution layer (Fig. 1/2 mapping)",
         Step{ProcKind::ConvBN, "conv", 512, convBnMix(), 12,
              AggKind::BroadcastEach, 0, 1.0, 16}},
        {"Fully-connected layer (tree reduction)",
         Step{ProcKind::FC, "fc", 1511, fcMix(), 12, AggKind::ReduceTree,
              0, 1.0, 1}},
        {"Bootstrapping 2 ciphertexts (Fig. 3 mapping)",
         Step{ProcKind::Bootstrap, "boot", 2, OpMix{}, 18, AggKind::None,
              0, 1.0, 2}},
    };

    executor.setRecordTimeline(true);
    if (!plan.empty()) {
        std::printf("Faults : %s\n\n", plan.describe().c_str());
        executor.setFaultPlan(plan);
    }
    for (const auto& demo : demos) {
        Program prog = mapper.mapStep(demo.step);
        RunResult rr = executor.tryRun(prog);
        if (!rr.ok()) {
            std::printf("--- %s ---\n", demo.title);
            std::printf("run failed [%s]: %s\n",
                        RunError::kindName(rr.error.kind),
                        rr.error.message.c_str());
            if (rr.error.kind == RunError::Kind::Deadlock)
                std::printf("%s\n",
                            rr.error.deadlock.describe().c_str());
            std::printf("\n");
            continue;
        }
        RunStats st = rr.stats;

        std::printf("--- %s ---\n", demo.title);
        if (!plan.empty())
            std::printf("retries %llu (dropped %llu, corrupted %llu, "
                        "timed out %llu)\n",
                        static_cast<unsigned long long>(st.retries),
                        static_cast<unsigned long long>(
                            st.droppedTransfers),
                        static_cast<unsigned long long>(
                            st.corruptedTransfers),
                        static_cast<unsigned long long>(
                            st.timedOutTransfers));
        std::printf("makespan %.3f ms, comm overhead %.3f ms, "
                    "%.2f MiB over the fabric\n",
                    ticksToSeconds(st.makespan) * 1e3,
                    ticksToSeconds(st.commOverhead()) * 1e3,
                    static_cast<double>(st.netBytes) / (1 << 20));

        // Fig. 5-style timeline: '#' compute, '~' transfer, '.' idle.
        const size_t width = 64;
        std::vector<std::string> lanes(cards,
                                       std::string(width, '.'));
        for (const TaskEvent& ev : st.timeline) {
            size_t lo = static_cast<size_t>(
                static_cast<double>(ev.start) / st.makespan * width);
            size_t hi = static_cast<size_t>(
                static_cast<double>(ev.end) / st.makespan * width);
            hi = std::min(std::max(hi, lo + 1), width);
            char mark =
                ev.kind == TaskEvent::Kind::Compute ? '#' : '~';
            for (size_t i = lo; i < hi; ++i) {
                // Compute wins over transfer in a shared bucket.
                if (lanes[ev.card][i] == '.' || mark == '#')
                    lanes[ev.card][i] = mark;
            }
        }
        for (size_t c = 0; c < cards; ++c) {
            double busy = st.makespan
                              ? static_cast<double>(st.computeBusy[c]) /
                                    static_cast<double>(st.makespan)
                              : 0.0;
            std::printf("  card %2zu |%s| %5.1f%% compute, %zu tasks\n",
                        c, lanes[c].c_str(), busy * 100,
                        prog.cards[c].compute.size());
        }
        std::printf("\n");
    }

    std::printf("Try: %s 1 1   (single card)\n"
                "     %s 8 8   (Hydra-L)\n",
                argv[0], argv[0]);
    return 0;
}
