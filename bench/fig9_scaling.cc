/**
 * @file
 * Reproduces paper Fig. 9: (a)/(b) per-procedure speedup of ResNet-50
 * and OPT-6.7B as the card count sweeps 1..64, and (c) the share of
 * communication overhead per benchmark over the same sweep.
 */

#include "bench_util.hh"

using namespace hydra;
using namespace hydra::bench;

namespace {

PrototypeSpec
hydraWith(size_t cards)
{
    size_t servers = cards <= 8 ? 1 : cards / 8;
    size_t per = cards <= 8 ? cards : 8;
    return hydraPrototype("Hydra-" + std::to_string(cards), servers, per);
}

} // namespace

int
main()
{
    printHeaderBlock("Fig. 9: scalability analysis, 1..64 cards");

    const size_t card_counts[] = {1, 2, 4, 8, 16, 32, 64};

    // (a) ResNet-50 and (b) OPT-6.7B per-procedure speedups.
    struct Panel
    {
        WorkloadModel wl;
        std::vector<ProcKind> procs;
    };
    std::vector<Panel> panels;
    panels.push_back({makeResNet50(),
                      {ProcKind::ConvBN, ProcKind::NonLinear,
                       ProcKind::FC, ProcKind::Bootstrap}});
    panels.push_back({makeOpt67B(),
                      {ProcKind::PCMM, ProcKind::CCMM,
                       ProcKind::NonLinear, ProcKind::Bootstrap}});

    for (const auto& panel : panels) {
        std::vector<InferenceResult> results;
        for (size_t cards : card_counts) {
            PrototypeSpec spec = hydraWith(cards);
            InferenceRunner runner(spec);
            results.push_back(runner.runPlan(*runner.planFor(panel.wl)));
        }
        TextTable t("\n" + panel.wl.name +
                    ": speedup vs 1 card (per procedure)");
        std::vector<std::string> hdr = {"Cards"};
        for (ProcKind k : panel.procs)
            hdr.push_back(procName(k));
        hdr.push_back("Total");
        t.header(hdr);
        for (size_t i = 0; i < results.size(); ++i) {
            std::vector<std::string> row = {
                std::to_string(card_counts[i])};
            for (ProcKind k : panel.procs) {
                Tick base = results[0].procTime(k);
                Tick cur = results[i].procTime(k);
                row.push_back(cur ? fmtX(static_cast<double>(base) /
                                         static_cast<double>(cur))
                                  : "-");
            }
            row.push_back(fmtX(
                static_cast<double>(results[0].total.makespan) /
                static_cast<double>(results[i].total.makespan)));
            t.addRow(row);
        }
        t.print();
    }

    // (c) Communication share per benchmark over the sweep.
    TextTable c("\nCommunication share of total overhead");
    std::vector<std::string> hdr = {"Cards"};
    auto models = allBenchmarks();
    for (const auto& wl : models)
        hdr.push_back(wl.name);
    c.header(hdr);
    for (size_t cards : card_counts) {
        PrototypeSpec spec = hydraWith(cards);
        InferenceRunner runner(spec);
        std::vector<std::string> row = {std::to_string(cards)};
        for (const auto& wl : models)
            row.push_back(fmtPct(
                runner.runPlan(*runner.planFor(wl)).commFraction(), 2));
        c.addRow(row);
    }
    c.print();

    std::printf("\nPaper shapes: ConvBN scales faster than Boot on\n"
                "ResNet-50; OPT-6.7B procedures keep near-linear growth;\n"
                "ResNet-18's comm share grows fastest with node count,\n"
                "OPT-6.7B's slowest.\n");
    return 0;
}
