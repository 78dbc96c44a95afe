/**
 * @file
 * Secure CNN inference: simulate FHE-based ResNet-18 on Hydra-M
 * (8 cards), printing the per-procedure time budget, communication
 * overlap and energy, next to single-card and 64-card runs.
 */

#include <cstdio>

#include "analysis/energy.hh"
#include "baselines/prototypes.hh"
#include "common/table.hh"

using namespace hydra;

int
main()
{
    WorkloadModel wl = makeResNet18();
    std::printf("Workload: %s (%zu steps)\n", wl.name.c_str(),
                wl.steps.size());

    for (auto spec : {hydraSSpec(), hydraMSpec(), hydraLSpec()}) {
        InferenceRunner runner(spec);
        InferenceResult res = runner.runPlan(*runner.planFor(wl));

        std::printf("\n=== %s: %.2f s end to end, comm overhead %.2f%% "
                    "===\n",
                    spec.name.c_str(), res.seconds(),
                    res.commFraction() * 100);

        TextTable t;
        t.header({"procedure", "time (s)", "share", "comm%"});
        Tick total = res.total.makespan;
        for (size_t k = 0; k < kNumProcKinds; ++k) {
            ProcKind kind = static_cast<ProcKind>(k);
            Tick pt = res.procTime(kind);
            if (!pt)
                continue;
            t.addRow({procName(kind), fmtF(ticksToSeconds(pt), 3),
                      fmtPct(static_cast<double>(pt) / total, 1),
                      fmtPct(res.procCommFraction(kind), 1)});
        }
        t.print();

        EnergyBreakdown e = computeEnergy(res.total, EnergyParams{},
                                          spec.fpga,
                                          spec.cluster.totalCards());
        std::printf("energy: %.1f J total (%.0f%% HBM, %.0f%% NTT, "
                    "%.2f%% NIC)\n",
                    e.total(), e.dynamicShare(e.hbmJ) * 100,
                    e.dynamicShare(e.cuJ[0]) * 100,
                    e.dynamicShare(e.nicJ) * 100);
        std::printf("network: %.1f GiB in %llu messages\n",
                    static_cast<double>(res.total.netBytes) / (1 << 30),
                    static_cast<unsigned long long>(
                        res.total.netMessages));
    }

    std::printf("\nThe five slowest steps on Hydra-M:\n");
    InferenceRunner runner(hydraMSpec());
    InferenceResult res = runner.runPlan(*runner.planFor(wl));
    std::vector<const StepResult*> steps;
    for (const auto& s : res.steps)
        steps.push_back(&s);
    std::sort(steps.begin(), steps.end(), [](auto* a, auto* b) {
        return a->stats.makespan > b->stats.makespan;
    });
    for (size_t i = 0; i < 5 && i < steps.size(); ++i)
        std::printf("  %-16s %-10s %8.3f s\n", steps[i]->name.c_str(),
                    procName(steps[i]->kind),
                    ticksToSeconds(steps[i]->stats.makespan));
    return 0;
}
