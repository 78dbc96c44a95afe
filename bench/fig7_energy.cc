/**
 * @file
 * Reproduces paper Fig. 7: full-system energy consumption and its
 * breakdown (NTT/MM/MA/AUT compute units, HBM, DTU/NIC) for the three
 * Hydra prototypes on the four benchmarks.
 */

#include "analysis/energy.hh"
#include "bench_util.hh"

using namespace hydra;
using namespace hydra::bench;

int
main()
{
    printHeaderBlock("Fig. 7: energy consumption and breakdown");

    std::vector<PrototypeSpec> specs;
    specs.push_back(hydraSSpec());
    specs.push_back(hydraMSpec());
    specs.push_back(hydraLSpec());

    EnergyParams ep; // FPGA coefficients

    for (const auto& wl : allBenchmarks()) {
        TextTable t("\n" + wl.name + " (dynamic energy shares)");
        t.header({"Prototype", "total (kJ)", "NTT", "MM", "MA", "AUT",
                  "HBM", "NIC"});
        for (const auto& spec : specs) {
            InferenceRunner runner(spec);
            InferenceResult res = runner.runPlan(*runner.planFor(wl));
            EnergyBreakdown e = computeEnergy(
                res.total, ep, spec.fpga, spec.cluster.totalCards());
            auto share = [&](double j) {
                return fmtPct(e.dynamicShare(j), 1);
            };
            t.addRow({spec.name, fmtF(e.total() / 1e3, 2),
                      share(e.cuJ[0]), share(e.cuJ[1]), share(e.cuJ[2]),
                      share(e.cuJ[3]), share(e.hbmJ), share(e.nicJ)});
        }
        t.print();
    }

    std::printf("\nPaper shapes: memory (HBM) takes the largest share on\n"
                "every benchmark; NTT and MM dominate among CUs; MA is\n"
                "minimal; DTU/NIC stays below 1%% even on Hydra-L.\n");
    return 0;
}
