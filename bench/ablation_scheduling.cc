/**
 * @file
 * Scheduling ablations:
 *   A. chunk granularity of the Fig. 2 compute/broadcast overlap
 *   B. fused queues (Section IV-D preloading) vs per-step barriers
 *   C. Eq. 1-optimized DFT plans vs naive fixed plans (Table V value)
 */

#include "bench_util.hh"
#include "model/dft_model.hh"
#include "sched/execplan.hh"

using namespace hydra;
using namespace hydra::bench;

int
main()
{
    printHeaderBlock("Scheduling ablations");

    // --- A. chunk granularity ----------------------------------------
    {
        TextTable t("\nA. chunks per card (ResNet-18, Hydra-M): finer "
                    "chunks hide transfers");
        t.header({"chunks/card", "time (s)", "comm overhead"});
        for (size_t chunks : {1, 2, 4, 8, 16}) {
            PrototypeSpec spec = hydraMSpec();
            spec.mapping.maxChunksPerCard = chunks;
            InferenceRunner runner(spec);
            InferenceResult res =
                runner.runPlan(*runner.planFor(makeResNet18()));
            t.addRow({std::to_string(chunks), fmtF(res.seconds(), 3),
                      fmtPct(res.commFraction(), 2)});
        }
        t.print();
    }

    // --- B. fused preloading vs per-step barriers ----------------------
    {
        TextTable t("\nB. per-step barriers vs fused task queues "
                    "(Section IV-D)");
        t.header({"workload", "machine", "stepwise (s)", "fused (s)",
                  "gain"});
        for (const auto& wl : {makeResNet18(), makeBertBase()}) {
            for (auto spec : {hydraMSpec(), hydraLSpec()}) {
                InferenceRunner runner(spec);
                double stepwise =
                    runner.runPlan(*runner.planFor(wl)).seconds();
                // The fused unit's own makespan: one program, no
                // per-step barrier.
                double fused = ticksToSeconds(
                    runner.runPlan(*runner.fusePlan(*runner.planFor(wl)))
                        .steps.front()
                        .stats.makespan);
                t.addRow({wl.name, spec.name, fmtF(stepwise, 2),
                          fmtF(fused, 2), fmtX(stepwise / fused, 2)});
            }
        }
        t.print();
    }

    // --- C. DFT plan quality -------------------------------------------
    {
        TextTable t("\nC. Eq. 1-optimal vs naive DFT plans "
                    "(logSlots 15, limbs 18)");
        t.header({"cards", "optimal plan", "opt (ms)", "naive (ms)",
                  "gain"});
        OpCostModel cost(FpgaParams{}, size_t{1} << 16, 4);
        for (size_t cards : {1, 8, 64}) {
            ClusterConfig cfg{cards <= 8 ? 1 : cards / 8,
                              cards <= 8 ? cards : 8};
            SwitchedNetwork net(NetParams{}, cfg);
            DftOpTimes times = DftOpTimes::fromCostModel(cost, net, 18);
            DftPlan opt = optimizeDftPlan(3, 15, cards, times);
            DftPlan naive;
            naive.levels = {{32, 32}, {32, 32}, {32, 32}}; // bs = gs
            double t_opt = dftTime(opt, cards, times) * 1e3;
            double t_naive = dftTime(naive, cards, times) * 1e3;
            t.addRow({std::to_string(cards), opt.describe(),
                      fmtF(t_opt, 2), fmtF(t_naive, 2),
                      fmtX(t_naive / t_opt, 2)});
        }
        t.print();
    }

    // --- D. radix vs multiplication depth ------------------------------
    {
        TextTable t("\nD. DFT level count: larger radices consume less "
                    "depth but cost more time (Section III-B trade-off)");
        t.header({"levels (depth)", "plan (8 cards)", "time (ms)"});
        OpCostModel cost(FpgaParams{}, size_t{1} << 16, 4);
        SwitchedNetwork net(NetParams{}, hydraM());
        DftOpTimes times = DftOpTimes::fromCostModel(cost, net, 18);
        for (size_t levels : {2, 3, 4, 5}) {
            DftPlan plan = optimizeDftPlan(levels, 15, 8, times);
            t.addRow({std::to_string(levels), plan.describe(),
                      fmtF(dftTime(plan, 8, times) * 1e3, 2)});
        }
        t.print();
        std::printf("\nReading: two levels (radices up to 256) save one\n"
                    "modulus-chain level for the rest of the pipeline,\n"
                    "at a higher DFT cost -- Table V fixes depth = 3.\n");
    }
    return 0;
}
