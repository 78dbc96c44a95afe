/**
 * @file
 * Secure LLM inference: BERT-base and OPT-6.7B on Hydra-M and Hydra-L,
 * with the attention/FFN matmul mapping statistics the paper's
 * Section III-A describes (PCMM/CCMM spreading + tree reduction).
 */

#include <cstdio>

#include "baselines/prototypes.hh"
#include "common/table.hh"

using namespace hydra;

int
main()
{
    for (const WorkloadModel& wl : {makeBertBase(), makeOpt67B()}) {
        std::printf("\n##### %s #####\n", wl.name.c_str());
        auto [pcmm_lo, pcmm_hi] = wl.parallelismRange(ProcKind::PCMM);
        auto [ccmm_lo, ccmm_hi] = wl.parallelismRange(ProcKind::CCMM);
        std::printf("PCMM parallelism %zu..%zu, CCMM %zu..%zu, "
                    "%zu bootstrap steps\n",
                    pcmm_lo, pcmm_hi, ccmm_lo, ccmm_hi,
                    wl.stepCount(ProcKind::Bootstrap));

        TextTable t;
        t.header({"machine", "total (s)", "PCMM (s)", "CCMM (s)",
                  "NonLin (s)", "Boot (s)", "comm%"});
        for (auto spec : {hydraSSpec(), hydraMSpec(), hydraLSpec()}) {
            InferenceRunner runner(spec);
            InferenceResult res = runner.runPlan(*runner.planFor(wl));
            t.addRow({spec.name, fmtF(res.seconds(), 2),
                      fmtF(ticksToSeconds(res.procTime(ProcKind::PCMM)),
                           2),
                      fmtF(ticksToSeconds(res.procTime(ProcKind::CCMM)),
                           2),
                      fmtF(ticksToSeconds(
                               res.procTime(ProcKind::NonLinear)),
                           2),
                      fmtF(ticksToSeconds(
                               res.procTime(ProcKind::Bootstrap)),
                           2),
                      fmtPct(res.commFraction(), 2)});
        }
        t.print();
    }

    // Attention-layer anatomy on Hydra-M: one BERT layer's steps.
    std::printf("\nOne BERT-base encoder layer on Hydra-M:\n");
    InferenceRunner runner(hydraMSpec());
    WorkloadModel wl = makeBertBase();
    WorkloadModel layer0;
    layer0.name = "layer0";
    layer0.logSlots = wl.logSlots;
    layer0.maxLimbs = wl.maxLimbs;
    for (const auto& s : wl.steps)
        if (s.name.rfind("l0_", 0) == 0)
            layer0.steps.push_back(s);
    InferenceResult res = runner.runPlan(*runner.planFor(layer0));
    for (const auto& s : res.steps)
        std::printf("  %-14s %-10s %9.4f s  (comm overhead %5.1f%%)\n",
                    s.name.c_str(), procName(s.kind),
                    ticksToSeconds(s.stats.makespan),
                    s.stats.makespan
                        ? 100.0 *
                              static_cast<double>(s.stats.commOverhead()) /
                              static_cast<double>(s.stats.makespan)
                        : 0.0);
    return 0;
}
