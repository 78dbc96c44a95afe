/**
 * @file
 * Shared helpers for the table/figure reproduction benches.
 */

#ifndef HYDRA_BENCH_BENCH_UTIL_HH
#define HYDRA_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "baselines/prototypes.hh"
#include "common/table.hh"
#include "sched/runner.hh"
#include "workloads/model.hh"

namespace hydra::bench {

/** Run one machine over the four benchmarks; returns seconds per. */
inline std::vector<double>
runAllBenchmarks(const PrototypeSpec& spec)
{
    InferenceRunner runner(spec);
    std::vector<double> out;
    for (const auto& wl : allBenchmarks())
        out.push_back(runner.runPlan(*runner.planFor(wl)).seconds());
    return out;
}

inline void
printHeaderBlock(const std::string& title)
{
    std::printf("\n================================================\n"
                "%s\n"
                "================================================\n",
                title.c_str());
}

} // namespace hydra::bench

#endif // HYDRA_BENCH_BENCH_UTIL_HH
