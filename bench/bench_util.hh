/**
 * @file
 * Shared helpers for the table/figure reproduction benches, plus the
 * machine-readable JSON harness used by the google-benchmark micro
 * benches (micro_ckks / micro_ops / micro_parallel).
 *
 * Every micro bench accepts `--json <path>` (in addition to the usual
 * google-benchmark flags) and then appends one record per benchmark
 * case to `path`:
 *
 *   {"bench": "...", "case": "...", "wall_us": ..., "allocs": ...,
 *    "pool_hits": ..., "simd_level": "...", "repetitions": ...}
 *
 * wall_us is per-iteration wall time; allocs / pool_hits are
 * per-iteration BufferPool miss / hit counts captured by wrapping the
 * measurement loop in a PoolCounterScope.  simd_level records the
 * kernel dispatch level the run executed with (scalar/avx2/avx512) so
 * snapshots from different levels are never compared blind.  Any
 * further counter a bench sets in state.counters (e.g. the serving
 * bench's throughput_rps and latency percentiles) is passed through as
 * an extra field of the same name.  BENCH_micro.json /
 * BENCH_serving.json at the repo root are the checked-in snapshots
 * tracking the perf trajectory across PRs.
 *
 * `--min-of <N>` runs the whole suite N times and keeps, per case, the
 * record with the smallest wall_us (repetitions = N in the output).
 * Minimum-of-N is the standard estimator for run-to-run noise that is
 * strictly additive -- scheduler preemption, frequency ramps, pool
 * warm-up -- which is exactly what the thread-count sweeps in
 * micro_parallel are exposed to.
 */

#ifndef HYDRA_BENCH_BENCH_UTIL_HH
#define HYDRA_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "baselines/prototypes.hh"
#include "common/cpu.hh"
#include "common/pool.hh"
#include "common/table.hh"
#include "math/simd/simd.hh"
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

/**
 * Attach per-iteration BufferPool counters to a benchmark case: declare
 * one inside the benchmark function, before the `for (auto _ : state)`
 * loop; on scope exit it stores the averaged miss ("allocs") and hit
 * ("pool_hits") counts into state.counters.
 */
class PoolCounterScope
{
  public:
    explicit PoolCounterScope(benchmark::State& state)
        : state_(state), before_(BufferPool::global().stats())
    {
    }

    ~PoolCounterScope()
    {
        BufferPool::Stats after = BufferPool::global().stats();
        double iters =
            static_cast<double>(state_.iterations() > 0
                                    ? state_.iterations()
                                    : 1);
        state_.counters["allocs"] = static_cast<double>(
            after.misses - before_.misses) / iters;
        state_.counters["pool_hits"] = static_cast<double>(
            after.hits - before_.hits) / iters;
    }

  private:
    benchmark::State& state_;
    BufferPool::Stats before_;
};

/**
 * Strip `--json <path>` / `--json=<path>` from argv before the
 * remaining flags reach google-benchmark.  Returns the path, or ""
 * when the flag is absent.
 */
inline std::string
extractJsonFlag(int& argc, char** argv)
{
    std::string path;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            path = argv[++i];
        } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
            path = argv[i] + 7;
        } else {
            argv[w++] = argv[i];
        }
    }
    argc = w;
    return path;
}

/**
 * Strip `--min-of <N>` / `--min-of=<N>` from argv.  Returns N, or 1
 * when the flag is absent or unparseable.
 */
inline int
extractMinOfFlag(int& argc, char** argv)
{
    long reps = 1;
    int w = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--min-of") == 0 && i + 1 < argc) {
            reps = std::strtol(argv[++i], nullptr, 10);
        } else if (std::strncmp(argv[i], "--min-of=", 9) == 0) {
            reps = std::strtol(argv[i] + 9, nullptr, 10);
        } else {
            argv[w++] = argv[i];
        }
    }
    argc = w;
    return reps > 1 ? static_cast<int>(reps) : 1;
}

/**
 * Secondary reporter emitting one JSON record per benchmark case.  The
 * records accumulate in memory and are written as a JSON array when
 * the run finalizes.  Under --min-of, the suite reports into the same
 * instance several times and each case keeps the repetition with the
 * smallest wall_us; Finalize() then writes once, in first-seen order.
 */
class JsonLinesReporter : public benchmark::BenchmarkReporter
{
  public:
    JsonLinesReporter(std::string bench, std::string path,
                      int repetitions = 1)
        : bench_(std::move(bench)),
          path_(std::move(path)),
          repetitions_(repetitions)
    {
    }

    bool
    ReportContext(const Context&) override
    {
        return true;
    }

    void
    ReportRuns(const std::vector<Run>& runs) override
    {
        for (const Run& run : runs) {
            if (run.error_occurred)
                continue;
            double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
            double wall_us =
                run.real_accumulated_time / iters * 1e6;
            double allocs = counterOr(run, "allocs", 0.0);
            double hits = counterOr(run, "pool_hits", 0.0);
            char line[512];
            std::snprintf(line, sizeof(line),
                          "{\"bench\": \"%s\", \"case\": \"%s\", "
                          "\"wall_us\": %.3f, \"allocs\": %.2f, "
                          "\"pool_hits\": %.2f, \"simd_level\": "
                          "\"%s\", \"repetitions\": %d",
                          bench_.c_str(), run.benchmark_name().c_str(),
                          wall_us, allocs, hits,
                          simdLevelName(simd::activeLevel()),
                          repetitions_);
            std::string record(line);
            // Every other user counter passes through by name, so
            // benches can export domain metrics (throughput, latency
            // percentiles) without touching the harness.
            for (const auto& [name, counter] : run.counters) {
                if (name == "allocs" || name == "pool_hits")
                    continue;
                std::snprintf(line, sizeof(line), ", \"%s\": %.3f",
                              name.c_str(),
                              static_cast<double>(counter.value));
                record += line;
            }
            record += "}";

            std::string key = run.benchmark_name();
            auto it = best_.find(key);
            if (it == best_.end()) {
                order_.push_back(key);
                best_.emplace(std::move(key),
                              Best{wall_us, std::move(record)});
            } else if (wall_us < it->second.wall_us) {
                it->second = Best{wall_us, std::move(record)};
            }
        }
    }

    void
    Finalize() override
    {
        std::ofstream out(path_);
        out << "[\n";
        for (size_t i = 0; i < order_.size(); ++i)
            out << best_.at(order_[i]).record
                << (i + 1 < order_.size() ? ",\n" : "\n");
        out << "]\n";
    }

  private:
    static double
    counterOr(const Run& run, const char* name, double fallback)
    {
        auto it = run.counters.find(name);
        return it != run.counters.end()
                   ? static_cast<double>(it->second.value)
                   : fallback;
    }

    struct Best
    {
        double wall_us;
        std::string record;
    };

    std::string bench_;
    std::string path_;
    int repetitions_;
    std::vector<std::string> order_;
    std::map<std::string, Best> best_;
};

/**
 * Display reporter that tees every run into a JsonLinesReporter while
 * keeping the normal console table.  Installed as the (single) display
 * reporter so no --benchmark_out flag is needed.
 */
class TeeJsonReporter : public benchmark::ConsoleReporter
{
  public:
    TeeJsonReporter(std::string bench, std::string path,
                    int repetitions = 1)
        : json_(std::move(bench), std::move(path), repetitions)
    {
    }

    bool
    ReportContext(const Context& context) override
    {
        json_.ReportContext(context);
        return benchmark::ConsoleReporter::ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run>& runs) override
    {
        json_.ReportRuns(runs);
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    void
    Finalize() override
    {
        json_.Finalize();
        benchmark::ConsoleReporter::Finalize();
    }

  private:
    JsonLinesReporter json_;
};

/**
 * main() for the micro benches: BENCHMARK_MAIN plus --json and
 * --min-of support.
 */
inline int
benchMain(const char* bench_name, int argc, char** argv)
{
    std::string json_path = extractJsonFlag(argc, argv);
    int reps = extractMinOfFlag(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    if (json_path.empty()) {
        for (int r = 0; r < reps; ++r)
            benchmark::RunSpecifiedBenchmarks();
    } else {
        TeeJsonReporter tee(bench_name, json_path, reps);
        for (int r = 0; r < reps; ++r)
            benchmark::RunSpecifiedBenchmarks(&tee);
    }
    benchmark::Shutdown();
    return 0;
}

} // namespace hydra::bench

#define HYDRA_BENCH_MAIN(bench_name)                                    \
    int main(int argc, char** argv)                                     \
    {                                                                   \
        return hydra::bench::benchMain(bench_name, argc, argv);         \
    }

#endif // HYDRA_BENCH_BENCH_UTIL_HH
