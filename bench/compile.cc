/**
 * @file
 * Google-benchmark harness for the schedule compiler (map -> optimize
 * -> cache): per-stage wall time over a whole workload's
 * steps, plus the ProgramCache's cold/warm cost split.  Counters
 * export compiled-program shape (tasks, messages) and cache hit rate,
 * so `--json` snapshots (BENCH_compile.json) track compilation cost
 * and reuse across PRs.
 *
 * Cases:
 *   BM_MapM               StepMapper::mapStep over resnet18 on hydra-m:
 *                         decomposition and pricing
 *   BM_Optimize/<m>-<wl>  optimizeProgram at Aggressive (all passes)
 *   BM_CompileCold        compileSteps under unitCacheKey, one step per
 *                         unit, cache cleared every iteration
 *   BM_CompileWarm        the same through a warm ProgramCache
 *   BM_CompileEvict       the same under a tiny LRU cap: every compile
 *                         misses and evicts (thrash cost)
 *   BM_GraphCompile/<wl>  planFor(graph, Aggressive) over a registry
 *                         model (cross-step passes + unit compile)
 *   BM_NetMakespan/<wl>   graph runner end to end; counters export the
 *                         Safe vs Aggressive makespans (the cross-step
 *                         passes' modeled win, tracked across PRs)
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "baselines/prototypes.hh"
#include "bench_util.hh"
#include "sched/execplan.hh"
#include "sched/progcache.hh"

namespace hydra {
namespace {

/** Everything a compile bench needs for one (machine, workload). */
struct CompileSetup
{
    PrototypeSpec spec;
    WorkloadModel wl;
    OpCostModel cost;
    std::unique_ptr<NetworkModel> net;
    /** The workload as one-step units (the Safe plan's partition). */
    std::vector<std::vector<Step>> units;

    CompileSetup(PrototypeSpec s, const char* workload)
        : spec(std::move(s)), wl(workloadByName(workload)),
          cost(spec.fpga, size_t{1} << 16, spec.dnum),
          net(spec.makeNetwork())
    {
        for (const auto& step : wl.steps)
            units.push_back({step});
    }

    StepMapper
    mapper() const
    {
        return StepMapper(cost, *net, spec.cluster.totalCards(),
                          wl.logSlots, spec.mapping);
    }
};

void
BM_Optimize(benchmark::State& state, const char* machine,
            const char* workload)
{
    CompileSetup s(machineByName(machine), workload);
    StepMapper mapper = s.mapper();
    std::vector<Program> programs;
    for (const auto& step : s.wl.steps)
        programs.push_back(mapper.mapStep(step));
    uint64_t changes = 0;
    for (auto _ : state) {
        changes = 0;
        for (const auto& prog : programs) {
            OptReport report;
            Program opt = optimizeProgram(prog, OptLevel::Aggressive,
                                          s.net->overlapsCompute(),
                                          &report);
            changes += report.totalChanges();
            benchmark::DoNotOptimize(opt.cards);
        }
    }
    state.counters["pass_changes"] = static_cast<double>(changes);
}

/** Full pipeline through the cache; `warm` keeps entries across
 *  iterations (steady-state serving), cold clears them (first job). */
void
compileCached(benchmark::State& state, const char* machine,
              const char* workload, bool warm)
{
    CompileSetup s(machineByName(machine), workload);
    ProgramCache& cache = ProgramCache::global();
    auto compileAll = [&] {
        for (const auto& unit : s.units) {
            std::string key =
                unitCacheKey(s.spec, s.spec.cluster, s.spec.cluster,
                             s.cost.n(), s.wl.logSlots, unit);
            auto compiled = cache.getOrCompile(key, [&] {
                return compileSteps(s.cost, *s.net,
                                    s.spec.cluster.totalCards(),
                                    s.wl.logSlots, s.spec.mapping, unit);
            });
            benchmark::DoNotOptimize(compiled.get());
        }
    };
    if (warm)
        compileAll();
    ProgramCache::Stats before = cache.stats();
    for (auto _ : state) {
        if (!warm) {
            state.PauseTiming();
            cache.clear();
            state.ResumeTiming();
        }
        compileAll();
    }
    ProgramCache::Stats after = cache.stats();
    uint64_t hits = after.hits - before.hits;
    uint64_t misses = after.misses - before.misses;
    state.counters["cache_hits"] = static_cast<double>(hits);
    state.counters["cache_misses"] = static_cast<double>(misses);
    state.counters["cache_hit_rate"] =
        hits + misses ? static_cast<double>(hits) /
                            static_cast<double>(hits + misses)
                      : 0.0;
    state.counters["cache_evictions"] =
        static_cast<double>(after.evictions - before.evictions);
}

/** Warm-style loop under an LRU cap smaller than the working set:
 *  every compile misses and evicts — the cache-thrash floor. */
void
BM_CompileEvict(benchmark::State& state)
{
    CompileSetup s(machineByName("hydra-m"), "resnet18");
    ProgramCache cache; // local: don't poison the global cache
    cache.setCapacity(2);
    for (auto _ : state) {
        for (const auto& unit : s.units) {
            std::string key =
                unitCacheKey(s.spec, s.spec.cluster, s.spec.cluster,
                             s.cost.n(), s.wl.logSlots, unit);
            auto compiled = cache.getOrCompile(key, [&] {
                return compileSteps(s.cost, *s.net,
                                    s.spec.cluster.totalCards(),
                                    s.wl.logSlots, s.spec.mapping, unit);
            });
            benchmark::DoNotOptimize(compiled.get());
        }
    }
    ProgramCache::Stats st = cache.stats();
    state.counters["cache_evictions"] = static_cast<double>(st.evictions);
    state.counters["cache_hit_rate"] = st.hitRate();
}
BENCHMARK(BM_CompileEvict)->Unit(benchmark::kMicrosecond);

/** Network compiler over a registry workload: cross-step
 *  passes plus per-unit compilation (cache cleared per iteration). */
void
BM_GraphCompile(benchmark::State& state, const char* machine,
                const char* model)
{
    InferenceRunner runner(machineByName(machine));
    NetworkGraph graph = NetworkGraph::fromModel(workloadByName(model));
    uint64_t units = 0, changes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        ProgramCache::global().clear();
        state.ResumeTiming();
        std::shared_ptr<const ExecPlan> plan =
            runner.planFor(graph, OptLevel::Aggressive);
        units = plan->size();
        changes = plan->report.totalChanges();
        benchmark::DoNotOptimize(plan->units.data());
    }
    state.counters["layers"] = static_cast<double>(graph.nodes.size());
    state.counters["units"] = static_cast<double>(units);
    state.counters["pass_changes"] = static_cast<double>(changes);
}

/** Graph runner end to end; exports the Safe and Aggressive makespans
 *  so BENCH_compile.json records the cross-step passes' win. */
void
BM_NetMakespan(benchmark::State& state, const char* machine,
               const char* model)
{
    InferenceRunner runner(machineByName(machine));
    NetworkGraph graph = NetworkGraph::fromModel(workloadByName(model));
    Tick safe = 0, aggressive = 0;
    for (auto _ : state) {
        safe = runner.runPlan(*runner.planFor(graph, OptLevel::Safe))
                   .total.makespan;
        aggressive =
            runner.runPlan(*runner.planFor(graph, OptLevel::Aggressive))
                .total.makespan;
        benchmark::DoNotOptimize(safe);
        benchmark::DoNotOptimize(aggressive);
    }
    state.counters["makespan_safe_s"] = ticksToSeconds(safe);
    state.counters["makespan_aggressive_s"] = ticksToSeconds(aggressive);
    state.counters["speedup"] =
        aggressive ? static_cast<double>(safe) /
                         static_cast<double>(aggressive)
                   : 0.0;
}

void
BM_MapM(benchmark::State& state)
{
    CompileSetup s(machineByName("hydra-m"), "resnet18");
    StepMapper mapper = s.mapper();
    uint64_t tasks = 0;
    for (auto _ : state) {
        tasks = 0;
        for (const auto& step : s.wl.steps) {
            Program prog = mapper.mapStep(step);
            tasks += countProgram(prog).computeTasks;
            benchmark::DoNotOptimize(prog.cards.data());
        }
    }
    state.counters["steps"] = static_cast<double>(s.wl.steps.size());
    state.counters["compute_tasks"] = static_cast<double>(tasks);
}
BENCHMARK(BM_MapM)->Unit(benchmark::kMicrosecond);

void
BM_OptimizeM(benchmark::State& state)
{
    BM_Optimize(state, "hydra-m", "resnet18");
}
BENCHMARK(BM_OptimizeM)->Unit(benchmark::kMicrosecond);

void
BM_CompileCold(benchmark::State& state)
{
    compileCached(state, "hydra-m", "resnet18", false);
}
BENCHMARK(BM_CompileCold)->Unit(benchmark::kMicrosecond);

void
BM_CompileWarm(benchmark::State& state)
{
    compileCached(state, "hydra-m", "resnet18", true);
}
BENCHMARK(BM_CompileWarm)->Unit(benchmark::kMicrosecond);

void
BM_GraphCompileResNet50(benchmark::State& state)
{
    BM_GraphCompile(state, "hydra-m", "resnet50");
}
BENCHMARK(BM_GraphCompileResNet50)->Unit(benchmark::kMicrosecond);

void
BM_GraphCompileBert(benchmark::State& state)
{
    BM_GraphCompile(state, "hydra-m", "bert");
}
BENCHMARK(BM_GraphCompileBert)->Unit(benchmark::kMicrosecond);

void
BM_NetMakespanResNet50(benchmark::State& state)
{
    BM_NetMakespan(state, "hydra-m", "resnet50");
}
BENCHMARK(BM_NetMakespanResNet50)->Unit(benchmark::kMillisecond);

void
BM_NetMakespanBert(benchmark::State& state)
{
    BM_NetMakespan(state, "hydra-m", "bert");
}
BENCHMARK(BM_NetMakespanBert)->Unit(benchmark::kMillisecond);

void
BM_NetMakespanOpt(benchmark::State& state)
{
    BM_NetMakespan(state, "fab-m", "opt");
}
BENCHMARK(BM_NetMakespanOpt)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace hydra

HYDRA_BENCH_MAIN("compile")
