/**
 * @file
 * Google-benchmark microbenchmarks of the architecture model: per-op
 * modelled latencies across levels, DFT plan optimization, and program
 * mapping + simulation throughput.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"

#include "baselines/prototypes.hh"
#include "model/dft_model.hh"
#include "sched/mapping.hh"
#include "sync/executor.hh"

namespace hydra {
namespace {

const FpgaParams kFpga{};

void
BM_OpCostRotate(benchmark::State& state)
{
    OpCostModel m(kFpga, size_t{1} << 16, 4);
    size_t limbs = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.opLatency(HeOpType::Rotate, limbs));
    }
    state.counters["modelled_us"] =
        ticksToSeconds(m.opLatency(HeOpType::Rotate, limbs)) * 1e6;
}
BENCHMARK(BM_OpCostRotate)->Arg(4)->Arg(12)->Arg(24);

void
BM_OpCostCMult(benchmark::State& state)
{
    OpCostModel m(kFpga, size_t{1} << 16, 4);
    size_t limbs = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.opLatency(HeOpType::CMult, limbs));
    }
    state.counters["modelled_us"] =
        ticksToSeconds(m.opLatency(HeOpType::CMult, limbs)) * 1e6;
}
BENCHMARK(BM_OpCostCMult)->Arg(4)->Arg(12)->Arg(24);

void
BM_DftPlanOptimize(benchmark::State& state)
{
    OpCostModel m(kFpga, size_t{1} << 16, 4);
    SwitchedNetwork net(NetParams{}, hydraL());
    DftOpTimes t = DftOpTimes::fromCostModel(m, net, 18);
    size_t cards = static_cast<size_t>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(optimizeDftPlan(3, 15, cards, t));
    }
}
BENCHMARK(BM_DftPlanOptimize)->Arg(1)->Arg(8)->Arg(64);

void
BM_MapAndSimulateConvStep(benchmark::State& state)
{
    size_t cards = static_cast<size_t>(state.range(0));
    PrototypeSpec spec = hydraPrototype(
        "bench", cards <= 8 ? 1 : cards / 8, cards <= 8 ? cards : 8);
    OpCostModel cost(spec.fpga, size_t{1} << 16, spec.dnum);
    auto net = spec.makeNetwork();
    StepMapper mapper(cost, *net, cards, 15);
    ClusterExecutor ex(spec.cluster, *net);
    Step step{ProcKind::ConvBN, "conv", 1024, convBnMix(), 12,
              AggKind::BroadcastEach, 0, 1.0, 32};
    for (auto _ : state) {
        Program prog = mapper.mapStep(step);
        RunStats stats = ex.run(prog);
        benchmark::DoNotOptimize(stats.makespan);
    }
}
BENCHMARK(BM_MapAndSimulateConvStep)->Arg(1)->Arg(8)->Arg(64);

void
BM_FullInference(benchmark::State& state)
{
    PrototypeSpec spec = hydraMSpec();
    InferenceRunner runner(spec);
    WorkloadModel wl = makeResNet18();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runner.runPlan(*runner.planFor(wl)).total.makespan);
    }
}
BENCHMARK(BM_FullInference);

} // namespace
} // namespace hydra

HYDRA_BENCH_MAIN("micro_ops");
