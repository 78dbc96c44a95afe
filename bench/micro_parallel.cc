/**
 * @file
 * Thread-scaling microbenchmarks for the parallel RNS execution layer:
 * mulRelin, rotate and a full-limb NTT at the acceptance configuration
 * N = 2^14 with 12 limbs, swept across HYDRA_THREADS in {1, 2, 4, 8}
 * via ThreadPool::setThreadCount, plus the bare parallelFor dispatch
 * cost.  Run with --benchmark_filter=Small for a quick laptop-scale
 * sweep at N = 2^12.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "common/parallel.hh"
#include "fhe/encryptor.hh"
#include "fhe/evaluator.hh"
#include "fhe/keygen.hh"
#include "math/primes.hh"

namespace hydra {
namespace {

/** Keys plus one encrypted operand for a given (n, levels). */
struct ParallelFixture
{
    explicit ParallelFixture(const CkksParams& p)
        : ctx(p),
          encoder(ctx),
          keygen(ctx),
          sk(keygen.secretKey()),
          pk(keygen.publicKey(sk)),
          relin(keygen.relinKey(sk)),
          galois(keygen.galoisKeys(sk, {1}, false)),
          encryptor(ctx, pk),
          eval(ctx, encoder)
    {
        eval.setRelinKey(&relin);
        eval.setGaloisKeys(&galois);
        std::vector<double> v(ctx.slots(), 0.5);
        ct = encryptor.encrypt(
            encoder.encode(v, ctx.params().scale(), ctx.levels()));
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    SecretKey sk;
    PublicKey pk;
    EvalKey relin;
    GaloisKeys galois;
    Encryptor encryptor;
    Evaluator eval;
    Ciphertext ct;
};

CkksParams
acceptanceParams()
{
    // The ISSUE acceptance point: N = 2^14, 12 RNS limbs.
    CkksParams p;
    p.n = 1 << 14;
    p.levels = 12;
    return p;
}

CkksParams
smallParams()
{
    CkksParams p;
    p.n = 1 << 12;
    p.levels = 8;
    return p;
}

ParallelFixture&
fixture()
{
    static ParallelFixture f(acceptanceParams());
    return f;
}

ParallelFixture&
smallFixture()
{
    static ParallelFixture f(smallParams());
    return f;
}

void
runMulRelin(benchmark::State& state, ParallelFixture& f)
{
    ThreadPool::instance().setThreadCount(
        static_cast<size_t>(state.range(0)));
    bench::PoolCounterScope pool(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.eval.mulRelin(f.ct, f.ct));
    ThreadPool::instance().setThreadCount(1);
}

void
runRotate(benchmark::State& state, ParallelFixture& f)
{
    ThreadPool::instance().setThreadCount(
        static_cast<size_t>(state.range(0)));
    bench::PoolCounterScope pool(state);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.eval.rotate(f.ct, 1));
    ThreadPool::instance().setThreadCount(1);
}

void
runNttAllLimbs(benchmark::State& state, ParallelFixture& f)
{
    ThreadPool::instance().setThreadCount(
        static_cast<size_t>(state.range(0)));
    RnsPoly p = f.ct.c0;
    for (auto _ : state) {
        p.fromNtt();
        p.toNtt();
        benchmark::DoNotOptimize(p.limb(0).data());
    }
    ThreadPool::instance().setThreadCount(1);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                            static_cast<int64_t>(p.limbCount()));
}

void
BM_MulRelin(benchmark::State& state)
{
    runMulRelin(state, fixture());
}
BENCHMARK(BM_MulRelin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_Rotate(benchmark::State& state)
{
    runRotate(state, fixture());
}
BENCHMARK(BM_Rotate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_NttAllLimbs(benchmark::State& state)
{
    runNttAllLimbs(state, fixture());
}
BENCHMARK(BM_NttAllLimbs)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_SmallMulRelin(benchmark::State& state)
{
    runMulRelin(state, smallFixture());
}
BENCHMARK(BM_SmallMulRelin)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_SmallRotate(benchmark::State& state)
{
    runRotate(state, smallFixture());
}
BENCHMARK(BM_SmallRotate)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/**
 * One parallelFor over 16 near-empty indices: the pure dispatch and
 * join cost that every limb-parallel RnsPoly op pays.
 */
void
BM_ParallelForDispatch(benchmark::State& state)
{
    ThreadPool::instance().setThreadCount(
        static_cast<size_t>(state.range(0)));
    std::vector<std::uint64_t> slots(16 * 8, 0);
    for (auto _ : state) {
        parallelFor(0, 16, [&](size_t i) { slots[i * 8] += 1; });
        benchmark::ClobberMemory();
    }
    ThreadPool::instance().setThreadCount(1);
}
BENCHMARK(BM_ParallelForDispatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace hydra

HYDRA_BENCH_MAIN("micro_parallel");
