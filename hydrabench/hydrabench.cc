/**
 * @file
 * The repository benchmark: one process runs one workload, checks its
 * outputs and prints one JSON document on stdout with the run's stamp,
 * report notes, item counts and metrics.  run.py builds this binary,
 * pins HYDRA_THREADS and turns the document into the benchmark's
 * result line; README.md in this directory is the metric glossary.
 *
 *   hydrabench --workload W --seed N --seconds S --trace 0|1
 *              [--trace-out FILE] [--commit SHA] [--tiny] [--corrupt]
 *
 * Workloads (all closed loop: one caller issues the next item when the
 * previous one has finished):
 *   ckks_bootstrap  real bootstraps at CkksParams::bootstrapTest(), each
 *                   decrypted and checked against its input message;
 *   sim_matrix      planFor + runPlan over 7 machines x 5 workloads
 *                   (paper Table II), each with a cold ProgramCache;
 *   serve_cake      the gen_workload.py SLO shape under sched=cake.
 *
 * --trace 0 measures the end-to-end metrics untraced.  --trace 1 runs
 * half the time untraced and half traced (spans around each layer's
 * public calls, see tracer.hh), reports the per-layer metrics and the
 * tracing overhead, and writes the spans as Chrome trace JSON.
 * --tiny shrinks every workload for the self-test; --corrupt damages
 * the first item's output so the checks must fail it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "baselines/prototypes.hh"
#include "common/cpu.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/pool.hh"
#include "common/rng.hh"
#include "fhe/bootstrap.hh"
#include "fhe/encryptor.hh"
#include "fhe/keygen.hh"
#include "math/simd/simd.hh"
#include "sched/execplan.hh"
#include "sched/progcache.hh"
#include "serve/sim.hh"
#include "tracer.hh"

#ifndef HYDRABENCH_BUILD_TYPE
#define HYDRABENCH_BUILD_TYPE "unknown"
#endif

namespace hydrabench {
namespace {

using namespace hydra;
using Clock = std::chrono::steady_clock;
using Scope = Tracer::Scope;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, p in (0, 1]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** Peak resident set of this process (VmHWM), in MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    return "unknown";
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    std::string commit = "unknown";
    bool tiny = false;
    bool corrupt = false;
};

/** Everything one run reports. */
class Report
{
  public:
    void
    metric(const std::string& name, double value, const char* unit)
    {
        metrics_.push_back({name, value, unit});
    }

    void
    note(const std::string& line)
    {
        notes_.push_back(line);
        std::fprintf(stderr, "[hydrabench] %s\n", line.c_str());
    }

    /** Record one item's check; a failed check also notes why. */
    void
    item(bool ok, const std::string& why)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failed <= 5)
                note("check failed: " + why);
        }
    }

    /** A check on the run as a whole (determinism, bit-identity). */
    void
    check(bool ok, const std::string& what)
    {
        note(std::string(ok ? "check ok: " : "check FAILED: ") + what);
        runOk_ = runOk_ && ok;
    }

    bool correct() const { return runOk_ && failed == 0 && attempted > 0; }

    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, std::string>> stamp;

    void
    print() const
    {
        std::printf("{\"stamp\": {");
        for (size_t i = 0; i < stamp.size(); ++i)
            std::printf("%s\"%s\": \"%s\"", i ? ", " : "",
                        stamp[i].first.c_str(), stamp[i].second.c_str());
        std::printf("},\n \"notes\": [");
        for (size_t i = 0; i < notes_.size(); ++i)
            std::printf("%s\"%s\"", i ? ", " : "", escaped(notes_[i]).c_str());
        std::printf("],\n \"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu,\n \"metrics\": {",
                    correct() ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (size_t i = 0; i < metrics_.size(); ++i)
            std::printf("%s\n  \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? "," : "", metrics_[i].name.c_str(),
                        metrics_[i].value, metrics_[i].unit);
        std::printf("}}\n");
    }

  private:
    static std::string
    escaped(const std::string& s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    struct Metric
    {
        std::string name;
        double value;
        const char* unit;
    };

    std::vector<Metric> metrics_;
    std::vector<std::string> notes_;
    bool runOk_ = true;
};

/**
 * Set up `reps` times (at least 1, more while under `budget_s`) and
 * return the median wall time; the last set-up's product is kept.
 */
template <class T, class F>
double
timedSetup(std::unique_ptr<T>& out, F&& make, size_t min_reps,
           double budget_s)
{
    std::vector<double> t;
    Clock::time_point start = Clock::now();
    while (t.size() < min_reps ||
           (since(start) < budget_s && t.size() < 200)) {
        out.reset();
        Clock::time_point t0 = Clock::now();
        out = make();
        t.push_back(since(t0));
    }
    return median(t);
}

/**
 * Mean µs per call of `f`, as the median over 5 batches that together
 * take about `budget_s` (one warm-up call first).
 */
double
probeUs(const std::function<void()>& f, double budget_s)
{
    f();
    std::vector<double> per;
    for (int b = 0; b < 5; ++b) {
        Clock::time_point t0 = Clock::now();
        size_t n = 0;
        do {
            f();
            ++n;
        } while (since(t0) < budget_s / 5);
        per.push_back(since(t0) * 1e6 / static_cast<double>(n));
    }
    return median(per);
}

struct LayerMetric
{
    std::string name;
    const char* unit;
};

const char* const kSimMachines[] = {"hydra-s", "hydra-m", "hydra-l",
                                    "fab-s",   "fab-m",   "fab-l",
                                    "poseidon"};
const char* const kSimWorkloads[] = {"resnet18", "resnet50", "bert", "opt",
                                     "resnet20"};

/** Every per-layer metric, so each workload emits the full set; a
 *  layer the workload never calls reads 0. */
std::vector<LayerMetric>
layerMetrics()
{
    std::vector<LayerMetric> m = {
        {"common.pool_hits", "count"},
        {"common.pool_misses", "count"},
        {"math.ntt_fwd_us", "us"},
        {"fhe.mulrelin_us", "us"},
        {"fhe.rotate_us", "us"},
        {"fhe.rescale_us", "us"},
        {"fhe.rotate_hoisted8_us", "us"},
        {"fhe.boot_modraise_ms", "ms"},
        {"fhe.boot_c2s_ms", "ms"},
        {"fhe.boot_evalmod_ms", "ms"},
        {"fhe.boot_s2c_ms", "ms"},
        {"fhe.boot_ms", "ms"},
        {"fhe.keyswitches_per_boot", "count"},
        {"precision_bits", "bits"},
        {"sched.compile_ms", "ms"},
        {"sched.progcache_hits", "count"},
        {"sched.progcache_misses", "count"},
        {"sync.execute_ms", "ms"},
        {"sync.validate_ms", "ms"},
        {"sync.us_per_event", "us"},
        {"model_makespan_gmean_s", "sim_s"},
        {"sched.runjob_us.resnet20x2", "us"},
        {"sched.runjob_us.resnet18x4", "us"},
        {"serve.unit_execs", "count"},
        {"serve.jobcache_hits", "count"},
        {"serve.jobcache_misses", "count"},
        {"serve.runner_s_est", "s"},
        {"serve.engine_s_est", "s"},
        {"serve.popfor_us", "us"},
        {"serve.queue_depth_mean", "count"},
        {"serve.queue_wait_p99_s", "sim_s"},
        {"serve.service_p50_s", "sim_s"},
        {"serve.preemptions", "count"},
        {"serve.steals", "count"},
        {"serve.kicks", "count"},
        {"model_p99_s", "sim_s"},
        {"model_throughput_rps", "req/sim_s"},
        {"model_shed_rate", "ratio"},
        {"trace.overhead_pct", "%"},
    };
    for (const char* mach : kSimMachines)
        m.push_back({std::string("sync.execute_ms.") + mach, "ms"});
    return m;
}

/** Per-layer values of one traced run; unset layers report 0. */
class LayerValues
{
  public:
    void set(const std::string& name, double v) { v_[name] = v; }

    void
    emit(Report& r) const
    {
        for (const LayerMetric& m : layerMetrics()) {
            auto it = v_.find(m.name);
            r.metric(m.name, it == v_.end() ? 0.0 : it->second, m.unit);
        }
    }

  private:
    std::map<std::string, double> v_;
};

/**
 * The end-to-end metrics every workload reports untraced.
 *
 * `unit_s` holds, for each distinct unit of work the workload repeats
 * (the bootstrap; each of the 35 machine x model inferences; the serve
 * run), its wall times in seconds over the run's repetitions, and one
 * unit completes `items_per_unit` items.  Host noise comes as slow
 * spells while neighbouring load runs, so a unit's time is its fast
 * decile (p10) over the repetitions.  latency_ms is the median over
 * units of that time per item; throughput_per_s is the items of all
 * units over the sum of their times.  The plain median and p90 of
 * `item_ms` go to the report with their sample counts.
 */
void
emitEndToEnd(Report& r, double setup_s,
             const std::vector<std::vector<double>>& unit_s,
             double items_per_unit, const std::vector<double>& item_ms)
{
    std::vector<double> per_item_ms;
    double sum_s = 0.0;
    for (const std::vector<double>& reps : unit_s) {
        double fast = percentile(reps, 0.1);
        sum_s += fast;
        per_item_ms.push_back(fast * 1e3 / items_per_unit);
    }
    double items = items_per_unit * static_cast<double>(unit_s.size());
    r.metric("setup_s", setup_s, "s");
    r.metric("throughput_per_s", items / sum_s, "1/s");
    r.metric("latency_ms", median(per_item_ms), "ms");
    r.metric("peak_rss_mb", peakRssMb(), "MB");
    r.note(strf("%zu distinct units x %zu repetitions (fast decile per "
                "unit)",
                unit_s.size(), unit_s.front().size()));
    r.note(strf("latency_ms_p50 = %.6g ms over %zu samples",
                median(item_ms), item_ms.size()));
    if (item_ms.size() >= 100)
        r.note(strf("latency_ms_p90 = %.6g ms over %zu samples",
                    percentile(item_ms, 0.9), item_ms.size()));
    else
        r.note(strf("latency_ms_p90 not reported: %zu samples < 100",
                    item_ms.size()));
}

/** Tracing overhead: traced minus untraced wall time per item. */
void
setOverhead(LayerValues& lv, Report& r, double untraced_per_item,
            double traced_per_item)
{
    double pct = untraced_per_item > 0
                     ? (traced_per_item - untraced_per_item) /
                           untraced_per_item * 100.0
                     : 0.0;
    lv.set("trace.overhead_pct", pct);
    r.note(strf("tracing overhead %+.2f%% (%.4f ms traced vs %.4f ms "
                "untraced per item)",
                pct, traced_per_item * 1e3, untraced_per_item * 1e3));
}

// ---------------------------------------------------------------- CKKS

/** Inputs must come back within this absolute error (the bootstrap
 *  unit tests' bound). */
constexpr double kBootErrorBound = 2e-3;
constexpr double kMessageAmplitude = 0.01;
/** precision_bits covers the run's first items only, so it does not
 *  depend on how many items fit in the run. */
constexpr uint64_t kPrecisionItems = 4;
constexpr uint64_t kMessageSalt = 0x6d657373616765ULL;

struct CkksRig
{
    CkksRig(const CkksParams& p, uint64_t seed)
        : ctx(p),
          encoder(ctx),
          keygen(ctx),
          sk(keygen.secretKey()),
          pk(keygen.publicKey(sk)),
          relin(keygen.relinKey(sk)),
          boot(ctx, encoder),
          galois(keygen.galoisKeys(sk, boot.requiredRotations())),
          encryptor(ctx, pk, seed),
          decryptor(ctx, sk),
          eval(ctx, encoder)
    {
        eval.setRelinKey(&relin);
        eval.setGaloisKeys(&galois);
    }

    CkksContext ctx;
    CkksEncoder encoder;
    KeyGenerator keygen;
    SecretKey sk;
    PublicKey pk;
    EvalKey relin;
    Bootstrapper boot;
    GaloisKeys galois;
    Encryptor encryptor;
    Decryptor decryptor;
    Evaluator eval;
};

std::vector<double>
message(uint64_t seed, uint64_t item, size_t slots)
{
    std::vector<double> v(slots);
    for (size_t j = 0; j < slots; ++j)
        v[j] = kMessageAmplitude *
               (2.0 * hashUnit(seed, item, j, kMessageSalt) - 1.0);
    return v;
}

double
maxError(const std::vector<double>& want, const std::vector<cplx>& got)
{
    double m = 0.0;
    for (size_t j = 0; j < want.size() && j < got.size(); ++j)
        m = std::max(m, std::abs(got[j] - cplx(want[j], 0.0)));
    return m;
}

bool
samePoly(const RnsPoly& a, const RnsPoly& b)
{
    if (!a.sameShape(b) || a.nttForm() != b.nttForm())
        return false;
    for (size_t k = 0; k < a.limbCount(); ++k)
        if (std::memcmp(a.limbData(k), b.limbData(k),
                        a.n() * sizeof(u64)) != 0)
            return false;
    return true;
}

bool
sameCiphertext(const Ciphertext& a, const Ciphertext& b)
{
    return a.scale == b.scale && samePoly(a.c0, b.c0) &&
           samePoly(a.c1, b.c1);
}

/** One bootstrap item: encrypt the item's message at level 1, refresh
 *  it, decrypt and check.  Traced items call the public stages one by
 *  one; untraced items call bootstrap(). */
struct CkksItem
{
    Ciphertext out;
    double error = 0.0;
    double bootSeconds = 0.0;
};

Ciphertext
encryptMessage(CkksRig& rig, const std::vector<double>& msg, size_t levels)
{
    return rig.encryptor.encrypt(
        rig.encoder.encode(msg, rig.ctx.params().scale(), levels));
}

/** `input`, when given, replaces the item's fresh encryption (the
 *  encryptor draws new randomness on every call). */
CkksItem
runCkksItem(CkksRig& rig, Tracer& tr, uint64_t seed, uint64_t item,
            bool corrupt, BufferPool::Stats* pool_delta = nullptr,
            const Ciphertext* input = nullptr)
{
    CkksItem res;
    Scope root(tr, "ckks.item", item);
    std::vector<double> msg = message(seed, item, rig.ctx.slots());
    Ciphertext ct;
    {
        Scope s(tr, "fhe.encrypt", item);
        ct = input ? *input : encryptMessage(rig, msg, 1);
    }
    BufferPool::Stats p0 = BufferPool::global().stats();
    Clock::time_point t0 = Clock::now();
    if (!tr.on()) {
        res.out = rig.boot.bootstrap(rig.eval, ct);
    } else {
        const Bootstrapper& b = rig.boot;
        double message_scale = ct.scale;
        Ciphertext raised, re, im, mre, mim;
        {
            Scope s(tr, "fhe.boot_modraise", item);
            raised = b.modRaise(ct);
        }
        {
            Scope s(tr, "fhe.boot_c2s", item);
            std::tie(re, im) = b.coeffToSlot(rig.eval, raised);
        }
        {
            Scope s(tr, "fhe.boot_evalmod", item);
            mre = b.evalMod(rig.eval, re, message_scale);
            mim = b.evalMod(rig.eval, im, message_scale);
        }
        {
            Scope s(tr, "fhe.boot_s2c", item);
            res.out = b.slotToCoeff(rig.eval, mre, mim);
        }
    }
    res.bootSeconds = since(t0);
    if (pool_delta) {
        BufferPool::Stats p1 = BufferPool::global().stats();
        pool_delta->hits += p1.hits - p0.hits;
        pool_delta->misses += p1.misses - p0.misses;
    }
    Scope s(tr, "fhe.decrypt_check", item);
    std::vector<cplx> got =
        rig.encoder.decode(rig.decryptor.decrypt(res.out));
    if (corrupt)
        got[0] += cplx(1.0, 0.0);
    res.error = maxError(msg, got);
    return res;
}

CkksParams
ckksParams(bool tiny)
{
    CkksParams p = CkksParams::bootstrapTest();
    if (tiny)
        p.n = 1 << 8;
    return p;
}

void
runCkksBootstrap(const Options& o, Report& r)
{
    CkksParams params = ckksParams(o.tiny);
    std::unique_ptr<CkksRig> rig;
    double setup_s = timedSetup(
        rig, [&] { return std::make_unique<CkksRig>(params, o.seed); }, 5,
        0.0);
    r.note(strf("ckks: n=%zu levels=%zu, %zu rotation keys, depth %zu",
                params.n, params.levels,
                rig->boot.requiredRotations().size(), rig->boot.depth()));

    // Warm-up item: fills the BufferPool buckets (not counted).
    {
        Tracer off(false);
        runCkksItem(*rig, off, o.seed, 0, false);
    }

    double untraced_s = o.trace ? o.seconds / 2 : o.seconds;
    std::vector<double> lat_ms, boot_ms;
    double max_err = 0.0;
    uint64_t item = 1;
    auto loop = [&](Tracer& tr, double budget, BufferPool::Stats* pool,
                    std::vector<double>& lat) {
        Clock::time_point start = Clock::now();
        do {
            Clock::time_point t0 = Clock::now();
            CkksItem it = runCkksItem(*rig, tr, o.seed, item,
                                      o.corrupt && item == 1, pool);
            lat.push_back(since(t0) * 1e3);
            if (!tr.on())
                boot_ms.push_back(it.bootSeconds * 1e3);
            if (item <= kPrecisionItems)
                max_err = std::max(max_err, it.error);
            r.item(it.error < kBootErrorBound,
                   strf("bootstrap item %llu error %.3g >= %.3g",
                        static_cast<unsigned long long>(item), it.error,
                        kBootErrorBound));
            ++item;
        } while (since(start) < budget || item <= kPrecisionItems);
    };

    Tracer off(false);
    loop(off, untraced_s, nullptr, lat_ms);
    double precision = max_err > 0 ? -std::log2(max_err) : 64.0;
    r.note(strf("precision_bits = %.3f bits (max error %.3g over the "
                "first %llu bootstraps)",
                precision, max_err,
                static_cast<unsigned long long>(kPrecisionItems)));
    r.note(strf("error_rate = %.4f", static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted)));

    if (!o.trace) {
        std::vector<double> lat_s;
        for (double ms : lat_ms)
            lat_s.push_back(ms * 1e-3);
        emitEndToEnd(r, setup_s, {lat_s}, 1.0, lat_ms);
        return;
    }

    Tracer tr(true);
    BufferPool::Stats pool;
    std::vector<double> traced_lat;
    size_t first_traced = item;
    loop(tr, o.seconds - untraced_s, &pool, traced_lat);
    size_t boots = traced_lat.size();

    LayerValues lv;
    setOverhead(lv, r, median(lat_ms) * 1e-3, median(traced_lat) * 1e-3);
    lv.set("precision_bits", precision);
    lv.set("fhe.boot_ms", median(boot_ms));
    lv.set("common.pool_hits",
           static_cast<double>(pool.hits) / static_cast<double>(boots));
    lv.set("common.pool_misses",
           static_cast<double>(pool.misses) / static_cast<double>(boots));
    double stage_sum = 0.0;
    for (const char* stage : {"fhe.boot_modraise", "fhe.boot_c2s",
                              "fhe.boot_evalmod", "fhe.boot_s2c"}) {
        std::vector<double> per;
        for (const auto& [id, ms] : tr.selfMsByItem(stage))
            per.push_back(ms);
        lv.set(std::string(stage) + "_ms", median(per));
        stage_sum += median(per);
    }
    r.note(strf("bootstrap stages sum to %.3f ms vs untraced bootstrap "
                "median %.3f ms (%+.2f%%)",
                stage_sum, median(boot_ms),
                (stage_sum / median(boot_ms) - 1.0) * 100.0));

    // The stage-by-stage result must be bit-identical to bootstrap().
    {
        Ciphertext ct = encryptMessage(
            *rig, message(o.seed, first_traced, rig->ctx.slots()), 1);
        Tracer quiet(true);
        CkksItem staged = runCkksItem(*rig, quiet, o.seed, first_traced,
                                      false, nullptr, &ct);
        Tracer none(false);
        CkksItem whole = runCkksItem(*rig, none, o.seed, first_traced,
                                     false, nullptr, &ct);
        r.check(sameCiphertext(staged.out, whole.out),
                "traced stage-by-stage bootstrap is bit-identical to "
                "bootstrap()");
    }

    // Exact keyswitch count of one bootstrap.
    {
        OpCounter counter;
        rig->eval.setCounter(&counter);
        rig->boot.bootstrap(
            rig->eval,
            encryptMessage(*rig, message(o.seed, 0, rig->ctx.slots()), 1));
        rig->eval.setCounter(nullptr);
        lv.set("fhe.keyswitches_per_boot",
               static_cast<double>(counter.count(HeOpType::KeySwitch)));
        r.note("ops per bootstrap: " + counter.summary());
    }

    // Single-op probes at bootstrap parameters, full level.
    double budget = o.tiny ? 0.02 : 0.25;
    const NttTable& ntt = rig->ctx.basis()->ntt(0);
    std::vector<u64> buf(rig->ctx.n());
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = (i * 2654435761u) % rig->ctx.basis()->mod(0).value();
    lv.set("math.ntt_fwd_us",
           probeUs([&] { ntt.forward(buf.data()); }, budget));
    Ciphertext ct = encryptMessage(
        *rig, message(o.seed, 0, rig->ctx.slots()), rig->ctx.levels());
    const Evaluator& ev = rig->eval;
    lv.set("fhe.mulrelin_us",
           probeUs([&] { ev.mulRelin(ct, ct); }, budget));
    std::vector<int> steps = rig->boot.requiredRotations();
    steps.erase(std::remove(steps.begin(), steps.end(), 0), steps.end());
    lv.set("fhe.rotate_us",
           probeUs([&] { ev.rotate(ct, steps.at(0)); }, budget));
    Ciphertext prod = ev.mulRelin(ct, ct);
    lv.set("fhe.rescale_us", probeUs([&] { ev.rescale(prod); }, budget));
    steps.resize(std::min<size_t>(steps.size(), 8));
    lv.set("fhe.rotate_hoisted8_us",
           probeUs([&] { ev.rotateHoisted(ct, steps); }, budget));
    lv.emit(r);
    if (!o.traceOut.empty() && !tr.writeChrome(o.traceOut, r.stamp))
        r.check(false, "writing " + o.traceOut);
}

// ---------------------------------------------------------- sim_matrix

struct SimRig
{
    std::vector<std::unique_ptr<InferenceRunner>> runners;
    std::vector<WorkloadModel> workloads;
    /** (machine, workload) pairs in the seed's order. */
    std::vector<std::pair<size_t, size_t>> order;
};

std::unique_ptr<SimRig>
makeSimRig(uint64_t seed, bool tiny)
{
    auto rig = std::make_unique<SimRig>();
    size_t machines = tiny ? 2 : std::size(kSimMachines);
    size_t workloads = tiny ? 1 : std::size(kSimWorkloads);
    for (size_t m = 0; m < machines; ++m)
        rig->runners.push_back(std::make_unique<InferenceRunner>(
            machineByName(kSimMachines[m])));
    for (size_t w = 0; w < workloads; ++w)
        rig->workloads.push_back(workloadByName(
            tiny ? "resnet20" : kSimWorkloads[w]));
    for (size_t m = 0; m < machines; ++m)
        for (size_t w = 0; w < workloads; ++w)
            rig->order.emplace_back(m, w);
    // Fisher-Yates shuffle driven by the seed.
    for (size_t i = rig->order.size(); i > 1; --i) {
        size_t j = static_cast<size_t>(hashUnit(seed, 0, i, 0x5eed) *
                                       static_cast<double>(i));
        std::swap(rig->order[i - 1], rig->order[j]);
    }
    return rig;
}

/** One pass over the matrix, each inference with a cold ProgramCache. */
struct SimPass
{
    double seconds = 0.0;
    /** Per pair index (machine * workloads + workload). */
    std::map<size_t, double> latencyMs;
    std::map<size_t, uint64_t> fingerprints;
    std::map<size_t, double> modelSeconds;
    std::map<size_t, std::shared_ptr<const ExecPlan>> plans;
    std::map<size_t, uint64_t> netMessages;
    ProgramCache::Stats cache;
};

SimPass
runSimPass(SimRig& rig, Tracer& tr, uint64_t pass, bool corrupt,
           Report& r, bool keep_plans)
{
    SimPass p;
    size_t nw = rig.workloads.size();
    Clock::time_point start = Clock::now();
    Scope root(tr, "sim.pass", pass);
    ProgramCache::global().resetStats();
    for (size_t k = 0; k < rig.order.size(); ++k) {
        auto [m, w] = rig.order[k];
        size_t pair = m * nw + w;
        const InferenceRunner& runner = *rig.runners[m];
        Clock::time_point t0 = Clock::now();
        Scope item(tr, "sim.item", pair);
        // Every inference compiles cold, as one hydra_sim_cli process
        // does, so its time does not depend on the pairs before it.
        ProgramCache::global().clear();
        std::shared_ptr<const ExecPlan> plan;
        {
            Scope s(tr, "sched.compile", pair);
            plan = runner.planFor(rig.workloads[w]);
        }
        InferenceResult res;
        {
            Scope s(tr, "sync.execute", pair);
            res = runner.runPlan(*plan);
        }
        if (corrupt && k == 0)
            res.total.makespan = 0;
        bool ok = res.ok() && res.steps.size() == plan->size() &&
                  !res.stepEnds.empty() &&
                  res.stepEnds.back() == res.total.makespan &&
                  res.total.makespan > 0 &&
                  res.total.makespan >= res.total.maxComputeBusy();
        r.item(ok, strf("%s/%s: ok=%d makespan=%llu",
                        runner.spec().name.c_str(),
                        rig.workloads[w].name.c_str(), res.ok(),
                        static_cast<unsigned long long>(
                            res.total.makespan)));
        p.latencyMs[pair] = since(t0) * 1e3;
        p.fingerprints[pair] = res.total.fingerprint();
        p.modelSeconds[pair] = res.seconds();
        p.netMessages[pair] = res.total.netMessages;
        if (keep_plans)
            p.plans[pair] = plan;
    }
    p.cache = ProgramCache::global().stats();
    p.seconds = since(start);
    return p;
}

void
runSimMatrix(const Options& o, Report& r)
{
    std::unique_ptr<SimRig> rig;
    double setup_s = timedSetup(
        rig, [&] { return makeSimRig(o.seed, o.tiny); }, 5, 0.3);
    size_t nw = rig->workloads.size();

    auto passes = [&](Tracer& tr, double budget, bool keep,
                      std::vector<SimPass>& out) {
        Clock::time_point start = Clock::now();
        do {
            uint64_t idx = out.size();
            out.push_back(runSimPass(*rig, tr, idx,
                                     o.corrupt && idx == 0 && !tr.on(),
                                     r, keep));
        } while (since(start) < budget);
    };

    Tracer off(false);
    std::vector<SimPass> untraced;
    passes(off, o.trace ? o.seconds / 2 : o.seconds, false, untraced);

    // Modelled makespans must repeat exactly from pass to pass.
    bool same = true;
    for (const SimPass& p : untraced)
        same = same && p.fingerprints == untraced.front().fingerprints;
    r.check(same, strf("RunStats fingerprints identical across %zu "
                       "untraced passes",
                       untraced.size()));
    double log_sum = 0.0;
    for (const auto& [pair, secs] : untraced.front().modelSeconds)
        log_sum += std::log(secs);
    double gmean = std::exp(log_sum / static_cast<double>(
                                          untraced.front().modelSeconds.size()));
    r.note(strf("model_makespan_gmean_s = %.9g sim_s over %zu runs", gmean,
                untraced.front().modelSeconds.size()));
    r.note(strf("error_rate = %.4f", static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted)));

    // Units are the (machine, model) pairs, repeated once per pass.
    std::vector<std::vector<double>> unit_s;
    std::vector<double> item_ms, pass_s;
    for (const auto& [pair, ms] : untraced.front().latencyMs) {
        unit_s.emplace_back();
        for (const SimPass& p : untraced) {
            unit_s.back().push_back(p.latencyMs.at(pair) * 1e-3);
            item_ms.push_back(p.latencyMs.at(pair));
        }
    }
    for (const SimPass& p : untraced)
        pass_s.push_back(p.seconds);
    double per_item = median(pass_s) / static_cast<double>(unit_s.size());
    r.note(strf("%zu passes of %zu items, median pass %.4f s",
                untraced.size(), unit_s.size(), median(pass_s)));
    if (!o.trace) {
        emitEndToEnd(r, setup_s, unit_s, 1.0, item_ms);
        return;
    }

    Tracer tr(true);
    std::vector<SimPass> traced;
    passes(tr, o.seconds / 2, true, traced);
    bool match = true;
    for (const SimPass& p : traced)
        match = match && p.fingerprints == untraced.front().fingerprints;
    r.check(match, "traced and untraced RunStats fingerprints match");

    LayerValues lv;
    std::vector<double> traced_pass_s;
    for (const SimPass& p : traced)
        traced_pass_s.push_back(p.seconds);
    setOverhead(lv, r, per_item,
                median(traced_pass_s) /
                    static_cast<double>(rig->order.size()));
    double npass = static_cast<double>(traced.size());
    std::map<std::string, double> self = tr.selfMs();
    double compile_ms = self["sched.compile"] / npass;
    double exec_ms = self["sync.execute"] / npass;
    lv.set("sched.compile_ms", compile_ms);
    lv.set("sync.execute_ms", exec_ms);
    lv.set("model_makespan_gmean_s", gmean);
    r.note(strf("compile %.3f ms + execute %.3f ms = %.3f ms per pass vs "
                "untraced pass %.3f ms",
                compile_ms, exec_ms, compile_ms + exec_ms,
                median(pass_s) * 1e3));
    double hits = 0, misses = 0;
    for (const SimPass& p : traced) {
        hits += static_cast<double>(p.cache.hits);
        misses += static_cast<double>(p.cache.misses);
    }
    lv.set("sched.progcache_hits", hits / npass);
    lv.set("sched.progcache_misses", misses / npass);

    std::map<size_t, double> exec_by_pair = tr.selfMsByItem("sync.execute");
    for (size_t m = 0; m < rig->runners.size(); ++m) {
        double ms = 0.0;
        for (size_t w = 0; w < nw; ++w)
            ms += exec_by_pair[m * nw + w];
        lv.set(std::string("sync.execute_ms.") + kSimMachines[m], ms / npass);
    }

    // Program::validate over every unit, and the simulated event count
    // (compute tasks + network messages) behind the execute time.
    const SimPass& last = traced.back();
    double events = 0.0;
    Tracer vt(true);
    for (const auto& [pair, plan] : last.plans) {
        Scope s(vt, "sync.validate", pair);
        for (const ExecUnit& u : plan->units) {
            if (!u.compiled->program.validate().empty())
                r.check(false, "Program::validate on " + u.name);
            for (const CardProgram& c : u.compiled->program.cards)
                events += static_cast<double>(c.compute.size());
        }
        events += static_cast<double>(last.netMessages.at(pair));
    }
    lv.set("sync.validate_ms", vt.selfMs()["sync.validate"]);
    lv.set("sync.us_per_event", exec_ms * 1e3 / events);
    r.note(strf("%.0f simulated events per pass", events));
    lv.emit(r);
    if (!o.traceOut.empty() && !tr.writeChrome(o.traceOut, r.stamp))
        r.check(false, "writing " + o.traceOut);
}

// ------------------------------------------------------------- serving

/** The scripts/gen_workload.py SLO shape: 25 blocks x 400 closed-loop
 *  resnet20 tenants with staggered think times plus 8 resnet18
 *  long-job tenants, on a 4-cluster hydra-m federation. */
std::string
serveSpecString(uint64_t seed, bool tiny)
{
    int blocks = tiny ? 2 : 25;
    int per_block = tiny ? 20 : 400;
    int duration = tiny ? 200 : 2000;
    std::string s = strf("sched=cake,seed=%llu,clusters=4,duration=%d,"
                         "queue=2048,requests=3000000",
                         static_cast<unsigned long long>(seed), duration);
    for (int i = 0; i < blocks; ++i)
        s += strf(",tenants=%d:sp%d:closed:resnet20:1:%d", per_block, i,
                  940 + 17 * i);
    s += ",tenants=8:lp:closed:resnet18:1:40";
    s += ",group=resnet20:2,group=resnet20:2,group=resnet18:4";
    return s;
}

struct ServeRig
{
    PrototypeSpec machine;
    ServeSpec spec;
};

struct ServeRep
{
    ServeStats stats;
    double seconds = 0.0;
};

ServeRep
runServeRep(const ServeRig& rig, Tracer& tr, uint64_t rep)
{
    ServeRep out;
    Scope s(tr, "serve.run", rep);
    // Each rep pays what one serve_cluster process pays: a cold
    // compiled-program cache.
    ProgramCache::global().clear();
    Clock::time_point t0 = Clock::now();
    ServeSim sim(rig.machine, rig.spec);
    out.stats = sim.run();
    out.seconds = since(t0);
    return out;
}

void
checkServeRep(const ServeStats& st, bool corrupt, Report& r,
              uint64_t expect_hash)
{
    uint64_t completed = st.completed + (corrupt ? 1 : 0);
    bool ok = st.admitted == completed + st.shedAfterAdmit &&
              st.chargedTicks == st.refundedTicks + st.executedTicks &&
              !st.stalled && completed > 0 &&
              (expect_hash == 0 || st.hash() == expect_hash);
    // Each served request is one item; a rep that fails its accounting
    // identities fails all of its requests.
    r.attempted += completed;
    if (!ok) {
        r.failed += completed;
        r.note(strf("check failed: admitted %llu != completed %llu + "
                    "shedAfterAdmit %llu, or ledger/hash mismatch",
                    static_cast<unsigned long long>(st.admitted),
                    static_cast<unsigned long long>(completed),
                    static_cast<unsigned long long>(st.shedAfterAdmit)));
    }
}

void
runServeCake(const Options& o, Report& r)
{
    std::string spec_str = serveSpecString(o.seed, o.tiny);
    std::unique_ptr<ServeRig> rig;
    double setup_s = timedSetup(
        rig,
        [&] {
            auto g = std::make_unique<ServeRig>();
            g->machine = machineByName("hydra-m");
            g->spec = ServeSpec::parse(spec_str);
            return g;
        },
        7, 1.0);
    r.note("serve spec: " + rig->spec.describe());

    // Only the first run's stats are kept (each holds 10k tenant
    // records); every later run must hash the same.
    std::optional<ServeStats> first;
    uint64_t runs = 0;
    bool traced_same = true;
    auto loop = [&](Tracer& tr, double budget) {
        Clock::time_point start = Clock::now();
        std::vector<double> secs;
        do {
            ServeRep rep = runServeRep(*rig, tr, runs++);
            if (tr.on())
                traced_same = traced_same &&
                              rep.stats.hash() == first->hash();
            checkServeRep(rep.stats, o.corrupt && !first, r,
                          first ? first->hash() : 0);
            secs.push_back(rep.seconds);
            if (!first)
                first = std::move(rep.stats);
        } while (since(start) < budget);
        return secs;
    };

    Tracer off(false);
    std::vector<double> untraced = loop(off, o.trace ? o.seconds / 2
                                                      : o.seconds);
    const ServeStats& st = *first;
    double p99 = ticksToSeconds(st.latency.percentile(0.99));
    double shed_rate = st.offered ? static_cast<double>(st.shed) /
                                        static_cast<double>(st.offered)
                                  : 0.0;
    r.note(strf("model_p99_s = %.6g sim_s, model_throughput_rps = %.9g "
                "req/sim_s, model_shed_rate = %.6g (offered %llu, "
                "completed %llu, hash %016llx)",
                p99, st.throughputRps(), shed_rate,
                static_cast<unsigned long long>(st.offered),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.hash())));
    r.note(strf("error_rate = %.4f", static_cast<double>(r.failed) /
                                         static_cast<double>(r.attempted)));
    double completed = static_cast<double>(st.completed);
    std::vector<double> ms_per_request;
    for (double s : untraced)
        ms_per_request.push_back(s * 1e3 / completed);
    r.note(strf("%zu serve runs of %.0f requests, median run %.4f s",
                untraced.size(), completed, median(untraced)));
    if (!o.trace) {
        emitEndToEnd(r, setup_s, {untraced}, completed, ms_per_request);
        return;
    }

    Tracer tr(true);
    std::vector<double> traced = loop(tr, o.seconds / 2);
    r.check(traced_same, "traced and untraced ServeStats::hash() match");
    LayerValues lv;
    setOverhead(lv, r, median(untraced), median(traced));
    lv.set("model_p99_s", p99);
    lv.set("model_throughput_rps", st.throughputRps());
    lv.set("model_shed_rate", shed_rate);
    lv.set("serve.jobcache_hits", static_cast<double>(st.jobCacheHits));
    lv.set("serve.jobcache_misses", static_cast<double>(st.jobCacheMisses));
    double unit_execs =
        static_cast<double>(st.progCacheHits + st.progCacheMisses);
    lv.set("serve.unit_execs", unit_execs);
    lv.set("serve.queue_depth_mean", st.meanQueueDepth);
    lv.set("serve.queue_wait_p99_s",
           ticksToSeconds(st.queueWait.percentile(0.99)));
    lv.set("serve.service_p50_s", ticksToSeconds(st.service.percentile(0.5)));
    lv.set("serve.preemptions", static_cast<double>(st.preemptions));
    lv.set("serve.steals", static_cast<double>(st.steals));
    lv.set("serve.kicks", static_cast<double>(st.kicks));

    // runJob on each serving group shape, warm cache (the replay path
    // every served unit takes), in µs per job and per unit.
    double budget = o.tiny ? 0.02 : 0.25;
    InferenceRunner runner(rig->machine);
    struct Shape
    {
        const char* workload;
        CardGroup group;
        const char* metric;
        double unitUs = 0.0;
        size_t units = 0;
    };
    std::vector<Shape> shapes = {
        {"resnet20", CardGroup::contiguous(0, 2),
         "sched.runjob_us.resnet20x2"},
        {"resnet18", CardGroup::contiguous(4, 4),
         "sched.runjob_us.resnet18x4"},
    };
    for (Shape& sh : shapes) {
        Scope s(tr, "sched.runjob_probe", 0);
        WorkloadModel wl = workloadByName(sh.workload);
        auto plan = runner.planForJob(wl, sh.group);
        double us = probeUs(
            [&] { runner.runJob(*plan, sh.group, 0); }, budget);
        lv.set(sh.metric, us);
        sh.units = plan->size();
        sh.unitUs = us / static_cast<double>(sh.units);
    }
    // Per-unit cost weighted by each class's share of unit executions
    // (completed requests x units per job).
    std::map<std::string, std::string> tenant_wl;
    for (const TenantSpec& t : rig->spec.tenants)
        tenant_wl[t.name] = t.workload;
    double wsum = 0.0, cost = 0.0;
    for (const TenantStats& t : st.tenants)
        for (const Shape& sh : shapes)
            if (tenant_wl[t.name] == sh.workload) {
                double w = static_cast<double>(t.completed * sh.units);
                wsum += w;
                cost += w * sh.unitUs;
            }
    double runner_s = wsum > 0 ? unit_execs * cost / wsum * 1e-6 : 0.0;
    lv.set("serve.runner_s_est", runner_s);
    lv.set("serve.engine_s_est", median(untraced) - runner_s);

    // popFor on a queue at the run's mean depth with the tenant mix.
    {
        Scope s(tr, "serve.popfor_probe", 0);
        std::vector<std::string> table = rig->spec.workloadTable();
        auto wl_index = [&](const std::string& name) {
            return static_cast<size_t>(
                std::find(table.begin(), table.end(), name) - table.begin());
        };
        size_t ntenants = rig->spec.tenants.size();
        size_t depth = std::max<size_t>(
            1, static_cast<size_t>(std::lround(st.meanQueueDepth)));
        AdmissionQueue q(std::max(depth, rig->spec.queueCapacity));
        std::vector<uint64_t> served(ntenants, 0);
        for (size_t i = 0; i < depth; ++i) {
            Request req;
            req.id = i + 1;
            req.tenant = (i * 7919) % ntenants;
            const TenantSpec& t = rig->spec.tenants[req.tenant];
            req.workload = wl_index(t.workload);
            req.priority = t.priority;
            q.offer(req);
        }
        size_t k = 0;
        lv.set("serve.popfor_us", probeUs(
                                      [&] {
                                          auto got = q.popFor(
                                              k++ % table.size(), served);
                                          if (got) {
                                              ++served[got->tenant];
                                              q.offer(*got);
                                          }
                                      },
                                      budget));
    }
    lv.emit(r);
    if (!o.traceOut.empty() && !tr.writeChrome(o.traceOut, r.stamp))
        r.check(false, "writing " + o.traceOut);
}

// ---------------------------------------------------------------- main

bool
parseArgs(int argc, char** argv, Options& o)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char* {
            return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(value(), nullptr);
        else if (a == "--trace")
            o.trace = std::strcmp(value(), "1") == 0;
        else if (a == "--trace-out")
            o.traceOut = value();
        else if (a == "--commit")
            o.commit = value();
        else if (a == "--tiny")
            o.tiny = true;
        else if (a == "--corrupt")
            o.corrupt = true;
        else
            return false;
    }
    return o.seconds > 0 && !o.workload.empty();
}

} // namespace
} // namespace hydrabench

int
main(int argc, char** argv)
{
    using namespace hydrabench;
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::fprintf(stderr,
                     "usage: hydrabench --workload W --seed N --seconds S "
                     "--trace 0|1 [--trace-out FILE] [--commit SHA] "
                     "[--tiny] [--corrupt]\n");
        return 2;
    }
    Report r;
    r.stamp = {
        {"workload", o.workload},
        {"seed", std::to_string(o.seed)},
        {"trace", o.trace ? "1" : "0"},
        {"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
        {"cpu_model", cpuModel()},
        {"hydra_threads",
         std::to_string(hydra::ThreadPool::instance().threadCount())},
        {"simd_level", hydra::simdLevelName(hydra::simd::activeLevel())},
        {"build_type", HYDRABENCH_BUILD_TYPE},
        {"git_commit", o.commit},
        {"tiny", o.tiny ? "1" : "0"},
    };
    if (o.workload == "ckks_bootstrap")
        runCkksBootstrap(o, r);
    else if (o.workload == "sim_matrix")
        runSimMatrix(o, r);
    else if (o.workload == "serve_cake")
        runServeCake(o, r);
    else {
        std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
        return 2;
    }
    r.print();
    return 0;
}
