#include "workloads/model.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hydra {

const char*
procName(ProcKind k)
{
    switch (k) {
      case ProcKind::ConvBN: return "ConvBN";
      case ProcKind::Pooling: return "Pooling";
      case ProcKind::FC: return "FC";
      case ProcKind::NonLinear: return "NonLinear";
      case ProcKind::PCMM: return "PCMM";
      case ProcKind::CCMM: return "CCMM";
      case ProcKind::Norm: return "Norm";
      case ProcKind::Bootstrap: return "Boot";
      default: break;
    }
    panic("unknown ProcKind %d", static_cast<int>(k));
}

// Per-unit mixes, Table I right-hand columns.
OpMix convBnMix() { return OpMix{8, 0, 2, 7}; }
OpMix poolingMix() { return OpMix{2, 0, 1, 0}; }
OpMix fcMix() { return OpMix{1, 0, 1, 0}; }
OpMix pcmmMix() { return OpMix{1, 0, 1, 0}; }
OpMix ccmmMix() { return OpMix{7, 1, 1, 6}; }
OpMix nonLinearMix() { return OpMix{0, 8, 0, 15}; }
/** LayerNorm: rotate-accumulate mean/variance + normalize. */
static OpMix normMix() { return OpMix{2, 1, 1, 2}; }

size_t
WorkloadModel::totalUnits(ProcKind k) const
{
    size_t sum = 0;
    for (const auto& s : steps)
        if (s.kind == k)
            sum += s.parallelism;
    return sum;
}

std::pair<size_t, size_t>
WorkloadModel::parallelismRange(ProcKind k) const
{
    size_t lo = 0, hi = 0;
    for (const auto& s : steps) {
        if (s.kind != k)
            continue;
        if (lo == 0 || s.parallelism < lo)
            lo = s.parallelism;
        hi = std::max(hi, s.parallelism);
    }
    return {lo, hi};
}

size_t
WorkloadModel::stepCount(ProcKind k) const
{
    size_t n = 0;
    for (const auto& s : steps)
        if (s.kind == k)
            ++n;
    return n;
}

namespace {

/** Mid-chain working level for linear layers. */
constexpr size_t kMidLimbs = 12;
/** Level right after bootstrap (cheap matmuls in [13]). */
constexpr size_t kFreshLimbs = 8;
/** Average level across a bootstrap's own pipeline. */
constexpr size_t kBootLimbs = 18;
/** Non-linear layers burn the lower part of the chain. */
constexpr size_t kNonLinLimbs = 10;

/** ReLU/GeLU/Softmax polynomial degree ([12] uses minimax composites;
 *  the per-unit op mix is already fixed by Table I). */
constexpr size_t kReluDegree = 15;

} // namespace

Step
makeConvStep(const std::string& name, size_t par, double scale,
             size_t out_cts)
{
    return Step{ProcKind::ConvBN, name, par, convBnMix(), kMidLimbs,
                AggKind::BroadcastEach, 0, scale, out_cts};
}

Step
makeReluStep(const std::string& name, size_t par, size_t out_cts)
{
    return Step{ProcKind::NonLinear, name, par, nonLinearMix(),
                kNonLinLimbs, AggKind::BroadcastEach, kReluDegree, 1.0,
                out_cts};
}

Step
makePoolStep(const std::string& name, size_t par, size_t out_cts)
{
    return Step{ProcKind::Pooling, name, par, poolingMix(), kMidLimbs,
                AggKind::BroadcastEach, 0, 1.0, out_cts};
}

Step
makeFcStep(const std::string& name, size_t par)
{
    return Step{ProcKind::FC, name, par, fcMix(), kMidLimbs,
                AggKind::ReduceTree, 0, 1.0, 1};
}

Step
makeBootStep(const std::string& name, size_t count)
{
    return Step{ProcKind::Bootstrap, name, count, OpMix{}, kBootLimbs,
                AggKind::None, 0, 1.0, count};
}

Step
makePcmmStep(const std::string& name, size_t par, double scale)
{
    return Step{ProcKind::PCMM, name, par, pcmmMix(), kFreshLimbs,
                AggKind::ReduceTree, 0, scale, 1};
}

Step
makeCcmmStep(const std::string& name, size_t par, double scale)
{
    return Step{ProcKind::CCMM, name, par, ccmmMix(), kMidLimbs,
                AggKind::ReduceTree, 0, scale, 1};
}

Step
makeNonLinStep(const std::string& name, size_t par, size_t out_cts)
{
    return Step{ProcKind::NonLinear, name, par, nonLinearMix(),
                kNonLinLimbs, AggKind::BroadcastEach, kReluDegree, 1.0,
                out_cts};
}

Step
makeNormStep(const std::string& name, size_t par)
{
    return Step{ProcKind::Norm, name, par, normMix(), kMidLimbs,
                AggKind::BroadcastEach, 0, 1.0, 2};
}

namespace {

/** Thin sugar over the step factories for the hand-built models. */
struct Builder
{
    WorkloadModel model;

    void
    conv(const std::string& name, size_t par, double scale = 1.0,
         size_t out_cts = 32)
    {
        model.steps.push_back(makeConvStep(name, par, scale, out_cts));
    }

    void
    relu(const std::string& name, size_t par, size_t out_cts = 32)
    {
        model.steps.push_back(makeReluStep(name, par, out_cts));
    }

    void
    pool(const std::string& name, size_t par, size_t out_cts = 16)
    {
        model.steps.push_back(makePoolStep(name, par, out_cts));
    }

    void
    fc(const std::string& name, size_t par)
    {
        model.steps.push_back(makeFcStep(name, par));
    }

    void
    boot(const std::string& name, size_t count)
    {
        model.steps.push_back(makeBootStep(name, count));
    }

    void
    pcmm(const std::string& name, size_t par, double scale)
    {
        model.steps.push_back(makePcmmStep(name, par, scale));
    }

    void
    ccmm(const std::string& name, size_t par, double scale)
    {
        model.steps.push_back(makeCcmmStep(name, par, scale));
    }

    void
    nonlin(const std::string& name, size_t par, size_t out_cts = 12)
    {
        model.steps.push_back(makeNonLinStep(name, par, out_cts));
    }

    void
    norm(const std::string& name, size_t par)
    {
        model.steps.push_back(makeNormStep(name, par));
    }
};

} // namespace

WorkloadModel
makeResNet18()
{
    Builder b;
    b.model.name = "ResNet-18";
    b.model.logSlots = 15;
    b.model.maxLimbs = 24;

    // conv1 + maxpool (approximated by average pooling under FHE).
    b.conv("conv1", 768);
    b.relu("relu1", 128);
    b.pool("pool1", 64);
    b.boot("boot0", 32);

    struct Stage
    {
        const char* name;
        size_t conv_par;
        size_t relu_par;
        size_t boot_cts;
        size_t ds_par; // downsample conv parallelism (0 = none)
    };
    // Per-stage parallelism within Table I's 384..1024 (ConvBN) and
    // 4..128 (Non-linear) ranges; ciphertext counts within 1..32.
    const Stage stages[] = {
        {"s1", 640, 128, 16, 0},
        {"s2", 512, 64, 8, 448},
        {"s3", 448, 32, 8, 384},
        {"s4", 384, 4, 2, 384},
    };
    for (const auto& st : stages) {
        for (int blk = 0; blk < 2; ++blk) {
            std::string p = std::string(st.name) + "b" +
                            std::to_string(blk);
            if (blk == 0 && st.ds_par)
                b.conv(p + "_ds", st.ds_par, 1.0, st.boot_cts);
            b.conv(p + "_conv1", st.conv_par, 1.0, st.boot_cts);
            b.relu(p + "_relu1", st.relu_par, st.boot_cts);
            b.conv(p + "_conv2", st.conv_par, 1.0, st.boot_cts);
            b.relu(p + "_relu2", st.relu_par, st.boot_cts);
            b.boot(p + "_boot", st.boot_cts);
        }
    }
    b.pool("avgpool", 6, 1);
    b.boot("boot_final", 1);
    b.fc("fc", 1511);
    return std::move(b.model);
}

WorkloadModel
makeResNet50()
{
    Builder b;
    b.model.name = "ResNet-50";
    b.model.logSlots = 15;
    b.model.maxLimbs = 24;

    b.conv("conv1", 1024);
    b.relu("relu1", 128);
    b.pool("pool1", 256);
    b.boot("boot0", 32);

    struct Stage
    {
        const char* name;
        int blocks;
        size_t conv_par;
        size_t relu_par;
        size_t boot_cts;
        /**
         * Ciphertext multiplicity: [12]'s multiplexed packing of the
         * wide (up to 2048-channel) bottleneck activations processes
         * several input ciphertexts per layer, repeating the kernel
         * units per ciphertext group.
         */
        double ct_scale;
    };
    const Stage stages[] = {
        {"s1", 3, 1024, 128, 32, 3.4},
        {"s2", 4, 896, 64, 32, 4.7},
        {"s3", 6, 640, 32, 24, 6.8},
        {"s4", 3, 384, 16, 16, 9.5},
    };
    for (const auto& st : stages) {
        for (int blk = 0; blk < st.blocks; ++blk) {
            std::string p = std::string(st.name) + "b" +
                            std::to_string(blk);
            if (blk == 0)
                b.conv(p + "_ds", st.conv_par, st.ct_scale, st.boot_cts);
            // Bottleneck: 1x1 reduce, 3x3, 1x1 expand.
            b.conv(p + "_conv1", st.conv_par / 2, st.ct_scale,
                   st.boot_cts);
            b.relu(p + "_relu1", st.relu_par, st.boot_cts);
            b.conv(p + "_conv2", st.conv_par, st.ct_scale, st.boot_cts);
            b.relu(p + "_relu2", st.relu_par, st.boot_cts);
            b.conv(p + "_conv3", st.conv_par, st.ct_scale, st.boot_cts);
            b.relu(p + "_relu3", st.relu_par, st.boot_cts);
            b.boot(p + "_boot", st.boot_cts);
        }
    }
    b.pool("avgpool", 12, 1);
    b.boot("boot_final", 1);
    b.fc("fc", 3047);
    return std::move(b.model);
}

namespace {

/**
 * One transformer encoder layer ([13]'s non-interactive pipeline:
 * LN -> QKV PCMM -> CCMM scores -> Softmax -> CCMM context ->
 * output PCMM -> LN -> FFN (PCMM, GeLU, PCMM) -> bootstraps).
 *
 * @param pcmm_par / ffn_par Table-I PCMM parallelism (min / max rows)
 * @param matmul_scale full-ciphertext ops per unit of parallelism
 */
void
transformerLayer(Builder& b, const std::string& p, size_t pcmm_par,
                 size_t ffn_par, size_t ccmm_par, size_t softmax_par,
                 size_t norm_par, size_t boot_cts, double matmul_scale)
{
    b.norm(p + "_ln1", norm_par);
    b.pcmm(p + "_qkv", pcmm_par, 3.0 * matmul_scale); // Q, K, V
    b.ccmm(p + "_scores", ccmm_par, 1.0);
    b.nonlin(p + "_softmax", softmax_par);
    b.ccmm(p + "_context", ccmm_par, 1.0);
    b.pcmm(p + "_proj", pcmm_par, matmul_scale);
    b.boot(p + "_boot1", boot_cts);
    b.norm(p + "_ln2", norm_par);
    b.pcmm(p + "_ffn1", ffn_par, matmul_scale);
    b.nonlin(p + "_gelu", softmax_par);
    b.pcmm(p + "_ffn2", ffn_par, matmul_scale);
    b.boot(p + "_boot2", boot_cts);
}

} // namespace

WorkloadModel
makeBertBase()
{
    Builder b;
    b.model.name = "BERT-base";
    b.model.logSlots = 15;
    b.model.maxLimbs = 24;
    // 12 layers, hidden 768, seq 128 (Table I: PCMM 98,304..393,216,
    // CCMM 384, Non-linear 4..48, ciphertexts 1..12).
    for (int layer = 0; layer < 12; ++layer) {
        std::string p = "l" + std::to_string(layer);
        size_t softmax = layer < 6 ? 48 : 24;
        size_t boot_cts = layer < 6 ? 12 : 6;
        transformerLayer(b, p, 98304, 393216, 384, softmax, 8, boot_cts,
                         /*matmul_scale=*/0.09);
    }
    b.boot("boot_final", 1);
    b.fc("pooler", 768);
    return std::move(b.model);
}

WorkloadModel
makeOpt67B()
{
    Builder b;
    b.model.name = "OPT-6.7B";
    b.model.logSlots = 15;
    b.model.maxLimbs = 24;
    // 32 layers, hidden 4096, seq 200 (Table I: PCMM
    // 153,600..614,400, CCMM 1000, Non-linear 8..72, cts 2..18).  The
    // 200 x 4096 activations span ~8x more ciphertexts than BERT-base,
    // hence the larger per-parallelism scale.
    for (int layer = 0; layer < 32; ++layer) {
        std::string p = "l" + std::to_string(layer);
        size_t softmax = layer < 16 ? 72 : 36;
        size_t boot_cts = layer < 16 ? 18 : 9;
        transformerLayer(b, p, 153600, 614400, 1000, softmax, 16,
                         boot_cts, /*matmul_scale=*/1.1);
    }
    b.boot("boot_final", 2);
    b.fc("head", 4096);
    return std::move(b.model);
}

WorkloadModel
makeResNet20Cifar()
{
    Builder b;
    b.model.name = "ResNet-20 (CIFAR-10)";
    b.model.logSlots = 15;
    b.model.maxLimbs = 24;
    // 32x32 inputs pack into a single ciphertext ([12]); channel counts
    // 16/32/64 give far smaller kernel-group parallelism than ImageNet.
    b.conv("conv1", 16, 1.0, 1);
    b.relu("relu1", 2, 1);

    struct Stage
    {
        const char* name;
        size_t conv_par;
    };
    const Stage stages[] = {{"s1", 12}, {"s2", 16}, {"s3", 24}};
    for (const auto& st : stages) {
        for (int blk = 0; blk < 3; ++blk) {
            std::string p = std::string(st.name) + "b" +
                            std::to_string(blk);
            b.conv(p + "_conv1", st.conv_par, 1.0, 1);
            b.relu(p + "_relu1", 2, 1);
            b.conv(p + "_conv2", st.conv_par, 1.0, 1);
            b.relu(p + "_relu2", 2, 1);
            if (blk != 1)
                b.boot(p + "_boot", 1);
        }
    }
    b.pool("avgpool", 2, 1);
    b.fc("fc", 64);
    return std::move(b.model);
}

std::vector<WorkloadModel>
allBenchmarks()
{
    return {makeResNet18(), makeResNet50(), makeBertBase(), makeOpt67B()};
}

namespace {

/** A 3-layer encrypted MLP (two PCMM + activation + bootstrap blocks
 *  and an FC head): a small serving tenant with no paper twin. */
WorkloadModel
makeMlp3()
{
    Builder b;
    b.model.name = "MLP-3";
    b.model.logSlots = 15;
    b.model.maxLimbs = 24;
    b.pcmm("fc1", 8192, 1.0);
    b.nonlin("act1", 8);
    b.boot("boot0", 4);
    b.pcmm("fc2", 8192, 1.0);
    b.nonlin("act2", 8);
    b.boot("boot1", 4);
    b.fc("out", 512);
    return std::move(b.model);
}

struct WorkloadEntry
{
    const char* name;
    WorkloadModel (*make)();
};

const WorkloadEntry kWorkloadRegistry[] = {
    {"resnet18", makeResNet18}, {"resnet50", makeResNet50},
    {"bert", makeBertBase},     {"opt", makeOpt67B},
    {"resnet20", makeResNet20Cifar}, {"mlp3", makeMlp3},
};

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto& e : kWorkloadRegistry)
        names.emplace_back(e.name);
    return names;
}

bool
workloadExists(const std::string& name)
{
    for (const auto& e : kWorkloadRegistry)
        if (name == e.name)
            return true;
    return false;
}

WorkloadModel
workloadByName(const std::string& name)
{
    for (const auto& e : kWorkloadRegistry)
        if (name == e.name)
            return e.make();
    std::string valid;
    for (const auto& e : kWorkloadRegistry)
        valid += std::string(valid.empty() ? "" : "|") + e.name;
    fatal("unknown workload '%s' (want %s)", name.c_str(),
          valid.c_str());
}

} // namespace hydra
