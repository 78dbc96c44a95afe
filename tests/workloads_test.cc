/**
 * @file
 * Workload-model tests: Table I invariants (op mixes, parallelism
 * ranges, ciphertext counts), structural sanity of the four models,
 * and content pins over every registry workload.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "workloads/model.hh"

namespace hydra {
namespace {

TEST(OpMixes, MatchTableOne)
{
    EXPECT_EQ(convBnMix().rotations, 8u);
    EXPECT_EQ(convBnMix().pmults, 2u);
    EXPECT_EQ(convBnMix().hadds, 7u);
    EXPECT_EQ(convBnMix().cmults, 0u);

    EXPECT_EQ(poolingMix().rotations, 2u);
    EXPECT_EQ(poolingMix().pmults, 1u);

    EXPECT_EQ(fcMix().rotations, 1u);
    EXPECT_EQ(fcMix().pmults, 1u);

    EXPECT_EQ(pcmmMix().rotations, 1u);
    EXPECT_EQ(pcmmMix().pmults, 1u);

    EXPECT_EQ(ccmmMix().rotations, 7u);
    EXPECT_EQ(ccmmMix().cmults, 1u);
    EXPECT_EQ(ccmmMix().pmults, 1u);
    EXPECT_EQ(ccmmMix().hadds, 6u);

    EXPECT_EQ(nonLinearMix().cmults, 8u);
    EXPECT_EQ(nonLinearMix().hadds, 15u);
    EXPECT_EQ(nonLinearMix().rotations, 0u);
}

class ModelTest : public ::testing::TestWithParam<int>
{
  protected:
    WorkloadModel
    model() const
    {
        switch (GetParam()) {
          case 0: return makeResNet18();
          case 1: return makeResNet50();
          case 2: return makeBertBase();
          default: return makeOpt67B();
        }
    }
};

TEST_P(ModelTest, StepsAreWellFormed)
{
    WorkloadModel m = model();
    EXPECT_FALSE(m.steps.empty());
    for (const auto& s : m.steps) {
        EXPECT_GE(s.parallelism, 1u) << s.name;
        EXPECT_GE(s.limbs, 1u) << s.name;
        EXPECT_LE(s.limbs, m.maxLimbs) << s.name;
        EXPECT_GE(s.effectiveUnits(), 1u) << s.name;
        EXPECT_FALSE(s.name.empty());
        if (s.kind == ProcKind::NonLinear) {
            EXPECT_GT(s.polyDegree, 0u) << s.name;
        }
    }
}

TEST_P(ModelTest, BootstrapsArePresent)
{
    WorkloadModel m = model();
    EXPECT_GT(m.stepCount(ProcKind::Bootstrap), 0u);
    auto [lo, hi] = m.parallelismRange(ProcKind::Bootstrap);
    EXPECT_GE(lo, 1u);
    EXPECT_LE(hi, 32u); // Table I ciphertext row
}

INSTANTIATE_TEST_SUITE_P(Models, ModelTest, ::testing::Values(0, 1, 2, 3));

TEST(TableOneRanges, CnnModels)
{
    for (const auto& m : {makeResNet18(), makeResNet50()}) {
        auto [clo, chi] = m.parallelismRange(ProcKind::ConvBN);
        EXPECT_GE(chi, 384u) << m.name;
        EXPECT_LE(chi, 1024u) << m.name; // Table I max
        EXPECT_GE(clo, 1u);
        auto [nlo, nhi] = m.parallelismRange(ProcKind::NonLinear);
        EXPECT_LE(nhi, 128u) << m.name;
        EXPECT_GE(nlo, 4u) << m.name;
        EXPECT_EQ(m.stepCount(ProcKind::PCMM), 0u);
        EXPECT_EQ(m.stepCount(ProcKind::CCMM), 0u);
    }
}

TEST(TableOneRanges, LlmModels)
{
    WorkloadModel bert = makeBertBase();
    auto [plo, phi] = bert.parallelismRange(ProcKind::PCMM);
    EXPECT_EQ(plo, 98304u);
    EXPECT_EQ(phi, 393216u);
    auto [cclo, cchi] = bert.parallelismRange(ProcKind::CCMM);
    EXPECT_EQ(cclo, 384u);
    EXPECT_EQ(cchi, 384u);

    WorkloadModel opt = makeOpt67B();
    auto [olo, ohi] = opt.parallelismRange(ProcKind::PCMM);
    EXPECT_EQ(olo, 153600u);
    EXPECT_EQ(ohi, 614400u);
    auto [oclo, ochi] = opt.parallelismRange(ProcKind::CCMM);
    EXPECT_EQ(oclo, 1000u);
    EXPECT_EQ(ochi, 1000u);
    EXPECT_EQ(opt.stepCount(ProcKind::ConvBN), 0u);
}

TEST(TableOneRanges, ModelScalesOrdered)
{
    // ResNet-50 carries more conv work than ResNet-18; OPT more matmul
    // work than BERT.
    WorkloadModel r18 = makeResNet18();
    WorkloadModel r50 = makeResNet50();
    EXPECT_GT(r50.stepCount(ProcKind::ConvBN),
              r18.stepCount(ProcKind::ConvBN));
    WorkloadModel bert = makeBertBase();
    WorkloadModel opt = makeOpt67B();
    EXPECT_GT(opt.steps.size(), bert.steps.size());
    EXPECT_GT(opt.totalUnits(ProcKind::PCMM),
              bert.totalUnits(ProcKind::PCMM));
}

TEST(StepHelpers, EffectiveUnitsScales)
{
    Step s;
    s.parallelism = 1000;
    s.unitScale = 0.25;
    EXPECT_EQ(s.effectiveUnits(), 250u);
    s.unitScale = 0.0001;
    EXPECT_EQ(s.effectiveUnits(), 1u); // floors at one unit
    s.unitScale = 2.0;
    EXPECT_EQ(s.effectiveUnits(), 2000u);
}

TEST(ProcNames, AllDistinct)
{
    for (size_t i = 0; i < kNumProcKinds; ++i)
        for (size_t j = i + 1; j < kNumProcKinds; ++j)
            EXPECT_STRNE(procName(static_cast<ProcKind>(i)),
                         procName(static_cast<ProcKind>(j)));
}

/** FNV-1a over every Step field, unitScale by its bit pattern. */
uint64_t
stepDigest(const std::vector<Step>& steps)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto u64 = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const Step& s : steps) {
        u64(static_cast<uint64_t>(s.kind));
        u64(s.name.size());
        for (char c : s.name)
            u64(static_cast<unsigned char>(c));
        u64(s.parallelism);
        u64(s.perUnit.rotations);
        u64(s.perUnit.cmults);
        u64(s.perUnit.pmults);
        u64(s.perUnit.hadds);
        u64(s.limbs);
        u64(static_cast<uint64_t>(s.agg));
        u64(s.polyDegree);
        uint64_t bits = 0;
        std::memcpy(&bits, &s.unitScale, sizeof bits);
        u64(bits);
        u64(s.outputCts);
    }
    return h;
}

TEST(WorkloadRegistry, ContentPinsEveryName)
{
    struct Pin
    {
        const char* name;
        const char* model;
        size_t logSlots;
        size_t maxLimbs;
        size_t steps;
        uint64_t digest;
    };
    const Pin kPins[] = {
        {"resnet18", "ResNet-18", 15, 24, 50, 0x039e8fb76dfb470eull},
        {"resnet50", "ResNet-50", 15, 24, 123, 0x0f881930634ab9b7ull},
        {"bert", "BERT-base", 15, 24, 146, 0xe6379b8248d9e782ull},
        {"opt", "OPT-6.7B", 15, 24, 386, 0x15a4bacd97c8c742ull},
        {"resnet20", "ResNet-20 (CIFAR-10)", 15, 24, 46,
         0x4e4772941f18f766ull},
        {"mlp3", "MLP-3", 15, 24, 7, 0x1737834537dd1423ull},
    };
    std::vector<std::string> names;
    for (const Pin& p : kPins) {
        names.push_back(p.name);
        ASSERT_TRUE(workloadExists(p.name)) << p.name;
        WorkloadModel m = workloadByName(p.name);
        EXPECT_EQ(m.name, p.model);
        EXPECT_EQ(m.logSlots, p.logSlots) << p.name;
        EXPECT_EQ(m.maxLimbs, p.maxLimbs) << p.name;
        EXPECT_EQ(m.steps.size(), p.steps) << p.name;
        EXPECT_EQ(stepDigest(m.steps), p.digest) << p.name;
    }
    EXPECT_EQ(workloadNames(), names);
    EXPECT_FALSE(workloadExists("nope"));
}

} // namespace
} // namespace hydra
