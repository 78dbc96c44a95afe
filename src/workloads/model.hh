/**
 * @file
 * FHE-based deep learning workload descriptions.
 *
 * Each model is a sequence of Steps; a Step is one key procedure of the
 * paper (ConvBN, Pooling, FC, Non-linear, PCMM, CCMM, Norm, Bootstrap)
 * with its application-level parallelism and the per-unit ciphertext
 * operation mix of Table I.  The scheduler maps Steps onto cards.
 *
 * Layer schedules are reconstructed from the models' architectures and
 * the published implementations ([12] for CNNs, [13] for transformers);
 * per-layer unit counts are calibrated so single-card execution time
 * approximates the paper's Hydra-S column in Table II (the substitution
 * is documented in DESIGN.md).
 */

#ifndef HYDRA_WORKLOADS_MODEL_HH
#define HYDRA_WORKLOADS_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "trace/heop.hh"

namespace hydra {

/** Key procedures of FHE-based DL inference (paper Section III). */
enum class ProcKind : uint8_t
{
    ConvBN,
    Pooling,
    FC,
    NonLinear,
    PCMM,
    CCMM,
    Norm,
    Bootstrap,
    NumKinds
};

constexpr size_t kNumProcKinds = static_cast<size_t>(ProcKind::NumKinds);

const char* procName(ProcKind k);

/** How unit outputs are combined across cards. */
enum class AggKind : uint8_t
{
    None,          ///< outputs stay where they are produced
    BroadcastEach, ///< Fig. 2: every output broadcast to all nodes
    ReduceTree,    ///< partial sums reduced in a tree, then broadcast
};

/** One schedulable step of a model. */
struct Step
{
    ProcKind kind = ProcKind::ConvBN;
    std::string name;
    /** Independent parallel units (Table I); for Bootstrap: the number
     *  of ciphertexts to refresh. */
    size_t parallelism = 1;
    /** Ciphertext-level operations per unit (Table I right columns). */
    OpMix perUnit;
    /** Active modulus-chain limbs while this step runs. */
    size_t limbs = 12;
    /** Cross-card combination pattern. */
    AggKind agg = AggKind::BroadcastEach;
    /** Non-linear only: degree of the evaluated polynomial. */
    size_t polyDegree = 0;
    /**
     * Full-ciphertext work units per unit of Table-I parallelism.
     * Table I counts fine-grained application-level parallelism (e.g.
     * element copies inside a PCMM); one full-ciphertext rot+mult can
     * cover many of them (BSGS hoisting, slot packing).  Effective
     * scheduled units = max(1, parallelism * unitScale).
     */
    double unitScale = 1.0;
    /**
     * Output ciphertexts produced by the whole step.  Unit results are
     * multiplexed into these ([12]'s packing), so cross-card
     * aggregation moves outputCts ciphertexts, not one per unit.
     */
    size_t outputCts = 32;

    size_t
    effectiveUnits() const
    {
        double u = static_cast<double>(parallelism) * unitScale;
        return u < 1.0 ? 1 : static_cast<size_t>(u);
    }
};

/** Per-unit op mixes from Table I. */
OpMix convBnMix();
OpMix poolingMix();
OpMix fcMix();
OpMix pcmmMix();
OpMix ccmmMix();
OpMix nonLinearMix();

/// @name Step factories.
/// The building vocabulary of every model: each factory fixes one
/// procedure's op mix, working level, aggregation pattern and output
/// packing.  Every model below, and any test graph, constructs its
/// steps through these.
/// @{
Step makeConvStep(const std::string& name, size_t par,
                  double scale = 1.0, size_t out_cts = 32);
Step makeReluStep(const std::string& name, size_t par,
                  size_t out_cts = 32);
Step makePoolStep(const std::string& name, size_t par,
                  size_t out_cts = 16);
Step makeFcStep(const std::string& name, size_t par);
Step makeBootStep(const std::string& name, size_t count);
Step makePcmmStep(const std::string& name, size_t par, double scale);
Step makeCcmmStep(const std::string& name, size_t par, double scale);
Step makeNonLinStep(const std::string& name, size_t par,
                    size_t out_cts = 12);
Step makeNormStep(const std::string& name, size_t par);
/// @}

/** A full model: ordered steps plus CKKS geometry. */
struct WorkloadModel
{
    std::string name;
    /** log2 of the ciphertext slot count (Table V rows). */
    size_t logSlots = 15;
    /** Full modulus-chain length at the working parameters. */
    size_t maxLimbs = 24;
    std::vector<Step> steps;

    /** Total units of one procedure kind across all steps. */
    size_t totalUnits(ProcKind k) const;

    /** Min/max per-step parallelism of a kind (Table I's Min./Max.). */
    std::pair<size_t, size_t> parallelismRange(ProcKind k) const;

    size_t stepCount(ProcKind k) const;
};

/// @name The four benchmark models (paper Section V-A).
/// @{
WorkloadModel makeResNet18();
WorkloadModel makeResNet50();
WorkloadModel makeBertBase();
WorkloadModel makeOpt67B();
/// @}

/**
 * ResNet-20 on CIFAR-10: the small tailored model of the paper's
 * Section II motivation ("the most advanced practical accelerators,
 * Poseidon and FAB, achieve a performance of nearly 3 seconds").
 */
WorkloadModel makeResNet20Cifar();

/** All four, in the paper's column order. */
std::vector<WorkloadModel> allBenchmarks();

/// @name Workload registry.
/// The one name -> model table: CLI flags, serving tenants and
/// benchmarks all resolve through it.
/// @{
/** Names of every registered workload model. */
std::vector<std::string> workloadNames();

/** True when `name` resolves via workloadByName(). */
bool workloadExists(const std::string& name);

/** Resolve a workload by CLI name ("resnet18", "bert", ...); calls
 *  fatal() with the list of valid names on an unknown one. */
WorkloadModel workloadByName(const std::string& name);
/// @}

} // namespace hydra

#endif // HYDRA_WORKLOADS_MODEL_HH
