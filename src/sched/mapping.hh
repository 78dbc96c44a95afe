/**
 * @file
 * Task decomposition and mapping strategies (paper Section III) —
 * stage 1 ("map") of the schedule compiler (map -> optimize -> cache).
 *
 * Turns workload Steps into the per-card compute and comm queues of an
 * executable Program (Procedure 1, Section IV-D), pricing every task
 * with the machine's OpCostModel/NetworkModel as it is emitted:
 *  - ConvBN / Pooling: kernel units split across cards, each chunk's
 *    outputs broadcast round-robin so transfers hide under the next
 *    chunk's compute (Fig. 1 + Fig. 2);
 *  - FC / PCMM / CCMM: units split evenly, partial results combined by
 *    a tree reduction and re-broadcast (Section III-A);
 *  - Non-linear: data-parallel across ciphertexts when parallelism
 *    covers the cards, otherwise the Alg. 1 computation-tree split with
 *    CMult balancing;
 *  - Bootstrap: Fig. 3 mapping -- per-level BSGS DFT with replicated
 *    baby steps, distributed giant steps and tree aggregation, Alg. 1
 *    EvaExp, leader-local double-angle -- with Radix/bs chosen by the
 *    Eq. 1 optimizer.
 *
 * mapStepInto appends one step to a ProgramBuilder, so a multi-step
 * unit (sched/progcache.hh) is one builder fed step by step; mapStep
 * is the one-step case.
 */

#ifndef HYDRA_SCHED_MAPPING_HH
#define HYDRA_SCHED_MAPPING_HH

#include <initializer_list>
#include <vector>

#include "arch/network.hh"
#include "arch/opcost.hh"
#include "model/dft_model.hh"
#include "sync/task.hh"
#include "workloads/model.hh"

namespace hydra {

/** Mapping knobs. */
struct MappingConfig
{
    /** Chunks each card splits its unit share into (comm overlap). */
    size_t maxChunksPerCard = 8;
    /** EvaExp polynomial degree (paper: 59). */
    size_t evalExpDegree = 59;
    /** Double-angle iterations after EvaExp. */
    size_t dafIters = 3;
    /** Homomorphic DFT matrix levels (Table V: depth 3). */
    size_t dftLevels = 3;
};

/**
 * Single-card wall time of one full bootstrap (2 DFT stacks + EvaExp +
 * double-angle) under the given models.  StepMapper::bootstrapLocalTime
 * binds its own models; the graph compiler's boot-plan pass prices
 * elided refreshes with it.
 */
Tick bootstrapLocalTicks(const OpCostModel& cost, const NetworkModel& net,
                         const MappingConfig& config, size_t log_slots,
                         size_t limbs);

/** Maps Steps onto the cluster for one (machine, workload) pair. */
class StepMapper
{
  public:
    StepMapper(const OpCostModel& cost, const NetworkModel& net,
               size_t cards, size_t log_slots,
               MappingConfig config = {});

    /** Append one step's priced tasks to `pb`, which must have this
     *  mapper's card count. */
    void mapStepInto(ProgramBuilder& pb, const Step& step) const;

    /** Map one step onto the cluster as a fresh Program. */
    Program mapStep(const Step& step) const;

    /** Single-card time of one full bootstrap (used for data-parallel
     *  bootstrap scheduling and for Fig. 9 style analyses). */
    Tick bootstrapLocalTime(size_t limbs) const;

    /** The Eq. 1-optimal DFT plan for a group of `cards` nodes. */
    DftPlan dftPlanFor(size_t group_cards, size_t limbs) const;

    const MappingConfig& config() const { return config_; }

  private:
    /**
     * One HE-op term of a compute task.  `timed`/`costed` express
     * asymmetric accounting: the bootstrap double-angle step times
     * rot+ha+pm but charges only the CMult iterations to the energy
     * model.
     */
    struct Term
    {
        HeOpType op = HeOpType::HAdd;
        uint64_t count = 0;
        bool timed = true;
        bool costed = true;
    };

    /** Compute task priced as the sum of its terms at `limbs`. */
    uint64_t addTerms(ProgramBuilder& pb, size_t card,
                      std::initializer_list<Term> terms, size_t limbs,
                      uint32_t label,
                      std::vector<uint64_t> wait_msgs = {}) const;
    /** Send `cts` ciphertexts at `limbs` to `dst` (or kBroadcast). */
    uint64_t sendCts(ProgramBuilder& pb, size_t src, size_t dst,
                     uint64_t cts, size_t limbs,
                     uint64_t after_compute) const;

    void mapUniform(ProgramBuilder& pb, const Step& step) const;
    void mapNonLinear(ProgramBuilder& pb, const Step& step) const;
    /** Alg. 1 on the card range [base, base + group). */
    void mapPolyEvalTree(ProgramBuilder& pb, size_t base, size_t group,
                         size_t degree, size_t limbs,
                         uint32_t label) const;
    void mapBootstrap(ProgramBuilder& pb, const Step& step) const;
    /** One BSGS DFT stack (C2S or S2C) on a card group. */
    void mapDftLevels(ProgramBuilder& pb, size_t base, size_t group,
                      const DftPlan& plan, size_t limbs,
                      uint32_t label) const;

    const OpCostModel& cost_;
    const NetworkModel& net_;
    size_t cards_;
    size_t logSlots_;
    MappingConfig config_;
};

} // namespace hydra

#endif // HYDRA_SCHED_MAPPING_HH
