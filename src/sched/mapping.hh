/**
 * @file
 * Task decomposition and mapping strategies (paper Section III) —
 * stage 1 ("plan") of the schedule compiler.
 *
 * Turns one workload Step into a machine-independent LogicalPlan:
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
 * mapStep remains as the plan+lower composition (see sched/lower.hh)
 * and produces bit-identical Programs to the historical direct path;
 * planStep exposes the plan itself for re-costing, optimization and
 * caching (sched/passes.hh, sched/progcache.hh).
 */

#ifndef HYDRA_SCHED_MAPPING_HH
#define HYDRA_SCHED_MAPPING_HH

#include "arch/network.hh"
#include "arch/opcost.hh"
#include "model/dft_model.hh"
#include "sched/plan.hh"
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

/** Builds per-step plans/Programs for one (machine, workload) pair. */
class StepMapper
{
  public:
    StepMapper(const OpCostModel& cost, const NetworkModel& net,
               size_t cards, size_t log_slots,
               MappingConfig config = {});

    /**
     * Decompose one step into a machine-independent LogicalPlan.  The
     * bootstrap DFT structure (Eq. 1 Radix/bs) is frozen with this
     * mapper's cost/network models; everything else in the plan is
     * model-free.
     */
    LogicalPlan planStep(const Step& step) const;

    /** Append one step's plan ops to an existing plan builder. */
    void planStepInto(PlanBuilder& pb, const Step& step) const;

    /** Map one step onto the cluster (plan + lower). */
    Program mapStep(const Step& step) const;

    /** Single-card time of one full bootstrap (used for data-parallel
     *  bootstrap scheduling and for Fig. 9 style analyses). */
    Tick bootstrapLocalTime(size_t limbs) const;

    /** The Eq. 1-optimal DFT plan for a group of `cards` nodes. */
    DftPlan dftPlanFor(size_t group_cards, size_t limbs) const;

    const MappingConfig& config() const { return config_; }

  private:
    void planUniform(PlanBuilder& pb, const Step& step) const;
    void planNonLinear(PlanBuilder& pb, const Step& step) const;
    /** Alg. 1 on the card range [base, base + group). */
    void planPolyEvalTree(PlanBuilder& pb, size_t base, size_t group,
                          size_t degree, size_t limbs,
                          uint32_t label) const;
    void planBootstrap(PlanBuilder& pb, const Step& step) const;
    /** One BSGS DFT stack (C2S or S2C) on a card group. */
    void planDftLevels(PlanBuilder& pb, size_t base, size_t group,
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
