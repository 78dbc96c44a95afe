/**
 * @file
 * The compiled execution plan (DESIGN.md §16): the one artifact every
 * workload, model graph and card group compiles to.
 *
 * An ExecPlan is an ordered sequence of units, each carrying its
 * member steps by value and its compiled Program, plus the plan's
 * opt-level provenance.  There is one compile pipeline: compilePlan()
 * takes a NetworkGraph (a workload's step list lifts to the
 * equivalent chain through NetworkGraph::fromModel) and runs
 * partitionNetwork() (sched/graph/netcompile.hh).  At
 * OptLevel::None/Safe every layer becomes one Single unit; at
 * Aggressive the cross-step passes (boot-plan, fuse-linear, prefetch)
 * may merge layers into multi-step units.  Every unit compiles through
 * the one cached unit compiler, compileUnit() (sched/progcache.hh),
 * under the one key rule, unitCacheKey() — a one-step unit's key is
 * the per-step key the step-at-a-time runner always used, so Safe
 * cache populations and tick streams are unchanged.
 *
 * Unit boundaries generalize step boundaries: everything downstream
 * that used to index steps (resumable first_unit windows, cake's
 * preemption slices, federation's checkpointed failover, the
 * fault-free JobCache) indexes units of the tenant's plan instead.
 * The Aggressive partition is a pure function of (workload content,
 * network kind) — NOT of the executing card count — so every card
 * group of one machine agrees on unit boundaries for a given
 * (workload, level), which is what makes unit indices meaningful
 * across dispatch, preemption and failover.
 *
 * compilePlan() is the partition step alone.  The plans a caller gets
 * come from InferenceRunner (planFor, planForJob, fusePlan), which
 * resolves every unit's Program through compileUnit for the plan's
 * cluster before returning: one plan form, compiled at plan time.
 * Execution compiles again only on the degraded re-dispatch path,
 * where a card death shrank the executing cluster under the plan.
 * InferenceRunner::fusePlan turns any plan into the paper's Section
 * IV-D fused mode: one compiled unit holding every step.
 */

#ifndef HYDRA_SCHED_EXECPLAN_HH
#define HYDRA_SCHED_EXECPLAN_HH

#include <memory>
#include <string>
#include <vector>

#include "sched/graph/graph.hh"
#include "sched/progcache.hh"

namespace hydra {

/** One schedulable unit of an ExecPlan: one or more layers executing
 *  as a single Program (no internal sync barrier, one checkpoint
 *  boundary at the end). */
struct ExecUnit
{
    enum class Kind : uint8_t
    {
        Single,   ///< one layer, step-compiler semantics
        Fused,    ///< fuse-linear group or a fused plan's one unit
        Prefetch, ///< prefetch window (transfers hide under compute)
    };

    Kind kind = Kind::Single;
    /** Display name: the single layer, or "first..last". */
    std::string name;
    /** Procedure kind of the leading layer (roll-up display). */
    ProcKind lead = ProcKind::ConvBN;
    /** Member steps in execution order (post-pass content).  Carried
     *  by value so a shrunken cluster can recompile the unit without
     *  the original workload/graph in hand. */
    std::vector<Step> steps;
    /** Compiled program for the plan's cluster (the ProgramCache
     *  entry under the unit's unitCacheKey). */
    std::shared_ptr<const CompiledStep> compiled;
};

/** Cross-step pass statistics. */
struct NetOptReport
{
    OptLevel level = OptLevel::None;
    /** Bootstraps removed by the Eq. 1 level walk. */
    uint64_t bootsElided = 0;
    /** Adjacent bootstrap pairs collapsed into one refresh. */
    uint64_t bootsMerged = 0;
    /** Layers whose working level was lowered to the tracked level. */
    uint64_t relevelled = 0;
    /** Layers folded into fuse-linear groups. */
    uint64_t fusedSteps = 0;
    /** Unit boundaries removed by prefetch windows. */
    uint64_t prefetchedBoundaries = 0;
    /** Eq. 1-modeled single-card cost of the elided bootstraps. */
    Tick modeledBootSavings = 0;

    uint64_t
    totalChanges() const
    {
        return bootsElided + bootsMerged + relevelled + fusedSteps +
               prefetchedBoundaries;
    }

    /** One-line human summary. */
    std::string describe() const;
};

/** A compiled execution plan: the unit sequence plus provenance. */
struct ExecPlan
{
    std::string machine;
    std::string workload;
    OptLevel level = OptLevel::Safe;
    /** Cluster shape the plan was compiled against (the machine, or a
     *  card group's sub-spec). */
    ClusterConfig cluster;
    size_t logSlots = 0;
    std::vector<ExecUnit> units;
    /** Cross-step pass statistics (empty below Aggressive). */
    NetOptReport report;
    /** Compile failure (an invalid graph): the plan has no units and
     *  every execution returns this as InferenceResult::error. */
    RunError error;

    size_t size() const { return units.size(); }
};

/**
 * Partition `graph` for `spec`'s machine at `level` into units (unit
 * boundaries and member steps; InferenceRunner compiles them).  The
 * graph must be validate()-clean (callers report the SpecError; a
 * cyclic graph fatals in partitionNetwork).
 */
ExecPlan compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
                     const NetworkModel& net, const NetworkGraph& graph,
                     OptLevel level = OptLevel::Safe);

} // namespace hydra

#endif // HYDRA_SCHED_EXECPLAN_HH
