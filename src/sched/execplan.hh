/**
 * @file
 * The unified compiled-execution-plan abstraction (DESIGN.md §16).
 *
 * An ExecPlan is the one executable artifact both execution worlds
 * compile to: an ordered sequence of units, each carrying its member
 * steps, its ProgramCache key and (when materialized) its compiled
 * Program, plus the plan's opt-level provenance.  compilePlan()
 * subsumes the two historical entry points:
 *
 *  - the step-list path (InferenceRunner::planFor / planForJob on a
 *    WorkloadModel): at OptLevel::None/Safe every step becomes one
 *    Single unit keyed by stepCacheKey — the exact keys the
 *    pre-ExecPlan runner used, so cache populations and tick streams
 *    are bit-identical;
 *  - the graph path (compileNetwork): at OptLevel::Aggressive the
 *    cross-step passes (boot-plan, fuse-linear, prefetch) partition
 *    the network into possibly multi-layer units via
 *    partitionNetwork(), keyed by unitCacheKey.
 *
 * Unit boundaries generalize step boundaries: everything downstream
 * that used to index steps (resumable first_step windows, cake's
 * preemption slices, federation's checkpointed failover, the
 * fault-free JobCache) indexes units of the tenant's plan instead.
 * The Aggressive partition is a pure function of (workload content,
 * network kind) — NOT of the executing card count — so every card
 * group of one machine agrees on unit boundaries for a given
 * (workload, level), which is what makes unit indices meaningful
 * across dispatch, preemption and failover.
 *
 * A plan can be *materialized* (programs compiled up front, one
 * ProgramCache access per unit at build time) or a *skeleton*
 * (PlanWindow::none(): keys only; drivers resolve programs on demand
 * via compilePlanUnit, which is also the degraded re-dispatch path
 * where the executing cluster shrank under the plan).  fusePlan()
 * turns any plan into the paper's Section IV-D fused mode: one
 * skeleton unit holding every step.
 */

#ifndef HYDRA_SCHED_EXECPLAN_HH
#define HYDRA_SCHED_EXECPLAN_HH

#include <memory>
#include <string>
#include <vector>

#include "sched/graph/netcompile.hh"
#include "sched/runner.hh"

namespace hydra {

/** One schedulable unit of an ExecPlan: one or more layers executing
 *  as a single Program (no internal sync barrier, one checkpoint
 *  boundary at the end). */
struct ExecUnit
{
    NetUnit::Kind kind = NetUnit::Kind::Single;
    /** Display name: the single layer, or "first..last". */
    std::string name;
    /** Procedure kind of the leading layer (roll-up display). */
    ProcKind lead = ProcKind::ConvBN;
    /** Member steps in execution order (post-pass content).  Carried
     *  by value so a shrunken cluster can recompile the unit without
     *  the original workload/graph in hand. */
    std::vector<Step> steps;
    /** ProgramCache key for the plan's own cluster. */
    std::string key;
    /** Compiled program; null in skeleton plans (resolve on demand
     *  through compilePlanUnit). */
    std::shared_ptr<const CompiledStep> compiled;
};

/** Which units of a plan get their programs materialized at
 *  compilePlan() time.  Units outside the window still get keys. */
struct PlanWindow
{
    static constexpr size_t npos = static_cast<size_t>(-1);

    size_t first = 0;
    size_t count = npos;

    /** Materialize every unit (InferenceRunner::planFor). */
    static PlanWindow all() { return PlanWindow{}; }

    /** Materialize nothing — a skeleton plan (serving dispatch). */
    static PlanWindow none() { return PlanWindow{0, 0}; }
};

/** A compiled execution plan: the unit sequence plus provenance. */
struct ExecPlan
{
    std::string machine;
    std::string workload;
    /**
     * Window-independent plan identity: machine half + workload name
     * + every pre-pass step's content key + level.  Two plans share a
     * key iff they compile the same content for the same machine shape
     * at the same level — the serving layer's JobCache keys memoized
     * replays on (this, unit window, card signature).
     */
    std::string key;
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
 * Compile `workload` for `spec`'s machine at `level`.  None/Safe take
 * the step-list path (one Single unit per step, legacy cache keys);
 * Aggressive lifts the workload to a NetworkGraph chain and applies
 * the cross-step passes.
 */
ExecPlan compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
                     const NetworkModel& net,
                     const WorkloadModel& workload,
                     OptLevel level = OptLevel::Safe,
                     PlanWindow window = PlanWindow::all());

/**
 * Compile `graph` for `spec`'s machine at `level`.  The graph must be
 * validate()-clean (callers report the SpecError; a cyclic graph
 * fatals in partitionNetwork).
 */
ExecPlan compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
                     const NetworkModel& net, const NetworkGraph& graph,
                     OptLevel level = OptLevel::Safe,
                     PlanWindow window = PlanWindow::all());

/**
 * Resolve one unit's Program through the shared ProgramCache for an
 * executing (sub-)cluster.  With exec_cluster == the plan's own
 * cluster this returns exactly what materialization stored; with a
 * smaller cluster (degraded re-dispatch) it compiles under the
 * surviving card count while keeping the plan's network model.
 */
std::shared_ptr<const CompiledStep>
compilePlanUnit(const PrototypeSpec& spec,
                const ClusterConfig& exec_cluster,
                const ClusterConfig& net_cluster, const OpCostModel& cost,
                const NetworkModel& net, size_t log_slots,
                const ExecUnit& unit, OptLevel level);

/**
 * Section IV-D fused preloading ("multiple tasks can be loaded into
 * each FPGA's task queue at once"): merge every unit of `plan` into
 * one NetUnit::Kind::Fused skeleton unit, so each card's queue holds
 * the whole inference and a card may start the next layer while its
 * peers drain the current one.  `spec` is the machine the plan was
 * compiled for (only its cluster-independent half enters the key).
 * The fused unit executes — and re-dispatches onto survivors after a
 * card death — like any other unit.
 */
ExecPlan fusePlan(const PrototypeSpec& spec, const OpCostModel& cost,
                  const ExecPlan& plan);

} // namespace hydra

#endif // HYDRA_SCHED_EXECPLAN_HH
