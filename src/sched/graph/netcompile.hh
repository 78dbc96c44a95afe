/**
 * @file
 * Network-level compilation: cross-step passes over a NetworkGraph,
 * lowering to per-unit Programs through the PR 5 step machinery
 * (plan -> lower -> optimize -> cache) — DESIGN.md §15.
 *
 * At OptLevel::None and Safe the network compiler is a pure chain
 * walker: one unit per layer, each compiled exactly like a step-list
 * plan compiles a step (same ProgramCache keys), so the executed tick
 * stream is bit-identical to the step-at-a-time path.
 * OptLevel::Aggressive enables the cross-step passes:
 *
 *  - boot-plan: the paper's Eq. 1 level model generalized across
 *    steps.  Walks the chain tracking the modulus level from maxLimbs
 *    down, merges adjacent bootstraps, elides a bootstrap whenever the
 *    remaining level covers the depth to the next refresh, and
 *    re-levels each surviving layer to the tracked level (running an
 *    op at its true level instead of the hand-calibrated average —
 *    rescale placement).
 *  - fuse-linear: maximal runs of adjacent ConvBN/Pooling layers
 *    (with a terminal FC allowed) plan into ONE Program; intermediate
 *    broadcasts are elided (outputs stay card-local, consumed by the
 *    next layer's co-resident units), and the per-step sync barrier
 *    between members disappears.
 *  - prefetch: on networks whose DTU overlaps compute, up to
 *    kPrefetchWindow consecutive units merge into one preloaded
 *    Program, so unit N+1's broadcasts sit in the comm queues behind
 *    unit N's compute and transfers hide under it (the Section IV-D
 *    fused mode, applied in bounded windows).  Bootstrap boundaries
 *    stay barriers.
 */

#ifndef HYDRA_SCHED_GRAPH_NETCOMPILE_HH
#define HYDRA_SCHED_GRAPH_NETCOMPILE_HH

#include <memory>
#include <string>
#include <vector>

#include "sched/graph/graph.hh"
#include "sched/progcache.hh"

namespace hydra {

/** Max units one prefetch window merges into a single Program. */
constexpr size_t kPrefetchWindow = 4;

/** One schedulable unit of a compiled network: one or more layers
 *  sharing a single Program (and hence no internal sync barrier). */
struct NetUnit
{
    enum class Kind : uint8_t
    {
        Single,   ///< one layer, step-compiler semantics
        Fused,    ///< fuse-linear group (intermediate broadcasts gone)
        Prefetch, ///< prefetch window (transfers hide under compute)
    };

    Kind kind = Kind::Single;
    /** Display name: the single layer, or "first..last". */
    std::string name;
    /** Procedure kind of the leading layer (roll-up display). */
    ProcKind lead = ProcKind::ConvBN;
    /** Node ids of the members, in execution order, into
     *  CompiledNetwork::graph. */
    std::vector<uint32_t> nodes;
};

const char* netUnitKindName(NetUnit::Kind k);

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

/**
 * The partition stage of network compilation, exposed separately so
 * the ExecPlan layer (sched/execplan.hh) can compute a plan's unit
 * boundaries without materializing any Program: the post-pass step
 * list in execution order, its unit partition, and the pass report.
 * The partition is a pure function of the graph content and the
 * machine's network kind — it does NOT depend on the executing card
 * count, so every card group of one machine sees the same unit
 * boundaries for a given (workload, level) pair (the serving layer's
 * resumable unit indices rely on this).
 */
struct NetPartition
{
    /** Post-pass steps, in execution order (boot-plan rewrites
     *  applied); unit node ids index into this. */
    std::vector<Step> steps;
    std::vector<NetUnit> units;
    NetOptReport report;
};

/** Run the cross-step passes and unit partition of compileNetwork
 *  without compiling any Program.  The graph must topo-order (fatals
 *  on a cycle, like compileNetwork). */
NetPartition partitionNetwork(const PrototypeSpec& spec,
                              const OpCostModel& cost,
                              const NetworkModel& net,
                              const NetworkGraph& graph,
                              OptLevel level = OptLevel::Safe);

/**
 * Compile one unit of a partition through the shared ProgramCache for
 * an executing (sub-)cluster: single-member units use the step
 * compiler's exact stepCacheKey (shared with the step-list plans);
 * multi-member units use unitCacheKey.  `exec_cluster` may be smaller
 * than `net_cluster` (the degraded re-dispatch path).
 */
std::shared_ptr<const CompiledStep>
compileNetUnit(const PrototypeSpec& spec,
               const ClusterConfig& exec_cluster,
               const ClusterConfig& net_cluster, const OpCostModel& cost,
               const NetworkModel& net, size_t log_slots,
               const std::vector<const Step*>& members,
               NetUnit::Kind kind, OptLevel level);

/** A fully compiled network: the post-pass graph, its unit partition,
 *  and one shared compiled Program per unit. */
struct CompiledNetwork
{
    /** Post-pass graph (boot-plan rewrites visible), re-annotated. */
    NetworkGraph graph;
    std::vector<NetUnit> units;
    /** programs[i] executes units[i]; entries come from (and live in)
     *  the process-wide ProgramCache. */
    std::vector<std::shared_ptr<const CompiledStep>> programs;
    NetOptReport report;
};

/**
 * Compile `graph` for `spec`'s machine at `level`.  The graph must be
 * validate()-clean (callers report the SpecError; this fatals).
 * Compiled unit programs are cached process-wide: single-layer units
 * share entries with the step compiler's stepCacheKey population;
 * multi-layer units get network-aware keys (machine half + every
 * member's content half + the unit kind).
 */
CompiledNetwork compileNetwork(const PrototypeSpec& spec,
                               const OpCostModel& cost,
                               const NetworkModel& net,
                               const NetworkGraph& graph,
                               OptLevel level = OptLevel::Safe);

/** Cache key of a multi-layer unit (exposed for tests). */
std::string unitCacheKey(const PrototypeSpec& spec,
                         const ClusterConfig& exec_cluster,
                         const ClusterConfig& net_cluster, size_t ring_n,
                         size_t log_slots,
                         const std::vector<const Step*>& members,
                         NetUnit::Kind kind, OptLevel level);

} // namespace hydra

#endif // HYDRA_SCHED_GRAPH_NETCOMPILE_HH
