/**
 * @file
 * Network-level compilation: the cross-step passes and unit partition
 * behind compilePlan() (sched/execplan.hh) — DESIGN.md §15.  Units
 * compile afterwards, one at a time, through compileUnit()
 * (sched/progcache.hh: map -> optimize -> cache).
 *
 * At OptLevel::None and Safe the partition is a pure chain walk: one
 * Single unit per layer, whose one-step ProgramCache key is the
 * step-at-a-time key, so the executed tick stream is bit-identical to
 * the step-at-a-time path.  OptLevel::Aggressive enables the
 * cross-step passes:
 *
 *  - boot-plan: the paper's Eq. 1 level model generalized across
 *    steps.  Walks the chain tracking the modulus level from maxLimbs
 *    down, merges adjacent bootstraps, elides a bootstrap whenever the
 *    remaining level covers the depth to the next refresh, and
 *    re-levels each surviving layer to the tracked level (running an
 *    op at its true level instead of the hand-calibrated average —
 *    rescale placement).
 *  - fuse-linear: maximal runs of adjacent ConvBN/Pooling layers
 *    (with a terminal FC allowed) map into ONE Program; intermediate
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

#include <vector>

#include "sched/execplan.hh"

namespace hydra {

/** Max units one prefetch window merges into a single Program. */
constexpr size_t kPrefetchWindow = 4;

/**
 * Run the cross-step passes over `graph` and partition the post-pass
 * layers (in topological order) into units carrying their steps by
 * value; no Program is compiled.  `report` receives the pass
 * statistics.  The partition is a pure function of the graph content
 * and the machine's network kind — it does NOT depend on the executing
 * card count, so every card group of one machine sees the same unit
 * boundaries for a given (workload, level) pair (the serving layer's
 * resumable unit indices rely on this).  The graph must topo-order
 * (fatals on a cycle).
 */
std::vector<ExecUnit> partitionNetwork(const PrototypeSpec& spec,
                                       const OpCostModel& cost,
                                       const NetworkModel& net,
                                       const NetworkGraph& graph,
                                       OptLevel level,
                                       NetOptReport& report);

} // namespace hydra

#endif // HYDRA_SCHED_GRAPH_NETCOMPILE_HH
