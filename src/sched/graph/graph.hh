/**
 * @file
 * NetworkGraph: the whole-network IR of the graph compiler, one level
 * above the per-step StepMapper (DESIGN.md §15).
 *
 * A node is one schedulable layer (a workloads/model.hh Step) annotated
 * with the level metadata the cross-step passes need: the modulus-chain
 * level available on entry, the multiplicative depth the layer consumes,
 * and its total rotation count.  An edge is the dataflow between two
 * layers, weighted by the ciphertext count the producer emits — the
 * payload a prefetch pass can move early.
 *
 * fromModel() lifts a flat WorkloadModel into a chain graph; the graph
 * compiler (sched/graph/netcompile.hh) walks it in topoOrder().
 *
 * Depth accounting (paper Eq. 1 generalized across steps): a linear
 * layer consumes one level (its rescale); a non-linear layer consumes
 * ceil(log2(degree + 1)) levels (the BSGS polynomial ladder); a
 * bootstrap consumes none and resets the level to the chain maximum.
 */

#ifndef HYDRA_SCHED_GRAPH_GRAPH_HH
#define HYDRA_SCHED_GRAPH_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "workloads/model.hh"

namespace hydra {

/** Modulus-chain levels one layer consumes (0 for Bootstrap). */
size_t layerDepth(const Step& step);

/** One layer of the network. */
struct LayerNode
{
    /** Node id == index into NetworkGraph::nodes (dense). */
    uint32_t id = 0;
    Step step;

    /// @name Level annotations (filled by annotateLevels()).
    /// @{
    /** Modulus-chain level available when this layer starts. */
    size_t levelIn = 0;
    /** Levels this layer consumes (layerDepth of the step). */
    size_t depth = 0;
    /** Total rotations across the layer's effective units. */
    uint64_t rotations = 0;
    /// @}
};

/** Dataflow between two layers. */
struct GraphEdge
{
    uint32_t src = 0;
    uint32_t dst = 0;
    /** Ciphertexts crossing the edge (the producer's output packing). */
    uint64_t cts = 0;
};

/** A whole network: layers plus their dataflow. */
struct NetworkGraph
{
    std::string name;
    /** log2 ciphertext slot count (Table V geometry). */
    size_t logSlots = 15;
    /** Full modulus-chain length; a bootstrap refreshes to this. */
    size_t maxLimbs = 24;
    std::vector<LayerNode> nodes;
    std::vector<GraphEdge> edges;

    /** Lift a flat step list into a chain graph (level-annotated). */
    static NetworkGraph fromModel(const WorkloadModel& model);

    /**
     * Topological execution order (Kahn, smallest node id first, so
     * the order is deterministic and chain graphs keep their authored
     * order).  Returns false with `err` set on a cycle.
     */
    bool topoOrder(std::vector<uint32_t>& order, SpecError& err) const;

    /**
     * Structural validation: non-empty name and node list, dense node
     * ids, in-range acyclic edges, per-layer invariants (parallelism
     * >= 1, 1 <= limbs <= maxLimbs, NonLinear has a polynomial degree,
     * positive unitScale and outputCts).  On failure `err` names the
     * offending node or edge.
     */
    bool validate(SpecError& err) const;

    /**
     * Recompute levelIn/depth/rotations: walk the topological order
     * tracking the available level from maxLimbs down (a join takes the
     * minimum across its predecessors; a bootstrap resets).  Requires a
     * validate()-clean graph.
     */
    void annotateLevels();

    /** Multi-line human-readable dump (CLI --dump-graph). */
    std::string describe() const;

    /** JSON dump (CLI --dump-graph --json): nodes, edges, levels. */
    std::string toJson() const;

    /** Total ciphertexts crossing all edges. */
    uint64_t totalEdgeCts() const;
};

} // namespace hydra

#endif // HYDRA_SCHED_GRAPH_GRAPH_HH
