/**
 * @file
 * Fleet partition manager: carves one machine's cards into disjoint
 * serving groups, each dedicated to a workload class, and repairs the
 * partition when permanent card deaths shrink a group.
 *
 * Carving follows the ServeSpec's `group=` plan (contiguous card
 * ranges in plan order) or, when no plan is given, splits the machine
 * evenly across the workload classes the tenants use.  On a card
 * death the owning group shrinks in place while it stays at or above
 * its minCards floor; below the floor it dissolves and donates its
 * survivors to the smallest live sibling serving the same workload
 * (no sibling -> the workload loses capacity and its queued requests
 * are shed upstream).
 */

#ifndef HYDRA_SERVE_PARTITION_HH
#define HYDRA_SERVE_PARTITION_HH

#include "sched/runner.hh"
#include "serve/spec.hh"

namespace hydra {

/** One serving group: a card subset dedicated to a workload class. */
struct ServeGroup
{
    size_t id = 0;
    /** Workload-table index this group serves. */
    size_t workload = 0;
    /** Live cards (original machine indices, ascending). */
    CardGroup cards;
    /** Dissolution floor for fault-aware repartitioning. */
    size_t minCards = 1;
    bool retired = false;

    // Serving state, maintained by the serving engine (Federation).
    bool busy = false;
    Tick busyTicks = 0;
    uint64_t completed = 0;

    bool live() const { return !retired && !cards.cards.empty(); }
};

/** Owns the group set and the card -> group index. */
class FleetPartition
{
  public:
    /** What onCardDeath did to the partition. */
    enum class DeathAction : uint8_t
    {
        /** Card was not owned by a live group (already gone). */
        Ignored,
        /** Group shrank in place (still >= minCards). */
        Shrunk,
        /** Group fell below minCards and dissolved; no sibling serves
         *  its workload, so the class lost all capacity. */
        Dissolved,
        /** Group dissolved and its survivors joined a sibling. */
        Donated,
    };

    /**
     * Carve `spec`'s cluster per `serve.groups` (auto-split across the
     * tenants' workloads when empty).  `workload_table` maps names to
     * the sim's workload indices.  Calls fatal() when the plan
     * oversubscribes the machine or names an unknown workload.
     */
    FleetPartition(const PrototypeSpec& spec, const ServeSpec& serve,
                   const std::vector<std::string>& workload_table);

    std::vector<ServeGroup>& groups() { return groups_; }
    const std::vector<ServeGroup>& groups() const { return groups_; }

    /** Live group currently owning `card`, or nullptr. */
    ServeGroup* groupOf(size_t card);

    /** True while at least one live group serves `workload`. */
    bool servable(size_t workload) const;

    /** Remove a dead card and repair the partition. */
    DeathAction onCardDeath(size_t card);

  private:
    std::vector<ServeGroup> groups_;
};

} // namespace hydra

#endif // HYDRA_SERVE_PARTITION_HH
