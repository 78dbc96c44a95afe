/**
 * @file
 * Shared compiled-program cache: the reuse layer of the schedule
 * compiler (map -> optimize -> cache).
 *
 * The paper's host software preloads instruction streams (Section
 * IV-D); compiling one is pure — a Program depends only on the cost
 * model (card microarchitecture, ring, dnum), the network model (kind,
 * parameters, topology), the card count, the mapping knobs and the
 * unit's member steps — and is fault-independent: fault plans act at
 * *execution* time, so a cached Program stays valid under any
 * FaultPlan.  Every ExecPlan unit (sched/execplan.hh) therefore
 * compiles through one cached compiler, compileUnit(), keyed by one
 * rule, unitCacheKey(): plan compilation (InferenceRunner's planFor,
 * planForJob and fusePlan), the execution driver's degraded
 * re-dispatch and the serving engine all share one process-wide cache,
 * in the counter style of BufferPool: repeated plans and repeated
 * identical layers (ResNet blocks, transformer layers) hit after the
 * first compile.
 *
 * Keys are explicit human-readable strings covering every mapping
 * input (no hash collisions by construction); step *names* and step
 * indices are excluded so content-identical layers share one entry.
 */

#ifndef HYDRA_SCHED_PROGCACHE_HH
#define HYDRA_SCHED_PROGCACHE_HH

#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/mapping.hh"
#include "sched/passes.hh"
#include "sched/runner.hh"

namespace hydra {

/** One cached compilation result (immutable once published). */
struct CompiledStep
{
    Program program;
    OptReport report;
};

/**
 * Compile one unit's member steps end to end, uncached: map (every
 * member's priced StepMapper decomposition into one ProgramBuilder, so
 * a multi-step unit has no internal sync barrier), then optimize
 * (`level` pass pipeline, gated on net.overlapsCompute()), then assert
 * that Program::validate() finds nothing -- the one validation each
 * plan's Program gets.  Every card's compute and comm queue (and its
 * wait array) leaves at exact size (capacity() == size()).
 */
CompiledStep compileSteps(const OpCostModel& cost, const NetworkModel& net,
                          size_t cards, size_t log_slots,
                          const MappingConfig& mapping,
                          const std::vector<Step>& steps,
                          OptLevel level = OptLevel::Safe);

/**
 * ProgramCache key of one unit: the machine half (everything the
 * cost/network models and the mapper read) followed by each member
 * step's content half.  Step names and indices are excluded, so
 * content-identical layers and units share one entry.
 *
 * @param spec machine description (name + card/network/mapping params)
 * @param exec_cluster topology of the executing (sub-)cluster — the
 *        mapper's card count
 * @param net_cluster topology the network model was built from (the
 *        degraded re-dispatch path keeps the machine network while
 *        shrinking the executing cluster, so the two can differ)
 * @param ring_n CKKS ring dimension of the cost model
 * @param log_slots workload slot geometry (bootstrap DFT size)
 */
std::string unitCacheKey(const PrototypeSpec& spec,
                         const ClusterConfig& exec_cluster,
                         const ClusterConfig& net_cluster, size_t ring_n,
                         size_t log_slots, const std::vector<Step>& steps,
                         OptLevel level = OptLevel::Safe);

/**
 * Process-wide compiled-program cache (BufferPool-style counters),
 * bounded: at most `capacity()` entries are retained, trimmed in
 * least-recently-used order — network-level unit keys multiply the
 * entry population, so unbounded growth is no longer acceptable.
 */
class ProgramCache
{
  public:
    /** Default entry cap: far above one machine's distinct steps, far
     *  below a sweep over every (machine, model, level) combination. */
    static constexpr size_t kDefaultCapacity = 4096;

    /** Counter snapshot; hits/misses/evictions are cumulative, entries
     *  current. */
    struct Stats
    {
        uint64_t hits = 0;   ///< lookups served from the cache
        uint64_t misses = 0; ///< lookups that compiled fresh
        uint64_t entries = 0;
        uint64_t evictions = 0; ///< entries trimmed by the LRU bound

        double
        hitRate() const
        {
            uint64_t n = hits + misses;
            return n ? static_cast<double>(hits) /
                           static_cast<double>(n)
                     : 0.0;
        }
    };

    /** The singleton cache shared by runner and serving layers. */
    static ProgramCache& global();

    ProgramCache() = default;
    ProgramCache(const ProgramCache&) = delete;
    ProgramCache& operator=(const ProgramCache&) = delete;

    /**
     * Return the entry for `key`, invoking `compile` on a miss.  The
     * returned CompiledStep is shared and immutable; executors run the
     * program without copying it.
     */
    std::shared_ptr<const CompiledStep>
    getOrCompile(const std::string& key,
                 const std::function<CompiledStep()>& compile);

    /** Peek without counting or compiling (tests). */
    std::shared_ptr<const CompiledStep>
    lookup(const std::string& key) const;

    Stats stats() const;

    /** Zero the cumulative hit/miss/eviction counters (entries stay). */
    void resetStats();

    /** Drop every entry (counters stay). */
    void clear();

    /** Current entry cap (0 = unbounded). */
    size_t capacity() const;

    /** Set the entry cap; 0 disables trimming.  Shrinking below the
     *  current population evicts LRU entries immediately. */
    void setCapacity(size_t cap);

  private:
    struct Entry
    {
        std::shared_ptr<const CompiledStep> compiled;
        /** Position in lru_ (front = most recently used). */
        std::list<std::string>::iterator pos;
    };

    /** Evict past-capacity entries; mu_ must be held. */
    void trimLocked();

    mutable std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
    std::list<std::string> lru_;
    size_t capacity_ = kDefaultCapacity;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t evictions_ = 0;
};

/**
 * compileSteps() through ProgramCache::global() under unitCacheKey():
 * the one cached unit compiler (plan compilation and the execution
 * driver's degraded re-dispatch).
 */
std::shared_ptr<const CompiledStep>
compileUnit(const PrototypeSpec& spec, const ClusterConfig& exec_cluster,
            const ClusterConfig& net_cluster, const OpCostModel& cost,
            const NetworkModel& net, size_t log_slots,
            const std::vector<Step>& steps, OptLevel level);

} // namespace hydra

#endif // HYDRA_SCHED_PROGCACHE_HH
