#include "sched/progcache.hh"

#include <cinttypes>

#include "common/logging.hh"

namespace hydra {

namespace {

/** Machine half of a unit key: everything the cost/network models
 *  and the mapper read, except the member steps. */
std::string
machineCacheKey(const PrototypeSpec& spec,
                const ClusterConfig& exec_cluster,
                const ClusterConfig& net_cluster, size_t ring_n,
                size_t log_slots, OptLevel level)
{
    const FpgaParams& f = spec.fpga;
    const MappingConfig& m = spec.mapping;
    std::string key = strf(
        "m=%s|x=%zux%zu|nx=%zux%zu|n=%zu|d=%zu|f=%.17g,%zu,%zu,%.17g,"
        "%zu,%.17g,%.17g,%.17g|k=%d",
        spec.name.c_str(), exec_cluster.servers,
        exec_cluster.cardsPerServer, net_cluster.servers,
        net_cluster.cardsPerServer, ring_n, spec.dnum, f.clockHz,
        f.lanes, f.nttRadix, f.hbmBytesPerSec, f.scratchpadBytes,
        f.hbmTrafficFactor, f.scratchpadOverflowPenalty, f.computeDerate,
        static_cast<int>(spec.netKind));
    if (spec.netKind == PrototypeSpec::NetKind::Switched)
        key += strf("|nw=%.17g,%" PRIu64 ",%" PRIu64 ",%d",
                    spec.net.linkBytesPerSec, spec.net.switchLatency,
                    spec.net.dmaConfigLatency,
                    spec.net.crossServerExtraHops);
    else
        key += strf("|nw=%.17g,%.17g,%" PRIu64 "",
                    spec.hostNet.pcieBytesPerSec,
                    spec.hostNet.lanBytesPerSec,
                    spec.hostNet.hostLatency);
    key += strf("|mc=%zu,%zu,%zu,%zu|ls=%zu|o=%s", m.maxChunksPerCard,
                m.evalExpDegree, m.dafIters, m.dftLevels, log_slots,
                optLevelName(level));
    return key;
}

/** Content half of one member step. */
std::string
stepContentKey(const Step& step)
{
    // Content only — the name/index is deliberately excluded so
    // repeated identical layers share one entry.
    return strf("|s=%d,%zu,%u,%u,%u,%u,%zu,%d,%zu,%.17g,%zu",
                static_cast<int>(step.kind), step.parallelism,
                step.perUnit.rotations, step.perUnit.cmults,
                step.perUnit.pmults, step.perUnit.hadds, step.limbs,
                static_cast<int>(step.agg), step.polyDegree,
                step.unitScale, step.outputCts);
}

} // namespace

CompiledStep
compileSteps(const OpCostModel& cost, const NetworkModel& net,
             size_t cards, size_t log_slots, const MappingConfig& mapping,
             const std::vector<Step>& steps, OptLevel level)
{
    StepMapper mapper(cost, net, cards, log_slots, mapping);
    ProgramBuilder pb(cards);
    for (const Step& s : steps)
        mapper.mapStepInto(pb, s);
    CompiledStep out;
    out.program = optimizeProgram(pb.take(), level, net.overlapsCompute(),
                                  &out.report);
    // A compiled program is cached and run many times but never grows
    // again: drop the queues' push_back slack.
    for (CardProgram& card : out.program.cards) {
        card.compute.shrink_to_fit();
        card.comm.shrink_to_fit();
        card.waits.shrink_to_fit();
    }
    // The one static check of every Program a plan runs: executors
    // fed from here skip their per-run prevalidation.
    HYDRA_ASSERT(out.program.validate().empty(),
                 "compiled program fails Program::validate()");
    return out;
}

std::string
unitCacheKey(const PrototypeSpec& spec, const ClusterConfig& exec_cluster,
             const ClusterConfig& net_cluster, size_t ring_n,
             size_t log_slots, const std::vector<Step>& steps,
             OptLevel level)
{
    std::string key = machineCacheKey(spec, exec_cluster, net_cluster,
                                      ring_n, log_slots, level);
    for (const Step& s : steps)
        key += stepContentKey(s);
    return key;
}

std::shared_ptr<const CompiledStep>
compileUnit(const PrototypeSpec& spec, const ClusterConfig& exec_cluster,
            const ClusterConfig& net_cluster, const OpCostModel& cost,
            const NetworkModel& net, size_t log_slots,
            const std::vector<Step>& steps, OptLevel level)
{
    return ProgramCache::global().getOrCompile(
        unitCacheKey(spec, exec_cluster, net_cluster, cost.n(), log_slots,
                     steps, level),
        [&] {
            return compileSteps(cost, net, exec_cluster.totalCards(),
                                log_slots, spec.mapping, steps, level);
        });
}

ProgramCache&
ProgramCache::global()
{
    static ProgramCache cache;
    return cache;
}

std::shared_ptr<const CompiledStep>
ProgramCache::getOrCompile(const std::string& key,
                           const std::function<CompiledStep()>& compile)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            ++hits_;
            lru_.splice(lru_.begin(), lru_, it->second.pos);
            return it->second.compiled;
        }
        ++misses_;
    }
    // Compile outside the lock: compilation is pure and slow; a
    // concurrent duplicate compile is deterministic and harmless (one
    // of the identical results is published).
    auto compiled = std::make_shared<const CompiledStep>(compile());
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
        // A concurrent compile won the publish race; adopt its result.
        lru_.splice(lru_.begin(), lru_, it->second.pos);
        return it->second.compiled;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{compiled, lru_.begin()});
    trimLocked();
    return compiled;
}

std::shared_ptr<const CompiledStep>
ProgramCache::lookup(const std::string& key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : it->second.compiled;
}

ProgramCache::Stats
ProgramCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Stats s;
    s.hits = hits_;
    s.misses = misses_;
    s.entries = map_.size();
    s.evictions = evictions_;
    return s;
}

void
ProgramCache::resetStats()
{
    std::lock_guard<std::mutex> lock(mu_);
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

void
ProgramCache::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
}

size_t
ProgramCache::capacity() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
}

void
ProgramCache::setCapacity(size_t cap)
{
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = cap;
    trimLocked();
}

void
ProgramCache::trimLocked()
{
    if (!capacity_)
        return;
    while (map_.size() > capacity_) {
        map_.erase(lru_.back());
        lru_.pop_back();
        ++evictions_;
    }
}

} // namespace hydra
