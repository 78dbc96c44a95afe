/**
 * @file
 * Program optimization passes: stage 2 of the schedule compiler
 * (map -> optimize -> cache).  Rewrites an executable Program before
 * it is preloaded, with per-pass before/after statistics.
 *
 * Levels:
 *  - None: the mapped Program untouched.
 *  - Safe: provably tick-neutral rewrites only.  Today that is the
 *    canonical compute-queue reorder — maximal runs of adjacent
 *    dependency-free tasks (no waitMsgs, not anchoring any send) are
 *    sorted by (label, id).  Neutrality holds only when transfers
 *    overlap compute (Hydra DTU): on a host-mediated network a task
 *    boundary is a point where a pending transfer may claim the
 *    machine, so the pass is gated on `overlaps_compute`.
 *  - Aggressive: adds rewrites that preserve the computation but may
 *    change timing: dead-transfer elimination (zero-byte messages no
 *    task waits on), broadcast coalescing (adjacent broadcasts from
 *    one card with the same compute anchor merge into one transfer),
 *    and stall hoisting (dependency-free compute tasks move ahead of
 *    waiting ones — a stable partition, which provably cannot
 *    introduce deadlock).
 *
 * The default compile path (InferenceRunner / Federation / ProgramCache)
 * runs Safe, keeping every golden makespan and determinism hash
 * bit-identical; Aggressive is opt-in for exploration.
 */

#ifndef HYDRA_SCHED_PASSES_HH
#define HYDRA_SCHED_PASSES_HH

#include <string>
#include <vector>

#include "sync/task.hh"

namespace hydra {

/** Optimization level of the pass pipeline. */
enum class OptLevel : uint8_t { None, Safe, Aggressive };

const char* optLevelName(OptLevel level);

/** Size summary of one Program (or one card's queues). */
struct ProgramCounts
{
    uint64_t computeTasks = 0;
    uint64_t sends = 0;
    uint64_t recvs = 0;
    /** Distinct message ids. */
    uint64_t messages = 0;
    /** Payload bytes summed over sends (a broadcast counts once). */
    uint64_t bytes = 0;
    /** Deepest per-card compute / comm queue. */
    uint64_t maxComputeDepth = 0;
    uint64_t maxCommDepth = 0;

    bool
    operator==(const ProgramCounts& o) const
    {
        return computeTasks == o.computeTasks && sends == o.sends &&
               recvs == o.recvs && messages == o.messages &&
               bytes == o.bytes &&
               maxComputeDepth == o.maxComputeDepth &&
               maxCommDepth == o.maxCommDepth;
    }
};

/** Whole-program totals. */
ProgramCounts countProgram(const Program& prog);

/** One pass's contribution to an optimization run. */
struct PassDelta
{
    std::string pass;
    ProgramCounts before;
    ProgramCounts after;
    /** Pass-specific mutation count (tasks moved, transfers removed,
     *  broadcasts merged). */
    uint64_t changes = 0;
};

/** Before/after record of one optimizeProgram() call. */
struct OptReport
{
    OptLevel level = OptLevel::None;
    ProgramCounts before;
    ProgramCounts after;
    std::vector<PassDelta> passes;

    /** Total mutations across passes. */
    uint64_t totalChanges() const;

    /** Multi-line human-readable summary (CLI --dump-program). */
    std::string describe() const;
};

/**
 * Run the pass pipeline for `level` over `prog`.
 *
 * @param overlaps_compute NetworkModel::overlapsCompute() of the
 *        machine the program will execute on; gates the tick-neutral
 *        reorder (see file header)
 * @param report optional per-pass statistics sink
 */
Program optimizeProgram(Program prog, OptLevel level,
                        bool overlaps_compute,
                        OptReport* report = nullptr);

/**
 * Per-card queue/traffic summary plus pass deltas, for the CLI
 * --dump-program flag.
 */
std::string describeProgram(const Program& prog,
                            const OptReport* report = nullptr);

} // namespace hydra

#endif // HYDRA_SCHED_PASSES_HH
