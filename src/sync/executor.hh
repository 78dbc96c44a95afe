/**
 * @file
 * Cluster executor: runs a Program over N cards with Procedure-1
 * synchronization semantics (paper Section IV-C):
 *
 *  - compute and comm task queues advance strictly in order;
 *  - CT_i compute tasks run immediately, CT_d wait for recv signals;
 *  - sends wait for the producing compute task (SAC) and for the
 *    receiver's ready handshake;
 *  - recvs configure the DMA, post ready, and block until data lands;
 *  - with an overlapping network (Hydra DTU) transfers proceed in
 *    parallel with compute; with a host-mediated network (FAB) data
 *    movement and compute mutually exclude.
 *
 * Robustness layer: a FaultPlan injects transfer drops/corruption,
 * link degradation, stragglers and permanent card failures; the DTU
 * retries failed transfers with timeout + exponential backoff; runs
 * that cannot complete return a structured RunError (deadlock
 * diagnostics with a wait-for graph, retry-budget exhaustion, card
 * death) instead of aborting the process.
 */

#ifndef HYDRA_SYNC_EXECUTOR_HH
#define HYDRA_SYNC_EXECUTOR_HH

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "arch/network.hh"
#include "sync/fault.hh"
#include "sync/task.hh"

namespace hydra {

/** One recorded occupancy interval (for Fig. 5-style timelines). */
struct TaskEvent
{
    enum class Kind : uint8_t { Compute, Transfer };

    size_t card = 0;
    Tick start = 0;
    Tick end = 0;
    Kind kind = Kind::Compute;
    uint32_t label = 0;
};

/** Aggregated results of one program execution. */
struct RunStats
{
    Tick makespan = 0;
    /** Per-card total time the compute pipeline was busy. */
    std::vector<Tick> computeBusy;
    /** Per-card total time a transfer touched the card. */
    std::vector<Tick> commBusy;
    uint64_t netBytes = 0;
    uint64_t netMessages = 0;
    /** Aggregate hardware activity for the energy model. */
    OpCost totalCost;
    /** Per-label compute time summed over cards. */
    std::map<uint32_t, Tick> labelComputeTicks;

    /** Retry accounting (all zero on fault-free runs). */
    uint64_t retries = 0;
    uint64_t droppedTransfers = 0;
    uint64_t corruptedTransfers = 0;
    uint64_t timedOutTransfers = 0;
    /** Total backoff time spent waiting between attempts. */
    Tick retryBackoffTicks = 0;

    /** Longest per-card compute occupancy — the compute-bound floor. */
    Tick maxComputeBusy() const;

    /** makespan - compute floor: time attributable to communication
     *  and load imbalance (the paper's "communication overhead"). */
    Tick commOverhead() const;

    /** FNV-1a hash of every execution-visible field (timeline
     *  excluded): equal iff two runs are bit-identical. */
    uint64_t fingerprint() const;

    /** Accumulate a subsequent step's stats (makespans add). */
    void append(const RunStats& next, Tick step_gap = 0);

    /** Occupancy intervals; only filled when timeline recording is on. */
    std::vector<TaskEvent> timeline;
};

/** Outcome of ClusterExecutor::tryRun: stats plus a structured error. */
struct RunResult
{
    RunStats stats;
    RunError error;

    bool ok() const { return error.ok(); }
};

/** Executes programs on a modelled cluster. */
class ClusterExecutor
{
  public:
    /**
     * The network model is cloned: the executor owns its copy, so the
     * referenced model may be a temporary and may be destroyed freely
     * after this constructor returns.
     */
    ClusterExecutor(const ClusterConfig& cluster,
                    const NetworkModel& network)
        : cluster_(cluster), network_(network.clone())
    {
    }

    /**
     * Run one program to completion.  On any structured failure
     * (invalid program, deadlock, exhausted retries, card death) this
     * compatibility wrapper reports the diagnostics via fatal() —
     * clean exit, never abort().  Prefer tryRun() in library code.
     */
    RunStats run(const Program& program);

    /** Run one program, returning stats plus a structured error. */
    RunResult tryRun(const Program& program);

    /** Install the fault plan for subsequent runs (empty = off). */
    void setFaultPlan(FaultPlan plan) { faults_ = std::move(plan); }

    /** DTU retry/timeout/backoff policy for failed transfers. */
    void setRetryPolicy(const RetryPolicy& p) { retry_ = p; }

    /**
     * Start subsequent runs at absolute virtual time `t` instead of 0,
     * so several jobs compose on one shared clock (serving layer).
     * RunStats::makespan stays relative to the origin (duration of the
     * run), but timeline events and FaultPlan::cardFailAt ticks are
     * interpreted on the absolute clock: a kill scheduled before the
     * origin fires immediately at run start.
     */
    void setTimeOrigin(Tick t) { origin_ = t; }

    /** Run Program::validate() before executing (default on).
     *  InferenceRunner turns it off: compileSteps() already validated
     *  every Program it runs. */
    void setPrevalidate(bool on) { prevalidate_ = on; }

    /** Record per-task occupancy intervals into RunStats::timeline. */
    void setRecordTimeline(bool on) { recordTimeline_ = on; }

  private:
    ClusterConfig cluster_;
    std::unique_ptr<const NetworkModel> network_;
    FaultPlan faults_;
    RetryPolicy retry_;
    Tick origin_ = 0;
    bool prevalidate_ = true;
    bool recordTimeline_ = false;
};

} // namespace hydra

#endif // HYDRA_SYNC_EXECUTOR_HH
