/**
 * @file
 * Whole-inference scheduler (paper Procedure 2): maps every Step of a
 * workload, executes the resulting programs in order, and rolls up
 * card -> server -> task completion with the per-step synchronization
 * cost of the machine's network.
 */

#ifndef HYDRA_SCHED_RUNNER_HH
#define HYDRA_SCHED_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "sched/mapping.hh"
#include "sched/passes.hh"
#include "sync/executor.hh"
#include "workloads/model.hh"

namespace hydra {

struct NetworkGraph;
struct ExecPlan;

/** A named machine configuration (Hydra-S/M/L, FAB-*, Poseidon). */
struct PrototypeSpec
{
    enum class NetKind : uint8_t { Switched, HostMediated };

    std::string name;
    ClusterConfig cluster;
    FpgaParams fpga;
    /** Keyswitching digit count used by the cost model. */
    size_t dnum = 4;
    NetKind netKind = NetKind::Switched;
    NetParams net;
    HostNetParams hostNet;
    MappingConfig mapping;

    std::unique_ptr<NetworkModel> makeNetwork() const;
};

/**
 * A job-scoped subset of a machine's cards, identified by their
 * original (machine-global) indices.  The serving layer carves a
 * machine into disjoint groups and runs one inference job per group.
 */
struct CardGroup
{
    /** Original card indices, strictly ascending. */
    std::vector<size_t> cards;

    size_t size() const { return cards.size(); }

    /** Whether the group is a contiguous run of whole servers, so the
     *  machine's real topology applies inside it. */
    bool alignedTo(const ClusterConfig& cluster) const;

    /** Convenience: the contiguous group [base, base + count). */
    static CardGroup contiguous(size_t base, size_t count);
};

/**
 * The sub-machine a job confined to `group` sees: whole-server groups
 * keep the machine's switched/host topology; ragged groups are
 * modelled as a flat single-server cluster (the same substitution the
 * degraded re-dispatch path of PR 2 uses for survivors).
 */
PrototypeSpec groupSubSpec(const PrototypeSpec& spec,
                           const CardGroup& group);

/** Execution record of one step. */
struct StepResult
{
    std::string name;
    ProcKind kind = ProcKind::ConvBN;
    RunStats stats;
};

/** Execution record of a full inference. */
struct InferenceResult
{
    std::string machine;
    std::string workload;
    std::vector<StepResult> steps;
    RunStats total;
    /**
     * Checkpoint boundaries: offset from the run's start (in ticks) at
     * which each successfully completed step ended, in execution order
     * (sync latency included).  The serving layer uses these to resume
     * a job killed mid-run from its last completed unit boundary via
     * runJob(..., first_unit) instead of restarting from unit 0.
     */
    std::vector<Tick> stepEnds;

    /** Cards (original indices) that failed permanently during the
     *  run; the affected steps were re-dispatched onto survivors. */
    std::vector<size_t> failedCards;
    /** Number of step re-dispatches triggered by card failures. */
    size_t redispatches = 0;
    /** Simulated time wasted in aborted step attempts (included in
     *  total.makespan): the makespan penalty of degraded execution. */
    Tick recoveryPenalty = 0;
    /** Units whose program already ran earlier in this fault-free
     *  call: their stats were replayed, not re-simulated.  Host-side
     *  bookkeeping only, outside every fingerprint and hash. */
    size_t replayedUnits = 0;
    /** Terminal error when even the degraded path could not finish
     *  (retry budget exhausted, deadlock, all cards dead). */
    RunError error;

    bool ok() const { return error.ok(); }
    bool degraded() const { return !failedCards.empty(); }

    double seconds() const { return ticksToSeconds(total.makespan); }

    /** Summed makespan of all steps of one procedure kind. */
    Tick procTime(ProcKind k) const;

    /** Compute-floor (max per-card busy time) summed over those steps. */
    Tick procComputeFloor(ProcKind k) const;

    /** Fraction of a procedure's time attributable to communication. */
    double procCommFraction(ProcKind k) const;

    /** Whole-run communication-overhead fraction. */
    double commFraction() const;
};

/**
 * Runs workloads on one machine: three compile calls and two execute
 * calls over one ExecPlan (sched/execplan.hh).
 *
 * Compile: planFor() builds a machine-scoped plan from a workload or a
 * NetworkGraph, planForJob() one for a card group's sub-machine, and
 * fusePlan() merges a plan into Section IV-D's one preloaded unit.
 * Every plan they return is compiled: each unit's Program is resolved
 * through compileUnit() for the plan's cluster before the call
 * returns.
 *
 * Execute: runJob() is the one driver — a window of plan units on a
 * card group, starting at an absolute tick, under a fault plan with
 * degraded re-dispatch; runPlan() forwards to it with the whole
 * machine and start tick 0.  A plan runs only on a group of its own
 * shape.  One clock convention: the executor's origin is the run's
 * start tick plus the time elapsed, and FaultPlan::cardFailAt ticks
 * (and RunError::tick) are on that same absolute clock.
 */
class InferenceRunner
{
  public:
    /**
     * @param spec machine description (copied; temporaries are safe)
     * @param ring_n CKKS ring dimension for the cost model
     */
    explicit InferenceRunner(PrototypeSpec spec,
                             size_t ring_n = size_t{1} << 16);

    /**
     * Compile `workload` (lifted to its chain graph by
     * NetworkGraph::fromModel) into a machine-scoped ExecPlan.
     */
    std::shared_ptr<const ExecPlan>
    planFor(const WorkloadModel& workload,
            OptLevel level = OptLevel::Safe) const;

    /**
     * Compile `graph` through the network compiler (DESIGN.md §15)
     * into a machine-scoped ExecPlan; plan.report holds
     * the cross-step pass statistics.  At OptLevel::Safe the plan is
     * tick-identical to planFor() on a WorkloadModel holding the
     * graph's steps in topoOrder(); Aggressive enables
     * the cross-step passes (boot-plan, fuse-linear, prefetch).  An
     * invalid graph yields a unit-less plan whose ExecPlan::error the
     * execute calls surface as InferenceResult::error — never an
     * abort.
     */
    std::shared_ptr<const ExecPlan>
    planFor(const NetworkGraph& graph,
            OptLevel level = OptLevel::Safe) const;

    /**
     * Compile `workload` into an ExecPlan for `group`'s sub-machine
     * (groupSubSpec()).  Plans are start-invariant and shared: repeated jobs on groups of
     * one shape reuse one plan (the serving layer's reuse).  The
     * Aggressive partition is shape-invariant: every group's plan has
     * the same unit count.
     */
    std::shared_ptr<const ExecPlan>
    planForJob(const WorkloadModel& workload, const CardGroup& group,
               OptLevel level = OptLevel::Safe) const;

    /**
     * Section IV-D fused preloading ("multiple tasks can be loaded
     * into each FPGA's task queue at once"): merge every unit of
     * `plan` into one ExecUnit::Kind::Fused unit, compiled for
     * plan.cluster, so each card's queue holds the whole inference
     * and a card may start the next layer while its peers drain the
     * current one.  The fused unit executes — and re-dispatches onto
     * survivors after a card death — like any other unit.
     */
    std::shared_ptr<const ExecPlan> fusePlan(const ExecPlan& plan) const;

    /**
     * Execute units [first_unit, first_unit + num_units) of `plan` on
     * the whole machine from tick 0, fault-free:
     * runJob(plan, all cards, 0) without the sub-machine rebuild.
     */
    InferenceResult
    runPlan(const ExecPlan& plan, size_t first_unit = 0,
            size_t num_units = static_cast<size_t>(-1)) const;

    /**
     * The execution driver: run units [first_unit, first_unit +
     * num_units) of `plan` confined to `group`'s cards, starting at
     * absolute virtual time `start_tick` on a shared clock (the
     * executor's time origin).  `plan` must be compiled for the
     * group's shape, i.e. plan.cluster == groupSubSpec(spec(),
     * group).cluster (planForJob() with the group, or any group of
     * that shape); another shape, like an empty group, returns an
     * InvalidProgram error.
     *
     * Fault-plan card indices are machine-global (entries for cards
     * outside the group are ignored) and cardFailAt ticks are absolute
     * times on the same clock.  On a permanent card failure the failed
     * unit is re-mapped onto the group's survivors (modelled as a flat
     * single-switch cluster) and re-run — a fused one-unit plan
     * included; the wasted attempt time is charged to the makespan
     * and reported as recoveryPenalty, and failedCards reports
     * original machine indices.  Unrecoverable failures (exhausted
     * retry budget, deadlock, no survivors left) end the run with
     * InferenceResult::error set — never abort.
     *
     * The returned total.makespan is the job's duration, i.e. the job
     * ends at start_tick + total.makespan.
     */
    InferenceResult
    runJob(const ExecPlan& plan, const CardGroup& group, Tick start_tick,
           const FaultPlan& faults = {}, const RetryPolicy& retry = {},
           size_t first_unit = 0,
           size_t num_units = static_cast<size_t>(-1)) const;

    const OpCostModel& costModel() const { return cost_; }
    const NetworkModel& network() const { return *net_; }
    const PrototypeSpec& spec() const { return spec_; }

  private:
    /** Resolve every unit of `plan` through compileUnit() for
     *  plan.cluster (the machine, or a card group's sub-machine). */
    std::shared_ptr<const ExecPlan> materialize(ExecPlan plan) const;

    /**
     * The shared body of runPlan() and runJob(): run the plan window
     * on the cards in `cards` (original machine indices) under `sub`'s
     * topology.  Units run their compiled programs; after a permanent
     * card failure the rest of the window compiles for the survivors.
     * Under an empty fault plan, a unit whose compiled program already
     * ran in this call replays that run's stats
     * (InferenceResult::replayedUnits).
     */
    InferenceResult
    execFaulted(const PrototypeSpec& sub, const NetworkModel& net,
                const ExecPlan& plan, const std::vector<size_t>& cards,
                Tick start_tick, const FaultPlan& faults,
                const RetryPolicy& retry, size_t first_unit,
                size_t num_units) const;

    PrototypeSpec spec_;
    OpCostModel cost_;
    std::unique_ptr<NetworkModel> net_;
};

} // namespace hydra

#endif // HYDRA_SCHED_RUNNER_HH
