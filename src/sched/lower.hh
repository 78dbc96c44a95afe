/**
 * @file
 * Lowering: stage 2 of the schedule compiler (plan -> lower ->
 * optimize).  Binds an OpCostModel + NetworkModel to a machine-
 * independent LogicalPlan, producing the executable Program the
 * ClusterExecutor consumes: HeOp term lists become Tick durations and
 * OpCost aggregates, ciphertext counts become wire bytes.
 *
 * Lowering replays the plan's emission order through a ProgramBuilder,
 * so the produced Program is bit-identical to what the pre-pipeline
 * StepMapper built directly — including compute/message id assignment
 * and label interning.  Multi-step units (fused mode included) lower
 * one plan holding every member step.
 */

#ifndef HYDRA_SCHED_LOWER_HH
#define HYDRA_SCHED_LOWER_HH

#include "arch/network.hh"
#include "arch/opcost.hh"
#include "sched/mapping.hh"
#include "sched/plan.hh"
#include "sync/task.hh"

namespace hydra {

/**
 * Single-card wall time of one full bootstrap (2 DFT stacks + EvaExp +
 * double-angle) under the given models: the lowering-time price of a
 * BootstrapLocal plan op.  StepMapper::bootstrapLocalTime delegates
 * here.
 */
Tick bootstrapLocalTicks(const OpCostModel& cost, const NetworkModel& net,
                         const MappingConfig& config, size_t log_slots,
                         size_t limbs);

/** Lower `plan` into a fresh Program. */
Program lowerPlan(const LogicalPlan& plan, const OpCostModel& cost,
                  const NetworkModel& net, const MappingConfig& config);

} // namespace hydra

#endif // HYDRA_SCHED_LOWER_HH
