/**
 * @file
 * Multi-tenant serving simulator: the discrete-event layer that turns
 * one-shot inference into sustained throughput on a shared virtual
 * clock.
 *
 * Pipeline per request: workload generator -> bounded run queue
 * (priority + tenant fairness, shed on full) -> fleet partition (an
 * idle card group picks the next request) -> InferenceRunner::runJob
 * on the group's cards -> ServeStats roll-up (throughput,
 * utilization, p50/p95/p99 latency).  Both policies share that one
 * path; `sched=cake` swaps fifo's rank for the deficit scheduler of
 * serve/cake.hh (preemption, AQM, work stealing — DESIGN.md §14).
 *
 * Clock composition: the serve clock is absolute virtual time.  Jobs
 * dispatched at t0 run with the cluster executor's time origin set to
 * t0, so FaultPlan::cardFailAt ticks are absolute serve-clock times
 * and a kill lands in whatever job (or idle period) covers it.  On a
 * cluster with any local fault injection every job executes for real
 * (reuse comes from the compiled plans shared per group shape), so
 * absolute-tick faults land in any job; fault-free clusters replay
 * memoized job windows from the JobCache (serve/jobcache.hh).
 *
 * Fault handling: transient faults (drop/corrupt/degrade) apply
 * inside every job; permanent card kills are consumed by the job in
 * flight (degraded completion via survivor re-dispatch, PR 2) or by
 * the serve loop when the card is idle.  Either way the fleet
 * partition repairs itself: groups shrink in place until minCards,
 * then dissolve and donate survivors to a sibling; a workload class
 * with no groups left sheds its queued and future requests with a
 * structured no-capacity reason.
 *
 * Federation: the engine is the Federation class
 * (serve/federation.hh).  ServeSpec::clusters > 1 replicates the
 * machine behind a health-gated routing tier with cluster-granularity
 * faults, failover, and checkpointed job recovery; clusters = 1 keeps
 * the exact single-machine semantics described above.
 */

#ifndef HYDRA_SERVE_SIM_HH
#define HYDRA_SERVE_SIM_HH

#include "serve/federation.hh"

namespace hydra {

/** The serving engine under the pipeline's name (hydrabench/ spells
 *  it so): one machine is a one-cluster Federation. */
using ServeSim = Federation;

} // namespace hydra

#endif // HYDRA_SERVE_SIM_HH
