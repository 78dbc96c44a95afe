/**
 * @file
 * Analytic performance model of the multi-node homomorphic DFT
 * (paper Eq. 1) and the Radix/bs parameter optimizer behind Table V.
 *
 * For one matrix-vector level with Radix r on C_n nodes, with b baby
 * step rotations:
 *     gs_s  = 2 r / (C_n * b)
 *     T_bs  = b * T_rot
 *     T_gs  = (b * T_pmult + (b - 1) * T_hadd + T_rot) * gs_s
 *     T_acc = (gs_s - 1) * T_hadd + (log2 C_n + 1) * T_com
 *     T_dft = sum over levels of (T_bs + T_gs + T_acc)
 */

#ifndef HYDRA_MODEL_DFT_MODEL_HH
#define HYDRA_MODEL_DFT_MODEL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "arch/network.hh"
#include "arch/opcost.hh"

namespace hydra {

/** Per-operation time inputs of Eq. 1, in seconds. */
struct DftOpTimes
{
    double rot = 0.0;
    double pmult = 0.0;
    double hadd = 0.0;
    double com = 0.0;

    /** Derive from the cost model at a given level. */
    static DftOpTimes fromCostModel(const OpCostModel& m,
                                    const NetworkModel& net,
                                    size_t limbs);
};

/** One level's parameter choice. */
struct DftLevelPlan
{
    size_t radix = 16;
    size_t bs = 4;

    /** Giant steps per node (Eq. 1 first line), at least 1. */
    size_t
    gsPerNode(size_t cards) const
    {
        size_t gs = (2 * radix) / (cards * bs);
        return gs == 0 ? 1 : gs;
    }
};

/** Full DFT plan: one entry per level (paper uses 3 levels). */
struct DftPlan
{
    std::vector<DftLevelPlan> levels;

    std::string describe() const;
};

/** Eq. 1 evaluated for one level. */
double dftLevelTime(const DftLevelPlan& plan, size_t cards,
                    const DftOpTimes& t);

/** Eq. 1 summed over a full plan. */
double dftTime(const DftPlan& plan, size_t cards, const DftOpTimes& t);

/**
 * Search the (radix, bs) space for the plan minimizing Eq. 1 under a
 * multiplicative-depth budget (Table V uses depth 3), for `log_slots`
 * total DFT size: the per-level radices must multiply to 2^log_slots.
 *
 * @param levels number of matrix levels (depth consumed)
 * @param log_slots log2 of the DFT length
 * @param cards accelerator node count
 * @param max_log_radix largest log2 radix of one level: 8 matches the
 *        hardware's table sizes; the host library passes log_slots so
 *        a one-level plan is the dense transform
 */
DftPlan optimizeDftPlan(size_t levels, size_t log_slots, size_t cards,
                        const DftOpTimes& t, size_t max_log_radix = 8);

} // namespace hydra

#endif // HYDRA_MODEL_DFT_MODEL_HH
