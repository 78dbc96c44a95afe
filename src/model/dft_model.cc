#include "model/dft_model.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "common/table.hh"

namespace hydra {

DftOpTimes
DftOpTimes::fromCostModel(const OpCostModel& m, const NetworkModel& net,
                          size_t limbs)
{
    DftOpTimes t;
    t.rot = ticksToSeconds(m.opLatency(HeOpType::Rotate, limbs));
    t.pmult = ticksToSeconds(m.opLatency(HeOpType::PMult, limbs));
    t.hadd = ticksToSeconds(m.opLatency(HeOpType::HAdd, limbs));
    t.com = ticksToSeconds(
        net.transferTime(m.ciphertextBytes(limbs), 0, 1));
    return t;
}

std::string
DftPlan::describe() const
{
    std::string radix = "(";
    std::string bs = "(";
    for (size_t i = 0; i < levels.size(); ++i) {
        if (i) {
            radix += ",";
            bs += ",";
        }
        radix += std::to_string(levels[i].radix);
        bs += std::to_string(levels[i].bs);
    }
    return radix + ") bs=" + bs + ")";
}

double
dftLevelTime(const DftLevelPlan& plan, size_t cards, const DftOpTimes& t)
{
    double b = static_cast<double>(plan.bs);
    double gs_s = static_cast<double>(plan.gsPerNode(cards));
    double t_bs = b * t.rot;
    double t_gs = (b * t.pmult + (b - 1) * t.hadd + t.rot) * gs_s;
    double t_acc = (gs_s - 1) * t.hadd;
    if (cards > 1) {
        double rounds = std::log2(static_cast<double>(cards)) + 1;
        t_acc += rounds * t.com;
    }
    return t_bs + t_gs + t_acc;
}

double
dftTime(const DftPlan& plan, size_t cards, const DftOpTimes& t)
{
    double sum = 0.0;
    for (const auto& lvl : plan.levels)
        sum += dftLevelTime(lvl, cards, t);
    return sum;
}

namespace {

/** Best bs (power of two, bs * gs = 2 * radix) for one level. */
DftLevelPlan
bestLevel(size_t radix, size_t cards, const DftOpTimes& t)
{
    DftLevelPlan best{radix, 1};
    double best_time = dftLevelTime(best, cards, t);
    for (size_t bs = 2; bs <= 2 * radix; bs <<= 1) {
        DftLevelPlan cand{radix, bs};
        double ct = dftLevelTime(cand, cards, t);
        if (ct < best_time) {
            best_time = ct;
            best = cand;
        }
    }
    return best;
}

void
enumerate(size_t levels_left, size_t logs_left, size_t max_log,
          std::vector<size_t>& current, std::vector<std::vector<size_t>>& out)
{
    if (levels_left == 0) {
        if (logs_left == 0)
            out.push_back(current);
        return;
    }
    for (size_t lg = 1; lg <= std::min(max_log, logs_left); ++lg) {
        current.push_back(lg);
        enumerate(levels_left - 1, logs_left - lg, max_log, current, out);
        current.pop_back();
    }
}

} // namespace

DftPlan
optimizeDftPlan(size_t levels, size_t log_slots, size_t cards,
                const DftOpTimes& t, size_t max_log_radix)
{
    HYDRA_ASSERT(levels >= 1 && log_slots >= levels,
                 "log_slots must cover the level count");
    std::vector<std::vector<size_t>> compositions;
    std::vector<size_t> current;
    enumerate(levels, log_slots, max_log_radix, current, compositions);
    HYDRA_ASSERT(!compositions.empty(), "no radix composition");

    DftPlan best;
    double best_time = 0.0;
    for (const auto& comp : compositions) {
        DftPlan plan;
        double total = 0.0;
        for (size_t lg : comp) {
            DftLevelPlan lvl = bestLevel(size_t{1} << lg, cards, t);
            total += dftLevelTime(lvl, cards, t);
            plan.levels.push_back(lvl);
        }
        if (best.levels.empty() || total < best_time) {
            best = plan;
            best_time = total;
        }
    }
    return best;
}

} // namespace hydra
