#include "fhe/polyeval.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace hydra {

namespace {

/** The ladder's split x^k = x^hi * x^lo, hi the largest power of two
 *  below k. */
std::pair<size_t, size_t>
ladderFactors(size_t k)
{
    size_t hi = size_t{1} << (std::bit_width(k) - 1);
    if (hi == k)
        hi = k / 2;
    return {hi, k - hi};
}

} // namespace

size_t
polyEvalDepth(size_t degree)
{
    if (degree <= 1)
        return 1;
    return std::bit_width(degree) + 1; // power ladder + term alignment
}

Ciphertext
evalPolynomial(const Evaluator& eval, const Ciphertext& x,
               const std::vector<cplx>& coeffs, double target_scale)
{
    HYDRA_ASSERT(coeffs.size() >= 2, "need degree >= 1");
    size_t deg = coeffs.size() - 1;
    if (target_scale <= 0.0)
        target_scale = eval.context().params().scale();

    // 1. Power ladder: pow[k] for 1 <= k <= deg, built by binary
    //    splitting (x^k = x^{2^t} * x^{k - 2^t}), one rescale per mult.
    //    The products of one ladder rung (x^3 and x^4; x^5 .. x^7) read
    //    only lower rungs, so each rung runs as op-level tasks.
    std::vector<Ciphertext> pow(deg + 1);
    std::vector<size_t> rung(deg + 1, 0);
    std::vector<std::vector<size_t>> rungs;
    pow[1] = x;
    for (size_t k = 2; k <= deg; ++k) {
        auto [hi, lo] = ladderFactors(k);
        rung[k] = std::max(rung[hi], rung[lo]) + 1;
        if (rung[k] > rungs.size())
            rungs.emplace_back();
        rungs[rung[k] - 1].push_back(k);
    }
    for (const std::vector<size_t>& ks : rungs) {
        parallelForOuter(ks.size(), [&](size_t i) {
            auto [hi, lo] = ladderFactors(ks[i]);
            const Ciphertext& a = pow[hi];
            const Ciphertext& b = pow[lo];
            // Multiply at the lower level without copying an operand
            // that is already there.
            Ciphertext& out = pow[ks[i]];
            if (a.level() == b.level()) {
                out = eval.mulRelin(a, b);
            } else if (a.level() > b.level()) {
                out = eval.mulRelin(eval.dropToLevel(a, b.level()), b);
            } else {
                out = eval.mulRelin(a, eval.dropToLevel(b, a.level()));
            }
            eval.rescaleInPlace(out);
        });
    }

    // 2. Drop every power to the common (deepest) level.
    size_t common = pow[1].level();
    for (size_t k = 2; k <= deg; ++k)
        common = std::min(common, pow[k].level());
    HYDRA_ASSERT(common >= 2, "not enough levels for polynomial");
    for (size_t k = 1; k <= deg; ++k)
        pow[k] = eval.dropToLevel(pow[k], common);

    // 3. Scale-align every term to target_scale via mulConstantRescale
    //    (the dropped prime is the same for all terms at equal level).
    bool have_sum = false;
    Ciphertext sum;
    for (size_t k = 1; k <= deg; ++k) {
        if (std::abs(coeffs[k]) == 0.0)
            continue;
        Ciphertext term =
            eval.mulConstantRescale(pow[k], coeffs[k], target_scale);
        if (have_sum) {
            eval.addInPlace(sum, term);
        } else {
            sum = std::move(term);
            have_sum = true;
        }
    }
    HYDRA_ASSERT(have_sum, "polynomial has no nonzero term of degree >= 1");

    // 4. Constant term.
    if (std::abs(coeffs[0]) != 0.0)
        sum = eval.addConstant(sum, coeffs[0]);
    return sum;
}

} // namespace hydra
