#include "fhe/bootstrap.hh"

#include <bit>
#include <cmath>
#include <numbers>
#include <set>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "fhe/chebyshev.hh"

namespace hydra {

namespace {

/**
 * Eq. 1 inputs for the host library, in seconds: one rotate, one fused
 * plaintext multiply-accumulate less its add, and one HAdd, measured at
 * CkksParams::bootstrapTest() (n = 2^10, 20 limbs) on one thread of a
 * 4-core Xeon with AVX-512 kernels.  Only the ratios steer the plan.
 */
constexpr DftOpTimes kHostDftOpTimes{5.8e-3, 86e-6, 10e-6, 0.0};

/**
 * Default levels per direction.  With Taylor degree 7 and r = 7 the
 * depth is 17, which leaves 3 of bootstrapTest()'s 20 levels; a dense
 * (one-level) direction would need more than 46 rotation keys next to
 * a two-level one, because their giant steps do not line up.
 */
constexpr size_t kDefaultDftLevels = 2;

size_t
log2Exact(size_t x)
{
    HYDRA_ASSERT(std::has_single_bit(x), "expected a power of two");
    return static_cast<size_t>(std::countr_zero(x));
}

} // namespace

DftPlan
hostDftPlan(size_t levels, size_t slots)
{
    size_t log_slots = log2Exact(slots);
    return optimizeDftPlan(levels, log_slots, 1, kHostDftOpTimes,
                           log_slots);
}

std::vector<MatrixDiagonals>
specialFftFactors(const CkksEncoder& encoder, const DftPlan& plan,
                  bool inverse)
{
    size_t s = encoder.slots();
    size_t log_s = log2Exact(s);
    size_t top = log_s; // log2 of the largest block length left
    std::vector<MatrixDiagonals> out;
    for (size_t i = 0; i < plan.levels.size(); ++i) {
        size_t radix = plan.levels[i].radix;
        size_t k = log2Exact(radix);
        HYDRA_ASSERT(k >= 1 && k <= top, "plan radices must multiply to "
                                         "the slot count");
        size_t low = top - k; // blocks of 2^(low+1) .. 2^top entries
        size_t stride = size_t{1} << low;

        // Column c of the factor is its stages applied to e_c; the
        // columns are independent.
        CMatrix cols(s);
        parallelFor(0, s, [&](size_t c) {
            std::vector<cplx> v(s, cplx(0, 0));
            v[c] = cplx(1, 0);
            if (inverse) {
                for (size_t lg = top; lg > low; --lg)
                    encoder.fftSpecialInvStage(v, size_t{1} << lg);
                for (auto& x : v)
                    x /= static_cast<double>(radix);
            } else {
                for (size_t lg = low + 1; lg <= top; ++lg)
                    encoder.fftSpecialStage(v, size_t{1} << lg);
            }
            cols[c] = std::move(v);
        });

        MatrixDiagonals f;
        f.stride = stride;
        size_t count = i == 0 ? radix : 2 * radix;
        f.base = i == 0 ? 0 : s - radix * stride;
        f.diags.assign(count, std::vector<cplx>(s));
        for (size_t d = 0; d < count; ++d) {
            size_t off = f.base + d * stride;
            for (size_t j = 0; j < s; ++j)
                f.diags[d][j] = cols[(j + off) % s][j];
        }
        out.push_back(std::move(f));
        top = low;
    }
    HYDRA_ASSERT(top == 0, "plan radices must multiply to the slot count");
    return out;
}

Bootstrapper::Bootstrapper(const CkksContext& ctx,
                           const CkksEncoder& encoder,
                           const BootstrapConfig& config)
    : ctx_(ctx), encoder_(encoder), config_(config)
{
    size_t s = ctx.slots();
    double scale = ctx.params().scale();
    if (config_.coeffToSlot.levels.empty())
        config_.coeffToSlot = hostDftPlan(kDefaultDftLevels, s);
    if (config_.slotToCoeff.levels.empty())
        config_.slotToCoeff = hostDftPlan(kDefaultDftLevels, s);

    // C2S computes w = fftSpecialInv(z) / 2 (bit-reversed), so that
    // w + conj(w) and i (conj(w) - w) are the real and imaginary
    // coefficient halves; the 1/2 rides on level 0's diagonals.
    std::vector<MatrixDiagonals> c2s =
        specialFftFactors(encoder, config_.coeffToSlot, true);
    for (auto& diag : c2s[0].diags)
        for (auto& x : diag)
            x *= 0.5;
    // Each factor's diagonals carry only the limbs it runs at in
    // bootstrap(): C2S factor i at L - i, S2C factor i (run last to
    // first) at the output level plus i + 1.
    size_t top = ctx.levels();
    for (size_t i = 0; i < c2s.size(); ++i)
        c2s_.emplace_back(encoder, c2s[i], scale,
                          config_.coeffToSlot.levels[i].bs, top - i);
    std::vector<MatrixDiagonals> s2c =
        specialFftFactors(encoder, config_.slotToCoeff, false);
    size_t out = top > depth() ? top - depth() : 0;
    for (size_t i = 0; i < s2c.size(); ++i)
        s2c_.emplace_back(encoder, s2c[i], scale,
                          config_.slotToCoeff.levels[i].bs, out + i + 1);
}

std::vector<int>
Bootstrapper::requiredRotations() const
{
    std::set<int> steps;
    for (const auto* lts : {&c2s_, &s2c_})
        for (const LinearTransform& lt : *lts)
            for (int r : lt.requiredRotations())
                steps.insert(r);
    return {steps.begin(), steps.end()};
}

size_t
Bootstrapper::depth() const
{
    // C2S levels + scaling to the series range (1) + exp ladder
    // + double angle (r) + sine extraction constant (1) + S2C levels.
    size_t deg = config_.useChebyshev ? config_.chebyshevDegree
                                      : config_.taylorDegree;
    return config_.coeffToSlot.levels.size() + 1 + polyEvalDepth(deg) +
           config_.doubleAngleIters + 1 + config_.slotToCoeff.levels.size();
}

Ciphertext
Bootstrapper::modRaise(const Ciphertext& ct) const
{
    HYDRA_ASSERT(ct.level() == 1, "modRaise expects a level-1 ciphertext");
    size_t levels = ctx_.levels();
    size_t n = ctx_.n();
    const Modulus& q0 = ctx_.basis()->mod(0);

    auto raise = [&](const RnsPoly& p) {
        RnsPoly coeff = p;
        coeff.fromNtt();
        std::vector<i64> centered(n);
        for (size_t i = 0; i < n; ++i)
            centered[i] = q0.toCentered(coeff.limb(0)[i]);
        RnsPoly out = RnsPoly::fromSigned(ctx_.basis(), levels, 0,
                                          centered);
        out.toNtt();
        return out;
    };

    Ciphertext out;
    out.c0 = raise(ct.c0);
    out.c1 = raise(ct.c1);
    out.scale = ct.scale;
    return out;
}

std::pair<Ciphertext, Ciphertext>
Bootstrapper::coeffToSlot(const Evaluator& eval, const Ciphertext& ct) const
{
    // w = (lo + i hi) / 2 over the coefficient halves, so re = w +
    // conj(w) and im = i (conj(w) - w): one conjugation, and the
    // multiply by i is the exact monomial X^{n/2}.
    Ciphertext w = ct;
    for (const LinearTransform& f : c2s_)
        w = f.apply(eval, w);
    Ciphertext u = eval.conjugate(w);
    Ciphertext re = eval.add(w, u);
    eval.subInPlace(u, w);
    return {std::move(re), eval.mulByI(u)};
}

Ciphertext
Bootstrapper::evalMod(const Evaluator& eval, const Ciphertext& ct,
                      double message_scale) const
{
    double q0 = static_cast<double>(ctx_.basis()->mod(0).value());
    double two_pi = 2.0 * std::numbers::pi;
    double pow2r = std::ldexp(1.0, static_cast<int>(
                                  config_.doubleAngleIters));
    double scale = ctx_.params().scale();

    // y = kappa * x with kappa = 2 pi * Delta / (q0 * 2^r): |y| small
    // enough for the short Taylor series.
    double kappa = two_pi * message_scale / (q0 * pow2r);
    Ciphertext y = eval.mulConstantRescale(ct, cplx(kappa, 0.0), scale);

    std::vector<cplx> coeffs;
    if (config_.useChebyshev) {
        // Chebyshev interpolants of cos and sin on the actual argument
        // range |y| <= 2 pi (I_max + 1) / 2^r, combined into complex
        // power-basis coefficients of exp(i y).
        double bound = two_pi * (config_.maxOverflow + 1.0) / pow2r;
        size_t deg = config_.chebyshevDegree;
        ChebyshevPoly c_cos = chebyshevFit(
            [](double t) { return std::cos(t); }, deg, -bound, bound);
        ChebyshevPoly c_sin = chebyshevFit(
            [](double t) { return std::sin(t); }, deg, -bound, bound);
        auto pb_cos = c_cos.toPowerBasis();
        auto pb_sin = c_sin.toPowerBasis();
        coeffs.resize(deg + 1);
        for (size_t t = 0; t <= deg; ++t)
            coeffs[t] = cplx(pb_cos[t].real(), pb_sin[t].real());
    } else {
        // Taylor series of exp(i theta): sum (i^t / t!) y^t.
        coeffs.resize(config_.taylorDegree + 1);
        cplx it(1.0, 0.0);
        double fact = 1.0;
        for (size_t t = 0; t <= config_.taylorDegree; ++t) {
            coeffs[t] = it / fact;
            it *= cplx(0.0, 1.0);
            fact *= static_cast<double>(t + 1);
        }
    }
    Ciphertext w = evalPolynomial(eval, y, coeffs, scale);

    // Double-angle: repeated squaring doubles the argument.
    for (size_t r = 0; r < config_.doubleAngleIters; ++r) {
        w = eval.mulRelin(w, w);
        eval.rescaleInPlace(w);
    }

    // sin = (w - conj(w)) / 2i; fold in the amplitude q0 / (2 pi Delta).
    Ciphertext diff = eval.sub(w, eval.conjugate(w));
    double amp = q0 / (two_pi * message_scale);
    cplx c = cplx(0.0, -0.5) * amp; // 1/(2i) = -i/2
    return eval.mulConstantRescale(diff, c, scale);
}

Ciphertext
Bootstrapper::slotToCoeff(const Evaluator& eval, const Ciphertext& re,
                          const Ciphertext& im) const
{
    // z = A (lo + i hi): one factored chain over the recombined halves.
    Ciphertext x = eval.add(re, eval.mulByI(im));
    for (auto f = s2c_.rbegin(); f != s2c_.rend(); ++f)
        x = f->apply(eval, x);
    return x;
}

Ciphertext
Bootstrapper::bootstrap(const Evaluator& eval, const Ciphertext& ct) const
{
    double message_scale = ct.scale;
    Ciphertext raised = modRaise(ct);
    std::pair<Ciphertext, Ciphertext> halves = coeffToSlot(eval, raised);
    // The two EvalMod chains are independent: two lanes, each on half
    // the pool's threads (all of them at one thread per lane).
    const Ciphertext* in[2] = {&halves.first, &halves.second};
    Ciphertext mod[2];
    parallelForOuter(2, [&](size_t lane) {
        mod[lane] = evalMod(eval, *in[lane], message_scale);
    });
    return slotToCoeff(eval, mod[0], mod[1]);
}

} // namespace hydra
