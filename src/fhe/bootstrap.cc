#include "fhe/bootstrap.hh"

#include <cmath>
#include <numbers>
#include <set>

#include "common/logging.hh"
#include "fhe/chebyshev.hh"

namespace hydra {

Bootstrapper::Bootstrapper(const CkksContext& ctx,
                           const CkksEncoder& encoder,
                           const BootstrapConfig& config)
    : ctx_(ctx), encoder_(encoder), config_(config)
{
    size_t s = ctx.slots();
    double scale = ctx.params().scale();

    // Embedding roots zeta_j; U[j][i] = zeta_j^i for i < n defines the
    // decode map.  See encoder.hh.
    CMatrix a(s, std::vector<cplx>(s));
    CMatrix b(s, std::vector<cplx>(s));
    CMatrix v0(s, std::vector<cplx>(s));
    CMatrix v1(s, std::vector<cplx>(s));
    double inv_n = 1.0 / static_cast<double>(ctx.n());
    for (size_t j = 0; j < s; ++j) {
        cplx zeta = encoder.embeddingRoot(j);
        cplx zi(1.0, 0.0); // zeta^i
        for (size_t i = 0; i < s; ++i) {
            a[j][i] = zi;
            zi *= zeta;
        }
        // zeta^(i+s) continues from zi = zeta^s.
        for (size_t i = 0; i < s; ++i) {
            b[j][i] = zi;
            zi *= zeta;
        }
        // V0[i][j] = conj(zeta_j^i)/n, V1[i][j] = conj(zeta_j^{i+s})/n:
        // transpose-with-conjugate of A and B.
        for (size_t i = 0; i < s; ++i) {
            v0[i][j] = std::conj(a[j][i]) * inv_n;
            v1[i][j] = std::conj(b[j][i]) * inv_n;
        }
    }

    c2sLow_ = std::make_unique<LinearTransform>(encoder, v0, scale,
                                                config_.babySteps);
    c2sHigh_ = std::make_unique<LinearTransform>(encoder, v1, scale,
                                                 config_.babySteps);
    s2cLow_ = std::make_unique<LinearTransform>(encoder, a, scale,
                                                config_.babySteps);
    s2cHigh_ = std::make_unique<LinearTransform>(encoder, b, scale,
                                                 config_.babySteps);
}

std::vector<int>
Bootstrapper::requiredRotations() const
{
    std::set<int> steps;
    for (const auto* lt : {c2sLow_.get(), c2sHigh_.get(), s2cLow_.get(),
                           s2cHigh_.get()})
        for (int r : lt->requiredRotations())
            steps.insert(r);
    return {steps.begin(), steps.end()};
}

size_t
Bootstrapper::depth() const
{
    // C2S (1) + scaling to the series range (1) + exp ladder
    // + double angle (r) + sine extraction constant (1) + S2C (1).
    size_t deg = config_.useChebyshev ? config_.chebyshevDegree
                                      : config_.taylorDegree;
    return 1 + 1 + polyEvalDepth(deg) + config_.doubleAngleIters + 1 + 1;
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
        RnsPoly out = RnsPoly::fromSigned(ctx_.basis(), levels, false,
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
    // w = V z; c_half = w + conj(w).  Both matrices read the same
    // rotations of ct, so the baby steps are hoisted once for the pair.
    std::vector<Ciphertext> baby = c2sLow_->babySteps(eval, ct);
    Ciphertext re = c2sLow_->applyBaby(eval, baby);
    eval.addInPlace(re, eval.conjugate(re));
    Ciphertext im = c2sHigh_->applyBaby(eval, baby);
    eval.addInPlace(im, eval.conjugate(im));
    return {std::move(re), std::move(im)};
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
    Ciphertext zr = s2cLow_->apply(eval, re);
    eval.addInPlace(zr, s2cHigh_->apply(eval, im));
    return zr;
}

Ciphertext
Bootstrapper::bootstrap(const Evaluator& eval, const Ciphertext& ct) const
{
    double message_scale = ct.scale;
    Ciphertext raised = modRaise(ct);
    auto [re, im] = coeffToSlot(eval, raised);
    Ciphertext mre = evalMod(eval, re, message_scale);
    Ciphertext mim = evalMod(eval, im, message_scale);
    return slotToCoeff(eval, mre, mim);
}

} // namespace hydra
