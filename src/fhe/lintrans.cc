#include "fhe/lintrans.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace hydra {

namespace {

/** Largest magnitude entry of a vector. */
double
maxNorm(const std::vector<cplx>& v)
{
    double m = 0.0;
    for (const auto& x : v)
        m = std::max(m, std::abs(x));
    return m;
}

} // namespace

LinearTransform::LinearTransform(const CkksEncoder& encoder,
                                 const CMatrix& matrix, double scale,
                                 size_t bs)
    : slots_(encoder.slots()), scale_(scale)
{
    HYDRA_ASSERT(matrix.size() == slots_, "matrix must be slots x slots");
    for (const auto& row : matrix)
        HYDRA_ASSERT(row.size() == slots_, "matrix must be square");

    if (bs == 0) {
        bs = 1;
        while (bs * bs < slots_)
            bs <<= 1;
    }
    HYDRA_ASSERT(slots_ % bs == 0, "baby-step count must divide slots");
    bs_ = bs;
    gs_ = slots_ / bs;

    // Extract generalized diagonals, pre-rotate each by -(g*bs), encode.
    giant_.resize(gs_);
    needBaby_.assign(bs_, false);
    for (size_t g = 0; g < gs_; ++g) {
        for (size_t b = 0; b < bs_; ++b) {
            size_t d = g * bs_ + b;
            std::vector<cplx> diag(slots_);
            for (size_t j = 0; j < slots_; ++j)
                diag[j] = matrix[j][(j + d) % slots_];
            if (maxNorm(diag) < 1e-14)
                continue; // structurally zero diagonal
            // Pre-rotate right by g*bs so the giant-step rotation of the
            // partial sum aligns the plaintext with the ciphertext.
            std::vector<cplx> rotated(slots_);
            size_t shift = g * bs_;
            for (size_t j = 0; j < slots_; ++j)
                rotated[j] = diag[(j + slots_ - shift % slots_) % slots_];
            // Encode at full level so any ciphertext level works.
            giant_[g].push_back(
                {b, encoder.encode(rotated, scale_, encoder.maxLevels())});
            needBaby_[b] = true;
            ++diagonals_;
        }
    }
}

std::vector<int>
LinearTransform::requiredRotations() const
{
    std::vector<int> steps;
    for (size_t b = 1; b < bs_; ++b)
        steps.push_back(static_cast<int>(b));
    for (size_t g = 1; g < gs_; ++g)
        steps.push_back(static_cast<int>(g * bs_));
    return steps;
}

std::vector<Ciphertext>
LinearTransform::babySteps(const Evaluator& eval,
                           const Ciphertext& ct) const
{
    // Hoisted baby steps: one digit decomposition shared by all.
    std::vector<int> steps;
    for (size_t b = 1; b < bs_; ++b)
        if (needBaby_[b])
            steps.push_back(static_cast<int>(b));
    std::vector<Ciphertext> hoisted = eval.rotateHoisted(ct, steps);
    std::vector<Ciphertext> baby(bs_);
    if (needBaby_[0])
        baby[0] = ct;
    for (size_t i = 0; i < steps.size(); ++i)
        baby[static_cast<size_t>(steps[i])] = std::move(hoisted[i]);
    return baby;
}

Ciphertext
LinearTransform::applyBaby(const Evaluator& eval,
                           const std::vector<Ciphertext>& baby) const
{
    HYDRA_ASSERT(diagonals_ > 0, "empty linear transform");
    HYDRA_ASSERT(baby.size() == bs_, "baby-step count mismatch");
    for (size_t b = 0; b < bs_; ++b)
        HYDRA_ASSERT(!needBaby_[b] || baby[b].c0.valid(),
                     "baby step missing for a stored diagonal");

    // Giant-step accumulators: the first diagonal materializes the
    // product, every further one is a fused multiply-accumulate into it
    // -- no per-term ciphertext, no copy-then-add.
    std::vector<Ciphertext> partial(gs_);
    parallelForOuter(gs_, [&](size_t g) {
        const std::vector<Term>& terms = giant_[g];
        if (terms.empty())
            return;
        Ciphertext acc = eval.mulPlain(baby[terms[0].b], terms[0].pt);
        for (size_t t = 1; t < terms.size(); ++t)
            eval.addMulPlain(acc, baby[terms[t].b], terms[t].pt);
        partial[g] = g == 0 ? std::move(acc)
                            : eval.rotate(acc, static_cast<int>(g * bs_));
    });

    // Summing the partials in fixed g order reproduces the serial
    // result bit for bit (and modular addition is exact anyway).
    bool have_total = false;
    Ciphertext total;
    for (size_t g = 0; g < gs_; ++g) {
        if (giant_[g].empty())
            continue;
        if (have_total) {
            eval.addInPlace(total, partial[g]);
        } else {
            total = std::move(partial[g]);
            have_total = true;
        }
    }
    eval.rescaleInPlace(total);
    return total;
}

Ciphertext
LinearTransform::apply(const Evaluator& eval, const Ciphertext& ct) const
{
    return applyBaby(eval, babySteps(eval, ct));
}

std::vector<cplx>
matVec(const CMatrix& m, const std::vector<cplx>& v)
{
    std::vector<cplx> out(m.size(), cplx(0, 0));
    for (size_t i = 0; i < m.size(); ++i)
        for (size_t j = 0; j < v.size(); ++j)
            out[i] += m[i][j] * v[j];
    return out;
}

} // namespace hydra
