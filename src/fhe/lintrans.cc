#include "fhe/lintrans.hh"

#include <algorithm>
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

/** All generalized diagonals of a square matrix. */
MatrixDiagonals
denseDiagonals(const CMatrix& matrix)
{
    size_t s = matrix.size();
    for (const auto& row : matrix)
        HYDRA_ASSERT(row.size() == s, "matrix must be square");
    MatrixDiagonals out;
    out.diags.assign(s, std::vector<cplx>(s));
    for (size_t d = 0; d < s; ++d)
        for (size_t j = 0; j < s; ++j)
            out.diags[d][j] = matrix[j][(j + d) % s];
    return out;
}

} // namespace

LinearTransform::LinearTransform(const CkksEncoder& encoder,
                                 const MatrixDiagonals& diagonals,
                                 double scale, size_t bs, size_t levels)
    : slots_(encoder.slots()),
      stride_(diagonals.stride),
      levels_(levels ? levels : encoder.maxLevels()),
      scale_(scale)
{
    HYDRA_ASSERT(levels_ <= encoder.maxLevels(), "level above the chain");
    size_t count = diagonals.diags.size();
    HYDRA_ASSERT(count > 0 && stride_ > 0 && count * stride_ <= slots_,
                 "diagonal set must fit in the slot count");
    for (const auto& diag : diagonals.diags)
        HYDRA_ASSERT(diag.size() == slots_, "diagonal length != slots");

    if (bs == 0) {
        bs = 1;
        while (bs * bs < count)
            bs <<= 1;
    }
    bs_ = std::min(bs, count);
    gs_ = (count + bs_ - 1) / bs_;

    // Place every non-zero diagonal; the encoding runs below.
    giant_.resize(gs_);
    shift_.resize(gs_);
    std::vector<bool> need_baby(bs_, false);
    struct Place
    {
        size_t g;    ///< giant step
        size_t term; ///< index in giant_[g]
    };
    std::vector<Place> places;
    for (size_t g = 0; g < gs_; ++g) {
        shift_[g] = (diagonals.base + g * bs_ * stride_) % slots_;
        for (size_t b = 0; b < bs_ && g * bs_ + b < count; ++b) {
            if (maxNorm(diagonals.diags[g * bs_ + b]) < 1e-14)
                continue; // structurally zero diagonal
            places.push_back({g, giant_[g].size()});
            giant_[g].push_back({b, Plaintext{}});
            need_baby[b] = true;
        }
    }
    diagonals_ = places.size();
    for (size_t b = 0; b < bs_; ++b)
        if (need_baby[b])
            babyShifts_.push_back(static_cast<int>(b * stride_));

    // The diagonals are independent: encode them as op-level tasks.
    // Each is stored once, in NTT form with only the chain limbs the
    // transform runs at -- the residues of a full-chain encoding minus
    // limbs no ciphertext here ever has -- plus the special limbs the
    // baby steps carry over Q*P, so the multiplies read it directly.
    parallelForOuter(places.size(), [&](size_t i) {
        Term& term = giant_[places[i].g][places[i].term];
        size_t shift = shift_[places[i].g];
        const std::vector<cplx>& diag =
            diagonals.diags[places[i].g * bs_ + term.b];
        // Pre-rotate right by shift_g so the giant-step rotation of
        // the partial sum aligns the plaintext with the ciphertext.
        std::vector<cplx> rotated(slots_);
        for (size_t j = 0; j < slots_; ++j)
            rotated[j] = diag[(j + slots_ - shift) % slots_];
        term.pt = encoder.encode(rotated, scale_, levels_,
                                 /*over_qp=*/true);
    });
}

LinearTransform::LinearTransform(const CkksEncoder& encoder,
                                 const CMatrix& matrix, double scale,
                                 size_t bs)
    : LinearTransform(encoder, denseDiagonals(matrix), scale, bs)
{
}

std::vector<int>
LinearTransform::requiredRotations() const
{
    std::vector<int> steps;
    for (int b : babyShifts_)
        if (b != 0)
            steps.push_back(b);
    for (size_t g = 0; g < gs_; ++g)
        if (shift_[g] != 0 && !giant_[g].empty())
            steps.push_back(static_cast<int>(shift_[g]));
    return steps;
}

Ciphertext
LinearTransform::apply(const Evaluator& eval, const Ciphertext& ct) const
{
    HYDRA_ASSERT(diagonals_ > 0, "empty linear transform");
    if (ct.level() > levels_)
        return apply(eval, eval.dropToLevel(ct, levels_));

    // Hoisted baby steps over Q*P: one ModUp shared by all, no ModDown.
    std::vector<Ciphertext> hoisted = eval.rotateHoistedQP(ct, babyShifts_);
    std::vector<const Ciphertext*> baby(bs_, nullptr);
    for (size_t i = 0; i < babyShifts_.size(); ++i)
        baby[static_cast<size_t>(babyShifts_[i]) / stride_] = &hoisted[i];

    // Giant-step accumulators over Q*P: the first diagonal materializes
    // the product, every further one is a fused multiply-accumulate
    // into it -- no per-term ciphertext, no copy-then-add.  The giant
    // step's rotation keeps the sum over Q*P as well.
    std::vector<Ciphertext> partial(gs_);
    parallelForOuter(gs_, [&](size_t g) {
        const std::vector<Term>& terms = giant_[g];
        if (terms.empty())
            return;
        Ciphertext acc = eval.mulPlain(*baby[terms[0].b], terms[0].pt);
        for (size_t t = 1; t < terms.size(); ++t)
            eval.addMulPlain(acc, *baby[terms[t].b], terms[t].pt);
        partial[g] = eval.rotateQP(std::move(acc),
                                   static_cast<int>(shift_[g]));
    });

    // Summing the partials in fixed g order reproduces the serial
    // result bit for bit (and modular addition is exact anyway); one
    // ModDown then returns the sum to the chain.
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
    eval.modDownInPlace(total);
    eval.rescaleInPlace(total);
    return total;
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
