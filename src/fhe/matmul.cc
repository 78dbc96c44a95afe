#include "fhe/matmul.hh"

#include "common/logging.hh"

namespace hydra {

std::vector<cplx>
packMatrix(const RMatrix& m, size_t slots)
{
    size_t d = m.size();
    HYDRA_ASSERT(d * d <= slots, "matrix exceeds slot count");
    std::vector<cplx> out(slots, cplx(0, 0));
    for (size_t i = 0; i < d; ++i) {
        HYDRA_ASSERT(m[i].size() == d, "matrix must be square");
        for (size_t j = 0; j < d; ++j)
            out[i * d + j] = cplx(m[i][j], 0.0);
    }
    return out;
}

RMatrix
unpackMatrix(const std::vector<cplx>& slots, size_t d)
{
    HYDRA_ASSERT(slots.size() >= d * d, "slot vector too short");
    RMatrix m(d, std::vector<double>(d));
    for (size_t i = 0; i < d; ++i)
        for (size_t j = 0; j < d; ++j)
            m[i][j] = slots[i * d + j].real();
    return m;
}

RMatrix
matMulRef(const RMatrix& a, const RMatrix& b)
{
    size_t d = a.size();
    RMatrix out(d, std::vector<double>(d, 0.0));
    for (size_t i = 0; i < d; ++i)
        for (size_t k = 0; k < d; ++k)
            for (size_t j = 0; j < d; ++j)
                out[i][j] += a[i][k] * b[k][j];
    return out;
}

PcmmPlan::PcmmPlan(const CkksEncoder& encoder, const RMatrix& w, size_t d,
                   double scale)
{
    size_t slots = encoder.slots();
    HYDRA_ASSERT(d * d <= slots, "matrix exceeds slot count");
    HYDRA_ASSERT(w.size() == d, "weight matrix dimension");
    // Slot-level transform M with out = M z:
    // out[i*d + j] = sum_k z[i*d + k] * W[k][j]  (one W^T block per row).
    CMatrix m(slots, std::vector<cplx>(slots, cplx(0, 0)));
    for (size_t i = 0; i < d; ++i)
        for (size_t j = 0; j < d; ++j)
            for (size_t k = 0; k < d; ++k)
                m[i * d + j][i * d + k] = cplx(w[k][j], 0.0);
    lt_ = std::make_unique<LinearTransform>(encoder, m, scale, 0);
}

std::vector<int>
PcmmPlan::requiredRotations() const
{
    return lt_->requiredRotations();
}

Ciphertext
PcmmPlan::apply(const Evaluator& eval, const Ciphertext& ct) const
{
    return lt_->apply(eval, ct);
}

std::vector<int>
ccmmRotations(size_t d)
{
    std::vector<int> steps;
    int dd = static_cast<int>(d);
    for (int t = 1 - dd; t < dd; ++t)
        if (t != 0)
            steps.push_back(t);
    for (int i = 1 - dd; i < dd; ++i)
        if (i != 0)
            steps.push_back(i * dd);
    return steps;
}

namespace {

/**
 * Sum of hoisted rotations of `ct` by every step in `steps`, added over
 * Q*P so that one ModDown serves the whole sum.
 */
Ciphertext
sumRotations(const Evaluator& eval, const Ciphertext& ct,
             const std::vector<int>& steps)
{
    std::vector<Ciphertext> rots = eval.rotateHoistedQP(ct, steps);
    Ciphertext acc = std::move(rots[0]);
    for (size_t i = 1; i < rots.size(); ++i)
        eval.addInPlace(acc, rots[i]);
    eval.modDownInPlace(acc);
    return acc;
}

/** One-hot column (or row) mask at target scale. */
Plaintext
makeMask(const CkksEncoder& encoder, size_t d, size_t k, bool column,
         double scale, size_t levels)
{
    std::vector<cplx> mask(encoder.slots(), cplx(0, 0));
    for (size_t t = 0; t < d; ++t) {
        size_t idx = column ? t * d + k : k * d + t;
        mask[idx] = cplx(1.0, 0.0);
    }
    return encoder.encode(mask, scale, levels);
}

} // namespace

Ciphertext
ccmm(const Evaluator& eval, const Ciphertext& a, const Ciphertext& b,
     size_t d)
{
    const CkksEncoder& encoder = eval.encoder();
    HYDRA_ASSERT(d * d <= encoder.slots(), "matrix exceeds slot count");
    double scale = eval.context().params().scale();

    bool have = false;
    Ciphertext acc;
    for (size_t k = 0; k < d; ++k) {
        // Column k of A, broadcast across each row:
        // sum_t rot(maskA, k - t).
        Plaintext col_mask = makeMask(encoder, d, k, true, scale,
                                      a.level());
        Ciphertext a_col = eval.mulPlain(a, col_mask);
        eval.rescaleInPlace(a_col);
        std::vector<int> row_steps;
        for (size_t t = 0; t < d; ++t)
            row_steps.push_back(static_cast<int>(k) -
                                static_cast<int>(t));
        Ciphertext a_rep = sumRotations(eval, a_col, row_steps);

        // Row k of B, broadcast down each column:
        // sum_i rot(maskB, (k - i) * d).
        Plaintext row_mask = makeMask(encoder, d, k, false, scale,
                                      b.level());
        Ciphertext b_row = eval.mulPlain(b, row_mask);
        eval.rescaleInPlace(b_row);
        std::vector<int> col_steps;
        for (size_t i = 0; i < d; ++i)
            col_steps.push_back((static_cast<int>(k) -
                                 static_cast<int>(i)) *
                                static_cast<int>(d));
        Ciphertext b_rep = sumRotations(eval, b_row, col_steps);

        Ciphertext term = eval.mulRelin(a_rep, b_rep);
        if (have) {
            eval.addInPlace(acc, term);
        } else {
            acc = std::move(term);
            have = true;
        }
    }
    eval.rescaleInPlace(acc);
    return acc;
}

} // namespace hydra
