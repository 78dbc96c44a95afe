/**
 * @file
 * Homomorphic linear transforms on slot vectors via the Baby-Step
 * Giant-Step (BSGS) diagonal method (paper Section III-B, Fig. 3(d)).
 *
 * For an s x s matrix M acting on the slot vector z:
 *     M z = sum_g rot_{g*bs}( sum_b diag'_{g*bs+b}(M) . rot_b(z) )
 * where diag'_d is the d-th generalized diagonal pre-rotated by -g*bs.
 * Rotation count drops from O(s) to bs + gs with bs * gs >= s.
 */

#ifndef HYDRA_FHE_LINTRANS_HH
#define HYDRA_FHE_LINTRANS_HH

#include <vector>

#include "fhe/evaluator.hh"

namespace hydra {

/** Dense complex matrix, row-major, slots x slots. */
using CMatrix = std::vector<std::vector<cplx>>;

/** One precomputed homomorphic matrix-vector product. */
class LinearTransform
{
  public:
    /**
     * Precompute the encoded diagonals of `matrix` at plaintext scale
     * `scale`.
     * @param bs baby-step count; 0 selects ceil(sqrt(slots)) rounded to
     *           a power of two.
     */
    LinearTransform(const CkksEncoder& encoder, const CMatrix& matrix,
                    double scale, size_t bs = 0);

    /** Rotation steps the evaluator's Galois keys must cover. */
    std::vector<int> requiredRotations() const;

    /**
     * Hoisted baby steps rot_b(ct), indexed by b in [0, babySteps()).
     * Entries no stored diagonal reads stay empty.  Transforms with the
     * same baby-step count can share one set over the same ciphertext
     * (Bootstrapper::coeffToSlot hoists once for both C2S matrices).
     */
    std::vector<Ciphertext> babySteps(const Evaluator& eval,
                                      const Ciphertext& ct) const;

    /**
     * Giant steps over precomputed baby steps.  Consumes one level
     * (PMult + final rescale); the result decodes to M * decode(ct).
     * The giant steps are independent, so they run as op-level pool
     * tasks and their partial sums are added in fixed g order.
     */
    Ciphertext applyBaby(const Evaluator& eval,
                         const std::vector<Ciphertext>& baby) const;

    /** applyBaby(eval, babySteps(eval, ct)). */
    Ciphertext apply(const Evaluator& eval, const Ciphertext& ct) const;

    size_t babySteps() const { return bs_; }
    size_t giantSteps() const { return gs_; }

    /** Number of stored (non-negligible) diagonals. */
    size_t diagonalCount() const { return diagonals_; }

  private:
    /** One stored diagonal g*bs + b of giant step g. */
    struct Term
    {
        size_t b;
        /** Encoded diagonal, pre-rotated by -(g*bs). */
        Plaintext pt;
    };

    size_t slots_;
    size_t bs_;
    size_t gs_;
    double scale_;
    size_t diagonals_ = 0;
    /** Per giant step g, its stored diagonals in increasing b. */
    std::vector<std::vector<Term>> giant_;
    /** Whether some stored diagonal reads baby step b. */
    std::vector<bool> needBaby_;
};

/**
 * Reference (plaintext) matrix-vector product for tests and for
 * composing transform matrices.
 */
std::vector<cplx> matVec(const CMatrix& m, const std::vector<cplx>& v);

} // namespace hydra

#endif // HYDRA_FHE_LINTRANS_HH
