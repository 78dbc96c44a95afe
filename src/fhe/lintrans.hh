/**
 * @file
 * Homomorphic linear transforms on slot vectors via the Baby-Step
 * Giant-Step (BSGS) diagonal method (paper Section III-B, Fig. 3(d)).
 *
 * A transform is a set of generalized diagonals at offsets
 * d_k = base + k*t (k < K, stride t).  With d_k = shift_g + b*t for
 * giant step g = k / bs, baby step b = k % bs, shift_g = base + g*bs*t:
 *     M z = sum_g rot_{shift_g}( sum_b diag'_k(M) . rot_{b*t}(z) )
 * where diag'_k is diagonal d_k pre-rotated by -shift_g.  Rotation
 * count drops from K to bs + gs with bs * gs >= K.  A dense s x s
 * matrix is the case base = 0, t = 1, K = s; a sparse FFT factor of
 * the bootstrapping DFT has ~2r diagonals at a larger stride.
 *
 * Keyswitching is double-hoisted (Bossuat et al., Eurocrypt 2021): the
 * baby steps share one ModUp and stay over Q*P without a ModDown, the
 * diagonals are encoded over Q*P, and each giant step ModDowns only its
 * c1 before rotating.  A transform runs one full ModDown (plus one c1
 * ModDown per rotated giant step) where a single-hoisted one ran one
 * per rotation.
 */

#ifndef HYDRA_FHE_LINTRANS_HH
#define HYDRA_FHE_LINTRANS_HH

#include <vector>

#include "fhe/evaluator.hh"

namespace hydra {

/** Dense complex matrix, row-major, slots x slots. */
using CMatrix = std::vector<std::vector<cplx>>;

/**
 * Generalized diagonals base + stride * k (k < diags.size()) of a
 * slots x slots matrix M: diags[k][j] = M[j][(j + base + stride * k)
 * mod slots].  Every other diagonal of M is zero.
 */
struct MatrixDiagonals
{
    size_t base = 0;
    size_t stride = 1;
    std::vector<std::vector<cplx>> diags;
};

/** One precomputed homomorphic matrix-vector product. */
class LinearTransform
{
  public:
    /**
     * Precompute the encoded non-zero diagonals at plaintext scale
     * `scale`.
     * @param bs baby-step count, at most the diagonal count; 0 selects
     *           ceil(sqrt(diagonal count)) rounded to a power of two.
     * @param levels chain limb count the transform runs at: the
     *           diagonals are stored in NTT form over those limbs and
     *           the alpha special primes (0 = the full chain).
     */
    LinearTransform(const CkksEncoder& encoder,
                    const MatrixDiagonals& diagonals, double scale,
                    size_t bs = 0, size_t levels = 0);

    /** A dense matrix: all its diagonals, base 0 and stride 1. */
    LinearTransform(const CkksEncoder& encoder, const CMatrix& matrix,
                    double scale, size_t bs = 0);

    /**
     * Rotation steps the evaluator's Galois keys must cover: the baby
     * steps and giant-step shifts some stored diagonal reads.
     */
    std::vector<int> requiredRotations() const;

    /**
     * M * ct, consuming one level (PMult + final rescale).  A
     * ciphertext above the transform's level is first dropped to it.
     * The giant steps are independent, so they run as op-level pool
     * tasks and their partial sums are added in fixed g order.
     */
    Ciphertext apply(const Evaluator& eval, const Ciphertext& ct) const;

    /** Number of stored (non-negligible) diagonals. */
    size_t diagonalCount() const { return diagonals_; }

  private:
    /** One stored diagonal g*bs + b of giant step g. */
    struct Term
    {
        size_t b;
        /** Encoded diagonal, pre-rotated by -shift_g, in NTT form over
         *  levels_ chain limbs and the special primes. */
        Plaintext pt;
    };

    size_t slots_;
    size_t stride_;
    size_t bs_;
    size_t gs_;
    size_t levels_;
    double scale_;
    size_t diagonals_ = 0;
    /** Per giant step g, its stored diagonals in increasing b. */
    std::vector<std::vector<Term>> giant_;
    /** Per giant step g, its rotation shift_g mod slots. */
    std::vector<size_t> shift_;
    /** Rotations b * stride of the baby steps b some stored diagonal
     *  reads, in increasing b (0 when b = 0 is read). */
    std::vector<int> babyShifts_;
};

/**
 * Reference (plaintext) matrix-vector product for tests and for
 * composing transform matrices.
 */
std::vector<cplx> matVec(const CMatrix& m, const std::vector<cplx>& v);

} // namespace hydra

#endif // HYDRA_FHE_LINTRANS_HH
