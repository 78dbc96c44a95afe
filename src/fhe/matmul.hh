/**
 * @file
 * Functional homomorphic matrix multiplication -- the transformer
 * kernels of paper Section III-A, following [13]'s packing:
 *
 *  - PCMM (plaintext-ciphertext): the encrypted activation matrix,
 *    packed row-major, is multiplied by a plaintext weight matrix.
 *    Expressed as a block-diagonal slot linear transform (one W^T
 *    block per matrix row) and evaluated with the hoisted BSGS
 *    machinery.
 *  - CCMM (ciphertext-ciphertext): out = A x B by column/row
 *    replication -- mask one column of A, broadcast it across the row,
 *    mask the matching row of B, broadcast it down the columns, CMult,
 *    accumulate (1 CMult + several rotations per step, matching the
 *    Table I CCMM mix shape).
 */

#ifndef HYDRA_FHE_MATMUL_HH
#define HYDRA_FHE_MATMUL_HH

#include <memory>

#include "fhe/lintrans.hh"

namespace hydra {

/** Dense real matrix, row-major. */
using RMatrix = std::vector<std::vector<double>>;

/** Pack a d x d matrix row-major into a slot vector. */
std::vector<cplx> packMatrix(const RMatrix& m, size_t slots);

/** Unpack the first d x d block of a slot vector. */
RMatrix unpackMatrix(const std::vector<cplx>& slots, size_t d);

/** Plain reference product. */
RMatrix matMulRef(const RMatrix& a, const RMatrix& b);

/**
 * Precomputed PCMM: multiplies a row-packed encrypted d x d matrix by
 * the fixed plaintext weight matrix W on the right.  Costs one level.
 */
class PcmmPlan
{
  public:
    /** @param scale plaintext scale of the encoded weight diagonals */
    PcmmPlan(const CkksEncoder& encoder, const RMatrix& w, size_t d,
             double scale);

    std::vector<int> requiredRotations() const;

    /** decode(apply(ct)) unpacks to (packed A) x W. */
    Ciphertext apply(const Evaluator& eval, const Ciphertext& ct) const;

  private:
    std::unique_ptr<LinearTransform> lt_;
};

/** Rotation steps ccmm() needs for dimension d. */
std::vector<int> ccmmRotations(size_t d);

/**
 * Ciphertext-ciphertext product of two row-packed d x d matrices.
 * Consumes two levels (mask + CMult).  d*d must not exceed the slot
 * count and the ciphertexts must be zero outside the matrix block.
 */
Ciphertext ccmm(const Evaluator& eval, const Ciphertext& a,
                const Ciphertext& b, size_t d);

} // namespace hydra

#endif // HYDRA_FHE_MATMUL_HH
