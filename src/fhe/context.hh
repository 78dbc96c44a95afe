/**
 * @file
 * CkksContext: owns the RNS basis and the precomputation shared by the
 * encoder, key generator and evaluator.
 */

#ifndef HYDRA_FHE_CONTEXT_HH
#define HYDRA_FHE_CONTEXT_HH

#include <memory>
#include <vector>

#include "fhe/params.hh"
#include "math/poly.hh"
#include "math/rns.hh"

namespace hydra {

/**
 * Immutable per-parameter-set state.  Create once, share by reference
 * across encoder/keygen/evaluator.
 */
class CkksContext
{
  public:
    explicit CkksContext(const CkksParams& params);

    const CkksParams& params() const { return params_; }
    const std::shared_ptr<const RnsBasis>& basis() const { return basis_; }
    size_t n() const { return params_.n; }
    size_t slots() const { return params_.n / 2; }
    size_t levels() const { return params_.levels; }

    /**
     * P mod q_k for P the product of the special primes: the gadget
     * factor of keyswitching-key generation.
     */
    u64 pModQ(size_t k) const { return pModQ_[k]; }

    /** Galois element for a left rotation by `steps` slots. */
    u64 galoisForRotation(int steps) const;

    /** Galois element for complex conjugation. */
    u64 galoisForConjugation() const { return 2 * params_.n - 1; }

    /**
     * The monomial X^{n/2} in NTT form over every chain limb.  Every
     * embedding root has zeta_j^{n/2} = i, so a pointwise product with
     * it multiplies each slot by i (Evaluator::mulByI).
     */
    const RnsPoly& iMonomialNtt() const { return iMonomial_; }

  private:
    CkksParams params_;
    std::shared_ptr<const RnsBasis> basis_;
    std::vector<u64> pModQ_;
    RnsPoly iMonomial_;
};

} // namespace hydra

#endif // HYDRA_FHE_CONTEXT_HH
