/**
 * @file
 * Key generation: secret, public, relinearization and Galois keys.
 */

#ifndef HYDRA_FHE_KEYGEN_HH
#define HYDRA_FHE_KEYGEN_HH

#include <vector>

#include "common/rng.hh"
#include "fhe/context.hh"
#include "fhe/keys.hh"

namespace hydra {

/** Samples all key material for one CKKS context. */
class KeyGenerator
{
  public:
    explicit KeyGenerator(const CkksContext& ctx);

    /** Sample a fresh ternary secret key. */
    SecretKey secretKey();

    /** Encryption key for the given secret. */
    PublicKey publicKey(const SecretKey& sk);

    /** Relinearization key: switches s^2 -> s. */
    EvalKey relinKey(const SecretKey& sk);

    /** Galois key for one element g: switches s(X^g) -> s. */
    EvalKey galoisKey(const SecretKey& sk, u64 galois);

    /** Galois keys for a set of rotation steps (plus conjugation). */
    GaloisKeys galoisKeys(const SecretKey& sk,
                          const std::vector<int>& steps,
                          bool with_conjugation = true);

    /**
     * The power-of-two step set {1, 2, 4, ..., slots/2}: log2(slots)
     * keys that let Evaluator::rotateDecomposed reach any rotation.
     */
    std::vector<int> powerOfTwoSteps() const;

    /**
     * Keyswitching key from an arbitrary source secret polynomial
     * (NTT form, full chain plus special primes) to sk: dnum digit
     * keys over L + alpha limbs.  Building block for the above.
     */
    EvalKey makeSwitchKey(const RnsPoly& src, const SecretKey& sk);

  private:
    /** Uniform polynomial over the full chain + special primes, NTT. */
    RnsPoly sampleUniformFull();

    const CkksContext& ctx_;
    Rng rng_;
};

} // namespace hydra

#endif // HYDRA_FHE_KEYGEN_HH
