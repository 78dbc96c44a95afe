/**
 * @file
 * CKKS bootstrapping (paper Section III-B, Fig. 3(b)):
 *
 *   ModRaise -> CoeffToSlot (homomorphic DFT) -> EvalMod
 *   (EvaExp Taylor series + Double-Angle Formula + sine extraction)
 *   -> SlotToCoeff.
 *
 * The linear transforms are the BSGS matrix products whose multi-node
 * mapping the paper optimizes; here they run single-node and exact, with
 * their independent giant steps and hoisted rotations spread over the
 * host thread pool, and the scheduler layer distributes the very same
 * structure across cards.
 */

#ifndef HYDRA_FHE_BOOTSTRAP_HH
#define HYDRA_FHE_BOOTSTRAP_HH

#include <memory>
#include <vector>

#include "fhe/lintrans.hh"
#include "fhe/polyeval.hh"

namespace hydra {

/** Tunable knobs of the EvalMod stage. */
struct BootstrapConfig
{
    /** Taylor degree of the complex exponential (paper uses 59 at
     *  full scale; 7 suffices after enough double-angle halving). */
    size_t taylorDegree = 7;
    /** Double-angle iterations r: the argument is divided by 2^r. */
    size_t doubleAngleIters = 9;
    /** Baby-step count forwarded to the linear transforms (0 = auto). */
    size_t babySteps = 0;
    /**
     * Approximate exp with a Chebyshev interpolant instead of the
     * Taylor series (paper Section III-A names both).  Chebyshev stays
     * accurate on a much wider argument range, so doubleAngleIters can
     * shrink and the pipeline keeps more output levels.
     */
    bool useChebyshev = false;
    /** Interpolant degree when useChebyshev is set. */
    size_t chebyshevDegree = 15;
    /** Bound on the ModRaise overflow count I (sets the fit range). */
    double maxOverflow = 18.0;
};

/** Precomputed bootstrapping pipeline for one context. */
class Bootstrapper
{
  public:
    Bootstrapper(const CkksContext& ctx, const CkksEncoder& encoder,
                 const BootstrapConfig& config = {});

    /** Rotation steps the Galois keys must cover (plus conjugation). */
    std::vector<int> requiredRotations() const;

    /** Levels consumed from full; output level = levels() - depth(). */
    size_t depth() const;

    /**
     * Refresh a low-level ciphertext to a high level carrying (almost)
     * the same message.  The evaluator must have relin and Galois keys
     * (covering requiredRotations()) installed.
     */
    Ciphertext bootstrap(const Evaluator& eval,
                         const Ciphertext& ct) const;

    /// @name Individual pipeline stages (exposed for tests & scheduling)
    /// @{
    /** Re-interpret a level-1 ciphertext over the full modulus chain. */
    Ciphertext modRaise(const Ciphertext& ct) const;

    /**
     * Homomorphic DFT: returns ciphertexts whose slots are the first and
     * second halves of the input's polynomial coefficients (each divided
     * by the scale).
     */
    std::pair<Ciphertext, Ciphertext>
    coeffToSlot(const Evaluator& eval, const Ciphertext& ct) const;

    /**
     * Approximate modular reduction: maps slot value
     * x = m/scale + (q0/scale) * I  to  ~m/scale, via
     * (q0 / 2 pi scale) * sin(2 pi scale x / q0).
     */
    Ciphertext evalMod(const Evaluator& eval, const Ciphertext& ct,
                       double message_scale) const;

    /** Inverse DFT: packs two coefficient-half ciphertexts back. */
    Ciphertext slotToCoeff(const Evaluator& eval, const Ciphertext& re,
                           const Ciphertext& im) const;
    /// @}

  private:
    const CkksContext& ctx_;
    const CkksEncoder& encoder_;
    BootstrapConfig config_;
    /** C2S: real/imag coefficient extraction matrices (x 1/n). */
    std::unique_ptr<LinearTransform> c2sLow_;
    std::unique_ptr<LinearTransform> c2sHigh_;
    /** S2C: embedding matrices A and B = diag(i) * A. */
    std::unique_ptr<LinearTransform> s2cLow_;
    std::unique_ptr<LinearTransform> s2cHigh_;
};

} // namespace hydra

#endif // HYDRA_FHE_BOOTSTRAP_HH
