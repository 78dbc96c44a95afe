/**
 * @file
 * CKKS bootstrapping (paper Section III-B, Fig. 3(b)):
 *
 *   ModRaise -> CoeffToSlot (homomorphic DFT) -> EvalMod
 *   (EvaExp Taylor series + Double-Angle Formula + sine extraction)
 *   -> SlotToCoeff.
 *
 * CoeffToSlot and SlotToCoeff are the special FFT factored into sparse
 * radix-r levels, one BSGS LinearTransform per level with the (radix,
 * bs) the paper's Eq. 1 model picks (model/dft_model.hh) -- the same
 * DftPlan type whose multi-node mapping the scheduler layer prices.
 * Here the levels run single-node and exact, with their independent
 * giant steps and hoisted rotations spread over the host thread pool.
 *
 * Neither transform applies the FFT's bit reversal: CoeffToSlot leaves
 * the coefficients in bit-reversed slot order, EvalMod is slotwise, and
 * SlotToCoeff consumes that order.
 */

#ifndef HYDRA_FHE_BOOTSTRAP_HH
#define HYDRA_FHE_BOOTSTRAP_HH

#include <vector>

#include "fhe/lintrans.hh"
#include "fhe/polyeval.hh"
#include "model/dft_model.hh"

namespace hydra {

/** Tunable knobs of the DFT and EvalMod stages. */
struct BootstrapConfig
{
    /** Taylor degree of the complex exponential (paper uses 59 at
     *  full scale; 7 suffices after enough double-angle halving). */
    size_t taylorDegree = 7;
    /**
     * Double-angle iterations r: the argument is divided by 2^r.  With
     * Taylor degree 7 at n = 2^8, EvalMod's error at the full overflow
     * range |I| = 18 is 1.5e-4 for r = 7 and 7e-6 for r = 8, which
     * costs one more level.
     */
    size_t doubleAngleIters = 7;
    /**
     * CoeffToSlot factors, one level each (see specialFftFactors).
     * Empty selects hostDftPlan(2, slots).
     */
    DftPlan coeffToSlot;
    /** SlotToCoeff factors; empty selects hostDftPlan(2, slots). */
    DftPlan slotToCoeff;
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

/**
 * The Eq. 1-optimal `levels`-level plan for a `slots`-point DFT on one
 * host, priced with this library's measured rotate : PMult : HAdd
 * times.  A one-level plan is the dense transform.
 */
DftPlan hostDftPlan(size_t levels, size_t slots);

/**
 * The special FFT as a product of sparse factors, one per plan level,
 * returned in plan order.  Level 0 holds the top butterfly stages
 * (block length slots down to slots / radix_0), level 1 the next
 * log2(radix_1) stages, and so on; level i has stride t_i = slots /
 * (radix_0 ... radix_i).
 *
 *  - inverse: fftSpecialInv without its bit reversal, which is
 *    F_{L-1} ... F_1 F_0 (level 0 runs first); each level carries its
 *    share 1/radix_i of the 1/slots scaling.
 *  - forward: fftSpecial on bit-reversed input, F_0 F_1 ... F_{L-1}
 *    (the last level runs first).
 *
 * Level 0 has radix_0 diagonals at offsets k t_0 (its butterfly
 * offsets wrap around the slot count); every other level has
 * 2 radix_i diagonals at offsets (k - radix_i) t_i, the first of them
 * zero.
 */
std::vector<MatrixDiagonals> specialFftFactors(const CkksEncoder& encoder,
                                               const DftPlan& plan,
                                               bool inverse);

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

    /** The resolved CoeffToSlot and SlotToCoeff plans. */
    const DftPlan& coeffToSlotPlan() const { return config_.coeffToSlot; }
    const DftPlan& slotToCoeffPlan() const { return config_.slotToCoeff; }

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
     * by the scale), in bit-reversed slot order.  Consumes one level
     * per coeffToSlotPlan() level.
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

    /**
     * Inverse DFT: packs two coefficient-half ciphertexts (bit-reversed
     * slot order, as coeffToSlot leaves them) back.  Runs at the level
     * bootstrap() reaches it with (an input above is dropped to it) and
     * consumes one level per slotToCoeffPlan() level, so the result is
     * at levels() - depth().
     */
    Ciphertext slotToCoeff(const Evaluator& eval, const Ciphertext& re,
                           const Ciphertext& im) const;
    /// @}

  private:
    const CkksContext& ctx_;
    const CkksEncoder& encoder_;
    BootstrapConfig config_;
    /** C2S factors of fftSpecialInv / 2, in plan order. */
    std::vector<LinearTransform> c2s_;
    /** S2C factors of fftSpecial, in plan order (run last to first). */
    std::vector<LinearTransform> s2c_;
};

} // namespace hydra

#endif // HYDRA_FHE_BOOTSTRAP_HH
