/**
 * @file
 * Homomorphic evaluation: the CKKS operation set used throughout the
 * paper (HAdd, PMult, CMult, Rescale, Rotate, Conjugate, KeySwitch).
 */

#ifndef HYDRA_FHE_EVALUATOR_HH
#define HYDRA_FHE_EVALUATOR_HH

#include <utility>

#include "fhe/context.hh"
#include "fhe/encoder.hh"
#include "fhe/keys.hh"
#include "trace/heop.hh"

namespace hydra {

/**
 * Stateless-ish evaluator; holds references to the keys it needs and an
 * optional OpCounter that records every ciphertext-level operation for
 * the architecture model.
 */
class Evaluator
{
  public:
    Evaluator(const CkksContext& ctx, const CkksEncoder& encoder);

    void setRelinKey(const EvalKey* k) { relin_ = k; }
    void setGaloisKeys(const GaloisKeys* k) { galois_ = k; }
    void setCounter(OpCounter* c) { counter_ = c; }

    /// @name Additive operations
    /// @{
    Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext negate(const Ciphertext& a) const;

    /**
     * a + p.  Like every plaintext operand here, p may carry more limbs
     * than a: its leading a.level() limbs are read in place.
     */
    Ciphertext addPlain(const Ciphertext& a, const Plaintext& p) const;

    /** a += b without materializing a result ciphertext. */
    void addInPlace(Ciphertext& a, const Ciphertext& b) const;

    /** a -= b in place. */
    void subInPlace(Ciphertext& a, const Ciphertext& b) const;
    /// @}

    /// @name Multiplicative operations
    /// @{
    /** Plaintext-ciphertext product; scales multiply, no rescale. */
    Ciphertext mulPlain(const Ciphertext& a, const Plaintext& p) const;

    /** a *= p in place (scales multiply, no rescale). */
    void mulPlainInPlace(Ciphertext& a, const Plaintext& p) const;

    /**
     * acc += a * p without materializing the product: the fused
     * multiply-accumulate behind BSGS inner loops.  Requires acc at the
     * same level as `a` with scale a.scale * p.scale.  PMults also take
     * a ciphertext over Q*P (below) with a plaintext over Q*P.
     */
    void addMulPlain(Ciphertext& acc, const Ciphertext& a,
                     const Plaintext& p) const;

    /** Ciphertext product including relinearization; no rescale. */
    Ciphertext mulRelin(const Ciphertext& a, const Ciphertext& b) const;

    Ciphertext square(const Ciphertext& a) const;

    /**
     * Multiply every slot by i: a pointwise product with the NTT form
     * of the monomial X^{n/2}.  Exact; costs no level and no key, and
     * leaves the scale unchanged.
     */
    Ciphertext mulByI(const Ciphertext& a) const;

    /** Multiply by a scalar constant encoded on the fly at `scale`. */
    Ciphertext mulConstant(const Ciphertext& a, cplx c,
                           double scale) const;

    /** Add a scalar constant (encoded at the ciphertext's scale). */
    Ciphertext addConstant(const Ciphertext& a, cplx c) const;

    /**
     * Multiply by a scalar and rescale, choosing the plaintext scale so
     * the result lands exactly on `target_scale`.  Costs one level.
     */
    Ciphertext mulConstantRescale(const Ciphertext& a, cplx c,
                                  double target_scale) const;
    /// @}

    /// @name Modulus management
    /// @{
    /** Drop the last limb, dividing the scale by its prime. */
    Ciphertext rescale(const Ciphertext& a) const;

    /** Rescale in place (no copy of the surviving limbs). */
    void rescaleInPlace(Ciphertext& a) const;

    /** Discard limbs down to `levels` active primes (scale unchanged). */
    Ciphertext dropToLevel(const Ciphertext& a, size_t levels) const;
    /// @}

    /// @name Automorphisms
    /// @{
    /** Rotate slots left by `steps` (requires the matching Galois key). */
    Ciphertext rotate(const Ciphertext& a, int steps) const;

    /**
     * Rotate by an arbitrary step using only power-of-two Galois keys
     * (see KeyGenerator::powerOfTwoSteps): the step is decomposed into
     * its binary expansion, costing popcount(steps) keyswitches.
     */
    Ciphertext rotateDecomposed(const Ciphertext& a, int steps) const;

    /**
     * Hoisted rotations: compute all requested rotations of one
     * ciphertext while running the ModUp of its keyswitch digits only
     * once; each rotation then costs a pure permutation plus the key
     * multiply-accumulate and its ModDown.  This is the classic hoisting
     * optimization that accelerates BSGS baby steps.
     */
    std::vector<Ciphertext> rotateHoisted(const Ciphertext& a,
                                          const std::vector<int>&
                                              steps) const;

    /** Complex conjugation of every slot. */
    Ciphertext conjugate(const Ciphertext& a) const;
    /// @}

    /// @name Keyswitching over Q*P (double hoisting)
    /// A ciphertext whose c0 and c1 carry the alpha special limbs lives
    /// over Q*P and holds P times its value: c0 + c1 s = P (scale m + e)
    /// mod Q*P.  HAdd, PMult by a plaintext over Q*P and the rotations
    /// below keep it there; modDownInPlace() returns it to the chain.
    /// Chaining keyswitches without the ModDown in between is double
    /// hoisting (Bossuat et al., Eurocrypt 2021).
    /// @{
    /**
     * rotateHoisted() without its ModDowns: entry i is over Q*P, its c0
     * being the key MAC plus P times the permuted c0 of `a` (a step
     * that is a multiple of the slot count gives P * a).  ModDown of
     * entry i is rotateHoisted(a, steps)[i] bit for bit.
     */
    std::vector<Ciphertext> rotateHoistedQP(const Ciphertext& a,
                                            const std::vector<int>&
                                                steps) const;

    /**
     * Rotate a Q*P ciphertext and stay over Q*P: ModDown of c1 alone,
     * ModUp of its rotation, the key MAC, plus the rotated c0 over Q*P.
     * Takes `a` by value: its c1 is divided down in place.
     */
    Ciphertext rotateQP(Ciphertext a, int steps) const;

    /** Divide a Q*P ciphertext by P, back onto its chain limbs. */
    void modDownInPlace(Ciphertext& a) const;
    /// @}

    /**
     * Bare hybrid keyswitch of polynomial d (NTT form, `level` chain
     * limbs, no special limbs): ModUp into ceil(level / alpha) digits
     * over level + alpha limbs, the key multiply-accumulate, and ModDown
     * by P.  Returns (t0, t1) in NTT form with t0 + t1 s ~= d * s_src.
     */
    std::pair<RnsPoly, RnsPoly> keySwitch(const RnsPoly& d,
                                          const EvalKey& key) const;

    const CkksContext& context() const { return ctx_; }
    const CkksEncoder& encoder() const { return encoder_; }

  private:
    void
    count(HeOpType t, size_t limbs) const
    {
        if (counter_)
            counter_->record(t, static_cast<uint32_t>(limbs));
    }

    Ciphertext applyGalois(const Ciphertext& a, u64 galois,
                           HeOpType op) const;

    /**
     * The key MAC of a keyswitch: ModUp digits (galois != 1: permuted by
     * that automorphism) multiply-accumulated against a key into
     * (t0, t1) over Q*P, `levels` chain limbs plus the alpha special
     * limbs.  A ModDown of both finishes the keyswitch.
     */
    std::pair<RnsPoly, RnsPoly>
    keyMac(const std::vector<RnsPoly>& digits, const EvalKey& key,
           size_t levels, u64 galois = 1) const;

    /** P * p over Q*P: each chain limb times [P]_q, special limbs 0. */
    RnsPoly liftQP(const RnsPoly& p) const;

    const CkksContext& ctx_;
    const CkksEncoder& encoder_;
    const EvalKey* relin_ = nullptr;
    const GaloisKeys* galois_ = nullptr;
    mutable OpCounter* counter_ = nullptr;
    /** [P]_t for every basis prime t (0 on the special primes). */
    std::vector<u64> pMod_;
};

} // namespace hydra

#endif // HYDRA_FHE_EVALUATOR_HH
