/**
 * @file
 * CKKS encoder: canonical-embedding encode/decode between complex slot
 * vectors and ring plaintexts, via the HEAAN-style special FFT over the
 * 5^j twisted roots.
 *
 * Plaintexts, keys and ciphertexts live in NTT form; coefficients exist
 * only inside encode/decode, ModUp/ModDown and rescale.  Each RNS
 * limb's NTT is independent, so a plaintext encoded with more limbs
 * than a ciphertext serves it through its leading limbs.
 */

#ifndef HYDRA_FHE_ENCODER_HH
#define HYDRA_FHE_ENCODER_HH

#include <complex>
#include <vector>

#include "fhe/context.hh"
#include "math/poly.hh"

namespace hydra {

using cplx = std::complex<double>;

/** Plaintext polynomial, in NTT form, together with its scaling factor. */
struct Plaintext
{
    RnsPoly poly;
    double scale = 0.0;
};

/** Encode/decode between C^{n/2} and R = Z[X]/(X^n+1). */
class CkksEncoder
{
  public:
    explicit CkksEncoder(const CkksContext& ctx);

    size_t slots() const { return slots_; }

    /** Limb count of a full-level plaintext. */
    size_t maxLevels() const { return ctx_.levels(); }

    /**
     * Encode a complex vector (padded with zeros up to n/2 slots) at the
     * given scale into an NTT-form plaintext with `n_limbs` chain limbs,
     * followed by the alpha special limbs when `over_qp` (the operand of
     * a PMult over Q*P).
     */
    Plaintext encode(const std::vector<cplx>& values, double scale,
                     size_t n_limbs, bool over_qp = false) const;

    /** Encode a real vector. */
    Plaintext encode(const std::vector<double>& values, double scale,
                     size_t n_limbs) const;

    /**
     * Encode the constant vector (c, c, ..., c) without an FFT or an
     * NTT: the plaintext is Re(c)*scale + Im(c)*scale * X^{n/2}, and
     * the NTT of X^{n/2} is ctx.iMonomialNtt(), so limb k holds
     * (Re mod q_k) + (Im mod q_k) * iota_k -- a per-limb scalar when
     * Im is zero.
     */
    Plaintext encodeConstant(cplx c, double scale, size_t n_limbs) const;

    /** Decode an NTT-form plaintext back to its complex slot vector. */
    std::vector<cplx> decode(const Plaintext& pt) const;

    /** Special FFT (coefficient-packing -> slot values), in place. */
    void fftSpecial(std::vector<cplx>& vals) const;

    /** Inverse special FFT (slot values -> coefficient packing). */
    void fftSpecialInv(std::vector<cplx>& vals) const;

    /**
     * One butterfly stage of fftSpecial over blocks of `len` entries,
     * in place.  fftSpecial is the bit-reversal permutation followed by
     * these stages for len = 2, 4, ..., slots.
     */
    void fftSpecialStage(std::vector<cplx>& vals, size_t len) const;

    /**
     * One unscaled butterfly stage of fftSpecialInv, in place.
     * fftSpecialInv is these stages for len = slots, ..., 4, 2, then
     * the bit-reversal permutation and the 1/slots scaling.
     */
    void fftSpecialInvStage(std::vector<cplx>& vals, size_t len) const;

    /**
     * The j-th embedding root zeta_j = exp(i*pi*(5^j mod 2n)/n); the
     * matrix U with U[j][i] = zeta_j^i defines decode(pt)_j =
     * sum_i coeff_i * zeta_j^i / scale for i < n.  Exposed for the
     * bootstrapping linear transforms.
     */
    cplx embeddingRoot(size_t j) const;

  private:
    const CkksContext& ctx_;
    size_t slots_;
    size_t m_; ///< 2n
    std::vector<size_t> rotGroup_; ///< 5^j mod 2n
    std::vector<cplx> ksiPows_;    ///< exp(2*pi*i*k/m)
};

} // namespace hydra

#endif // HYDRA_FHE_ENCODER_HH
