/**
 * @file
 * RNS (residue number system) basis shared by all polynomials of a CKKS
 * context: the chain of ciphertext primes q_0..q_{L-1} plus the alpha
 * special primes p_0..p_{alpha-1} of hybrid keyswitching, with NTT
 * tables, the cross-prime constants needed for rescaling and CRT
 * composition, and the centered fast base converters behind ModUp and
 * ModDown.
 */

#ifndef HYDRA_MATH_RNS_HH
#define HYDRA_MATH_RNS_HH

#include <cstddef>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "math/bigint.hh"
#include "math/modarith.hh"
#include "math/ntt.hh"

namespace hydra {

/**
 * Centered fast base conversion out of a contiguous group B of basis
 * primes p_i (product P_B).  A value x given by its residues x_i is
 * carried to any other basis prime t as
 *     conv_t(x) = sum_i c_i * (P_B/p_i)  mod t,
 *     c_i = [x_i * (P_B/p_i)^-1]_{p_i}  (centered, in (-p_i/2, p_i/2]).
 * That sum is an integer congruent to x mod P_B with magnitude at most
 * |B| * P_B / 2, so conv(x) = x_c + u * P_B with x_c the centered value
 * of x and |u| <= |B| / 2 -- the approximate lift hybrid keyswitching
 * tolerates.  For a one-prime group the sum is the centered residue
 * itself: the conversion is exact and is the lift behind Rescale.
 *
 * The centering is folded into the source preparation: with
 * h_i = floor(p_i / 2), c_i = w_i - h_i for w_i = (x_i * (P_B/p_i)^-1
 * + h_i) mod p_i, so each target row is one multiply-accumulate of the
 * w_i onto the constant -sum_i h_i (P_B/p_i) mod t.
 */
class BaseConverter
{
  public:
    /** Group [begin, end) of `mods`; tables for every prime of mods. */
    BaseConverter(const std::vector<Modulus>& mods, size_t begin,
                  size_t end);

    size_t begin() const { return begin_; }
    size_t end() const { return end_; }
    size_t size() const { return end_ - begin_; }

    /**
     * w = (x * (P_B/p_i)^-1 + floor(p_i / 2)) mod p_i for group member
     * i (0-based within the group), from canonical coefficient-domain
     * residues x; in place when w == x.
     */
    void prepareSource(u64* w, const u64* x, size_t i, size_t n) const;

    /**
     * dst = conv_t of the prepared source spans w[0..size()) into
     * basis prime `target` (outside the group).  Coefficient domain.
     */
    void convert(u64* dst, const u64* const* w, size_t target,
                 size_t n) const;

    /** P_B^-1 mod basis prime `target` (outside the group). */
    const ShoupMul& prodInv(size_t target) const { return prodInv_[target]; }

  private:
    size_t begin_;
    size_t end_;
    std::vector<Modulus> mods_;
    /** (P_B/p_i)^-1 mod p_i per group member. */
    std::vector<ShoupMul> invHat_;
    /** floor(p_i / 2) per group member. */
    std::vector<u64> half_;
    /** Per basis prime t: (P_B/p_i) mod t and Shoup quotients. */
    std::vector<std::vector<u64>> hat_;
    std::vector<std::vector<u64>> hatShoup_;
    /** Per basis prime t: -sum_i h_i (P_B/p_i) mod t. */
    std::vector<u64> offset_;
    /** Per basis prime t: t and every group prime pass simd::fits52. */
    std::vector<bool> fits52_;
    /** Per basis prime t: P_B^-1 mod t (unset inside B). */
    std::vector<ShoupMul> prodInv_;
};

/**
 * An RNS basis over ring dimension n.  Limb index k < qCount() refers to
 * ciphertext prime q_k; limb index qCount() + i refers to special prime
 * p_i.  Keyswitching digits are runs of specialCount() consecutive
 * ciphertext primes, so one digit never outgrows P = prod p_i.
 */
class RnsBasis
{
  public:
    /**
     * @param n ring dimension (power of two)
     * @param q_primes ciphertext modulus chain, q_0 first
     * @param special_primes the keyswitching special primes (>= 1)
     */
    RnsBasis(size_t n, std::vector<u64> q_primes,
             std::vector<u64> special_primes);

    size_t n() const { return n_; }

    /** Number of ciphertext primes (excludes the special primes). */
    size_t qCount() const { return qCount_; }

    /** Number of special primes (alpha). */
    size_t specialCount() const { return mods_.size() - qCount_; }

    /** Total limb count including the special primes. */
    size_t totalCount() const { return mods_.size(); }

    /** Basis index of special prime p_i. */
    size_t specialIndex(size_t i = 0) const { return qCount_ + i; }

    const Modulus& mod(size_t k) const { return mods_[k]; }
    const NttTable& ntt(size_t k) const { return *ntts_[k]; }

    /** q_l^{-1} mod q_j (also defined for special indices). */
    u64
    invQlModQj(size_t l, size_t j) const
    {
        return inv_[l][j];
    }

    /**
     * Converter out of the basis primes [begin, end).  Built for every
     * group ModUp, ModDown and Rescale use: single primes, every prefix
     * of every keyswitch digit, and the special primes.
     */
    const BaseConverter& converter(size_t begin, size_t end) const;

    /** Product q_0..q_{count-1} as a big integer. */
    BigUInt productQ(size_t count) const;

    /**
     * Exact CRT composition of the residues x_k (k < count) into the
     * centered signed value, returned as long double.
     */
    long double composeCentered(const std::vector<u64>& residues,
                                size_t count) const;

  private:
    size_t n_;
    size_t qCount_;
    std::vector<Modulus> mods_;
    std::vector<std::unique_ptr<NttTable>> ntts_;
    /** inv_[l][j] = q_l^{-1} mod q_j. */
    std::vector<std::vector<u64>> inv_;
    /** garnerInv_[i] = (q_0 * ... * q_{i-1})^{-1} mod q_i (Garner's
     *  CRT composition). */
    std::vector<u64> garnerInv_;
    std::map<std::pair<size_t, size_t>, BaseConverter> converters_;
};

} // namespace hydra

#endif // HYDRA_MATH_RNS_HH
