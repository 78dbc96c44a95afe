/**
 * @file
 * Negacyclic number-theoretic transform over Z_q[X]/(X^n + 1).
 *
 * Iterative Cooley-Tukey (forward) / Gentleman-Sande (inverse) with
 * bit-reversed twiddle tables and Shoup multiplication, following the
 * Longa-Naehrig formulation with Harvey lazy reduction: intermediate
 * butterfly values live in [0, 2q) / [0, 4q) and are normalized to the
 * canonical [0, q) representative only once per transform, so outputs
 * match the fully-reduced form bit for bit.  This is the functional
 * counterpart of the paper's radix-based NTT compute unit.
 *
 * The transform bodies live in src/math/simd/ as runtime-dispatched
 * kernels (scalar / AVX2 / AVX-512); this class owns the twiddle
 * tables, stored struct-of-arrays (separate w and Shoup-quotient
 * vectors) so vector lanes can load twiddles contiguously.
 */

#ifndef HYDRA_MATH_NTT_HH
#define HYDRA_MATH_NTT_HH

#include <cstddef>
#include <vector>

#include "math/modarith.hh"

namespace hydra {

/** Precomputed twiddle tables for one (n, q) pair. */
class NttTable
{
  public:
    /**
     * Build tables for transform length n (a power of two) and prime
     * modulus q with q = 1 (mod 2n).
     */
    NttTable(size_t n, Modulus q);

    size_t n() const { return n_; }
    const Modulus& modulus() const { return q_; }

    /** In-place forward negacyclic NTT (coefficients -> evaluations). */
    void forward(u64* a) const;

    /** In-place inverse negacyclic NTT (evaluations -> coefficients). */
    void inverse(u64* a) const;

    void forward(std::vector<u64>& a) const { forward(a.data()); }
    void inverse(std::vector<u64>& a) const { inverse(a.data()); }

    /// @name Twiddle access for the dispatched kernels
    /// @{
    /** psi^brv(i) for the forward transform (bit-reversed order). */
    const u64* fwdW() const { return fwdW_.data(); }
    /** Shoup quotients matching fwdW(). */
    const u64* fwdWShoup() const { return fwdWShoup_.data(); }
    /** psi^-brv(i) for the inverse transform. */
    const u64* invW() const { return invW_.data(); }
    /** Shoup quotients matching invW(). */
    const u64* invWShoup() const { return invWShoup_.data(); }
    /** n^-1 mod q and its Shoup quotient (inverse normalization). */
    u64 nInvW() const { return nInvW_; }
    u64 nInvWShoup() const { return nInvWShoup_; }
    /// @}

  private:
    size_t n_;
    int logN_;
    Modulus q_;
    std::vector<u64> fwdW_;
    std::vector<u64> fwdWShoup_;
    std::vector<u64> invW_;
    std::vector<u64> invWShoup_;
    u64 nInvW_ = 0;
    u64 nInvWShoup_ = 0;
};

/** Reverse the low `bits` bits of v. */
inline u64
bitReverse(u64 v, int bits)
{
    u64 r = 0;
    for (int i = 0; i < bits; ++i) {
        r = (r << 1) | (v & 1);
        v >>= 1;
    }
    return r;
}

} // namespace hydra

#endif // HYDRA_MATH_NTT_HH
