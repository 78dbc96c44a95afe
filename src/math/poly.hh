/**
 * @file
 * Polynomial in R_Q = Z_Q[X]/(X^n + 1) stored in RNS (double-CRT) form.
 *
 * A polynomial owns one residue vector ("limb") per active ciphertext
 * prime, followed by zero or more limbs for the special keyswitching
 * primes p_0, p_1, ... (keys and keyswitch accumulators carry all
 * alpha of them; ciphertexts and plaintexts none).
 * All limbs live in a single contiguous, cache-aligned buffer with
 * stride n (limb k occupies words [k*n, (k+1)*n)), acquired from the
 * global BufferPool so steady-state evaluator temporaries recycle
 * storage instead of allocating.  Limbs can collectively be in
 * coefficient or NTT (evaluation) domain.
 */

#ifndef HYDRA_MATH_POLY_HH
#define HYDRA_MATH_POLY_HH

#include <memory>
#include <vector>

#include "common/pool.hh"
#include "math/rns.hh"

namespace hydra {

/**
 * Read-only view of one limb: n consecutive residues inside the flat
 * buffer.  Cheap to copy; never owns memory.
 */
class ConstLimbView
{
  public:
    ConstLimbView(const u64* p, size_t n) : p_(p), n_(n) {}

    const u64* data() const { return p_; }
    size_t size() const { return n_; }
    const u64& operator[](size_t i) const { return p_[i]; }
    const u64* begin() const { return p_; }
    const u64* end() const { return p_ + n_; }

    friend bool
    operator==(ConstLimbView a, ConstLimbView b)
    {
        if (a.n_ != b.n_)
            return false;
        for (size_t i = 0; i < a.n_; ++i)
            if (a.p_[i] != b.p_[i])
                return false;
        return true;
    }

  private:
    const u64* p_;
    size_t n_;
};

/** Mutable view of one limb.  Assignment is deliberately deleted:
 *  copying limb contents goes through RnsPoly::copyLimbFrom. */
class LimbView
{
  public:
    LimbView(u64* p, size_t n) : p_(p), n_(n) {}

    LimbView(const LimbView&) = default;
    LimbView& operator=(const LimbView&) = delete;

    u64* data() const { return p_; }
    size_t size() const { return n_; }
    u64& operator[](size_t i) const { return p_[i]; }
    u64* begin() const { return p_; }
    u64* end() const { return p_ + n_; }

    operator ConstLimbView() const { return {p_, n_}; }

    friend bool
    operator==(LimbView a, ConstLimbView b)
    {
        return ConstLimbView(a) == b;
    }

  private:
    u64* p_;
    size_t n_;
};

/** RNS polynomial with explicit domain tracking. */
class RnsPoly
{
  public:
    RnsPoly() = default;

    /**
     * Zero polynomial.
     * @param basis shared RNS basis
     * @param n_limbs number of active ciphertext primes (q_0..q_{l-1})
     * @param n_special number of special prime limbs attached
     *                  (p_0..p_{n_special-1})
     * @param ntt_form initial domain
     */
    RnsPoly(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
            size_t n_special = 0, bool ntt_form = false);

    RnsPoly(const RnsPoly& other);
    RnsPoly& operator=(const RnsPoly& other);
    RnsPoly(RnsPoly&&) noexcept = default;
    RnsPoly& operator=(RnsPoly&&) noexcept = default;
    ~RnsPoly() = default;

    /**
     * Build from signed coefficients (applied identically to every limb),
     * e.g.\ ternary secrets, error samples or encoded plaintexts.
     */
    static RnsPoly fromSigned(std::shared_ptr<const RnsBasis> basis,
                              size_t n_limbs, size_t n_special,
                              const std::vector<i64>& coeffs);

    /** Same, from a raw pointer to n coefficients (pooled scratch). */
    static RnsPoly fromSigned(std::shared_ptr<const RnsBasis> basis,
                              size_t n_limbs, size_t n_special,
                              const i64* coeffs);

    bool valid() const { return basis_ != nullptr; }
    size_t n() const { return n_; }
    size_t limbCount() const { return limbCount_; }
    size_t nLimbs() const { return nLimbs_; }
    /** Number of special prime limbs attached after the chain limbs. */
    size_t specialCount() const { return nSpecial_; }
    bool nttForm() const { return nttForm_; }
    const std::shared_ptr<const RnsBasis>& basis() const { return basis_; }

    /** Basis prime index backing local limb k. */
    size_t
    basisIndex(size_t k) const
    {
        return k < nLimbs_ ? k : basis_->specialIndex(k - nLimbs_);
    }

    const Modulus&
    mod(size_t k) const
    {
        return basis_->mod(basisIndex(k));
    }

    /** Raw pointer to limb k (n consecutive words, stride n). */
    u64* limbData(size_t k) { return buf_.data() + k * n_; }
    const u64* limbData(size_t k) const { return buf_.data() + k * n_; }

    LimbView limb(size_t k) { return {limbData(k), n_}; }
    ConstLimbView limb(size_t k) const { return {limbData(k), n_}; }

    /** this.limb(k) = src.limb(src_k) (contents, not a rebind). */
    void copyLimbFrom(size_t k, const RnsPoly& src, size_t src_k);

    /** Set every limb to zero (keeps shape and domain). */
    void setZero();

    /** this += other (matching shape and domain). */
    void add(const RnsPoly& other);

    /** this -= other (matching shape and domain). */
    void sub(const RnsPoly& other);

    /** this = -this. */
    void negate();

    /** Pointwise product; both operands must be in NTT form. */
    void mulPointwise(const RnsPoly& other);

    /** this += a * b pointwise; all three in NTT form. */
    void addMulPointwise(const RnsPoly& a, const RnsPoly& b);

    /** Multiply limb k by its prime-specific scalar a_k. */
    void mulScalarPerLimb(const std::vector<u64>& a);

    /** Convert all limbs to NTT domain. */
    void toNtt();

    /** Convert all limbs to coefficient domain. */
    void fromNtt();

    /**
     * Apply the Galois automorphism X -> X^g (coefficient domain only).
     * @param galois odd exponent g in [1, 2n)
     */
    RnsPoly automorphism(u64 galois) const;

    /**
     * The same automorphism applied in the NTT domain: evaluations at
     * the 2n-th roots permute (f(X^g) at omega equals f at omega^g),
     * so this is a pure index shuffle -- the trick behind rotation
     * hoisting.  Requires NTT form.
     */
    RnsPoly automorphismNtt(u64 galois) const;

    /**
     * Fused gather-accumulate: this += automorphismNtt of src, without
     * materializing the permuted polynomial.  Both in NTT form with
     * matching shape.  Used by the hoisted-rotation accumulators.
     */
    void addAutomorphismNtt(const RnsPoly& src, u64 galois);

    /**
     * Index permutation sigma with NTT(f(X^g))[j] = NTT(f)[sigma(j)]
     * for the bit-reversed negacyclic NTT ordering of length n.
     */
    static std::vector<size_t> nttAutomorphismMap(size_t n, u64 galois);

    /**
     * Memoized variant of nttAutomorphismMap: entries are computed once
     * per (n, galois) pair and returned by reference; lookups of an
     * existing entry are lock-free, so concurrent rotations never
     * contend.  BSGS linear transforms and bootstrapping issue hundreds
     * of rotations over a handful of Galois elements, so the n-entry
     * modular-index computation amortizes to a lookup.
     */
    static const std::vector<size_t>& nttAutomorphismMapCached(size_t n,
                                                               u64 galois);

    /**
     * Divide-and-round by the product M of the last `count` limbs'
     * moduli, dropping those limbs: Rescale is count = 1 (exact
     * rounding), ModDown is count = specialCount() (M = P).  The
     * remainder x mod M comes from the centered fast base conversion,
     * so for count > 1 the quotient may be off by at most count / 2.
     * Works in either domain and preserves the domain of the remaining
     * limbs.
     */
    void divideRoundByLast(size_t count = 1);

    /**
     * ModUp for hybrid keyswitching.  This polynomial (NTT form, l
     * chain limbs, no special limbs) is split into ceil(l / alpha)
     * digits of alpha consecutive primes (alpha = the basis's special
     * count; the last digit may be shorter).  Digit j is the centered
     * fast base conversion of its primes' residues, lifted to all l
     * chain limbs plus the alpha special limbs, in NTT form.  A digit's
     * own limbs are its residues, copied rather than transformed again.
     */
    std::vector<RnsPoly> modUp() const;

    /** Drop the last limb without rescaling (modulus switching down). */
    void dropLast();

    /** Checks shape/domain compatibility with another polynomial. */
    bool sameShape(const RnsPoly& other) const;

  private:
    /** Tag: allocate the buffer but skip zero-filling it. */
    struct Uninit
    {
    };

    RnsPoly(std::shared_ptr<const RnsBasis> basis, size_t n_limbs,
            size_t n_special, bool ntt_form, Uninit);

    std::shared_ptr<const RnsBasis> basis_;
    size_t nLimbs_ = 0;
    size_t nSpecial_ = 0;
    bool nttForm_ = false;
    size_t n_ = 0;         ///< ring dimension = limb stride
    size_t limbCount_ = 0; ///< live limbs (nLimbs_ + nSpecial_)
    PoolBuffer buf_;       ///< flat limb storage, limbCount_ * n_ words
};

} // namespace hydra

#endif // HYDRA_MATH_POLY_HH
