/**
 * @file
 * Key material for the CKKS scheme.
 *
 * Keyswitching is hybrid (Han-Ki): the ciphertext primes split into
 * dnum = ceil(L / alpha) digits of alpha consecutive primes each, and
 * P is the product of alpha special primes.  Digit j of the switched
 * polynomial is its residue mod Q_j (the digit's primes), lifted to the
 * full basis QP by ModUp, and
 *     KSK_j = (-a_j s + e_j + P * [Q/Q_j]*[(Q/Q_j)^-1]_{Q_j} * s_src, a_j)
 * over QP.  Mod q_k the gadget factor is 1 on digit j's primes and 0
 * elsewhere, so b_j gains [P]_{q_k} * s_src on exactly those limbs.
 * alpha = 1 is one digit per limb (dnum = L) with a single special
 * prime.
 */

#ifndef HYDRA_FHE_KEYS_HH
#define HYDRA_FHE_KEYS_HH

#include <map>
#include <vector>

#include "math/poly.hh"

namespace hydra {

/** Secret key: ternary s, NTT form over the full chain + specials. */
struct SecretKey
{
    RnsPoly s;
};

/** Encryption key (b, a) = (-a s + e, a) over Q, NTT form. */
struct PublicKey
{
    RnsPoly b;
    RnsPoly a;
};

/**
 * Keyswitching key: one (b_j, a_j) pair per digit (dnum of them), each
 * over the full chain plus the alpha special primes, NTT form.
 */
struct EvalKey
{
    std::vector<RnsPoly> b;
    std::vector<RnsPoly> a;

    bool valid() const { return !b.empty(); }

    /** Bytes of key material: 2 dnum polynomials of L + alpha limbs. */
    size_t
    bytes() const
    {
        size_t words = 0;
        for (const std::vector<RnsPoly>* half : {&b, &a})
            for (const RnsPoly& p : *half)
                words += p.limbCount() * p.n();
        return words * sizeof(u64);
    }
};

/** Rotation/conjugation keys indexed by Galois element. */
struct GaloisKeys
{
    std::map<u64, EvalKey> keys;

    bool
    has(u64 galois) const
    {
        return keys.count(galois) != 0;
    }

    const EvalKey&
    at(u64 galois) const
    {
        auto it = keys.find(galois);
        HYDRA_ASSERT(it != keys.end(), "missing Galois key");
        return it->second;
    }

    /** Bytes of key material over all Galois elements. */
    size_t
    bytes() const
    {
        size_t total = 0;
        for (const auto& [g, key] : keys)
            total += key.bytes();
        return total;
    }
};

/**
 * Ciphertext (c0, c1) with c0 + c1 s = scale * m + e; NTT form.  Inside
 * double-hoisted keyswitching c0 and c1 also carry the alpha special
 * limbs: the ciphertext is then over Q*P and holds P times that
 * relation (see Evaluator::rotateHoistedQP).
 */
struct Ciphertext
{
    RnsPoly c0;
    RnsPoly c1;
    double scale = 0.0;

    /** Active modulus-chain limbs (the "level" plus one; special limbs
     *  not counted). */
    size_t level() const { return c0.nLimbs(); }
};

} // namespace hydra

#endif // HYDRA_FHE_KEYS_HH
