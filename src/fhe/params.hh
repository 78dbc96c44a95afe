/**
 * @file
 * CKKS parameter sets.
 *
 * The paper runs RNS-CKKS with N = 2^16, log(PQ) = 1692, logQ = 1260
 * (SHARP's parameters).  The functional library executes at laptop-scale
 * ring dimensions; the full-scale set is carried symbolically and feeds
 * the architecture model only.
 */

#ifndef HYDRA_FHE_PARAMS_HH
#define HYDRA_FHE_PARAMS_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace hydra {

/** Parameters for a CKKS context. */
struct CkksParams
{
    /** Ring dimension (power of two). */
    size_t n = 1 << 12;
    /** Number of ciphertext primes in the modulus chain. */
    size_t levels = 6;
    /** Bit size of q_1..q_{L-1} = log2 of the rescaling scale. */
    int scaleBits = 40;
    /** Bit size of the base prime q_0 (decode headroom). */
    int firstPrimeBits = 50;
    /** Bit size of each keyswitching special prime. */
    int specialPrimeBits = 51;
    /**
     * Special prime count alpha of hybrid keyswitching.  A keyswitch
     * splits the ciphertext modulus into dnum() digits of alpha
     * consecutive primes each, so alpha = 1 is one digit per limb.
     */
    size_t specialPrimes = 1;
    /** Error stddev for fresh encryptions. */
    double errorStd = 3.2;
    /**
     * Hamming weight of the ternary secret; 0 = dense ternary.  Sparse
     * secrets bound the modulus-raising overflow count I during
     * bootstrapping (HEAAN-style).
     */
    size_t secretHammingWeight = 0;
    /** RNG seed for key material. */
    uint64_t seed = 0x4879647261ULL; // "Hydra"

    size_t slots() const { return n / 2; }
    double scale() const { return static_cast<double>(1ULL << scaleBits); }

    /** Sanity-check ranges; fatal() on user error. */
    void validate() const;

    /** Total ciphertext modulus bits (approximate). */
    int
    logQ() const
    {
        return firstPrimeBits + static_cast<int>(levels - 1) * scaleBits;
    }

    /** Including the special primes. */
    int
    logPQ() const
    {
        return logQ() + static_cast<int>(specialPrimes) * specialPrimeBits;
    }

    /** Keyswitch digit count at the top level: ceil(levels / alpha). */
    size_t
    dnum() const
    {
        return (levels + specialPrimes - 1) / specialPrimes;
    }

    std::string describe() const;

    /** Small fast preset for unit tests. */
    static CkksParams unitTest();

    /** Preset sized so that full bootstrapping fits (still laptop-scale). */
    static CkksParams bootstrapTest();

    /**
     * The paper's full-scale parameter set (SHARP-compatible):
     * N = 2^16, logQ = 1260, log(PQ) = 1692.  Symbolic: drives the
     * architecture model, not meant for functional execution here.
     */
    static CkksParams paperFullScale();
};

} // namespace hydra

#endif // HYDRA_FHE_PARAMS_HH
