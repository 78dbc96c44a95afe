/**
 * @file
 * Ciphertext-level operation cost model.
 *
 * Decomposes every HeOp into basic-operator passes over the four CUs
 * (paper Section IV-B: "all FHE operations can be decomposed into four
 * basic operators"), counts compulsory HBM traffic, and derives per-op
 * latency as the roofline max of compute and memory time.
 */

#ifndef HYDRA_ARCH_OPCOST_HH
#define HYDRA_ARCH_OPCOST_HH

#include <array>
#include <cstdint>

#include "arch/hwparams.hh"
#include "trace/heop.hh"

namespace hydra {

/** Cost of one ciphertext-level operation on one card. */
struct OpCost
{
    /** Compute cycles (after derating). */
    uint64_t cycles = 0;
    /** Compulsory HBM bytes moved (before the traffic factor). */
    uint64_t hbmBytes = 0;
    /** Element operations per CU type (for the energy model). */
    std::array<uint64_t, kNumCuTypes> cuOps{};
    /** Active limb count (capacity model input); max on aggregation. */
    uint32_t limbs = 0;

    OpCost&
    operator+=(const OpCost& o)
    {
        cycles += o.cycles;
        hbmBytes += o.hbmBytes;
        for (size_t i = 0; i < kNumCuTypes; ++i)
            cuOps[i] += o.cuOps[i];
        limbs = limbs > o.limbs ? limbs : o.limbs;
        return *this;
    }

    bool operator==(const OpCost&) const = default;
};

/**
 * Cost model for one (ring dimension, keyswitch digit count, card)
 * combination.
 */
class OpCostModel
{
  public:
    /**
     * @param fpga card microarchitecture
     * @param n ring dimension (paper: 2^16)
     * @param dnum keyswitching digit count (hybrid keyswitch)
     */
    OpCostModel(const FpgaParams& fpga, size_t n, size_t dnum = 4);

    /** Cost of one operation at `limbs` active modulus-chain primes. */
    OpCost cost(HeOpType op, size_t limbs) const;

    /** Aggregate cost of an OpMix executed at `limbs`. */
    OpCost mixCost(const OpMix& mix, size_t limbs) const;

    /** Latency of `c` on the card: max(compute, HBM) roofline. */
    Tick latency(const OpCost& c) const;

    /**
     * Capacity-aware HBM traffic factor at `limbs` active primes: the
     * base factor plus the configured penalty once the op working set
     * (ciphertext operands + keyswitch digits) overflows the
     * scratchpad (MAD's capacity effect; 0-penalty cards ignore it).
     */
    double trafficFactor(size_t limbs) const;

    /** Working-set estimate of one keyswitch-bearing op at `limbs`. */
    uint64_t workingSetBytes(size_t limbs) const;

    /** Convenience: latency of one op. */
    Tick
    opLatency(HeOpType op, size_t limbs) const
    {
        return latency(cost(op, limbs));
    }

    /** Serialized ciphertext size at `limbs` (two polynomials). */
    uint64_t ciphertextBytes(size_t limbs) const;

    /** Keyswitching-key size at `limbs`. */
    uint64_t keyBytes(size_t limbs) const;

    const FpgaParams& fpga() const { return fpga_; }
    size_t n() const { return n_; }
    size_t dnum() const { return dnum_; }

  private:
    /** Cycles for one streaming pass over a single limb. */
    uint64_t passCycles() const { return n_ / fpga_.lanes; }

    /** Passes for one NTT of one limb at the configured radix. */
    uint64_t nttPasses() const;

    FpgaParams fpga_;
    size_t n_;
    size_t logN_;
    size_t dnum_;
};

/**
 * Price an OpCounter recorded by the functional CKKS evaluator: each
 * ciphertext-level op is charged at its average recorded limb count.
 * Bare KeySwitch records are skipped (already embedded in the Rotate /
 * Conjugate / CMult costs).  This is the bridge that lets a real
 * (laptop-scale) homomorphic run be re-priced at accelerator scale.
 */
OpCost counterCost(const OpCostModel& model, const OpCounter& counter);

} // namespace hydra

#endif // HYDRA_ARCH_OPCOST_HH
