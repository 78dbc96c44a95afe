/**
 * @file
 * Ciphertext-level FHE operation IR.
 *
 * Every layer of Hydra speaks this vocabulary: the functional CKKS
 * library emits HeOp records as it executes, the workload models
 * generate HeOp mixes analytically (Table I), and the architecture
 * model assigns cycles and energy to each HeOp.
 */

#ifndef HYDRA_TRACE_HEOP_HH
#define HYDRA_TRACE_HEOP_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace hydra {

/** Ciphertext-level homomorphic operations (paper Section II-A). */
enum class HeOpType : uint8_t
{
    HAdd,       ///< ciphertext + ciphertext (also HSub)
    PMult,      ///< plaintext * ciphertext
    CMult,      ///< ciphertext * ciphertext, including relinearization
    Rescale,    ///< divide by the last modulus-chain prime
    Rotate,     ///< slot rotation = automorphism + keyswitch
    Conjugate,  ///< complex conjugation = automorphism + keyswitch
    KeySwitch,  ///< bare keyswitch (counted inside Rotate/CMult too)
    ModRaise,   ///< bootstrap modulus raising
    NumTypes
};

constexpr size_t kNumHeOpTypes = static_cast<size_t>(HeOpType::NumTypes);

/** Short mnemonic, e.g.\ "CMult". */
const char* heOpName(HeOpType t);

/** One executed ciphertext-level operation. */
struct HeOp
{
    HeOpType type;
    /** Active modulus-chain limbs at execution time. */
    uint32_t limbs;
};

/**
 * Aggregated counts per operation type.  record() may run concurrently
 * from ThreadPool workers (op-level parallel BSGS); the counters are
 * relaxed atomics, and totals are order-independent sums.
 */
class OpCounter
{
  public:
    void
    record(HeOpType t, uint32_t limbs)
    {
        counts_[static_cast<size_t>(t)].fetch_add(
            1, std::memory_order_relaxed);
        limbSum_[static_cast<size_t>(t)].fetch_add(
            limbs, std::memory_order_relaxed);
    }

    uint64_t
    count(HeOpType t) const
    {
        return counts_[static_cast<size_t>(t)].load(
            std::memory_order_relaxed);
    }

    /** Sum of active limb counts over all ops of this type. */
    uint64_t
    limbSum(HeOpType t) const
    {
        return limbSum_[static_cast<size_t>(t)].load(
            std::memory_order_relaxed);
    }

    uint64_t
    total() const
    {
        uint64_t s = 0;
        for (const auto& c : counts_)
            s += c.load(std::memory_order_relaxed);
        return s;
    }

    void
    reset()
    {
        for (auto& c : counts_)
            c.store(0, std::memory_order_relaxed);
        for (auto& l : limbSum_)
            l.store(0, std::memory_order_relaxed);
    }

    /** Render as a one-line summary. */
    std::string summary() const;

  private:
    std::array<std::atomic<uint64_t>, kNumHeOpTypes> counts_{};
    std::array<std::atomic<uint64_t>, kNumHeOpTypes> limbSum_{};
};

/**
 * Static per-unit operation mix of one parallel work unit of a DL layer
 * (paper Table I, right-hand columns).
 */
struct OpMix
{
    uint32_t rotations = 0;
    uint32_t cmults = 0;
    uint32_t pmults = 0;
    uint32_t hadds = 0;
};

} // namespace hydra

#endif // HYDRA_TRACE_HEOP_HH
