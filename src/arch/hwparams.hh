/**
 * @file
 * Hardware parameters of the modelled platforms (paper Section IV/V).
 *
 * The Hydra card is a Xilinx Alveo U280: 512-lane compute units (NTT,
 * MM, MA, Automorphism), HBM2 (~460 GB/s), QSFP28 networking through
 * switches, and a DTU that moves data independently of compute.  The
 * FAB baseline shares the FPGA platform but routes all inter-card data
 * through host CPUs (PCIe + LAN) with software synchronization.
 */

#ifndef HYDRA_ARCH_HWPARAMS_HH
#define HYDRA_ARCH_HWPARAMS_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "sim/eventq.hh"

namespace hydra {

/** Compute-unit kinds on a card (paper Fig. 4). */
enum class CuType : uint8_t
{
    Ntt,
    Mm,
    Ma,
    Aut,
    NumTypes
};

constexpr size_t kNumCuTypes = static_cast<size_t>(CuType::NumTypes);

const char* cuName(CuType t);

/** Per-card microarchitecture parameters. */
struct FpgaParams
{
    /** Card clock in Hz (U280 FHE designs close ~300 MHz). */
    double clockHz = 300e6;
    /** Operands consumed per CU per cycle ("512 operands are loaded"). */
    size_t lanes = 512;
    /** NTT butterfly radix (paper: radix-4 for N = 2^16). */
    size_t nttRadix = 4;
    /** HBM bandwidth in bytes/s (U280 HBM2: ~460 GB/s). */
    double hbmBytesPerSec = 460e9;
    /** On-chip scratchpad size in bytes (MAD-style caching). */
    size_t scratchpadBytes = 32ull << 20;
    /**
     * HBM traffic multiplier over compulsory traffic.  1.0 models the
     * MAD-style scratchpad reuse Hydra adopts; Poseidon (no caching
     * strategy) re-fetches operands and sits near 3.
     */
    double hbmTrafficFactor = 1.0;
    /**
     * Capacity-aware re-fetch penalty: extra traffic factor added per
     * unit of working-set overflow beyond the scratchpad (0 disables
     * the capacity model; used by the MAD ablation).
     */
    double scratchpadOverflowPenalty = 0.0;
    /**
     * Throughput derating vs the ideal pipeline (routing congestion,
     * stalls).  Multiplies compute cycles.
     */
    double computeDerate = 1.0;

    double cycleSeconds() const { return 1.0 / clockHz; }
};

/** Inter-card network parameters (Hydra DTU + switches). */
struct NetParams
{
    /** Per-port line rate in bytes/s (QSFP28 100 GbE). */
    double linkBytesPerSec = 100e9 / 8.0;
    /** Per-hop switch latency. */
    Tick switchLatency = secondsToTicks(1e-6);
    /** DTU instruction parse + DMA configuration time. */
    Tick dmaConfigLatency = secondsToTicks(0.5e-6);
    /** Extra hops when crossing servers (top-of-rack switch). */
    int crossServerExtraHops = 2;
};

/** FAB-style host-mediated communication parameters. */
struct HostNetParams
{
    /** PCIe Gen3 x16 effective bandwidth (paper Section V-A). */
    double pcieBytesPerSec = 16e9;
    /** 10 Gb/s LAN between hosts. */
    double lanBytesPerSec = 10e9 / 8.0;
    /** Host software overhead per transfer (driver + sync). */
    Tick hostLatency = secondsToTicks(10e-6);
};

/** Per-operation energy coefficients. */
struct EnergyParams
{
    /** Energy per lane-operation per CU type, joules. */
    double cuOpJ[kNumCuTypes] = {
        28e-12, // NTT butterfly stage op (DSP-heavy)
        22e-12, // MM (Barrett)
        3e-12,  // MA
        5e-12,  // Automorphism (addressing only)
    };
    /** HBM access energy, joules per byte (~3.5 pJ/bit). */
    double hbmJPerByte = 3.5e-12 * 8;
    /** NIC/DTU transfer energy, joules per byte (low-power hardcore). */
    double nicJPerByte = 0.8e-12 * 8;
    /** Static power per card, watts. */
    double staticWatts = 25.0;
};

/** Cluster topology. */
struct ClusterConfig
{
    size_t servers = 1;
    size_t cardsPerServer = 1;

    size_t totalCards() const { return servers * cardsPerServer; }

    size_t
    serverOf(size_t card) const
    {
        return card / cardsPerServer;
    }

    bool operator==(const ClusterConfig&) const = default;
};

/** Named Hydra prototypes from the paper (Section V-A). */
ClusterConfig hydraS();
ClusterConfig hydraM();
ClusterConfig hydraL();

} // namespace hydra

#endif // HYDRA_ARCH_HWPARAMS_HH
