/**
 * @file
 * Machine configurations evaluated in the paper (Section V-A):
 * Hydra-S/M/L, the FPGA baselines rebuilt from their papers' published
 * parameters (FAB-S/M/L, Poseidon), and the published ASIC reference
 * numbers (CraterLake, BTS, ARK, SHARP).
 */

#ifndef HYDRA_BASELINES_PROTOTYPES_HH
#define HYDRA_BASELINES_PROTOTYPES_HH

#include <string>
#include <vector>

#include "sched/runner.hh"

namespace hydra {

/// @name Hydra prototypes
/// @{
/** Hydra with `servers` x `cards_per_server` U280 cards. */
PrototypeSpec hydraPrototype(const std::string& name, size_t servers,
                             size_t cards_per_server);

PrototypeSpec hydraSSpec(); ///< 1 server, 1 card
PrototypeSpec hydraMSpec(); ///< 1 server, 8 cards
PrototypeSpec hydraLSpec(); ///< 8 servers, 64 cards
/// @}

/// @name FPGA baselines
/// @{
/**
 * FAB: same U280 platform, lower sustained throughput (no MAD-style
 * cache planning) and host-mediated communication.  FAB-S = 1 card,
 * FAB-M = 8 cards, FAB-L = 64 cards (Section V-D scalability study).
 */
PrototypeSpec fabPrototype(const std::string& name, size_t servers,
                           size_t cards_per_server);
PrototypeSpec fabSSpec();
PrototypeSpec fabMSpec();
PrototypeSpec fabLSpec();

/** Poseidon: single card, strong CUs but no efficient HBM caching. */
PrototypeSpec poseidonSpec();
/// @}

/// @name Machine registry (CLI name resolution and discoverability).
/// @{
/** CLI names of every registered machine configuration. */
std::vector<std::string> machineNames();

/** Resolve a machine by CLI name ("hydra-m", "fab-l", ...); calls
 *  fatal() with the list of valid names on an unknown one. */
PrototypeSpec machineByName(const std::string& name);
/// @}

/** Published end-to-end times, seconds (paper Table II rows). */
struct PublishedRow
{
    const char* name;
    double resnet18;
    double resnet50;
    double bert;
    double opt;
};

/** ASIC rows of Table II (CraterLake, BTS, ARK, SHARP). */
const std::vector<PublishedRow>& asicPerformanceTable();

/** FPGA rows of Table II as published (for reference columns). */
const std::vector<PublishedRow>& paperFpgaTable();

/** Hydra rows of Table II as published (accuracy tracking). */
const std::vector<PublishedRow>& paperHydraTable();

/** EDAP rows of Table III as published. */
const std::vector<PublishedRow>& asicEdapTable();

} // namespace hydra

#endif // HYDRA_BASELINES_PROTOTYPES_HH
