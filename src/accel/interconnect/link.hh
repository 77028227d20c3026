/**
 * @file
 * Inter-chip link model for the sharded run path.
 *
 * Follows DramConfig's preset pattern: a plain config struct whose
 * behaviour keys on explicit fields, with named presets shaped like a
 * PCIe switch fabric and an on-package NoC. The model is deliberately
 * coarse — a per-chip full-duplex port with a fixed serialization
 * rate plus a per-hop latency — because for halo exchange the binding
 * quantity is port serialization of the busiest chip, not in-network
 * contention (SPA-GCN makes the same simplification when scaling
 * across cores).
 */

#ifndef SGCN_ACCEL_INTERCONNECT_LINK_HH
#define SGCN_ACCEL_INTERCONNECT_LINK_HH

#include <cstdint>
#include <string>

#include "sim/error.hh"
#include "sim/types.hh"

namespace sgcn
{

/** Physical arrangement of the chips; decides the hop count. */
enum class LinkTopology : std::uint8_t
{
    /** All chips hang off one switch: every route is two hops. */
    Switch,

    /** 2-D mesh: average route crosses ~sqrt(N) hops. */
    Mesh,
};

/** Human-readable topology name. */
constexpr const char *
linkTopologyName(LinkTopology topology)
{
    switch (topology) {
      case LinkTopology::Switch:
        return "switch";
      case LinkTopology::Mesh:
        return "mesh";
    }
    return "invalid";
}

/** Inter-chip link configuration; presets below. */
struct LinkConfig
{
    /** Human-readable link name (display only — behaviour keys on
     *  the explicit fields, never on this string). */
    const char *name = "PCIe4";

    /** How the chips are wired. */
    LinkTopology topology = LinkTopology::Switch;

    /** Per-chip port serialization rate, bytes per cycle each
     *  direction (ports are full duplex). PCIe 4.0 x16 moves
     *  ~32 GB/s per direction, i.e. 32 B/cycle at 1 GHz. */
    double bytesPerCycle = 32.0;

    /** Latency of one hop (link traversal + switch/router). */
    Cycle hopLatency = 600;

    /**
     * Base backoff after a failed transfer attempt on a degraded
     * port (fault injection): attempt k waits base << (k-1) cycles
     * before re-serializing, bounded by maxTransferAttempts and
     * capped at exchangeTimeoutCycles. Irrelevant (never read) when
     * no link fault is injected.
     */
    Cycle retryBackoffCycles = 256;

    /** Transfer attempts before a degraded exchange gives up and
     *  charges the full timeout instead. */
    unsigned maxTransferAttempts = 5;

    /** Per-exchange penalty ceiling: the retry/backoff penalty of
     *  one chip's exchange never exceeds this (a timeout is counted
     *  when it would). */
    Cycle exchangeTimeoutCycles = 100000;

    /** Hops on the average route across @p chips chips. */
    unsigned hops(unsigned chips) const;

    /** Cycles to serialize @p bytes through one port. */
    Cycle serializationCycles(std::uint64_t bytes) const;

    /** PCIe 4.0 x16 through one switch: 32 B/cycle, long hops. */
    static LinkConfig pcie4();

    /** On-package NoC mesh: wide, short hops. */
    static LinkConfig noc();
};

/** Preset by CLI name ("pcie4"|"noc"); typed error on miss. */
Expected<LinkConfig> tryLinkByName(const std::string &name);

} // namespace sgcn

#endif // SGCN_ACCEL_INTERCONNECT_LINK_HH
