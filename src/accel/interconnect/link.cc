#include "accel/interconnect/link.hh"

#include <cmath>

#include "sim/logging.hh"

namespace sgcn
{

unsigned
LinkConfig::hops(unsigned chips) const
{
    if (chips <= 1)
        return 0;
    switch (topology) {
      case LinkTopology::Switch:
        return 2;
      case LinkTopology::Mesh:
        // Average Manhattan distance on a ~sqrt(N) x sqrt(N) mesh.
        return static_cast<unsigned>(
            std::ceil(std::sqrt(static_cast<double>(chips))));
    }
    return 2;
}

Cycle
LinkConfig::serializationCycles(std::uint64_t bytes) const
{
    SGCN_ASSERT(bytesPerCycle > 0.0, "link must move data");
    return static_cast<Cycle>(
        std::ceil(static_cast<double>(bytes) / bytesPerCycle));
}

LinkConfig
LinkConfig::pcie4()
{
    LinkConfig config;
    config.name = "PCIe4";
    config.topology = LinkTopology::Switch;
    config.bytesPerCycle = 32.0;
    config.hopLatency = 600;
    // Long-haul fabric: replay timers and credit recovery are slow
    // relative to the NoC, so backoff and the give-up ceiling are
    // generous.
    config.retryBackoffCycles = 256;
    config.maxTransferAttempts = 5;
    config.exchangeTimeoutCycles = 100000;
    return config;
}

LinkConfig
LinkConfig::noc()
{
    LinkConfig config;
    config.name = "NoC";
    config.topology = LinkTopology::Mesh;
    config.bytesPerCycle = 128.0;
    config.hopLatency = 24;
    // On-package retries are cheap and fast to detect.
    config.retryBackoffCycles = 16;
    config.maxTransferAttempts = 5;
    config.exchangeTimeoutCycles = 20000;
    return config;
}

Expected<LinkConfig>
tryLinkByName(const std::string &name)
{
    if (name == "pcie4")
        return LinkConfig::pcie4();
    if (name == "noc")
        return LinkConfig::noc();
    return makeError(ErrorCode::NotFound, "unknown link preset '",
                     name, "' (expected pcie4|noc)");
}

} // namespace sgcn
