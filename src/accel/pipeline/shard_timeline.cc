#include "accel/pipeline/shard_timeline.hh"

#include "sim/logging.hh"

namespace sgcn
{

ComposedShardLayer
composeChipLayers(std::span<const LayerResult> chip_layers,
                  const ExchangeCost &exchange)
{
    SGCN_ASSERT(!chip_layers.empty(), "compose needs at least one chip");

    ComposedShardLayer out;
    // A lone chip behind a free exchange is the unsharded layer:
    // hand it back unchanged, its bandwidth utilization included.
    if (chip_layers.size() == 1 && exchange.cycles == 0) {
        out.merged = chip_layers.front();
        return out;
    }
    for (std::size_t c = 1; c < chip_layers.size(); ++c) {
        if (chip_layers[c].cycles >
            chip_layers[out.bottleneckChip].cycles) {
            out.bottleneckChip = static_cast<unsigned>(c);
        }
    }
    const LayerResult &bottleneck = chip_layers[out.bottleneckChip];

    LayerResult &merged = out.merged;
    merged.cycles = exchange.cycles + bottleneck.cycles;
    // Engine-busy cycles follow the critical path (the bottleneck
    // chip); traffic and work counts sum across chips.
    merged.aggCycles = bottleneck.aggCycles;
    merged.combCycles = bottleneck.combCycles;
    for (const LayerResult &chip : chip_layers) {
        merged.traffic.merge(chip.traffic);
        merged.cacheAccesses += chip.cacheAccesses;
        merged.cacheHits += chip.cacheHits;
        merged.macs += chip.macs;
        merged.dramRetries += chip.dramRetries;
    }

    // The bottleneck chip's schedule, delayed by the exchange. The
    // input-DMA phase is stretched back to cycle 0 so the exchange
    // occupies the prefetch prefix: the pipeline then hides it behind
    // the previous layer's drain exactly like a weight prefetch.
    merged.schedule = bottleneck.schedule;
    merged.schedule.shift(exchange.cycles);
    merged.schedule.inputDma.start = 0;
    SGCN_ASSERT(merged.schedule.criticalEnd() == merged.cycles,
                "composed schedule must span the merged layer");
    return out;
}

} // namespace sgcn
