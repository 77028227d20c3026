/**
 * @file
 * Composition of per-chip layer runs onto one shared timeline.
 *
 * A sharded layer runs the same GCN layer on every chip's subgraph
 * concurrently, after an exchange phase delivers the halo features.
 * The composed result is a normal LayerResult — wall clock =
 * exchange + slowest chip, counts summed across chips — whose
 * schedule is the bottleneck chip's schedule shifted by the exchange
 * cycles, with the exchange riding the input-DMA prefix. That keeps
 * criticalEnd() == cycles, so the existing inter-layer pipeline
 * (LayerPipeline::append) chains sharded layers unchanged: the
 * exchange + weight prefetch of layer l+1 is exactly what hides
 * behind layer l's output drain. A lone chip behind a free exchange
 * (every one-chip run, and the lone survivor of a chip-fail
 * repartition after its recovered layer) is returned unchanged, so a
 * one-chip partition reports exactly the unsharded layer.
 */

#ifndef SGCN_ACCEL_PIPELINE_SHARD_TIMELINE_HH
#define SGCN_ACCEL_PIPELINE_SHARD_TIMELINE_HH

#include <span>

#include "accel/interconnect/exchange.hh"
#include "accel/result.hh"

namespace sgcn
{

/** One sharded layer composed onto the shared timeline. */
struct ComposedShardLayer
{
    /** Wall clock + summed counts; see file comment. */
    LayerResult merged;

    /** Chip whose compute bound the layer (first max). */
    unsigned bottleneckChip = 0;
};

/**
 * Compose one layer's per-chip results and its halo exchange.
 *
 * @param chip_layers one LayerResult per chip, same layer
 * @param exchange the priced halo exchange feeding this layer
 */
ComposedShardLayer
composeChipLayers(std::span<const LayerResult> chip_layers,
                  const ExchangeCost &exchange);

} // namespace sgcn

#endif // SGCN_ACCEL_PIPELINE_SHARD_TIMELINE_HH
