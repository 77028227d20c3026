#include "accel/workload.hh"

#include "accel/stream_artifacts.hh"
#include "gcn/sparsity_model.hh"
#include "sim/logging.hh"

namespace sgcn
{

std::uint64_t
maskSeed(const DatasetSpec &spec, unsigned arch_layer)
{
    std::uint64_t h = 0xfea7u;
    for (const char *p = spec.abbrev; *p; ++p)
        h = Rng::splitMix64(h) ^ static_cast<std::uint64_t>(*p);
    h ^= static_cast<std::uint64_t>(arch_layer) * 0x9e3779b9ULL;
    return Rng::splitMix64(h);
}

namespace
{

/**
 * The one builder body: the context of @p arch_layer (0 is the input
 * layer, X^0) on @p chip of @p partition. The chip runs its shard's
 * subgraph against the *global* layer masks sliced to its rows: the
 * input covers owned + halo rows, the output owned rows only (the
 * tail stays zero; the chip never writes halo outputs). Masks,
 * layouts and the shard itself resolve through the stream-artifact
 * cache, so the personalities of a sweep share one copy per dataset
 * and a one-chip partition hands back the global masks unsliced.
 */
LayerContext
makeLayer(const Dataset &dataset, const GraphPartition &partition,
          unsigned chip, const AccelConfig &config,
          const NetworkSpec &net, unsigned arch_layer)
{
    const bool input = arch_layer == 0;
    const ChipShard &shard = partition.shard(chip);
    auto &artifacts = StreamArtifactCache::instance();

    LayerContext ctx;
    ctx.graphOwner = shard.graph;
    ctx.graph = ctx.graphOwner.get();
    ctx.ownedRows = shard.ownedRows();
    ctx.residual = net.residual;
    ctx.edgeBytes = net.edgeBytes();
    if (net.agg == AggKind::Sage) {
        // GraphSAGE samples up to sageFanout neighbours per vertex;
        // the fraction of edges actually walked shrinks accordingly.
        ctx.edgeSampleFraction = artifacts.sageEdgeFraction(
            *ctx.graph, net.sageFanout, net.sageSeed);
    }
    ctx.isInputLayer = input;
    ctx.inWidth = input ? dataset.inputWidth : net.hidden;
    ctx.outWidth = net.hidden;
    ctx.inSparsity = input ? dataset.spec.inputSparsity
                           : modeledLayerSparsity(dataset.spec,
                                                  arch_layer, net.layers,
                                                  net.residual);
    ctx.outSparsity = modeledLayerSparsity(
        dataset.spec, std::min(arch_layer + 1, net.layers), net.layers,
        net.residual);

    const VertexId n = partition.numVertices();
    StreamArtifactCache::MaskHandle in_global;
    if (input && dataset.spec.oneHotInput) {
        in_global = artifacts.oneHotMask(n, ctx.inWidth,
                                         maskSeed(dataset.spec, 0));
        ctx.inSparsity = in_global->sparsity();
    } else {
        in_global = artifacts.randomMask(
            n, ctx.inWidth, ctx.inSparsity,
            maskSeed(dataset.spec, arch_layer));
    }
    const auto out_global = artifacts.randomMask(
        n, ctx.outWidth, ctx.outSparsity,
        maskSeed(dataset.spec, arch_layer + 1));
    const auto in_mask = artifacts.chipMask(in_global, partition, chip,
                                            /*include_halo=*/true);
    const auto out_mask = artifacts.chipMask(out_global, partition,
                                             chip,
                                             /*include_halo=*/false);
    ctx.inMask = in_mask.mask;
    ctx.outMask = out_mask.mask;

    // Offline tile sizing assumes the trained network's *average*
    // sparsity (SV-C); denser-than-average layers overflow, which is
    // the working-set variability SAC absorbs. Input features ship
    // dense; SGCN may read them through CSR (readsSparseInput),
    // decided on the *global* input sparsity so every chip agrees on
    // the layout kind. Input-layer layouts keep the default expected
    // density (no offline estimate exists for X^0); the output is
    // always the personality's format.
    FormatKind in_format = config.format;
    double expected_density =
        1.0 - modeledAvgSparsity(dataset.spec, net.layers,
                                 net.residual);
    if (input) {
        in_format = readsSparseInput(config, input, ctx.inSparsity)
                        ? FormatKind::Csr
                        : FormatKind::Dense;
        expected_density = 0.5;
    }
    ctx.inLayout = artifacts.preparedLayout(
        in_format, ctx.inWidth, config.sliceC, expected_density,
        AddressMap::kFeatureInBase, in_mask);
    ctx.outLayout = artifacts.preparedLayout(
        config.format, ctx.outWidth, config.sliceC, expected_density,
        AddressMap::kFeatureOutBase, out_mask);
    return ctx;
}

/** The whole of @p graph as a one-chip partition. */
std::shared_ptr<const GraphPartition>
wholeGraph(const CsrGraph &graph)
{
    return StreamArtifactCache::instance().partition(
        graph, 1, PartitionPolicy::EdgeBalanced);
}

} // namespace

LayerContext
makeChipIntermediateLayer(const Dataset &dataset,
                          const GraphPartition &partition,
                          unsigned chip, const AccelConfig &config,
                          const NetworkSpec &net, unsigned arch_layer)
{
    SGCN_ASSERT(arch_layer >= 1 && arch_layer < net.layers,
                "intermediate layer index out of range: ", arch_layer);
    return makeLayer(dataset, partition, chip, config, net, arch_layer);
}

LayerContext
makeChipInputLayer(const Dataset &dataset,
                   const GraphPartition &partition, unsigned chip,
                   const AccelConfig &config, const NetworkSpec &net)
{
    return makeLayer(dataset, partition, chip, config, net, 0);
}

LayerContext
makeIntermediateLayer(const Dataset &dataset, const CsrGraph &graph,
                      const AccelConfig &config, const NetworkSpec &net,
                      unsigned arch_layer)
{
    return makeChipIntermediateLayer(dataset, *wholeGraph(graph), 0,
                                     config, net, arch_layer);
}

LayerContext
makeInputLayer(const Dataset &dataset, const CsrGraph &graph,
               const AccelConfig &config, const NetworkSpec &net)
{
    return makeChipInputLayer(dataset, *wholeGraph(graph), 0, config,
                              net);
}

} // namespace sgcn
