#include "replay.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>

#include "accel/interconnect/exchange.hh"
#include "accel/layer_engine.hh"
#include "accel/pipeline/layer_pipeline.hh"
#include "accel/pipeline/shard_timeline.hh"
#include "accel/stream_artifacts.hh"
#include "accel/workload.hh"
#include "gcn/sparsity_model.hh"
#include "graph/preprocess_cache.hh"
#include "graph/sampler.hh"

namespace perfbench
{

using namespace sgcn;

// ---------------------------------------------------------------- Tracer

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

std::int32_t
Tracer::open(const std::string &name)
{
    auto [it, inserted] = nameIds.try_emplace(
        name, static_cast<std::uint32_t>(nameTable.size()));
    if (inserted)
        nameTable.push_back(name);
    Span span;
    span.name = it->second;
    span.parent = openStack.empty() ? -1 : openStack.back();
    span.pass = currentPass;
    const auto index = static_cast<std::int32_t>(recorded.size());
    recorded.push_back(span);
    openStack.push_back(index);
    recorded.back().startNs = nowNs();
    return index;
}

void
Tracer::close(std::int32_t index)
{
    recorded[static_cast<std::size_t>(index)].endNs = nowNs();
    openStack.pop_back();
}

// ---------------------------------------------------------------- Replay

namespace
{

const char *
flowTag(DataflowKind kind)
{
    switch (kind) {
      case DataflowKind::AggFirstRowProduct:
        return "agg_first";
      case DataflowKind::CombFirstRowProduct:
        return "comb_first";
      case DataflowKind::ColumnProduct:
        return "column_product";
    }
    return "unknown";
}

/** runner.cc's chainSampledSchedules, through the public pipeline. */
NetworkSchedule
chain(const RunResult &run, unsigned arch_intermediate,
      bool include_input_layer, PipelineGating gating)
{
    LayerPipeline pipeline(gating);
    if (include_input_layer)
        pipeline.append(run.inputLayer.schedule);
    const double repeats = static_cast<double>(arch_intermediate) /
                           static_cast<double>(run.sampledLayers.size());
    for (const LayerResult &layer : run.sampledLayers)
        pipeline.append(layer.schedule, repeats);
    return pipeline.schedule();
}

/** The tail runNetwork applies to every run shape: overlap-aware
 *  totals, bandwidth utilization and energy, for @p chips chips. */
void
finishRun(RunResult &run, const AccelConfig &config,
          const RunOptions &opts, unsigned arch_intermediate,
          unsigned chips)
{
    if (opts.pipelined()) {
        const NetworkSchedule layer_sched =
            chain(run, arch_intermediate, opts.includeInputLayer,
                  PipelineGating::PerLayer);
        const NetworkSchedule tile_sched =
            chain(run, arch_intermediate, opts.includeInputLayer,
                  PipelineGating::PerTile);
        const NetworkSchedule &sched =
            opts.tileOverlap ? tile_sched : layer_sched;
        PipelineStats &pipe = run.pipeline;
        pipe.enabled = true;
        pipe.gating = opts.tileOverlap ? PipelineGating::PerTile
                                       : PipelineGating::PerLayer;
        pipe.serialCycles = run.total.cycles;
        pipe.pipelinedCycles = sched.totalCycles;
        pipe.overlapSavedCycles = run.total.cycles - sched.totalCycles;
        pipe.perLayerCycles = layer_sched.totalCycles;
        pipe.perTileCycles = tile_sched.totalCycles;
        pipe.tileSavedCycles =
            layer_sched.totalCycles - tile_sched.totalCycles;
        const PipelinedLayer &bottleneck = sched.bottleneckStage();
        pipe.steadyStateAdvance = bottleneck.steadyCost();
        pipe.criticalPhase = bottleneck.schedule.longestPhase();
        run.total.cycles = sched.totalCycles;
    }

    if (run.shard.enabled) {
        ShardStats &shard = run.shard;
        for (unsigned c = 0; c < chips; ++c)
            shard.chipIds.push_back(c);
        shard.bottleneckChipCycles = *std::max_element(
            shard.chipCycles.begin(), shard.chipCycles.end());
    }
    if (run.total.cycles > 0) {
        const double channels =
            run.shard.enabled
                ? static_cast<double>(chips) *
                      static_cast<double>(config.dram.channels)
                : static_cast<double>(config.dram.channels);
        run.total.bwUtil = std::min(
            1.0, static_cast<double>(run.total.traffic.totalLines()) *
                     config.dram.burstCycles /
                     (channels * static_cast<double>(run.total.cycles)));
        if (run.shard.enabled) {
            run.shard.linkBusyFraction = std::min(
                1.0, static_cast<double>(run.shard.linkBusyCycles) /
                         static_cast<double>(run.total.cycles));
        }
    }

    EnergyModel energy_model(
        {}, config.dram.generation == DramGeneration::Hbm1);
    RunCounts counts;
    counts.macs = run.total.macs;
    counts.cacheAccesses = run.total.cacheAccesses;
    counts.dramLines = run.total.traffic.totalLines();
    counts.cycles = run.total.cycles;
    AccelDescriptor desc = config.energyDesc;
    desc.cacheKb = static_cast<double>(config.cache.sizeBytes) / 1024.0;
    run.energy = energy_model.dynamicEnergy(counts, desc.cacheKb);
    run.tdpWatts = energy_model.tdpWatts(desc);
    run.areaMm2 = energy_model.areaMm2(desc);
    if (run.shard.enabled) {
        run.tdpWatts *= chips;
        run.areaMm2 *= chips;
    }
}

} // namespace

LayerContext
Replay::prepare(const char *what,
                const std::function<LayerContext()> &make)
{
    ScopedSpan span(&tracer, what);
    return make();
}

LayerResult
Replay::engine(const AccelConfig &config, const LayerContext &ctx,
               ExecutionMode mode)
{
    const bool fast = mode == ExecutionMode::Fast;
    const DataflowKind flow =
        LayerEngine::effectiveDataflow(config, ctx.isInputLayer);
    LayerResult result;
    {
        ScopedSpan span(&tracer, std::string("engine.") + flowTag(flow) +
                                     (fast ? ".fast" : ".timing"));
        LayerEngine layer_engine(config, ctx);
        result = layer_engine.run(mode);
    }
    const std::string prefix = fast ? "fast." : "timing.";
    counters[prefix + "cache_accesses"] +=
        static_cast<double>(result.cacheAccesses);
    counters[prefix + "cache_hits"] +=
        static_cast<double>(result.cacheHits);
    counters[prefix + "dram_lines"] +=
        static_cast<double>(result.traffic.totalLines());
    return result;
}

RunResult
Replay::network(const AccelConfig &config, const Dataset &dataset,
                const NetworkSpec &net, const RunOptions &opts)
{
    ScopedSpan span(&tracer, "runner.run_network");
    std::shared_ptr<const CsrGraph> reordered;
    const CsrGraph *graph = &dataset.graph;
    if (config.islandReorder) {
        ScopedSpan island(&tracer, "graph.islandize");
        reordered = PreprocessCache::instance().islandized(dataset.graph);
        graph = reordered.get();
    }
    return opts.chips > 1 ? sharded(config, dataset, *graph, net, opts)
                          : monolithic(config, dataset, *graph, net, opts);
}

RunResult
Replay::monolithic(const AccelConfig &config, const Dataset &dataset,
                   const CsrGraph &graph, const NetworkSpec &net,
                   const RunOptions &opts)
{
    RunResult run;
    run.accelName = config.name;
    run.datasetAbbrev = dataset.spec.abbrev;
    if (opts.includeInputLayer) {
        const LayerContext ctx = prepare("workload.prep", [&] {
            return makeInputLayer(dataset, graph, config, net);
        });
        run.inputLayer = engine(config, ctx, opts.mode);
        run.total.merge(run.inputLayer);
    }

    const unsigned arch_intermediate = net.layers - 1;
    std::vector<unsigned> indices;
    {
        ScopedSpan span(&tracer, "runner.sample_layers");
        indices = sampleLayerIndices(arch_intermediate,
                                     opts.sampledIntermediateLayers);
    }
    LayerResult sampled_sum;
    for (unsigned idx : indices) {
        const LayerContext ctx = prepare("workload.prep", [&] {
            return makeIntermediateLayer(dataset, graph, config, net,
                                         idx + 1);
        });
        LayerResult layer = engine(config, ctx, opts.mode);
        run.sampledLayers.push_back(layer);
        sampled_sum.merge(layer);
    }
    sampled_sum.scale(static_cast<double>(arch_intermediate) /
                      static_cast<double>(indices.size()));
    run.total.merge(sampled_sum);
    finishRun(run, config, opts, arch_intermediate, 1);
    return run;
}

RunResult
Replay::sharded(const AccelConfig &config, const Dataset &dataset,
                const CsrGraph &graph, const NetworkSpec &net,
                const RunOptions &opts)
{
    RunResult run;
    run.accelName = config.name;
    run.datasetAbbrev = dataset.spec.abbrev;

    const unsigned chips = static_cast<unsigned>(
        std::min<std::uint64_t>(opts.chips, graph.numVertices()));
    std::shared_ptr<const GraphPartition> partition;
    {
        ScopedSpan span(&tracer, "graph.partition");
        partition = StreamArtifactCache::instance().partition(
            graph, chips, opts.partitionPolicy);
    }
    ShardStats &shard = run.shard;
    shard.enabled = true;
    shard.chips = chips;
    shard.partitionPolicy = partitionPolicyName(opts.partitionPolicy);
    shard.linkName = opts.link.name;
    shard.haloVertices = partition->totalHaloVertices();
    shard.chipCycles.assign(chips, 0);

    // One layer on every chip, accounted at @p scale (runner.cc's
    // runShardedLayer plus its fault-free accounting).
    const auto run_layer = [&](unsigned arch_layer, double scale) {
        std::vector<LayerContext> contexts;
        contexts.reserve(chips);
        for (unsigned c = 0; c < chips; ++c) {
            contexts.push_back(prepare("workload.prep", [&] {
                return arch_layer == 0
                           ? makeChipInputLayer(dataset, *partition, c,
                                                config, net)
                           : makeChipIntermediateLayer(
                                 dataset, *partition, c, config, net,
                                 arch_layer);
            }));
        }
        std::vector<const FeatureLayout *> in_layouts;
        for (const LayerContext &ctx : contexts)
            in_layouts.push_back(ctx.inLayout.get());
        ExchangeCost exchange;
        {
            ScopedSpan span(&tracer, "interconnect.exchange");
            exchange = priceHaloExchange(*partition, in_layouts, opts.link);
        }
        std::vector<LayerResult> chip_results;
        for (const LayerContext &ctx : contexts)
            chip_results.push_back(engine(config, ctx, opts.mode));

        shard.exchangeBytes += static_cast<std::uint64_t>(
            static_cast<double>(exchange.totalBytes) * scale);
        shard.exchangeCycles += static_cast<Cycle>(
            static_cast<double>(exchange.cycles) * scale);
        shard.linkBusyCycles += static_cast<Cycle>(
            static_cast<double>(exchange.busiestPortCycles) * scale);
        for (unsigned c = 0; c < chips; ++c) {
            shard.chipCycles[c] += static_cast<Cycle>(
                static_cast<double>(chip_results[c].cycles) * scale);
        }
        counters["shard.exchange_bytes"] +=
            static_cast<double>(exchange.totalBytes);
        ScopedSpan span(&tracer, "shard.compose");
        return composeChipLayers(chip_results, exchange).merged;
    };

    const unsigned arch_intermediate = net.layers - 1;
    if (opts.includeInputLayer) {
        run.inputLayer = run_layer(0, 1.0);
        run.total.merge(run.inputLayer);
    }
    std::vector<unsigned> indices;
    {
        ScopedSpan span(&tracer, "runner.sample_layers");
        indices = sampleLayerIndices(arch_intermediate,
                                     opts.sampledIntermediateLayers);
    }
    const double repeats = static_cast<double>(arch_intermediate) /
                           static_cast<double>(indices.size());
    LayerResult sampled_sum;
    for (unsigned idx : indices) {
        run.sampledLayers.push_back(run_layer(idx + 1, repeats));
        sampled_sum.merge(run.sampledLayers.back());
    }
    sampled_sum.scale(repeats);
    run.total.merge(sampled_sum);
    finishRun(run, config, opts, arch_intermediate, chips);
    return run;
}

RunResult
Replay::serve(const AccelConfig &config, const Dataset &dataset,
              const NetworkSpec &net, const RunOptions &opts,
              const ServeOptions &serve)
{
    ScopedSpan trace_span(&tracer, "serve.trace");
    std::vector<Cycle> arrivals;
    {
        ScopedSpan span(&tracer, "serve.arrivals");
        arrivals = generateArrivals(serve);
    }
    std::vector<RequestBatch> batches;
    {
        ScopedSpan span(&tracer, "serve.admit");
        batches = admitBatches(arrivals, serve.maxBatch,
                               serve.maxLingerCycles);
    }

    RunResult run;
    run.accelName = config.name;
    run.datasetAbbrev = dataset.spec.abbrev;
    ServeStats &stats = run.serve;
    stats.enabled = true;
    stats.requests = static_cast<unsigned>(arrivals.size());
    stats.batches = static_cast<unsigned>(batches.size());
    stats.offeredQps = serve.offeredQps;
    stats.poisson = serve.poisson;
    stats.maxBatch = serve.maxBatch;
    stats.maxLingerCycles = serve.maxLingerCycles;

    // serve.cc's chaining: batch b starts at max(close_b, end_{b-1}).
    std::vector<Cycle> latencies;
    Cycle prev_end = 0;
    for (const RequestBatch &batch : batches) {
        ScopedSpan batch_span(&tracer, "serve.batch");
        BatchSubgraph sub;
        {
            ScopedSpan span(&tracer, "graph.sample");
            sub = sampleBatchSubgraph(dataset.graph, batch.first,
                                      batch.count, serve.sample);
        }
        const Dataset batch_ds{dataset.spec, std::move(sub.graph),
                               dataset.inputWidth, dataset.vertexScale,
                               0.0};
        const RunResult svc = network(config, batch_ds, net, opts);
        ++checkedBatches;
        if (std::string why = checkRun(svc); !why.empty())
            problems.push_back("batch " + std::to_string(batch.first) +
                               ": " + why);

        const Cycle start = std::max(batch.closeCycle, prev_end);
        const Cycle end = start + svc.total.cycles;
        prev_end = end;
        for (std::uint32_t r = 0; r < batch.count; ++r)
            latencies.push_back(end - arrivals[batch.first + r]);
        run.total.merge(svc.total);
        run.energy.computeJ += svc.energy.computeJ;
        run.energy.cacheJ += svc.energy.cacheJ;
        run.energy.dramJ += svc.energy.dramJ;
        run.tdpWatts = std::max(run.tdpWatts, svc.tdpWatts);
        run.areaMm2 = std::max(run.areaMm2, svc.areaMm2);
        stats.subgraphVertices += batch_ds.graph.numVertices();
        stats.subgraphEdges += batch_ds.graph.numEdges();
        stats.peakOccupancy =
            std::max(stats.peakOccupancy, unsigned{batch.count});
    }
    stats.makespanCycles = prev_end;
    stats.meanOccupancy =
        stats.batches == 0 ? 0.0
                           : static_cast<double>(stats.requests) /
                                 static_cast<double>(stats.batches);
    stats.p50Cycles = latencyPercentile(latencies, 50.0);
    stats.p95Cycles = latencyPercentile(latencies, 95.0);
    stats.p99Cycles = latencyPercentile(latencies, 99.0);
    if (stats.makespanCycles > 0) {
        stats.sustainedQps =
            static_cast<double>(stats.requests) /
            (static_cast<double>(stats.makespanCycles) / kServeClockHz);
    }
    return run;
}

// ------------------------------------------------- canonical form, checks

namespace
{

class Canon
{
  public:
    template <typename T>
    Canon &
    operator<<(T value)
    {
        static_assert(std::is_arithmetic_v<T> || std::is_enum_v<T>);
        char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        out.append(bytes, sizeof(T));
        return *this;
    }

    Canon &
    operator<<(const std::string &text)
    {
        *this << text.size();
        out += text;
        return *this;
    }

    Canon &
    operator<<(const PhaseSpan &span)
    {
        return *this << span.start << span.end;
    }

    Canon &
    operator<<(const LayerResult &layer)
    {
        *this << layer.cycles << layer.aggCycles << layer.combCycles;
        for (unsigned i = 0; i < kNumTrafficClasses; ++i)
            *this << layer.traffic.readLines[i]
                  << layer.traffic.writeLines[i];
        *this << layer.cacheAccesses << layer.cacheHits << layer.macs
              << layer.dramRetries << layer.bwUtil;
        const LayerSchedule &s = layer.schedule;
        *this << s.inputDma << s.aggregation << s.combination
              << s.outputDrain << s.sequentialInput
              << s.tileSpans.size();
        for (const TileSpan &tile : s.tileSpans)
            *this << tile.tile << tile.inputConsume << tile.outputReady;
        return *this;
    }

    std::string out;
};

} // namespace

std::string
canonicalForm(const RunResult &run)
{
    Canon c;
    c << run.accelName << run.datasetAbbrev << run.total << run.inputLayer
      << run.sampledLayers.size();
    for (const LayerResult &layer : run.sampledLayers)
        c << layer;
    const PipelineStats &p = run.pipeline;
    c << p.enabled << p.gating << p.serialCycles << p.pipelinedCycles
      << p.overlapSavedCycles << p.perLayerCycles << p.perTileCycles
      << p.tileSavedCycles << p.steadyStateAdvance << p.criticalPhase;
    const ShardStats &s = run.shard;
    c << s.enabled << s.chips << s.partitionPolicy << s.linkName
      << s.haloVertices << s.exchangeBytes << s.exchangeCycles
      << s.linkBusyCycles << s.linkBusyFraction << s.bottleneckChipCycles
      << s.chipCycles.size();
    for (Cycle cycles : s.chipCycles)
        c << cycles;
    for (unsigned id : s.chipIds)
        c << id;
    const ServeStats &v = run.serve;
    c << v.enabled << v.requests << v.batches << v.offeredQps << v.poisson
      << v.maxBatch << v.maxLingerCycles << v.p50Cycles << v.p95Cycles
      << v.p99Cycles << v.sustainedQps << v.meanOccupancy
      << v.peakOccupancy << v.makespanCycles << v.subgraphVertices
      << v.subgraphEdges;
    c << run.energy.computeJ << run.energy.cacheJ << run.energy.dramJ
      << run.tdpWatts << run.areaMm2;
    return c.out;
}

std::string
checkRun(const RunResult &run)
{
    if (run.total.cycles == 0)
        return run.accelName + " on " + run.datasetAbbrev +
               ": zero total cycles";
    std::vector<const LayerResult *> layers;
    if (!run.serve.enabled)
        layers.push_back(&run.inputLayer);
    for (const LayerResult &layer : run.sampledLayers)
        layers.push_back(&layer);
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const LayerResult &layer = *layers[i];
        const std::string where = run.accelName + " on " +
                                  run.datasetAbbrev + " layer slot " +
                                  std::to_string(i);
        if (layer.schedule.criticalEnd() != layer.cycles)
            return where + ": criticalEnd() != cycles";
        if (!layer.schedule.tileSpansWellFormed())
            return where + ": tile spans not well formed";
    }
    if (run.serve.enabled) {
        const ServeStats &v = run.serve;
        if (v.batches == 0 || v.p50Cycles > v.p95Cycles ||
            v.p95Cycles > v.p99Cycles)
            return run.accelName + ": inconsistent serve statistics";
    }
    return "";
}

std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t hash)
{
    for (unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

} // namespace perfbench
