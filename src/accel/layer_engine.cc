#include "accel/layer_engine.hh"

#include <algorithm>

#include "accel/dataflow/dataflows.hh"
#include "sim/logging.hh"

namespace sgcn
{

LayerEngine::LayerEngine(const AccelConfig &config,
                         const LayerContext &ctx)
    : ec(config, ctx)
{
}

LayerEngine::~LayerEngine() = default;

DataflowKind
LayerEngine::effectiveDataflow(const AccelConfig &config,
                               bool is_input_layer)
{
    if (config.dataflow == DataflowKind::AggFirstRowProduct &&
        is_input_layer) {
        return DataflowKind::CombFirstRowProduct;
    }
    return config.dataflow;
}

DataflowKind
LayerEngine::effectiveDataflow() const
{
    return effectiveDataflow(ec.cfg, ec.layer.isInputLayer);
}

// A new LayerContext field fails the build here until sameInputs
// says whether an engine reads it.
static_assert(sizeof(void *) != 8 || sizeof(LayerContext) == 136,
              "LayerContext changed: decide whether "
              "LayerEngine::sameInputs compares the new field");

bool
LayerEngine::sameInputs(const AccelConfig &config, const LayerContext &a,
                        const LayerContext &b)
{
    // Left out: graphOwner only keeps *graph alive; inMask and
    // outMask are read only through the layouts compared here; and
    // outSparsity only seeded outMask. The layer's input sparsity has
    // two readers: the zero-skipping combination
    // (EngineContext::combineRows) and comb-first's sparse input
    // layer (readsSparseInput).
    const bool reads_sparsity =
        config.zeroSkipCombination ||
        (a.isInputLayer && config.firstLayerSparseInput);
    return a.graph == b.graph && a.inLayout == b.inLayout &&
           a.outLayout == b.outLayout && a.inWidth == b.inWidth &&
           a.outWidth == b.outWidth &&
           a.isInputLayer == b.isInputLayer &&
           a.residual == b.residual && a.edgeBytes == b.edgeBytes &&
           a.edgeSampleFraction == b.edgeSampleFraction &&
           a.ownedRows == b.ownedRows &&
           (!reads_sparsity || a.inSparsity == b.inSparsity);
}

LayerResult
LayerEngine::run(ExecutionMode mode)
{
    // finalize reads the context's cumulative counters, so a second
    // run would count the first run's traffic and MACs again.
    SGCN_ASSERT(!ran, "a LayerEngine runs its layer once");
    ran = true;
    LayerResult result;
    ec.mode = mode;
    switch (effectiveDataflow()) {
      case DataflowKind::AggFirstRowProduct:
        runAggFirst(ec, result);
        break;
      case DataflowKind::CombFirstRowProduct:
        runCombFirst(ec, result);
        break;
      case DataflowKind::ColumnProduct:
        runColumnProduct(ec, result);
        break;
    }
    finalize(result);
    return result;
}

void
LayerEngine::finalize(LayerResult &result)
{
    // Weight stream: W^l is read once per layer into the weight
    // buffer.
    const std::uint64_t w_lines = ec.weightLines();
    ec.fastStreamTraffic.add(MemOp::Read, TrafficClass::Weight,
                             w_lines);
    const Cycle w_cycles =
        w_lines * ec.cfg.dram.burstCycles / ec.cfg.dram.channels;
    result.cycles += w_cycles;

    // The weight stream is the schedule's input-DMA prefix: W^l
    // prefetches ahead of the first feature read, which is the
    // window the network pipeline hides behind the previous layer's
    // output drain. Shifting the dataflow-reported phases keeps the
    // schedule consistent with the serialized total.
    result.schedule.shift(w_cycles);
    result.schedule.inputDma.start = 0;
    SGCN_ASSERT(result.schedule.wellOrdered() &&
                    result.schedule.criticalEnd() == result.cycles &&
                    result.schedule.tileSpansWellFormed(),
                "dataflow '", dataflowKindName(effectiveDataflow()),
                "' reported a layer schedule inconsistent with its "
                "cycle total");

    result.traffic = ec.offChipTraffic();
    const CacheStats &stats = ec.cache.stats();
    result.cacheAccesses = stats.hits + stats.misses;
    result.cacheHits = stats.hits;
    if (ec.psumBuffer) {
        // Accumulator-bank accesses are on-chip SRAM work and count
        // towards energy; their spills are off-chip traffic.
        const CacheStats &psum_stats = ec.psumBuffer->stats();
        result.cacheAccesses += psum_stats.hits + psum_stats.misses;
        result.cacheHits += psum_stats.hits;
    }
    result.macs = ec.aggMacs + ec.combMacs;
    result.dramRetries = ec.dram.transientRetries();

    if (result.cycles > 0) {
        result.bwUtil = std::min(
            1.0, static_cast<double>(result.traffic.totalLines()) *
                     ec.cfg.dram.burstCycles /
                     (static_cast<double>(ec.cfg.dram.channels) *
                      static_cast<double>(result.cycles)));
    }
}

} // namespace sgcn
