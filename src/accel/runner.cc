#include "accel/runner.hh"

#include <algorithm>
#include <memory>

#include "accel/interconnect/exchange.hh"
#include "accel/layer_engine.hh"
#include "accel/pipeline/layer_pipeline.hh"
#include "accel/pipeline/shard_timeline.hh"
#include "accel/stream_artifacts.hh"
#include "gcn/sparsity_model.hh"
#include "graph/preprocess_cache.hh"
#include "sim/logging.hh"
#include "sim/thread_pool.hh"

namespace sgcn
{

namespace
{

/**
 * Chain the simulated layer schedules on one shared timeline,
 * extrapolating each sampled intermediate layer over its sampling
 * stratum: with k samples of depth A, each midpoint layer repeats
 * A/k times at its steady-state advance. The fractional A/k is
 * exactly the factor the serial extrapolation scales by, so the
 * pipelined total is bounded by the serial total it replaces.
 */
NetworkSchedule
chainSampledSchedules(const RunResult &run, unsigned arch_intermediate,
                      bool include_input_layer,
                      PipelineGating gating)
{
    LayerPipeline pipeline(gating);
    if (include_input_layer)
        pipeline.append(run.inputLayer.schedule);
    const auto strata =
        static_cast<unsigned>(run.sampledLayers.size());
    SGCN_ASSERT(strata >= 1 && strata <= arch_intermediate,
                "inter-layer pipeline needs at least one sampled "
                "intermediate layer per stratum (sampled ",
                strata, " of ", arch_intermediate, ")");
    const double repeats =
        static_cast<double>(arch_intermediate) / strata;
    for (unsigned i = 0; i < strata; ++i)
        pipeline.append(run.sampledLayers[i].schedule, repeats);
    return pipeline.schedule();
}

/**
 * The last layer one chip's engine ran: its context and its result
 * before any chip stall. The context's shared handles keep its graph
 * and layouts alive, so the pointers LayerEngine::sameInputs compares
 * can never match a freed and reused address. An empty slot's null
 * graph matches no built context.
 */
struct ChipSlot
{
    LayerContext context;
    LayerResult result;
};

/** One sharded layer: composed timeline + its exchange breakdown. */
struct ShardedLayer
{
    LayerResult merged;

    /** Pure exchange pricing (fault retries included, recovery not). */
    ExchangeCost exchange;

    std::vector<Cycle> chipCycles;

    /** Stall cycles injected into this layer's chip timelines. */
    Cycle stallCycles = 0;
};

/**
 * Run one layer on every chip of @p partition — contexts built
 * serially (they share global masks through the artifact cache), the
 * halo exchange priced off the chip input layouts, the chip engines
 * fanned over the jobs pool — and compose the results onto the
 * shared timeline. @p arch_layer 0 is the input layer.
 *
 * A chip whose context has the same engine inputs as its slot's
 * copies the slot's result instead of simulating again: a fresh
 * engine reads nothing else, so the copy is bit-identical. Every
 * other chip runs its engine and refills its slot.
 *
 * @param injector fault decisions, or null for the fault-free path
 *        (which then prices bit-identically to the pre-fault code)
 * @param original_chip maps partition chip index -> the original chip
 *        id fault clauses name (identity until a chip-fail shrinks
 *        the partition onto the survivors)
 * @param recovery_cycles one-time failure-recovery cost charged to
 *        this layer's exchange prefix (the schedule slot the network
 *        pipeline already knows how to hide)
 * @param slots one ChipSlot per chip of @p partition, read and
 *        refilled here
 */
ShardedLayer
runShardedLayer(const AccelConfig &config, const Dataset &dataset,
                const NetworkSpec &net, const RunOptions &opts,
                const GraphPartition &partition, unsigned arch_layer,
                const FaultInjector *injector,
                const std::vector<unsigned> &original_chip,
                Cycle recovery_cycles, std::vector<ChipSlot> &slots)
{
    const unsigned chips = partition.numChips();
    SGCN_ASSERT(slots.size() == chips, "one slot per chip (", chips,
                " chips, ", slots.size(), " slots)");
    std::vector<LayerContext> contexts;
    contexts.reserve(chips);
    for (unsigned c = 0; c < chips; ++c) {
        contexts.push_back(
            arch_layer == 0
                ? makeChipInputLayer(dataset, partition, c, config,
                                     net)
                : makeChipIntermediateLayer(dataset, partition, c,
                                            config, net, arch_layer));
    }

    std::vector<const FeatureLayout *> in_layouts;
    in_layouts.reserve(chips);
    for (const LayerContext &ctx : contexts)
        in_layouts.push_back(ctx.inLayout.get());

    ShardedLayer out;
    ExchangeFaultContext fault_ctx;
    fault_ctx.injector = injector;
    fault_ctx.archLayer = arch_layer;
    fault_ctx.originalChip = original_chip.data();
    out.exchange =
        priceHaloExchange(partition, in_layouts, opts.link,
                          injector ? &fault_ctx : nullptr);

    const double retry_prob =
        injector ? injector->plan().dramRetryProb() : 0.0;
    std::vector<LayerResult> chip_results(chips);
    parallelFor(opts.jobs, chips, [&](std::size_t c) {
        // Each task touches only its own chip's slot. A chip's config
        // is the same for every layer of the run (below), so equal
        // inputs give an equal result.
        ChipSlot &slot = slots[c];
        if (LayerEngine::sameInputs(config, slot.context, contexts[c])) {
            chip_results[c] = slot.result;
            return;
        }
        // A dram-retry fault gives every chip its own derived retry
        // seed so chip timelines decorrelate; without one the shared
        // config is used untouched.
        const AccelConfig *cfg = &config;
        AccelConfig chip_cfg;
        if (retry_prob > 0.0) {
            chip_cfg = config;
            chip_cfg.dram.transientRetryProb = retry_prob;
            chip_cfg.dram.retrySeed = FaultInjector::deriveSeed(
                injector->plan().seed, original_chip[c]);
            cfg = &chip_cfg;
        }
        LayerEngine engine(*cfg, contexts[c]);
        slot.result = engine.run(opts.mode);
        slot.context = contexts[c];
        chip_results[c] = slot.result;
    });

    if (injector) {
        // Chip stalls extend the stalled chip's drain (and so its
        // critical path), keeping criticalEnd() == cycles and the
        // last tile pinned to the drain end. They go on this layer's
        // copy, never on the slot a later layer may reuse.
        for (unsigned c = 0; c < chips; ++c) {
            const Cycle stall = injector->plan().chipStall(
                original_chip[c], arch_layer);
            if (stall == 0)
                continue;
            LayerResult &chip = chip_results[c];
            chip.cycles += stall;
            chip.schedule.outputDrain.end = chip.cycles;
            chip.schedule.tileSpans.back().outputReady =
                chip.schedule.outputDrain.end;
            out.stallCycles += stall;
        }
    }

    out.chipCycles.reserve(chips);
    for (const LayerResult &chip : chip_results)
        out.chipCycles.push_back(chip.cycles);

    // Recovery rides the exchange slot of the composed schedule: the
    // compose shifts the bottleneck timeline by the exchange cycles,
    // so adding recovery there keeps every schedule invariant.
    ExchangeCost priced = out.exchange;
    priced.cycles += recovery_cycles;
    out.merged = composeChipLayers(chip_results, priced).merged;
    return out;
}

} // namespace

Expected<RunResult>
tryRunNetwork(const AccelConfig &config, const Dataset &dataset,
              const NetworkSpec &net, const RunOptions &opts)
{
    SGCN_ASSERT(net.layers >= 2, "need at least two layers");
    SGCN_ASSERT(opts.sampledIntermediateLayers >= 1,
                "RunOptions::sampledIntermediateLayers must be >= 1: "
                "a zero-sample run would silently report "
                "input-layer-only totals");
    if (opts.chips == 0) {
        return makeError(ErrorCode::InvalidArgument,
                         "chips must be at least 1 (got 0): a run "
                         "needs an accelerator to run on");
    }

    RunResult run;
    run.accelName = config.name;
    run.datasetAbbrev = dataset.spec.abbrev;

    // I-GCN preprocesses the topology with islandization. The
    // permuted graph is memoized process-wide: in a sweep every
    // island-reordering personality (and every repeat run) shares
    // one islandization per dataset instead of recomputing it.
    std::shared_ptr<const CsrGraph> reordered;
    const CsrGraph *graph = &dataset.graph;
    if (config.islandReorder) {
        reordered = PreprocessCache::instance().islandized(
            dataset.graph);
        graph = reordered.get();
    }

    // Every run is a partition. One chip (the default) owns the whole
    // graph with no halo, so its exchange is free, its layers pass
    // through the compose unchanged, and its masks are the global
    // ones: the single-accelerator run the paper's figures model.
    const unsigned chips = static_cast<unsigned>(
        std::min<std::uint64_t>(opts.chips, graph->numVertices()));
    if (Status valid = opts.faults.validate(chips, net.layers);
        !valid.ok())
        return valid.error();

    const bool faulty = opts.faults.active();
    const FaultInjector injector_storage(opts.faults);
    const FaultInjector *injector = faulty ? &injector_storage : nullptr;

    // Live partition state: shrinks when a chip-fail redistributes a
    // dead chip's shard onto the survivors. original_chip maps the
    // current partition's chip index back to the chip id fault
    // clauses (and ShardStats::chipCycles) use.
    auto partition = StreamArtifactCache::instance().partition(
        *graph, chips, opts.partitionPolicy);
    std::vector<unsigned> original_chip(chips);
    for (unsigned c = 0; c < chips; ++c)
        original_chip[c] = c;
    Cycle pending_recovery = 0;

    // The last layer each chip of the live partition simulated: a
    // later layer with the same engine inputs (every sampled
    // intermediate layer of a dense personality) reuses its result.
    std::vector<ChipSlot> slots(chips);

    // Filled for every run, reported only for a sharded one (below).
    ShardStats shard;
    shard.enabled = true;
    shard.chips = chips;
    shard.partitionPolicy = partitionPolicyName(opts.partitionPolicy);
    shard.linkName = opts.link.name;
    shard.haloVertices = partition->totalHaloVertices();
    shard.chipCycles.assign(chips, 0);

    FaultStats &faults = run.faults;
    if (faulty) {
        faults.enabled = true;
        faults.spec = opts.faults.canonical();
        faults.seed = opts.faults.seed;
        faults.degradedMode = degradedModeName(opts.degradedMode);
    }

    // Exchange and per-chip totals follow run.total's extrapolation
    // convention: input layer counted once, sampled intermediate
    // layers scaled to the architectural depth. Fault event counts
    // follow the same convention; recovery costs are one-time and
    // accounted unscaled where they happen.
    const auto account = [&shard, &faults, faulty,
                          &original_chip](const ShardedLayer &layer,
                                          double scale) {
        shard.exchangeBytes += static_cast<std::uint64_t>(
            static_cast<double>(layer.exchange.totalBytes) * scale);
        shard.exchangeCycles += static_cast<Cycle>(
            static_cast<double>(layer.exchange.cycles) * scale);
        shard.linkBusyCycles += static_cast<Cycle>(
            static_cast<double>(layer.exchange.busiestPortCycles) *
            scale);
        for (unsigned c = 0; c < layer.chipCycles.size(); ++c) {
            shard.chipCycles[original_chip[c]] += static_cast<Cycle>(
                static_cast<double>(layer.chipCycles[c]) * scale);
        }
        if (faulty) {
            faults.linkRetries += static_cast<std::uint64_t>(
                static_cast<double>(layer.exchange.retries) * scale);
            faults.backoffCycles += static_cast<Cycle>(
                static_cast<double>(layer.exchange.backoffCycles) *
                scale);
            faults.timeouts += static_cast<std::uint64_t>(
                static_cast<double>(layer.exchange.timeouts) * scale);
            faults.stallCycles += static_cast<Cycle>(
                static_cast<double>(layer.stallCycles) * scale);
        }
    };

    /**
     * Detect chips that die at @p arch_layer, then run the layer on
     * whatever partition survives. Detection happens at the layer
     * boundary — the previous layer completed everywhere — so the
     * replay resumes from the last completed layer with no partial
     * work lost; the recovery cost (detection timeout, route latency,
     * re-materializing the dead shard's X^l on the survivors) is
     * charged to the replayed layer's exchange prefix.
     */
    const auto run_layer =
        [&](unsigned arch_layer) -> Expected<ShardedLayer> {
        if (faulty && opts.faults.hasChipFailure()) {
            std::vector<unsigned> dead;
            for (unsigned c = 0;
                 c < static_cast<unsigned>(original_chip.size()); ++c) {
                if (opts.faults.failsAt(original_chip[c], arch_layer))
                    dead.push_back(c);
            }
            if (!dead.empty() &&
                opts.degradedMode == DegradedMode::FailFast) {
                return makeError(
                    ErrorCode::ChipFailure, "chip ",
                    original_chip[dead.front()], " failed at layer ",
                    arch_layer, " on ", dataset.spec.abbrev, " ('",
                    config.name,
                    "'); --degraded-mode fail-fast aborts the run "
                    "(use repartition to continue on the survivors)");
            }
            if (dead.size() >= original_chip.size()) {
                return makeError(ErrorCode::ChipFailure,
                                 "every chip failed by layer ",
                                 arch_layer,
                                 "; no survivors to repartition onto");
            }
            if (!dead.empty()) {
                const unsigned survivors = static_cast<unsigned>(
                    original_chip.size() - dead.size());
                const unsigned width =
                    arch_layer == 0 ? dataset.inputWidth : net.hidden;
                Cycle recovery = 0;
                for (unsigned c : dead) {
                    // Detection (the exchange timeout expiring on the
                    // dead port), the redistribution route, and the
                    // re-materialization of the dead shard's dense
                    // X^l rows on the survivors.
                    const std::uint64_t bytes =
                        static_cast<std::uint64_t>(
                            partition->shard(c).ownedRows()) *
                        width * 4;
                    recovery += opts.link.exchangeTimeoutCycles +
                                opts.link.hops(survivors) *
                                    opts.link.hopLatency +
                                opts.link.serializationCycles(bytes);
                }
                for (auto it = dead.rbegin(); it != dead.rend(); ++it) {
                    original_chip.erase(original_chip.begin() + *it);
                }
                partition = StreamArtifactCache::instance().partition(
                    *graph, survivors, opts.partitionPolicy);
                slots.assign(survivors, ChipSlot{});
                faults.failedChips +=
                    static_cast<unsigned>(dead.size());
                faults.repartitions += 1;
                faults.recoveryCycles += recovery;
                faults.recoveredLayers.push_back(arch_layer);
                pending_recovery += recovery;
            }
        }
        ShardedLayer layer = runShardedLayer(
            config, dataset, net, opts, *partition, arch_layer,
            injector, original_chip, pending_recovery, slots);
        pending_recovery = 0;
        return layer;
    };

    if (opts.includeInputLayer) {
        Expected<ShardedLayer> layer = run_layer(0);
        if (!layer.ok())
            return layer.error();
        run.inputLayer = layer.value().merged;
        run.total.merge(run.inputLayer);
        account(layer.value(), 1.0);
    }

    const unsigned arch_intermediate = net.layers - 1;
    const auto indices = sampleLayerIndices(
        arch_intermediate, opts.sampledIntermediateLayers);
    const double repeats = static_cast<double>(arch_intermediate) /
                           static_cast<double>(indices.size());
    LayerResult sampled_sum;
    for (unsigned idx : indices) {
        Expected<ShardedLayer> layer = run_layer(idx + 1);
        if (!layer.ok())
            return layer.error();
        run.sampledLayers.push_back(layer.value().merged);
        sampled_sum.merge(layer.value().merged);
        account(layer.value(), repeats);
    }
    sampled_sum.scale(repeats);
    run.total.merge(sampled_sum);

    if (opts.pipelined()) {
        // Replace the serial cycle extrapolation with the chained
        // timeline. Work counts (traffic, MACs, cache accesses) are
        // timeline-independent and keep the serial extrapolation.
        // Both gating granularities are chained (pure arithmetic
        // over the already-simulated schedules), so every pipelined
        // run carries the serial/per-layer/per-tile triple. Composed
        // schedules satisfy criticalEnd() == cycles and their
        // exchange rides the input-DMA prefix, so the pipeline hides
        // it behind the previous layer's drain where it fits.
        const NetworkSchedule layer_sched = chainSampledSchedules(
            run, arch_intermediate, opts.includeInputLayer,
            PipelineGating::PerLayer);
        const NetworkSchedule tile_sched = chainSampledSchedules(
            run, arch_intermediate, opts.includeInputLayer,
            PipelineGating::PerTile);
        SGCN_ASSERT(layer_sched.totalCycles <= run.total.cycles,
                    "pipelined total (", layer_sched.totalCycles,
                    ") exceeds the serial total (", run.total.cycles,
                    ") it replaces: a layer schedule must be "
                    "inconsistent with its cycle count");
        SGCN_ASSERT(tile_sched.totalCycles <= layer_sched.totalCycles,
                    "per-tile-gated total (", tile_sched.totalCycles,
                    ") exceeds the per-layer-gated total (",
                    layer_sched.totalCycles,
                    "): the tile gate must refine the layer gate");
        const NetworkSchedule &sched =
            opts.tileOverlap ? tile_sched : layer_sched;
        run.pipeline.enabled = true;
        run.pipeline.gating = opts.tileOverlap
                                  ? PipelineGating::PerTile
                                  : PipelineGating::PerLayer;
        run.pipeline.serialCycles = run.total.cycles;
        run.pipeline.pipelinedCycles = sched.totalCycles;
        run.pipeline.overlapSavedCycles =
            run.total.cycles - sched.totalCycles;
        run.pipeline.perLayerCycles = layer_sched.totalCycles;
        run.pipeline.perTileCycles = tile_sched.totalCycles;
        run.pipeline.tileSavedCycles =
            layer_sched.totalCycles - tile_sched.totalCycles;
        const PipelinedLayer &bottleneck = sched.bottleneckStage();
        run.pipeline.steadyStateAdvance = bottleneck.steadyCost();
        run.pipeline.criticalPhase =
            bottleneck.schedule.longestPhase();
        run.total.cycles = sched.totalCycles;
    }

    if (faulty) {
        faults.survivingChips =
            static_cast<unsigned>(original_chip.size());
        faults.dramRetries = run.total.dramRetries;
    }

    // Exports report the post-repartition topology: slot i of
    // chipCycles is the chip shard.chipIds[i]. Clean runs keep the
    // identity mapping (and byte-identical CSV output); after
    // failures the dead chips' half-accumulated slots are dropped so
    // per-chip tables, the bottleneck, and bwUtil index only the
    // survivors.
    shard.chipIds = original_chip;
    const unsigned live_chips =
        static_cast<unsigned>(original_chip.size());
    if (faults.failedChips > 0) {
        std::vector<Cycle> survivor_cycles(live_chips);
        for (unsigned i = 0; i < live_chips; ++i)
            survivor_cycles[i] = shard.chipCycles[original_chip[i]];
        shard.chipCycles = std::move(survivor_cycles);
    }
    shard.bottleneckChipCycles = *std::max_element(
        shard.chipCycles.begin(), shard.chipCycles.end());
    if (run.total.cycles > 0) {
        // Every chip owns a private memory stack: the summed traffic
        // spreads over chips x channels (the surviving chips' stacks
        // once any failed chip's stack is lost).
        run.total.bwUtil = std::min(
            1.0, static_cast<double>(run.total.traffic.totalLines()) *
                     config.dram.burstCycles /
                     (static_cast<double>(live_chips) *
                      static_cast<double>(config.dram.channels) *
                      static_cast<double>(run.total.cycles)));
        shard.linkBusyFraction = std::min(
            1.0, static_cast<double>(shard.linkBusyCycles) /
                     static_cast<double>(run.total.cycles));
    }

    EnergyModel energy_model(
        {}, config.dram.generation == DramGeneration::Hbm1);
    RunCounts counts;
    counts.macs = run.total.macs;
    counts.cacheAccesses = run.total.cacheAccesses;
    counts.dramLines = run.total.traffic.totalLines();
    counts.cycles = run.total.cycles;
    AccelDescriptor desc = config.energyDesc;
    desc.cacheKb =
        static_cast<double>(config.cache.sizeBytes) / 1024.0;
    run.energy = energy_model.dynamicEnergy(counts, desc.cacheKb);
    // TDP and area replicate per chip; dynamic energy already sums
    // through the per-chip counts.
    run.tdpWatts = energy_model.tdpWatts(desc) * chips;
    run.areaMm2 = energy_model.areaMm2(desc) * chips;

    // A one-chip run reports no sharding: RunResult::shard keeps its
    // defaults, which the CSV columns and --stats output read.
    if (opts.chips > 1)
        run.shard = std::move(shard);
    return run;
}

RunResult
runNetwork(const AccelConfig &config, const Dataset &dataset,
           const NetworkSpec &net, const RunOptions &opts)
{
    return tryRunNetwork(config, dataset, net, opts).orFatal();
}

Expected<std::vector<RunResult>>
tryRunAll(const std::vector<AccelConfig> &configs,
          const Dataset &dataset, const NetworkSpec &net,
          const RunOptions &opts)
{
    // Per-index error slots keep the fan-out lock-free and make the
    // reported error deterministic (lowest failing index) at any
    // --jobs value.
    std::vector<RunResult> results(configs.size());
    std::vector<std::unique_ptr<SgcnError>> errors(configs.size());
    parallelFor(opts.jobs, configs.size(), [&](std::size_t i) {
        Expected<RunResult> r =
            tryRunNetwork(configs[i], dataset, net, opts);
        if (r.ok())
            results[i] = std::move(r.value());
        else
            errors[i] = std::make_unique<SgcnError>(r.error());
    });
    for (const auto &err : errors) {
        if (err)
            return *err;
    }
    return results;
}

std::vector<RunResult>
runAll(const std::vector<AccelConfig> &configs, const Dataset &dataset,
       const NetworkSpec &net, const RunOptions &opts)
{
    return tryRunAll(configs, dataset, net, opts).orFatal();
}

void
clearSweepArtifacts()
{
    StreamArtifactCache::instance().clear();
    PreprocessCache::instance().clear();
}

double
speedupOver(const RunResult &baseline, const RunResult &contender)
{
    SGCN_ASSERT(baseline.total.cycles > 0,
                "baseline run '", baseline.accelName, "' on ",
                baseline.datasetAbbrev,
                " simulated zero cycles; speedup is undefined");
    SGCN_ASSERT(contender.total.cycles > 0,
                "contender run '", contender.accelName, "' on ",
                contender.datasetAbbrev,
                " simulated zero cycles; speedup is undefined");
    return static_cast<double>(baseline.total.cycles) /
           static_cast<double>(contender.total.cycles);
}

} // namespace sgcn
