/**
 * @file
 * Result structures produced by the accelerator simulations.
 */

#ifndef SGCN_ACCEL_RESULT_HH
#define SGCN_ACCEL_RESULT_HH

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "energy/energy_model.hh"
#include "mem/mem_request.hh"
#include "sim/types.hh"

namespace sgcn
{

/** Half-open [start, end) interval of one phase on a layer-local
 *  timeline (cycle 0 = the layer's start). */
struct PhaseSpan
{
    Cycle start = 0;
    Cycle end = 0;

    Cycle duration() const { return end - start; }
    bool wellOrdered() const { return start <= end; }

    void
    shift(Cycle by)
    {
        start += by;
        end += by;
    }
};

/** The four phases of a layer schedule. */
enum class LayerPhase : std::uint8_t
{
    InputDma,
    Aggregation,
    Combination,
    OutputDrain,
};

/** Granularity the inter-layer pipeline gates on. */
enum class PipelineGating : std::uint8_t
{
    /** A consumer waits for its producer's whole output drain. */
    PerLayer,
    /** A streaming consumer starts once the producer tiles covering
     *  its next input chunk are ready (LW-GCN/Accel-GCN-style
     *  block-level pipelining). */
    PerTile,
};

/** Human-readable gating name. */
constexpr const char *
pipelineGatingName(PipelineGating gating)
{
    switch (gating) {
      case PipelineGating::PerLayer:
        return "per-layer";
      case PipelineGating::PerTile:
        return "per-tile";
    }
    return "invalid";
}

/** Floor granularity of reported tile spans: dataflows whose output
 *  leaves in row order (every builtin — the output DMAs stream rows)
 *  report availability at least this finely even when the
 *  destination tiling is coarser, so small fixtures still carry
 *  gateable sub-layer structure. */
constexpr unsigned kMinTileSpans = 8;

/**
 * Availability of one output tile on the layer-local timeline: the
 * window in which the producing layer consumed that tile's share of
 * the input stream, and the cycle its slice of X^{l+1} is fully
 * written back (the point a double-buffered consumer may read it).
 * Tiles are reported in production order; tile t covers roughly
 * fraction (t+1)/numTiles of the layer's output rows.
 */
struct TileSpan
{
    unsigned tile = 0;

    /** Window the producer consumed this tile's input slice in. */
    PhaseSpan inputConsume;

    /** Cycle this tile's output slice finishes draining. */
    Cycle outputReady = 0;
};

/** Human-readable phase name. */
constexpr const char *
layerPhaseName(LayerPhase phase)
{
    switch (phase) {
      case LayerPhase::InputDma:
        return "input-dma";
      case LayerPhase::Aggregation:
        return "aggregation";
      case LayerPhase::Combination:
        return "combination";
      case LayerPhase::OutputDrain:
        return "output-drain";
    }
    return "invalid";
}

/**
 * Phase-level timeline of one simulated layer.
 *
 * Every dataflow strategy reports when its input DMA, aggregation,
 * combination, and output drain ran on a layer-local timeline
 * (cycle 0 = the layer's start: event time 0 of the layer's fresh
 * EngineContext in timing mode). Phases may overlap each other —
 * the row-product tile pipeline runs aggregation and combination
 * concurrently — but the latest end always equals
 * LayerResult::cycles, so the serial totals and the schedule cannot
 * drift apart.
 *
 * The network pipeline (src/accel/pipeline/) chains these schedules
 * across layers: the input-DMA prefix (weight prefetch before the
 * first feature read) is what hides behind the previous layer's
 * output drain.
 */
struct LayerSchedule
{
    /** Weight/topology prefetch ahead of the first feature read. */
    PhaseSpan inputDma;

    PhaseSpan aggregation;
    PhaseSpan combination;
    PhaseSpan outputDrain;

    /** Ordered per-tile output availability (see TileSpan). Timing
     *  dataflows record observed per-tile windows; fast-mode
     *  strategies synthesize equivalent spans from their analytic
     *  per-tile costs, so both execution modes carry schedules the
     *  per-tile pipeline can gate on. */
    std::vector<TileSpan> tileSpans;

    /** True when the layer reads its input features X^l in vertex
     *  order (the streaming comb-first and column-product
     *  consumers): a per-tile-gated pipeline may start such a layer
     *  as soon as the producer tiles covering its next input chunk
     *  are ready. Random-gather consumers (agg-first: any tile may
     *  read any source row) stay false and keep the per-layer
     *  full-availability gate. */
    bool sequentialInput = false;

    /** First cycle the layer consumes its input features X^l. */
    Cycle
    firstFeatureRead() const
    {
        return std::min(aggregation.start, combination.start);
    }

    /** Interval the shared agg/comb engines are occupied. */
    Cycle computeStart() const { return firstFeatureRead(); }

    Cycle
    computeEnd() const
    {
        return std::max(aggregation.end, combination.end);
    }

    /** X^{l+1} fully written back (double-buffer swap point). */
    Cycle outputReadyAt() const { return outputDrain.end; }

    /** Latest phase end; equals LayerResult::cycles. */
    Cycle
    criticalEnd() const
    {
        return std::max({inputDma.end, aggregation.end,
                         combination.end, outputDrain.end});
    }

    /** The longest phase (critical path of the layer). */
    LayerPhase
    longestPhase() const
    {
        LayerPhase phase = LayerPhase::InputDma;
        Cycle longest = inputDma.duration();
        const auto consider = [&](LayerPhase p, Cycle d) {
            if (d > longest) {
                longest = d;
                phase = p;
            }
        };
        consider(LayerPhase::Aggregation, aggregation.duration());
        consider(LayerPhase::Combination, combination.duration());
        consider(LayerPhase::OutputDrain, outputDrain.duration());
        return phase;
    }

    /** Every phase interval is ordered (start <= end). */
    bool
    wellOrdered() const
    {
        return inputDma.wellOrdered() && aggregation.wellOrdered() &&
               combination.wellOrdered() && outputDrain.wellOrdered();
    }

    /**
     * Rebuild tileSpans from parallel per-tile consume windows and
     * output-ready cycles, clamped into the schedule's invariants:
     * consume windows well-ordered, monotone starts, within
     * [0, criticalEnd()]; ready cycles monotone within the
     * output-drain phase, the last pinned to the drain end (the
     * double-buffer swap point). Callers set the phase spans first;
     * observed event times that straggle past a phase boundary are
     * clamped rather than trusted, so the spans always satisfy
     * tileSpansWellFormed().
     */
    void
    setTileSpans(std::vector<PhaseSpan> consume,
                 std::vector<Cycle> ready)
    {
        const Cycle end = criticalEnd();
        const std::size_t count =
            std::min(consume.size(), ready.size());
        tileSpans.clear();
        if (count == 0) {
            // No tile structure reported: one whole-layer span, so
            // per-tile gating degenerates to per-layer gating.
            tileSpans.push_back(TileSpan{
                0, PhaseSpan{firstFeatureRead(), computeEnd()},
                outputDrain.end});
            return;
        }
        tileSpans.reserve(count);
        Cycle prev_start = 0;
        Cycle prev_ready = outputDrain.start;
        for (std::size_t t = 0; t < count; ++t) {
            TileSpan span;
            span.tile = static_cast<unsigned>(t);
            span.inputConsume.start = std::min(
                end, std::max(consume[t].start, prev_start));
            span.inputConsume.end =
                std::min(end, std::max(consume[t].end,
                                       span.inputConsume.start));
            span.outputReady = std::min(
                outputDrain.end,
                std::max({ready[t], prev_ready,
                          span.inputConsume.start}));
            if (t + 1 == count)
                span.outputReady = outputDrain.end;
            prev_start = span.inputConsume.start;
            prev_ready = span.outputReady;
            tileSpans.push_back(span);
        }
    }

    /** The tile spans satisfy every per-tile invariant: non-empty,
     *  consecutively numbered, monotone consume starts and ready
     *  cycles, consume windows well-ordered within
     *  [0, criticalEnd()], ready cycles covering the output-drain
     *  phase (all inside it, the last exactly at its end), and no
     *  tile ready before its input consumption began. */
    bool
    tileSpansWellFormed() const
    {
        if (tileSpans.empty())
            return false;
        Cycle prev_start = 0;
        Cycle prev_ready = outputDrain.start;
        for (std::size_t t = 0; t < tileSpans.size(); ++t) {
            const TileSpan &span = tileSpans[t];
            if (span.tile != t)
                return false;
            if (!span.inputConsume.wellOrdered())
                return false;
            if (span.inputConsume.start < prev_start ||
                span.inputConsume.end > criticalEnd()) {
                return false;
            }
            if (span.outputReady < prev_ready ||
                span.outputReady > outputDrain.end) {
                return false;
            }
            if (span.outputReady < span.inputConsume.start)
                return false;
            prev_start = span.inputConsume.start;
            prev_ready = span.outputReady;
        }
        return tileSpans.back().outputReady == outputDrain.end;
    }

    /** Move the whole timeline @p by cycles later. */
    void
    shift(Cycle by)
    {
        inputDma.shift(by);
        aggregation.shift(by);
        combination.shift(by);
        outputDrain.shift(by);
        for (TileSpan &span : tileSpans) {
            span.inputConsume.shift(by);
            span.outputReady += by;
        }
    }
};

/**
 * Subdivide @p window into one sub-span per weight, each sized
 * proportionally to its weight (uniform when the weights sum to
 * zero). The sub-spans partition the window exactly: the first
 * starts at window.start and the last ends at window.end. Used to
 * synthesize tile spans from analytic per-tile costs.
 */
inline std::vector<PhaseSpan>
subdividePhase(PhaseSpan window, const std::vector<double> &weights)
{
    std::vector<PhaseSpan> spans;
    spans.reserve(weights.size());
    double total = 0.0;
    for (double w : weights)
        total += w;
    const auto duration = static_cast<double>(window.duration());
    double prefix = 0.0;
    Cycle cursor = window.start;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        prefix += total > 0.0
                      ? weights[i] / total
                      : 1.0 / static_cast<double>(weights.size());
        Cycle end = i + 1 == weights.size()
                        ? window.end
                        : window.start +
                              static_cast<Cycle>(prefix * duration);
        end = std::min(std::max(end, cursor), window.end);
        spans.push_back(PhaseSpan{cursor, end});
        cursor = end;
    }
    return spans;
}

/** The end cycle of every span, in order. */
inline std::vector<Cycle>
phaseEnds(const std::vector<PhaseSpan> &spans)
{
    std::vector<Cycle> ends;
    ends.reserve(spans.size());
    for (const PhaseSpan &span : spans)
        ends.push_back(span.end);
    return ends;
}

/** Outcome of simulating one GCN layer on one accelerator. */
struct LayerResult
{
    Cycle cycles = 0;
    Cycle aggCycles = 0;
    Cycle combCycles = 0;

    /** Off-chip traffic (Fig. 14 classes). */
    TrafficCounters traffic;

    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t macs = 0;

    /** Transient-error DRAM retries (fault injection; 0 unless a
     *  dram-retry fault is active and the run is timing-mode). */
    std::uint64_t dramRetries = 0;

    /** Fraction of DRAM bandwidth used over the layer. */
    double bwUtil = 0.0;

    /** Phase timeline of this layer. Only meaningful on a
     *  per-simulated-layer result: merge()/scale() leave it alone,
     *  so extrapolated totals carry the default (empty) schedule. */
    LayerSchedule schedule;

    /** The additive counters besides traffic. merge() and scale()
     *  walk this one list, so the two cannot drift apart. */
    static constexpr auto
    counters()
    {
        return std::array{&LayerResult::cycles, &LayerResult::aggCycles,
                          &LayerResult::combCycles,
                          &LayerResult::cacheAccesses,
                          &LayerResult::cacheHits, &LayerResult::macs,
                          &LayerResult::dramRetries};
    }

    void
    merge(const LayerResult &other)
    {
        for (auto counter : counters())
            this->*counter += other.*counter;
        traffic.merge(other.traffic);
    }

    /** Scale all additive quantities by @p factor. */
    void
    scale(double factor)
    {
        for (auto counter : counters()) {
            this->*counter = static_cast<std::uint64_t>(
                static_cast<double>(this->*counter) * factor);
        }
        traffic.scale(factor);
    }
};

/**
 * Summary of the inter-layer pipelined timeline, filled by
 * runNetwork when RunOptions::interLayerOverlap is on (the full
 * chained timeline lives in src/accel/pipeline/).
 */
struct PipelineStats
{
    /** True when the run's totals are overlap-aware. */
    bool enabled = false;

    /** Gating granularity the active total was built with. */
    PipelineGating gating = PipelineGating::PerLayer;

    /** What the serial (isolated-layer) model reports. */
    Cycle serialCycles = 0;

    /** Overlap-aware total (== RunResult::total.cycles when on). */
    Cycle pipelinedCycles = 0;

    /** serialCycles - pipelinedCycles. */
    Cycle overlapSavedCycles = 0;

    /** Totals of both gating granularities, filled whenever the
     *  pipeline is on regardless of which one is active (the chained
     *  timelines are pure arithmetic): the serial/per-layer/per-tile
     *  triple of the schedule-aware Fig. 11 comparison. */
    Cycle perLayerCycles = 0;
    Cycle perTileCycles = 0;

    /** perLayerCycles - perTileCycles: what the finer gating wins on
     *  top of whole-layer overlap. */
    Cycle tileSavedCycles = 0;

    /** Steady-state per-layer cost of the bottleneck stratum: the
     *  offset between consecutive repetitions of its layer. */
    Cycle steadyStateAdvance = 0;

    /** Longest phase of the bottleneck stratum's layer schedule. */
    LayerPhase criticalPhase = LayerPhase::InputDma;
};

/**
 * Summary of a sharded (multi-chip) run, filled by runNetwork when
 * RunOptions::chips > 1. Exchange quantities are extrapolated
 * full-network totals, matching RunResult::total's convention.
 */
struct ShardStats
{
    /** True when the run executed sharded. */
    bool enabled = false;

    /** Chips the network was sharded over. */
    unsigned chips = 1;

    /** Partitioner policy name ("contiguous"/"edge-balanced"). */
    std::string partitionPolicy;

    /** Link preset name ("PCIe4"/"NoC"). */
    std::string linkName;

    /** Halo vertices summed over chips (structural volume). */
    std::uint64_t haloVertices = 0;

    /** Halo-feature bytes crossing the link, whole network. */
    std::uint64_t exchangeBytes = 0;

    /** Cycles spent in exchange phases, whole network. */
    Cycle exchangeCycles = 0;

    /** Busiest-port serialization cycles, whole network. */
    Cycle linkBusyCycles = 0;

    /** linkBusyCycles / total cycles: how hard the link binds. */
    double linkBusyFraction = 0.0;

    /** Per-chip compute cycles (extrapolated). Slot i reports the
     *  chip chipIds[i]: after a chip-fail + repartition only the
     *  survivors are reported, so exports always match the final
     *  topology. */
    std::vector<Cycle> chipCycles;

    /** Original chip id behind each chipCycles slot. The identity
     *  mapping [0, chips) on clean runs; the surviving ids, in
     *  order, after failures. */
    std::vector<unsigned> chipIds;

    /** Largest entry of chipCycles (the per-layer bottleneck chips
     *  summed, so it can exceed any single chip's total). */
    Cycle bottleneckChipCycles = 0;
};

/**
 * Summary of an injected-fault run, filled by runNetwork when
 * RunOptions::faults is active. Event counts follow the exchange
 * extrapolation convention (sampled layers scaled to depth) except
 * recoveryCycles, which sums the actual one-time recovery costs.
 */
struct FaultStats
{
    /** True when a fault plan was active for the run. */
    bool enabled = false;

    /** Canonical replayable spec (FaultPlan::canonical()). */
    std::string spec;

    /** The plan's fault RNG seed. */
    std::uint64_t seed = 0;

    /** Degraded-mode policy name ("repartition"/"fail-fast"). */
    std::string degradedMode;

    /** Failed link-transfer attempts re-serialized. */
    std::uint64_t linkRetries = 0;

    /** Backoff cycles injected between link retries. */
    Cycle backoffCycles = 0;

    /** Exchanges that hit the link's retry timeout. */
    std::uint64_t timeouts = 0;

    /** Transient-error DRAM retries (== total.dramRetries). */
    std::uint64_t dramRetries = 0;

    /** Stall cycles injected into chip timelines. */
    Cycle stallCycles = 0;

    /** Cycles spent detecting failures and re-materializing dead
     *  chips' shard state on the survivors (unscaled). */
    Cycle recoveryCycles = 0;

    /** Chips that died during the run. */
    unsigned failedChips = 0;

    /** Chips still alive at the end of the run. */
    unsigned survivingChips = 0;

    /** Survivor re-partitions performed. */
    unsigned repartitions = 0;

    /** Architectural layers replayed on the post-repartition
     *  topology (ascending). Schedule exports label these rows so
     *  downstream tooling can tell recovered spans from clean ones. */
    std::vector<unsigned> recoveredLayers;
};

/**
 * Summary of a serving-trace run (src/serve/), filled by
 * tryServeTrace. Latencies are simulated cycles on the accelerator
 * clock (serve.hh's kServeClockHz maps them to wall time); totals
 * below RunResult::total sum the per-batch service simulations.
 */
struct ServeStats
{
    /** True when the run executed a serving trace. */
    bool enabled = false;

    /** Requests in the trace. */
    unsigned requests = 0;

    /** Admitted batches the scheduler drove. */
    unsigned batches = 0;

    /** Open-loop offered arrival rate (requests/second). */
    double offeredQps = 0.0;

    /** Poisson arrivals (false: fixed-rate spacing). */
    bool poisson = true;

    /** Admission cap: max requests per batch. */
    unsigned maxBatch = 0;

    /** Admission cap: max cycles the first request of a batch may
     *  linger before the batch closes. */
    Cycle maxLingerCycles = 0;

    /** Nearest-rank request-latency percentiles (cycles from arrival
     *  to the owning batch's completion). */
    Cycle p50Cycles = 0;
    Cycle p95Cycles = 0;
    Cycle p99Cycles = 0;

    /** requests / makespan: the throughput the trace sustained. */
    double sustainedQps = 0.0;

    /** Mean and peak requests per admitted batch. */
    double meanOccupancy = 0.0;
    unsigned peakOccupancy = 0;

    /** Cycle the last batch completed (arrival of request 0 is 0). */
    Cycle makespanCycles = 0;

    /** Sampled subgraph volume summed over batches. */
    std::uint64_t subgraphVertices = 0;
    std::uint64_t subgraphEdges = 0;
};

/** Outcome of a whole-network simulation. */
struct RunResult
{
    std::string accelName;
    std::string datasetAbbrev;

    /** Extrapolated full-network totals: the input layer once plus
     *  the sampled intermediate layers scaled to the architectural
     *  depth (see runner.hh). */
    LayerResult total;

    /** The simulated input layer (not extrapolated). */
    LayerResult inputLayer;

    /** The sampled intermediate layers as simulated. */
    std::vector<LayerResult> sampledLayers;

    /** Inter-layer pipelining summary (enabled=false when off). */
    PipelineStats pipeline;

    /** Multi-chip sharding summary (enabled=false when chips=1). */
    ShardStats shard;

    /** Fault-injection summary (enabled=false when no faults). */
    FaultStats faults;

    /** Serving-trace summary (enabled=false outside serve runs). */
    ServeStats serve;

    /** Dynamic energy and peak power. */
    EnergyBreakdown energy;
    double tdpWatts = 0.0;
    double areaMm2 = 0.0;

    double
    cacheHitRate() const
    {
        return total.cacheAccesses
            ? static_cast<double>(total.cacheHits) /
                  static_cast<double>(total.cacheAccesses)
            : 0.0;
    }
};

} // namespace sgcn

#endif // SGCN_ACCEL_RESULT_HH
