/**
 * @file
 * Shared per-layer execution state handed to the dataflows.
 *
 * EngineContext bundles everything a dataflow needs to simulate one
 * layer — configuration, layer context, event queue, DRAM, shared
 * cache, systolic array, stream-traffic counters — plus the
 * roofline, snapshot and stream helpers both execution modes share,
 * and the sweep program: the neighbour runs and sampled picks of one
 * aggregation sweep, built once and consumed by both clocks (the
 * fast replay through the functional cache, the timing engine
 * through the event kernel, its pick policies walking the program
 * with their own cursors).
 * It is the documented interface between the dataflows
 * (src/accel/dataflow/dataflows.hh) and the timing engines
 * (src/accel/timing/), which call its Dram and Cache directly: all
 * members are public, so no component needs friend access into the
 * layer engine. Each layer runs on a fresh context whose event
 * clock starts at cycle 0, so timing paths read event times as
 * layer-local cycles.
 */

#ifndef SGCN_ACCEL_ENGINE_CONTEXT_HH
#define SGCN_ACCEL_ENGINE_CONTEXT_HH

#include <memory>
#include <vector>

#include "accel/config.hh"
#include "accel/workload.hh"
#include "engine/systolic.hh"
#include "formats/dense.hh"
#include "graph/partition.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "sim/event_queue.hh"

namespace sgcn
{

/** Fast mode's stream sink: counts each queued region's lines as
 *  stream traffic where timing mode's StreamDma issues them. */
struct StreamLineCounter
{
    TrafficCounters &traffic;

    void
    addPlan(const AccessPlan &plan, MemOp op, TrafficClass cls)
    {
        traffic.add(op, cls, plan.totalLines());
    }

    void
    addRegion(Addr, std::uint64_t lines, MemOp op, TrafficClass cls)
    {
        traffic.add(op, cls, lines);
    }
};

/** Execution state of one layer; construct fresh per (config, layer). */
struct EngineContext
{
    EngineContext(const AccelConfig &config, const LayerContext &layer);
    ~EngineContext();

    // -- shared helpers --------------------------------------------------

    /** Traffic snapshot used to price a phase via the roofline. */
    struct Snapshot
    {
        std::uint64_t dramLines = 0;
        std::uint64_t cacheAccesses = 0;
        std::uint64_t psumAccesses = 0;
    };

    /** Per-tile phase times for the two-stage pipeline. */
    struct TilePhase
    {
        Cycle aggTime = 0;
        Cycle combTime = 0;
    };

    Snapshot snapshot() const;

    /** Every off-chip line so far: the timing DRAM counters, the
     *  functional fills of the shared cache and the psum buffer, and
     *  the fast-mode stream counters. */
    TrafficCounters offChipTraffic() const;

    /** Roofline time for a phase given compute cycles and the
     *  traffic delta since @p before. */
    Cycle phaseCycles(Cycle compute, const Snapshot &before) const;

    /** Lines of a dense row of @p width features. */
    std::uint64_t denseRowLines(std::uint32_t width) const;

    /** Count a whole dense region as stream traffic (fast mode). */
    void streamDense(VertexId rows, std::uint32_t width, MemOp op,
                     TrafficClass cls);

    /** Queue the X^{l+1} row writes of rows [begin, end) on @p sink.
     *  @return the write lines of packed variable-length formats,
     *          which serialize behind a running offset counter
     *          (SV-A): one write stream, no channel-level
     *          parallelism. */
    template <typename Sink>
    std::uint64_t
    writeOutputRows(Sink &sink, VertexId begin, VertexId end) const
    {
        const FeatureLayout &out = *layer.outLayout;
        std::uint64_t serialized_lines = 0;
        for (VertexId v = begin; v < end; ++v) {
            const AccessPlan write = out.planRowWrite(v);
            sink.addPlan(write, MemOp::Write, TrafficClass::FeatureOut);
            if (!out.supportsParallelWrite())
                serialized_lines += write.totalLines();
        }
        return serialized_lines;
    }

    /** Combination GEMM of @p rows x inWidth by inWidth x outWidth on
     *  the systolic arrays, zero-skipping the input's sparsity when
     *  @p zero_skip. Counts its MACs; returns the combination
     *  engines' cycles. */
    Cycle combineRows(VertexId rows, bool zero_skip);

    /** Pin high-degree rows for EnGN's DAVC. */
    void pinDavc(Addr base, std::uint32_t width);

    /** The (dst x src) tile view an aggregation sweep over @p layout
     *  walks, shared across configs via the stream-artifact cache.
     *  Source tiles are sized offline from the layout's static
     *  density estimate (one tile when topology tiling is off);
     *  the psum buffer bounds the destination tiles, so narrow
     *  sliced passes allow tall tiles and whole-row passes of
     *  @p full_width shrink them (SV-B). */
    std::shared_ptr<const TiledGraphView>
    sweepView(const FeatureLayout &layout,
              std::uint32_t full_width) const;

    /** Weight-matrix lines streamed once per layer. */
    std::uint64_t weightLines() const;

    /** Column-product partial-sum strip width: whole output rows
     *  when sliceC is zero, one feature slice otherwise. */
    std::uint32_t psumStripWidth() const;

    /** Column-product partial-sum strips per layer: one X pass and
     *  one topology walk each. */
    unsigned psumStrips() const;

    /** Component-wise sums of per-tile phase times (the totals the
     *  tile pipeline and the layer schedules are built from). */
    static TilePhase sumTilePhases(const std::vector<TilePhase> &tiles);

    /** Two-stage tile pipeline: agg(t) overlaps comb(t-1). */
    static Cycle pipelineTiles(const std::vector<TilePhase> &tiles);

    /** One past the last row this engine writes output for: the
     *  layer's ownedRows (halo tail rows are read-only sources), or
     *  numVertices() when a hand-built context leaves it 0. */
    VertexId
    ownedEnd() const
    {
        return layer.ownedRows ? layer.ownedRows
                               : layer.graph->numVertices();
    }

    // -- state -----------------------------------------------------------

    const AccelConfig &cfg;
    const LayerContext &layer;

    /** Mode the current run() executes in; set by the layer engine
     *  before dispatching to the dataflow. */
    ExecutionMode mode = ExecutionMode::Fast;

    EventQueue events;
    Dram dram;
    /** The shared global cache in front of dram. */
    Cache cache;
    SystolicArray systolic;

    /** Column-product partial-sum accumulator banks (AWB-GCN):
     *  distinct from the shared cache, with their own throughput.
     *  Null unless the personality's dataflow is ColumnProduct. */
    std::unique_ptr<Cache> psumBuffer;

    /** Fast-mode streaming traffic bypassing the cache model. */
    TrafficCounters fastStreamTraffic;

    std::uint64_t aggMacs = 0;
    std::uint64_t combMacs = 0;

    // -- the sweep program -------------------------------------------

    /** One neighbour run of the sweep program: a (vertex, source
     *  tile) run of a row-product tile, or a source vertex's
     *  out-edges in the column product. Its picks are
     *  sweepPicks[pickBegin, pickBegin + walk). */
    struct SweepEntry
    {
        unsigned engine = 0;
        std::uint32_t walk = 0;
        EdgeId edgeBegin = 0;
        std::size_t pickBegin = 0;
    };

    /** Fill the program with destination tile @p tile's runs:
     *  source tiles outermost (the edge buffer, Fig. 5), then the
     *  engines' schedules dealt round-robin at vertex granularity,
     *  which approximates their concurrency in the shared cache's
     *  access order. Runs with no edges are left out. */
    void buildTileProgram(const TiledGraphView &view, unsigned tile);

    /** Fill the program with the column product's runs: every
     *  source vertex's out-edges in vertex order, dealt to the
     *  engines by vertex, as one source tile. */
    void buildColumnProgram();

    /** Topology lines of one run's sampled edges, fetched once into
     *  the edge buffer and replayed for every later pass. */
    AccessPlan
    topologyPlan(const SweepEntry &entry) const
    {
        AccessPlan plan;
        plan.addBytes(AddressMap::kTopologyBase +
                          entry.edgeBegin * layer.edgeBytes,
                      static_cast<std::uint64_t>(entry.walk) *
                          layer.edgeBytes);
        return plan;
    }

    /** The program, rebuilt in place for every tile so the warm
     *  sweep stays allocation-free. sweepSrcBegin holds the first
     *  entry of each source tile's runs plus one past the last. */
    std::vector<SweepEntry> sweepEntries;
    std::vector<VertexId> sweepPicks;
    std::vector<std::size_t> sweepSrcBegin;
};

} // namespace sgcn

#endif // SGCN_ACCEL_ENGINE_CONTEXT_HH
