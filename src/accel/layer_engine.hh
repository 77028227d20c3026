/**
 * @file
 * Single-layer execution façade.
 *
 * Simulates one GCN layer on one accelerator personality in either
 * of two modes sharing identical access streams:
 *
 *  - Fast: the stream drives a functional cache model; cycles come
 *    from a phase-level roofline over engine compute, DRAM
 *    bandwidth, and cache throughput, with tile-level pipelining
 *    between aggregation and combination.
 *  - Timing: the stream is issued by event-driven engine models with
 *    bounded outstanding-request windows through the timing cache
 *    and the banked HBM model; cycles are event time.
 *
 * The dataflow simulation itself lives in src/accel/dataflow/
 * (dataflows.hh): LayerEngine owns the shared EngineContext, calls
 * the function for the effective DataflowKind from a switch (with
 * the input-layer override of SIII-A: row-product personalities run
 * their input layer combination-first), and finalizes the
 * mode-independent statistics.
 */

#ifndef SGCN_ACCEL_LAYER_ENGINE_HH
#define SGCN_ACCEL_LAYER_ENGINE_HH

#include "accel/engine_context.hh"
#include "accel/result.hh"

namespace sgcn
{

/** Executes one layer; construct fresh per (config, layer). */
class LayerEngine
{
  public:
    LayerEngine(const AccelConfig &config, const LayerContext &ctx);
    ~LayerEngine();

    /** Run the layer and return its results. */
    LayerResult run(ExecutionMode mode);

    /** Dataflow a personality executes for a layer: the configured
     *  kind, except that row-product personalities run their input
     *  layer combination-first (SIII-A). The single source of the
     *  override policy. */
    static DataflowKind effectiveDataflow(const AccelConfig &config,
                                          bool is_input_layer);

    /** Dataflow actually executed for this engine's layer. */
    DataflowKind effectiveDataflow() const;

  private:
    /** Finalize traffic/cache/mac stats common to both modes. */
    void finalize(LayerResult &result);

    EngineContext ec;
};

} // namespace sgcn

#endif // SGCN_ACCEL_LAYER_ENGINE_HH
