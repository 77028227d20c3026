/**
 * @file
 * Single-layer execution façade.
 *
 * Simulates one GCN layer on one accelerator personality in either
 * of two modes. Both issue the same line requests, from one sweep
 * program per tile (EngineContext::buildTileProgram,
 * buildColumnProgram) and one output pass per tile:
 *
 *  - Fast: the program replays through a functional cache model,
 *    the engines interleaved round-robin per vertex; cycles come
 *    from a phase-level roofline over engine compute, DRAM
 *    bandwidth, and cache throughput, with tile-level pipelining
 *    between aggregation and combination.
 *  - Timing: one event-driven engine (TimingSweep) issues the
 *    program through the dataflow's pick policy, each aggregation
 *    engine running ahead within its bounded outstanding-request
 *    window, through the timing cache and the banked HBM model;
 *    cycles are event time on the layer's fresh event clock.
 *
 * Two known differences remain: timing-mode aggregation-first does
 * not pin EnGN's degree-aware vertex cache rows (ROADMAP item 3),
 * and the timing cache counts a request it parks for want of an MSHR
 * twice, as a miss and again when it drains (ROADMAP item 1).
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

/** Executes one layer once: the context's counters are cumulative,
 *  so construct a fresh engine per (config, layer) run. */
class LayerEngine
{
  public:
    LayerEngine(const AccelConfig &config, const LayerContext &ctx);
    ~LayerEngine();

    /** Run the layer and return its results. Panics when called a
     *  second time. */
    LayerResult run(ExecutionMode mode);

    /** Dataflow a personality executes for a layer: the configured
     *  kind, except that row-product personalities run their input
     *  layer combination-first (SIII-A). The single source of the
     *  override policy. */
    static DataflowKind effectiveDataflow(const AccelConfig &config,
                                          bool is_input_layer);

    /** Dataflow actually executed for this engine's layer. */
    DataflowKind effectiveDataflow() const;

    /**
     * Whether fresh engines under @p config would read the same
     * inputs from @p a and @p b, and so return the same result in
     * either mode: run() reads only the config, the mode and the
     * context fields compared here, and every artifact it looks up is
     * a pure function of them. The runner reuses a chip's last
     * result when its next layer passes this test.
     */
    static bool sameInputs(const AccelConfig &config,
                           const LayerContext &a,
                           const LayerContext &b);

  private:
    /** Finalize traffic/cache/mac stats common to both modes. */
    void finalize(LayerResult &result);

    EngineContext ec;
    bool ran = false;
};

} // namespace sgcn

#endif // SGCN_ACCEL_LAYER_ENGINE_HH
