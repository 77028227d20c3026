/**
 * @file
 * Whole-network simulation driver.
 *
 * Simulates the input layer once plus a sample of intermediate
 * layers (midpoints of equal-depth strata of the architectural
 * network), then extrapolates intermediate totals to the full depth:
 * a 28-layer run costs a handful of layer simulations, and the
 * stratified midpoints track the sparsity trend across depth (see
 * sampleLayerIndices in gcn/sparsity_model.hh). The input layer is
 * never extrapolated, so NELL-style first-layer effects amortize
 * over the network exactly as in the paper (SVI-B).
 *
 * Each chip simulates a layer only when its engine inputs differ
 * from the last layer it ran (LayerEngine::sameInputs); otherwise it
 * copies that result. A personality that keeps features dense and
 * never zero-skips reads nothing of a layer's sparsity, so its
 * sampled intermediate layers cost one simulation together, and
 * more samples cost it nothing.
 *
 * Every run is a partition of the graph over RunOptions::chips
 * accelerators, and one body drives them all: each layer runs on
 * every chip and composes onto one timeline behind its halo
 * exchange. A one-chip partition owns the whole graph with no halo,
 * so its exchange is free and its layers are the unsharded ones.
 *
 * With RunOptions::interLayerOverlap the cycle extrapolation is
 * overlap-aware instead: each sampled layer's phase schedule repeats
 * over its stratum on the shared network timeline built by
 * src/accel/pipeline/layer_pipeline.hh.
 */

#ifndef SGCN_ACCEL_RUNNER_HH
#define SGCN_ACCEL_RUNNER_HH

#include <string>
#include <vector>

#include "accel/config.hh"
#include "accel/interconnect/link.hh"
#include "accel/result.hh"
#include "gcn/spec.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"
#include "sim/error.hh"
#include "sim/fault/fault.hh"

namespace sgcn
{

/** Simulation options. */
struct RunOptions
{
    ExecutionMode mode = ExecutionMode::Fast;

    /** Intermediate layers actually simulated (sampled). */
    unsigned sampledIntermediateLayers = 4;

    /** Simulate the dataset-input layer. */
    bool includeInputLayer = true;

    /**
     * Chain layers on one shared timeline (src/accel/pipeline/):
     * layer l+1's input-DMA prefix overlaps layer l's output drain,
     * gated on double-buffered output-feature availability, and the
     * depth extrapolation uses the steady-state pipelined per-layer
     * advance. Off (the default) reproduces the serial isolated-sum
     * totals bit-identically; on changes cycles (and the stats
     * derived from them) only — traffic, MAC, and cache counts stay
     * identical. RunResult::pipeline reports what the overlap won.
     */
    bool interLayerOverlap = false;

    /**
     * Finer-grained variant of interLayerOverlap (implies it): gate
     * a consumer layer on producer *tile* readiness instead of the
     * whole output drain. Streaming consumers (comb-first,
     * column-product — LayerSchedule::sequentialInput) start as
     * soon as the producer tiles covering their next input chunk
     * have drained, double-buffered at tile granularity and clamped
     * exactly like the per-layer gate; random-gather consumers
     * (agg-first) keep per-layer gating. Cycle totals never exceed
     * the per-layer-gated totals; work counts stay identical to
     * both other modes. Surfaced as --pipeline=tile.
     */
    bool tileOverlap = false;

    /**
     * Worker threads for the runAll fan-out: 1 runs serially on the
     * caller thread (the default, so library behaviour is unchanged),
     * 0 uses every hardware thread, N uses at most N. Results are
     * deterministic and input-ordered regardless of the value.
     */
    unsigned jobs = 1;

    /**
     * Simulated accelerator chips, at least 1 (0 is an
     * InvalidArgument error). The run partitions the graph with
     * partitionPolicy, runs every layer on all chips concurrently
     * (fanned over the same jobs pool), and composes the per-chip
     * timelines with a halo-feature exchange over `link` between
     * layers. Clamped to the vertex count. 1 (the default) is the
     * one-chip partition: the whole graph on one accelerator with no
     * exchange, the single-accelerator run the paper models.
     * RunResult::shard reports the breakdown when chips > 1.
     */
    unsigned chips = 1;

    /** How the multi-chip partitioner cuts the vertex space. */
    PartitionPolicy partitionPolicy = PartitionPolicy::EdgeBalanced;

    /** The interconnect the chips exchange halo features over. */
    LinkConfig link = LinkConfig::pcie4();

    /**
     * Deterministic fault schedule (--faults). Empty (the default)
     * injects nothing and leaves every path bit-identical to the
     * fault-free build. Chip-targeted faults require chips > 1;
     * dram-retry applies to any run shape (timing mode only — fast
     * mode never issues timing DRAM requests). RunResult::faults
     * reports what was injected and what it cost.
     */
    FaultPlan faults = {};

    /** Reaction to an injected chip-fail (--degraded-mode). */
    DegradedMode degradedMode = DegradedMode::Repartition;

    /** Whether any inter-layer pipelining (either gating) is on. */
    bool pipelined() const { return interLayerOverlap || tileOverlap; }
};

/**
 * Drop every process-wide sweep memo: the stream-artifact cache
 * (masks, prepared layouts, tile views, degree orders, SAGE
 * fractions) and the preprocess cache (reordered topologies).
 * Outstanding shared handles stay valid; later runs recompute.
 * The memos persist across runAll calls on purpose (a sweep that
 * calls runAll once per dataset shares them); call this after a
 * sweep's last runAll, or in a long-lived host embedding the
 * library, to bound the resident footprint.
 */
void clearSweepArtifacts();

/**
 * Simulate @p net on @p dataset with accelerator @p config,
 * reporting recoverable failures — zero chips, an invalid fault plan
 * for the run shape, or a chip failure under --degraded-mode
 * fail-fast — as typed errors instead of exiting.
 */
Expected<RunResult> tryRunNetwork(const AccelConfig &config,
                                  const Dataset &dataset,
                                  const NetworkSpec &net,
                                  const RunOptions &opts = {});

/** tryRunNetwork, fatal on error (the CLI-boundary convenience). */
RunResult runNetwork(const AccelConfig &config, const Dataset &dataset,
                     const NetworkSpec &net, const RunOptions &opts = {});

/**
 * Run several personalities on one dataset. With opts.jobs != 1 the
 * simulations fan out across a thread pool; results keep the input
 * order and are bit-identical to the serial path (each simulation
 * owns all of its state — see src/sim/thread_pool.hh). On failure
 * the error of the lowest-index failing run is returned.
 */
Expected<std::vector<RunResult>>
tryRunAll(const std::vector<AccelConfig> &configs,
          const Dataset &dataset, const NetworkSpec &net,
          const RunOptions &opts = {});

/** tryRunAll, fatal on error (the CLI-boundary convenience). */
std::vector<RunResult> runAll(const std::vector<AccelConfig> &configs,
                              const Dataset &dataset,
                              const NetworkSpec &net,
                              const RunOptions &opts = {});

/** Speedup of @p contender over @p baseline (cycles ratio). */
double speedupOver(const RunResult &baseline,
                   const RunResult &contender);

} // namespace sgcn

#endif // SGCN_ACCEL_RUNNER_HH
