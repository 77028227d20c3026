/**
 * @file
 * Per-layer workload construction: feature masks at the modeled
 * sparsity, format layouts bound to them, and the layer's position
 * in the address map.
 *
 * All accelerators simulating the same (dataset, layer) see
 * bit-identical masks, so comparisons isolate architectural
 * differences.
 */

#ifndef SGCN_ACCEL_WORKLOAD_HH
#define SGCN_ACCEL_WORKLOAD_HH

#include <memory>

#include "accel/config.hh"
#include "gcn/feature_matrix.hh"
#include "gcn/spec.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"

namespace sgcn
{

/** Address-map bases (single-address-space accelerator). */
struct AddressMap
{
    static constexpr Addr kTopologyBase = 0x0000'0000ULL;
    static constexpr Addr kFeatureInBase = 0x4000'0000ULL;
    static constexpr Addr kFeatureOutBase = 0x8000'0000ULL;
    static constexpr Addr kResidualBase = 0xC000'0000ULL;
    static constexpr Addr kPsumBase = 0xE000'0000ULL;
    static constexpr Addr kWeightBase = 0xF000'0000ULL;
};

/** Everything a layer simulation needs. */
struct LayerContext
{
    /** The topology this engine runs: its chip shard's subgraph,
     *  shared through the stream-artifact cache (on a one-chip run,
     *  a copy of the whole, possibly reordered, graph). */
    const CsrGraph *graph = nullptr;

    /** Co-owner of *graph (null only for hand-built fixtures). */
    std::shared_ptr<const CsrGraph> graphOwner;

    /** Input feature width (differs on the input layer). */
    std::uint32_t inWidth = 0;

    /** Output feature width (the network's hidden width). */
    std::uint32_t outWidth = 0;

    /** Non-zero structure of X^l (shared sweep artifact: identical
     *  across every personality simulating this dataset layer). */
    std::shared_ptr<const FeatureMask> inMask;

    /** Non-zero structure of X^{l+1} (drives output writes). */
    std::shared_ptr<const FeatureMask> outMask;

    /** Layout of X^l, prepared at kFeatureInBase. It co-owns the
     *  mask it was prepared against: inMask, except for a dense
     *  layout, which is shared by every mask of its shape and bound
     *  to the first one the artifact cache was asked for. */
    std::shared_ptr<const FeatureLayout> inLayout;

    /** Layout of X^{l+1}, prepared at kFeatureOutBase. */
    std::shared_ptr<const FeatureLayout> outLayout;

    /** Sparsity used to generate inMask / outMask. */
    double inSparsity = 0.0;
    double outSparsity = 0.0;

    /** True for the first (dataset-input) layer. */
    bool isInputLayer = false;

    /** Residual streams S^l / S^{l+1} present (Eq. 2). */
    bool residual = true;

    /** Bytes per topology edge (GIN drops the weight). */
    unsigned edgeBytes = 8;

    /** Effective average degree multiplier (GraphSAGE sampling
     *  reduces the edges actually walked). */
    double edgeSampleFraction = 1.0;

    /** Rows this engine owns the *output* of: 0 means all (for
     *  hand-built fixtures; the builders set the shard's count, which
     *  is every row on a one-chip run). On a chip shard the first
     *  ownedRows rows are owned destinations and the tail rows are
     *  halo sources the chip reads but never writes — output-side
     *  streams (drain, residual, combination of aggregated rows)
     *  clamp to this. */
    VertexId ownedRows = 0;
};

/**
 * Build the context of one intermediate layer on the whole graph:
 * chip 0 of the one-chip partition of @p graph, the context
 * runNetwork builds at chips=1.
 *
 * @param dataset the instantiated dataset
 * @param graph the topology to run (the dataset's, or its I-GCN
 *        islandized reordering)
 * @param config accelerator personality (chooses formats)
 * @param net network architecture
 * @param arch_layer 1-based index of the intermediate feature matrix
 *        X^l within the architectural network (1..layers-1)
 */
LayerContext makeIntermediateLayer(const Dataset &dataset,
                                   const CsrGraph &graph,
                                   const AccelConfig &config,
                                   const NetworkSpec &net,
                                   unsigned arch_layer);

/** Build the input-layer context (X^0: dataset features) on the
 *  whole graph, as makeIntermediateLayer does. */
LayerContext makeInputLayer(const Dataset &dataset,
                            const CsrGraph &graph,
                            const AccelConfig &config,
                            const NetworkSpec &net);

/**
 * makeIntermediateLayer for chip @p chip of @p partition: the
 * shard's renumbered subgraph, the *global* layer masks sliced to
 * (owned + halo) rows bit-exactly, and ownedRows set so output-side
 * streams stop at the chip boundary. Masks and layouts resolve
 * through the stream-artifact cache, so chips sharing a boundary
 * never regenerate the global masks.
 */
LayerContext makeChipIntermediateLayer(const Dataset &dataset,
                                       const GraphPartition &partition,
                                       unsigned chip,
                                       const AccelConfig &config,
                                       const NetworkSpec &net,
                                       unsigned arch_layer);

/** makeInputLayer for chip @p chip of @p partition. */
LayerContext makeChipInputLayer(const Dataset &dataset,
                                const GraphPartition &partition,
                                unsigned chip,
                                const AccelConfig &config,
                                const NetworkSpec &net);

/**
 * Whether @p config reads a layer's input features as sparse: an
 * ultra-sparse (over 90% zeros) dataset-input layer on a personality
 * with firstLayerSparseInput reads X^0 through CSR and runs its
 * combination on the sparse aggregator, skipping the zeros (SVII-B).
 */
inline bool
readsSparseInput(const AccelConfig &config, bool is_input_layer,
                 double in_sparsity)
{
    return is_input_layer && config.firstLayerSparseInput &&
           in_sparsity > 0.90;
}

/** Deterministic mask seed shared by all accelerators. */
std::uint64_t maskSeed(const DatasetSpec &spec, unsigned arch_layer);

} // namespace sgcn

#endif // SGCN_ACCEL_WORKLOAD_HH
