/**
 * @file
 * Calibrated intermediate-feature sparsity model.
 *
 * Substitutes for the paper's trained 28-layer checkpoints, which are
 * not shipped: the accelerator models read only each layer's
 * non-zero structure, so masks drawn at sparsities calibrated to the
 * paper's published figures drive the same access streams.
 * Calibration anchors:
 *  - Table II: per-dataset average sparsity of the 28-layer
 *    residual network (40-71%).
 *  - Fig. 1: sparsity rises with depth for residual networks
 *    (~50% shallow to ~70% at hundreds of layers); traditional
 *    GCNs stay at 5-30% and stop converging beyond ~5 layers.
 *  - Fig. 2a: adding a residual connection lifts even 3-layer
 *    networks above 50%.
 *  - Fig. 2b: within one 28-layer network, sparsity generally rises
 *    towards the output layer, spanning roughly 45-75%.
 */

#ifndef SGCN_GCN_SPARSITY_MODEL_HH
#define SGCN_GCN_SPARSITY_MODEL_HH

#include <vector>

#include "graph/datasets.hh"
#include "gcn/spec.hh"

namespace sgcn
{

/**
 * Average intermediate feature sparsity of an @p layers-deep network
 * on @p dataset (fraction of zeros), with or without residuals.
 */
double modeledAvgSparsity(const DatasetSpec &dataset, unsigned layers,
                          bool residual);

/**
 * Sparsity of X^l, the input features of layer @p layer
 * (1-based over intermediate layers: layer 1 is the output of the
 * first convolution). Rises towards the output per Fig. 2b.
 */
double modeledLayerSparsity(const DatasetSpec &dataset, unsigned layer,
                            unsigned layers, bool residual);

/**
 * Per-layer sparsity profile for a network.
 *
 * Entry l is the sparsity of the features flowing *into* layer l+1,
 * i.e. profile[0] is the first intermediate feature matrix X^1 and
 * profile[layers-2] feeds the final layer. (X^0, the dataset input
 * features, is described by DatasetSpec::inputSparsity instead.)
 */
std::vector<double> sparsityProfile(const DatasetSpec &dataset,
                                    const NetworkSpec &net);

/**
 * When a timing run simulates fewer layers than the architectural
 * network (so a 28-layer run costs a handful of layer simulations),
 * pick @p simulated layer indices spread over the
 * @p architectural-layer profile so the sampled sparsity statistics
 * match the full network.
 */
std::vector<unsigned> sampleLayerIndices(unsigned architectural,
                                         unsigned simulated);

} // namespace sgcn

#endif // SGCN_GCN_SPARSITY_MODEL_HH
