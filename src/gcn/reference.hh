/**
 * @file
 * Dense functional reference for GCN layer execution (Eq. 1/2).
 *
 * Used to validate the formats (encode/decode round trips) and the
 * SGCN functional pipeline (sparse aggregator + compressor) on small
 * graphs. Not a performance model. Graphs hold topology only, so this
 * is also the one module that computes GCN's edge normalization
 * (gcnEdgeWeight).
 */

#ifndef SGCN_GCN_REFERENCE_HH
#define SGCN_GCN_REFERENCE_HH

#include "gcn/feature_matrix.hh"
#include "gcn/spec.hh"
#include "graph/csr_graph.hh"
#include "sim/rng.hh"

namespace sgcn
{

/**
 * GCN's symmetric normalization of edge (v, u), the entry of
 * D^-1/2 (A + I) D^-1/2: (1/sqrt(deg v)) * (1/sqrt(deg u)), formed in
 * double and rounded once to float. Degrees are @p graph's own and
 * count self loops; a vertex of degree 0 contributes a factor of 0.
 */
float gcnEdgeWeight(const CsrGraph &graph, VertexId v, VertexId u);

/**
 * Aggregation phase: Y = A-tilde . X for GCN, or the GIN/SAGE
 * variants. For SAGE, @p rng drives neighbour sampling with the
 * given fanout.
 */
DenseMatrix aggregate(const CsrGraph &graph, const DenseMatrix &x,
                      AggKind kind, unsigned sage_fanout = 25,
                      Rng *rng = nullptr);

/** Dense matrix product (combination phase X . W). */
DenseMatrix gemm(const DenseMatrix &a, const DenseMatrix &b);

/** Element-wise ReLU. */
void reluInPlace(DenseMatrix &matrix);

/** Element-wise accumulation: target += addend. */
void addInPlace(DenseMatrix &target, const DenseMatrix &addend);

/** Glorot-ish random weights: normal(0, 1/sqrt(rows)). */
DenseMatrix randomWeights(std::uint32_t rows, std::uint32_t cols,
                          Rng &rng);

/** State threaded through a residual network's layers (Eq. 2). */
struct LayerState
{
    /** Pre-activation accumulator S^l. */
    DenseMatrix s;

    /** Post-activation features X^l = relu(S^l). */
    DenseMatrix x;
};

/**
 * One full modern GCN layer:
 *   S^{l+1} = A-tilde . X^l . W^l (+ S^l if residual)
 *   X^{l+1} = relu(S^{l+1})
 */
LayerState forwardLayer(const CsrGraph &graph, const LayerState &in,
                        const DenseMatrix &weights,
                        const NetworkSpec &net, Rng *rng = nullptr);

} // namespace sgcn

#endif // SGCN_GCN_REFERENCE_HH
