#include "gcn/reference.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/logging.hh"

namespace sgcn
{

float
gcnEdgeWeight(const CsrGraph &graph, VertexId v, VertexId u)
{
    // D^-1/2 factor of one endpoint.
    const auto factor = [&graph](VertexId x) {
        const double deg = static_cast<double>(graph.degree(x));
        return deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
    };
    return static_cast<float>(factor(v) * factor(u));
}

DenseMatrix
aggregate(const CsrGraph &graph, const DenseMatrix &x, AggKind kind,
          unsigned sage_fanout, Rng *rng)
{
    SGCN_ASSERT(graph.numVertices() == x.rows());
    const std::uint32_t cols = x.cols();
    DenseMatrix result(x.rows(), cols);

    for (VertexId v = 0; v < graph.numVertices(); ++v) {
        float *out = result.row(v);
        const auto nbrs = graph.neighbors(v);

        switch (kind) {
          case AggKind::Gcn:
            for (VertexId u : nbrs) {
                const float *src = x.row(u);
                const float w = gcnEdgeWeight(graph, v, u);
                for (std::uint32_t c = 0; c < cols; ++c)
                    out[c] += w * src[c];
            }
            break;

          case AggKind::Gin: {
            // (1 + eps) x_v + sum_{u in N(v)} x_u; self loop in the
            // CSR provides the x_v term, eps folded to 0.
            for (VertexId u : nbrs) {
                const float *src = x.row(u);
                for (std::uint32_t c = 0; c < cols; ++c)
                    out[c] += src[c];
            }
            break;
          }

          case AggKind::Sage: {
            // Mean over a sampled neighbour subset (plus self).
            SGCN_ASSERT(rng != nullptr,
                        "GraphSAGE aggregation needs an RNG");
            std::vector<VertexId> sampled;
            if (nbrs.size() <= sage_fanout) {
                sampled.assign(nbrs.begin(), nbrs.end());
            } else {
                sampled.reserve(sage_fanout);
                for (unsigned k = 0; k < sage_fanout; ++k)
                    sampled.push_back(
                        nbrs[rng->uniformInt(nbrs.size())]);
            }
            const float inv = sampled.empty()
                ? 0.0f
                : 1.0f / static_cast<float>(sampled.size());
            for (VertexId u : sampled) {
                const float *src = x.row(u);
                for (std::uint32_t c = 0; c < cols; ++c)
                    out[c] += inv * src[c];
            }
            break;
          }
        }
    }
    return result;
}

DenseMatrix
gemm(const DenseMatrix &a, const DenseMatrix &b)
{
    SGCN_ASSERT(a.cols() == b.rows(), "gemm shape mismatch");
    DenseMatrix result(a.rows(), b.cols());
    for (std::uint32_t i = 0; i < a.rows(); ++i) {
        const float *arow = a.row(i);
        float *out = result.row(i);
        for (std::uint32_t k = 0; k < a.cols(); ++k) {
            const float aik = arow[k];
            if (aik == 0.0f)
                continue;
            const float *brow = b.row(k);
            for (std::uint32_t j = 0; j < b.cols(); ++j)
                out[j] += aik * brow[j];
        }
    }
    return result;
}

void
reluInPlace(DenseMatrix &matrix)
{
    for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
        float *row = matrix.row(r);
        for (std::uint32_t c = 0; c < matrix.cols(); ++c)
            row[c] = std::max(row[c], 0.0f);
    }
}

void
addInPlace(DenseMatrix &target, const DenseMatrix &addend)
{
    SGCN_ASSERT(target.rows() == addend.rows() &&
                target.cols() == addend.cols());
    for (std::uint32_t r = 0; r < target.rows(); ++r) {
        float *out = target.row(r);
        const float *in = addend.row(r);
        for (std::uint32_t c = 0; c < target.cols(); ++c)
            out[c] += in[c];
    }
}

DenseMatrix
randomWeights(std::uint32_t rows, std::uint32_t cols, Rng &rng)
{
    DenseMatrix weights(rows, cols);
    const double stddev = 1.0 / std::sqrt(static_cast<double>(rows));
    for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
            weights.at(r, c) =
                static_cast<float>(rng.normal(0.0, stddev));
        }
    }
    return weights;
}

LayerState
forwardLayer(const CsrGraph &graph, const LayerState &in,
             const DenseMatrix &weights, const NetworkSpec &net,
             Rng *rng)
{
    DenseMatrix aggregated =
        aggregate(graph, in.x, net.agg, net.sageFanout, rng);
    DenseMatrix s_next = gemm(aggregated, weights);
    if (net.residual && in.s.rows() == s_next.rows() &&
        in.s.cols() == s_next.cols()) {
        addInPlace(s_next, in.s);
    }
    LayerState out;
    out.x = s_next;
    reluInPlace(out.x);
    out.s = std::move(s_next);
    return out;
}

} // namespace sgcn
