/**
 * @file
 * Dense (uncompressed) feature layout: the baseline representation
 * existing GCN accelerators use for intermediate features (SI).
 */

#ifndef SGCN_FORMATS_DENSE_HH
#define SGCN_FORMATS_DENSE_HH

#include <vector>

#include "formats/format.hh"

namespace sgcn
{

/** Bytes reserved per dense row of @p width features: the row padded
 *  to a whole number of cachelines. Every dense region (features,
 *  X.W, residuals, partial sums) lays its rows out at this stride. */
inline std::uint64_t
denseRowStride(std::uint32_t width)
{
    return alignUp(static_cast<std::uint64_t>(width) * kFeatureBytes,
                   kCachelineBytes);
}

/** Row-major dense layout; rows padded to cacheline multiples
 *  (denseRowStride). */
class DenseLayout : public FeatureLayout
{
  public:
    using FeatureLayout::FeatureLayout;

    FormatKind kind() const override { return FormatKind::Dense; }
    bool supportsSlicing() const override { return true; }

    void prepare(const FeatureMask &mask, Addr base) override;
    AccessPlan planSliceRead(VertexId v, unsigned s) const override;
    AccessPlan planRowRead(VertexId v) const override;
    AccessPlan planRowWrite(VertexId v) const override;
    std::uint32_t sliceValues(VertexId v, unsigned s) const override;
    std::uint64_t storageBytes() const override;
    double staticSliceBytesEstimate() const override;
};

/** Serialize a dense matrix row-major with padded rows. */
std::vector<std::uint8_t> encodeDense(const DenseMatrix &matrix);

/** Inverse of encodeDense. */
DenseMatrix decodeDense(const std::vector<std::uint8_t> &bytes,
                        std::uint32_t rows, std::uint32_t cols);

} // namespace sgcn

#endif // SGCN_FORMATS_DENSE_HH
