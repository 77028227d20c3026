#include "formats/dense.hh"

#include <cstring>

#include "sim/logging.hh"

namespace sgcn
{

void
DenseLayout::prepare(const FeatureMask &mask, Addr base)
{
    FeatureLayout::prepare(mask, base);
}

AccessPlan
DenseLayout::planSliceRead(VertexId v, unsigned s) const
{
    AccessPlan plan;
    const Addr row_base =
        baseAddr + static_cast<Addr>(v) * denseRowStride(width);
    const std::uint32_t begin = sliceBegin(s);
    const std::uint32_t end = sliceEnd(s);
    plan.addBytes(row_base + static_cast<Addr>(begin) * kFeatureBytes,
                  static_cast<std::uint64_t>(end - begin) *
                      kFeatureBytes);
    return plan;
}

AccessPlan
DenseLayout::planRowRead(VertexId v) const
{
    AccessPlan plan;
    plan.addBytes(baseAddr + static_cast<Addr>(v) * denseRowStride(width),
                  static_cast<std::uint64_t>(width) * kFeatureBytes);
    return plan;
}

AccessPlan
DenseLayout::planRowWrite(VertexId v) const
{
    return planRowRead(v);
}

std::uint32_t
DenseLayout::sliceValues(VertexId v, unsigned s) const
{
    (void)v;
    return sliceEnd(s) - sliceBegin(s);
}

std::uint64_t
DenseLayout::storageBytes() const
{
    SGCN_ASSERT(boundMask != nullptr, "layout not prepared");
    return static_cast<std::uint64_t>(boundMask->rows()) *
           denseRowStride(width);
}

double
DenseLayout::staticSliceBytesEstimate() const
{
    return static_cast<double>(unitSlice) * kFeatureBytes;
}

std::vector<std::uint8_t>
encodeDense(const DenseMatrix &matrix)
{
    const std::uint64_t stride = denseRowStride(matrix.cols());
    std::vector<std::uint8_t> bytes(matrix.rows() * stride, 0);
    for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
        std::memcpy(bytes.data() + r * stride, matrix.row(r),
                    static_cast<std::size_t>(matrix.cols()) *
                        kFeatureBytes);
    }
    return bytes;
}

DenseMatrix
decodeDense(const std::vector<std::uint8_t> &bytes, std::uint32_t rows,
            std::uint32_t cols)
{
    const std::uint64_t stride = denseRowStride(cols);
    SGCN_ASSERT(bytes.size() >= rows * stride, "dense buffer too small");
    DenseMatrix matrix(rows, cols);
    for (std::uint32_t r = 0; r < rows; ++r) {
        std::memcpy(matrix.row(r), bytes.data() + r * stride,
                    static_cast<std::size_t>(cols) * kFeatureBytes);
    }
    return matrix;
}

} // namespace sgcn
