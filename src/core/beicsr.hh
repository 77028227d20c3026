/**
 * @file
 * BEICSR: Bitmap-index Embedded In-place CSR (SV-A / SV-B), the
 * paper's feature compression format.
 *
 * Design choices reproduced here:
 *  - Embedded bitmap index: each row (or unit slice) starts with a
 *    bitmap of its non-zeros, followed immediately by the packed
 *    non-zero values, so index and data arrive in the same access
 *    stream (6.25% overhead at 50% sparsity instead of CSR's 100%).
 *  - In-place compression: every row/slice is stored at the fixed
 *    offset it would occupy uncompressed, so reads are
 *    cacheline-aligned, writes parallelize, and no indirection array
 *    exists. Capacity is not saved; off-chip traffic is.
 *  - Sliced variant (SV-B): the bitmap is partitioned per unit slice
 *    of C features (default C = 96) and embedded at each slice head,
 *    with slices aligned to burst boundaries, enabling feature-matrix
 *    slicing without unaligned access overhead.
 *
 * The split-bitmap variant stores bitmaps in a separate array; it
 * exists to ablate the "embedded" design choice
 * (bench/ablation_substrate.cc).
 */

#ifndef SGCN_CORE_BEICSR_HH
#define SGCN_CORE_BEICSR_HH

#include <vector>

#include "formats/format.hh"

namespace sgcn
{

/** Bitmap bytes needed for @p features elements (4B aligned). */
constexpr std::uint32_t
beicsrBitmapBytes(std::uint32_t features)
{
    return static_cast<std::uint32_t>(
        alignUp(divCeil(features, 8), 4));
}

/** Sliced BEICSR layout (the SGCN default, Fig. 6c). */
class BeicsrLayout : public FeatureLayout
{
  public:
    BeicsrLayout(std::uint32_t feature_width, std::uint32_t slice_width);

    FormatKind kind() const override { return FormatKind::Beicsr; }
    bool supportsSlicing() const override { return true; }

    void prepare(const FeatureMask &mask, Addr base) override;
    AccessPlan planSliceRead(VertexId v, unsigned s) const override;
    AccessPlan planRowRead(VertexId v) const override;
    AccessPlan planRowWrite(VertexId v) const override;
    std::uint32_t sliceValues(VertexId v, unsigned s) const override;
    std::uint64_t storageBytes() const override;
    double staticSliceBytesEstimate() const override;

    /** Reserved bytes for unit slice @p s (dense worst case). */
    std::uint64_t sliceStrideBytes(unsigned s) const;

    /** Reserved bytes per row. */
    std::uint64_t rowStrideBytes() const { return rowStride; }

    /** Compressed bytes actually occupied by (v, s). */
    std::uint64_t sliceOccupiedBytes(VertexId v, unsigned s) const;

    std::uint64_t
    footprintBytes() const override
    {
        return sizeof(*this) +
               sliceOffset.size() * sizeof(std::uint64_t);
    }

  private:
    Addr sliceAddr(VertexId v, unsigned s) const;

    std::vector<std::uint64_t> sliceOffset; //!< per-slice offsets
    std::uint64_t rowStride = 0;
};

/** Non-sliced BEICSR (Fig. 6b): one bitmap per whole row. */
class BeicsrNonSlicedLayout : public FeatureLayout
{
  public:
    explicit BeicsrNonSlicedLayout(std::uint32_t feature_width);

    FormatKind kind() const override
    {
        return FormatKind::BeicsrNonSliced;
    }

    void prepare(const FeatureMask &mask, Addr base) override;
    AccessPlan planSliceRead(VertexId v, unsigned s) const override;
    AccessPlan planRowRead(VertexId v) const override;
    AccessPlan planRowWrite(VertexId v) const override;
    std::uint32_t sliceValues(VertexId v, unsigned s) const override;
    std::uint64_t storageBytes() const override;
    double staticSliceBytesEstimate() const override;

    std::uint64_t rowStrideBytes() const { return rowStride; }

  private:
    std::uint64_t rowStride = 0;
    std::uint32_t bitmapBytes = 0;
};

/**
 * Ablation variant: bitmap indices in a separate packed array, values
 * in-place. Shows why embedding the bitmap with the data matters
 * (SV-A "Embedded Bitmap Index" discussion).
 */
class BeicsrSplitBitmapLayout : public FeatureLayout
{
  public:
    BeicsrSplitBitmapLayout(std::uint32_t feature_width,
                            std::uint32_t slice_width);

    FormatKind kind() const override
    {
        return FormatKind::BeicsrSplitBitmap;
    }
    bool supportsSlicing() const override { return true; }

    void prepare(const FeatureMask &mask, Addr base) override;
    AccessPlan planSliceRead(VertexId v, unsigned s) const override;
    AccessPlan planRowRead(VertexId v) const override;
    AccessPlan planRowWrite(VertexId v) const override;
    std::uint32_t sliceValues(VertexId v, unsigned s) const override;
    std::uint64_t storageBytes() const override;
    double staticSliceBytesEstimate() const override;

    std::uint64_t
    footprintBytes() const override
    {
        return sizeof(*this) +
               sliceOffset.size() * sizeof(std::uint64_t);
    }

  private:
    Addr valueBase = 0;
    std::vector<std::uint64_t> sliceOffset;
    std::uint64_t valueRowStride = 0;
    std::uint32_t sliceBitmapBytes = 0;
};

/**
 * Byte-exact BEICSR encoding of one row (sliced): per unit slice,
 * bitmap followed by packed non-zero values, padded to the reserved
 * in-place stride.
 */
std::vector<std::uint8_t> encodeBeicsrRow(const float *row,
                                          std::uint32_t width,
                                          std::uint32_t slice_width);

/** Inverse of encodeBeicsrRow. */
std::vector<float> decodeBeicsrRow(const std::vector<std::uint8_t> &bytes,
                                   std::uint32_t width,
                                   std::uint32_t slice_width);

/**
 * Construct any FeatureLayout including the BEICSR variants
 * (extends formats' makeBaselineLayout).
 */
std::unique_ptr<FeatureLayout> makeLayout(FormatKind kind,
                                          std::uint32_t feature_width,
                                          std::uint32_t slice_width);

} // namespace sgcn

#endif // SGCN_CORE_BEICSR_HH
