/**
 * @file
 * Feature storage: dense value matrices for functional reference
 * runs, and bit-exact non-zero masks (occupancy) that drive the
 * traffic and timing models at scale.
 *
 * The accelerator's behaviour depends only on which elements are
 * non-zero; FeatureMask captures that in one bit per element so
 * large layers stay cheap while every format (including BSR's 2x2
 * block emptiness test) sees exact positions.
 */

#ifndef SGCN_GCN_FEATURE_MATRIX_HH
#define SGCN_GCN_FEATURE_MATRIX_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/rng.hh"
#include "sim/types.hh"

namespace sgcn
{

/** Row-major dense float matrix. */
class DenseMatrix
{
  public:
    DenseMatrix() = default;
    DenseMatrix(std::uint32_t rows, std::uint32_t cols)
        : numRows(rows), numCols(cols),
          data(static_cast<std::size_t>(rows) * cols, 0.0f)
    {
    }

    std::uint32_t rows() const { return numRows; }
    std::uint32_t cols() const { return numCols; }

    float &
    at(std::uint32_t r, std::uint32_t c)
    {
        return data[static_cast<std::size_t>(r) * numCols + c];
    }

    float
    at(std::uint32_t r, std::uint32_t c) const
    {
        return data[static_cast<std::size_t>(r) * numCols + c];
    }

    /** Pointer to the start of row @p r. */
    const float *
    row(std::uint32_t r) const
    {
        return data.data() + static_cast<std::size_t>(r) * numCols;
    }

    float *
    row(std::uint32_t r)
    {
        return data.data() + static_cast<std::size_t>(r) * numCols;
    }

    /** Fraction of exactly-zero elements. */
    double sparsity() const;

    /** Max absolute element difference against @p other. */
    double maxAbsDiff(const DenseMatrix &other) const;

  private:
    std::uint32_t numRows = 0;
    std::uint32_t numCols = 0;
    std::vector<float> data;
};

/** One bit per element non-zero mask with fast popcount queries. */
class FeatureMask
{
  public:
    FeatureMask() = default;
    FeatureMask(std::uint32_t rows, std::uint32_t cols);

    std::uint32_t rows() const { return numRows; }
    std::uint32_t cols() const { return numCols; }

    /** Set element (r, c) non-zero. */
    void set(std::uint32_t r, std::uint32_t c);

    /** Test element (r, c). */
    bool test(std::uint32_t r, std::uint32_t c) const;

    /** Non-zero count of a whole row. */
    std::uint32_t rowNnz(std::uint32_t r) const;

    /** Non-zero count of columns [c0, c1) of row @p r. */
    std::uint32_t rangeNnz(std::uint32_t r, std::uint32_t c0,
                           std::uint32_t c1) const;

    /** Total non-zeros. */
    std::uint64_t totalNnz() const;

    /** Fraction of zero elements. */
    double sparsity() const;

    /**
     * Generate a mask where each element is non-zero with
     * probability (1 - sparsity); i.i.d. Bernoulli matches post-ReLU
     * activations and yields the small per-slice variance the
     * in-place format sizing relies on (SV-B).
     */
    static FeatureMask random(std::uint32_t rows, std::uint32_t cols,
                              double sparsity, Rng &rng);

    /**
     * The @p rows-row mask of the random() stream that produced
     * @p drawn: rows @p drawn holds are copied, and the rows past
     * them are drawn from @p rng, which must be in the state random()
     * left it in after @p drawn's last row (a shorter @p rows copies
     * a prefix and draws nothing). random() draws row-major, one draw
     * per element, so the result equals random(rows, drawn.cols(),
     * sparsity, Rng(seed)) bit for bit.
     */
    static FeatureMask resumeRandom(const FeatureMask &drawn,
                                    std::uint32_t rows, double sparsity,
                                    Rng &rng);

    /** One non-zero per row at a random column (NELL's one-hot X1). */
    static FeatureMask oneHot(std::uint32_t rows, std::uint32_t cols,
                              Rng &rng);

    /** Fully dense mask (pre-activation matrices such as X.W). */
    static FeatureMask full(std::uint32_t rows, std::uint32_t cols);

    /** Mask of the exactly-zero structure of @p matrix. */
    static FeatureMask fromDense(const DenseMatrix &matrix);

    /**
     * Gather rows of @p src into a new mask of @p total_rows rows:
     * destination row i copies src row rows[i]; rows beyond
     * rows.size() stay all-zero. Chip shards use this to slice the
     * global layer mask into (owned + halo) local masks bit-exactly.
     */
    static FeatureMask gatherRows(const FeatureMask &src,
                                  std::span<const VertexId> rows,
                                  std::uint32_t total_rows);

    /** Host-memory footprint in bytes (artifact-cache accounting). */
    std::uint64_t
    footprintBytes() const
    {
        return sizeof(*this) + words.size() * sizeof(std::uint64_t);
    }

  private:
    /** Draw rows [@p first_row, rows()) of a random() mask. */
    void drawRandomRows(std::uint32_t first_row, double sparsity,
                        Rng &rng);

    std::uint32_t numRows = 0;
    std::uint32_t numCols = 0;
    std::uint32_t wordsPerRow = 0;
    std::vector<std::uint64_t> words;
};

/**
 * Fill a dense matrix with post-ReLU-like values at the target
 * sparsity: zero with probability @p sparsity, else half-normal.
 */
DenseMatrix generateFeatures(std::uint32_t rows, std::uint32_t cols,
                             double sparsity, Rng &rng);

} // namespace sgcn

#endif // SGCN_GCN_FEATURE_MATRIX_HH
