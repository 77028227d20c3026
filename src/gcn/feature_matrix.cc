#include "gcn/feature_matrix.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/logging.hh"

namespace sgcn
{

double
DenseMatrix::sparsity() const
{
    if (data.empty())
        return 0.0;
    std::size_t zeros = 0;
    for (float value : data)
        zeros += (value == 0.0f) ? 1 : 0;
    return static_cast<double>(zeros) /
           static_cast<double>(data.size());
}

double
DenseMatrix::maxAbsDiff(const DenseMatrix &other) const
{
    SGCN_ASSERT(numRows == other.numRows && numCols == other.numCols);
    double result = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        result = std::max(
            result, std::abs(static_cast<double>(data[i]) -
                             static_cast<double>(other.data[i])));
    }
    return result;
}

FeatureMask::FeatureMask(std::uint32_t rows, std::uint32_t cols)
    : numRows(rows), numCols(cols),
      wordsPerRow(static_cast<std::uint32_t>(divCeil(cols, 64))),
      words(static_cast<std::size_t>(rows) * wordsPerRow, 0)
{
}

void
FeatureMask::set(std::uint32_t r, std::uint32_t c)
{
    SGCN_ASSERT(r < numRows && c < numCols);
    words[static_cast<std::size_t>(r) * wordsPerRow + c / 64] |=
        std::uint64_t{1} << (c % 64);
}

bool
FeatureMask::test(std::uint32_t r, std::uint32_t c) const
{
    SGCN_ASSERT(r < numRows && c < numCols);
    return (words[static_cast<std::size_t>(r) * wordsPerRow + c / 64] >>
            (c % 64)) &
           1;
}

std::uint32_t
FeatureMask::rowNnz(std::uint32_t r) const
{
    return rangeNnz(r, 0, numCols);
}

std::uint32_t
FeatureMask::rangeNnz(std::uint32_t r, std::uint32_t c0,
                      std::uint32_t c1) const
{
    SGCN_ASSERT(r < numRows && c0 <= c1 && c1 <= numCols);
    if (c0 == c1)
        return 0;
    const std::uint64_t *row =
        words.data() + static_cast<std::size_t>(r) * wordsPerRow;
    const std::uint32_t first_word = c0 / 64;
    const std::uint32_t last_word = (c1 - 1) / 64;
    std::uint32_t count = 0;
    for (std::uint32_t w = first_word; w <= last_word; ++w) {
        std::uint64_t word = row[w];
        if (w == first_word && (c0 % 64) != 0)
            word &= ~std::uint64_t{0} << (c0 % 64);
        if (w == last_word && (c1 % 64) != 0)
            word &= ~std::uint64_t{0} >> (64 - (c1 % 64));
        count += static_cast<std::uint32_t>(std::popcount(word));
    }
    return count;
}

std::uint64_t
FeatureMask::totalNnz() const
{
    std::uint64_t count = 0;
    for (std::uint64_t word : words)
        count += static_cast<std::uint64_t>(std::popcount(word));
    return count;
}

double
FeatureMask::sparsity() const
{
    const auto total = static_cast<double>(numRows) *
                       static_cast<double>(numCols);
    if (total == 0.0)
        return 0.0;
    return 1.0 - static_cast<double>(totalNnz()) / total;
}

FeatureMask
FeatureMask::random(std::uint32_t rows, std::uint32_t cols,
                    double sparsity, Rng &rng)
{
    FeatureMask mask(rows, cols);
    mask.drawRandomRows(0, sparsity, rng);
    return mask;
}

FeatureMask
FeatureMask::resumeRandom(const FeatureMask &drawn, std::uint32_t rows,
                          double sparsity, Rng &rng)
{
    FeatureMask mask(rows, drawn.numCols);
    const std::uint32_t kept = std::min(rows, drawn.numRows);
    std::copy_n(drawn.words.data(),
                static_cast<std::size_t>(kept) * drawn.wordsPerRow,
                mask.words.data());
    mask.drawRandomRows(kept, sparsity, rng);
    return mask;
}

void
FeatureMask::drawRandomRows(std::uint32_t first_row, double sparsity,
                            Rng &rng)
{
    SGCN_ASSERT(sparsity >= 0.0 && sparsity <= 1.0);
    const double density = 1.0 - sparsity;
    // Integer form of the per-element draw: uniform() is
    // (next() >> 11) * 2^-53 with both the scaling and the compare
    // exact, so `uniform() < density` is equivalent to
    // `(next() >> 11) < ceil(density * 2^53)` (density * 2^53 is an
    // exponent shift, also exact). Whole words build in a register
    // — no per-bit set() calls, no int-to-double conversions — with
    // the draw order (row-major, one draw per element) unchanged.
    const auto threshold = static_cast<std::uint64_t>(
        std::ceil(density * 0x1.0p53));
    for (std::uint32_t r = first_row; r < numRows; ++r) {
        std::uint64_t *row_words =
            words.data() + static_cast<std::size_t>(r) * wordsPerRow;
        for (std::uint32_t w = 0; w < wordsPerRow; ++w) {
            const std::uint32_t begin = w * 64;
            const std::uint32_t bits = std::min(numCols - begin, 64u);
            std::uint64_t word = 0;
            for (std::uint32_t b = 0; b < bits; ++b) {
                word |= static_cast<std::uint64_t>(
                            (rng.next() >> 11) < threshold)
                        << b;
            }
            row_words[w] = word;
        }
    }
}

FeatureMask
FeatureMask::oneHot(std::uint32_t rows, std::uint32_t cols, Rng &rng)
{
    FeatureMask mask(rows, cols);
    for (std::uint32_t r = 0; r < rows; ++r)
        mask.set(r, static_cast<std::uint32_t>(rng.uniformInt(cols)));
    return mask;
}

FeatureMask
FeatureMask::full(std::uint32_t rows, std::uint32_t cols)
{
    FeatureMask mask(rows, cols);
    for (std::uint32_t r = 0; r < rows; ++r) {
        std::uint64_t *row_words =
            mask.words.data() +
            static_cast<std::size_t>(r) * mask.wordsPerRow;
        for (std::uint32_t w = 0; w < mask.wordsPerRow; ++w) {
            const std::uint32_t begin = w * 64;
            const std::uint32_t bits = std::min(cols - begin, 64u);
            row_words[w] = bits == 64
                               ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << bits) - 1;
        }
    }
    return mask;
}

FeatureMask
FeatureMask::fromDense(const DenseMatrix &matrix)
{
    FeatureMask mask(matrix.rows(), matrix.cols());
    for (std::uint32_t r = 0; r < matrix.rows(); ++r) {
        for (std::uint32_t c = 0; c < matrix.cols(); ++c) {
            if (matrix.at(r, c) != 0.0f)
                mask.set(r, c);
        }
    }
    return mask;
}

FeatureMask
FeatureMask::gatherRows(const FeatureMask &src,
                        std::span<const VertexId> rows,
                        std::uint32_t total_rows)
{
    SGCN_ASSERT(rows.size() <= total_rows,
                "gather cannot exceed the destination");
    FeatureMask mask(total_rows, src.numCols);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SGCN_ASSERT(rows[i] < src.numRows, "gather row out of range");
        std::copy_n(src.words.data() +
                        static_cast<std::size_t>(rows[i]) *
                            src.wordsPerRow,
                    src.wordsPerRow,
                    mask.words.data() + i * mask.wordsPerRow);
    }
    return mask;
}

DenseMatrix
generateFeatures(std::uint32_t rows, std::uint32_t cols,
                 double sparsity, Rng &rng)
{
    DenseMatrix matrix(rows, cols);
    const double density = 1.0 - sparsity;
    for (std::uint32_t r = 0; r < rows; ++r) {
        for (std::uint32_t c = 0; c < cols; ++c) {
            if (rng.uniform() < density) {
                // Half-normal: post-ReLU activations are
                // non-negative.
                matrix.at(r, c) = static_cast<float>(
                    std::abs(rng.normal(0.0, 1.0)));
            }
        }
    }
    return matrix;
}

} // namespace sgcn
