/**
 * @file
 * Byte-width-packed index storage for adjacency arrays.
 *
 * Column indices of a CSR graph never exceed numVertices - 1, so a
 * graph-wide byte width (1, 2, 3 or 4 bytes per index, datakit-style
 * varint-packed matrix encodings) cuts adjacency memory up to 4x
 * versus uniform uint32 storage. Values are stored little-endian and
 * decoded on access through PackedIndexRange / PackedIndexIterator,
 * which present the same size()/operator[]/range-for surface the old
 * std::span<const VertexId> API had.
 */

#ifndef SGCN_GRAPH_PACKED_INDEX_HH
#define SGCN_GRAPH_PACKED_INDEX_HH

#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "sim/types.hh"

namespace sgcn
{

/** Decode one little-endian packed index of @p width bytes. */
inline VertexId
packedIndexLoad(const std::uint8_t *p, unsigned width)
{
    switch (width) {
      case 1:
        return p[0];
      case 2: {
        std::uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case 3:
        return static_cast<VertexId>(p[0]) |
               (static_cast<VertexId>(p[1]) << 8) |
               (static_cast<VertexId>(p[2]) << 16);
      default: {
        std::uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
    }
}

/** Random-access decode-on-access iterator over packed indices. */
class PackedIndexIterator
{
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = VertexId;
    using difference_type = std::ptrdiff_t;
    using pointer = const VertexId *;
    using reference = VertexId;

    PackedIndexIterator() = default;
    PackedIndexIterator(const std::uint8_t *p, unsigned width)
        : p(p), w(width)
    {
    }

    VertexId operator*() const { return packedIndexLoad(p, w); }
    VertexId
    operator[](difference_type i) const
    {
        return packedIndexLoad(p + i * static_cast<difference_type>(w),
                               w);
    }

    PackedIndexIterator &
    operator++()
    {
        p += w;
        return *this;
    }
    PackedIndexIterator
    operator++(int)
    {
        PackedIndexIterator tmp = *this;
        p += w;
        return tmp;
    }
    PackedIndexIterator &
    operator--()
    {
        p -= w;
        return *this;
    }
    PackedIndexIterator
    operator--(int)
    {
        PackedIndexIterator tmp = *this;
        p -= w;
        return tmp;
    }
    PackedIndexIterator &
    operator+=(difference_type i)
    {
        p += i * static_cast<difference_type>(w);
        return *this;
    }
    PackedIndexIterator &
    operator-=(difference_type i)
    {
        p -= i * static_cast<difference_type>(w);
        return *this;
    }
    friend PackedIndexIterator
    operator+(PackedIndexIterator it, difference_type i)
    {
        it += i;
        return it;
    }
    friend PackedIndexIterator
    operator+(difference_type i, PackedIndexIterator it)
    {
        it += i;
        return it;
    }
    friend PackedIndexIterator
    operator-(PackedIndexIterator it, difference_type i)
    {
        it -= i;
        return it;
    }
    friend difference_type
    operator-(const PackedIndexIterator &a, const PackedIndexIterator &b)
    {
        return (a.p - b.p) / static_cast<difference_type>(a.w);
    }
    friend bool
    operator==(const PackedIndexIterator &a, const PackedIndexIterator &b)
    {
        return a.p == b.p;
    }
    friend auto
    operator<=>(const PackedIndexIterator &a, const PackedIndexIterator &b)
    {
        return a.p <=> b.p;
    }

  private:
    const std::uint8_t *p = nullptr;
    unsigned w = 4;
};

/**
 * A contiguous run of packed indices: the span-shaped view that
 * neighbors(v) / tileNeighbors(v, c) hand out. Copyable value type;
 * stays valid for the lifetime of the owning PackedIndexArray, so
 * engines may cache one across event callbacks exactly as they
 * cached std::span before.
 */
class PackedIndexRange
{
  public:
    PackedIndexRange() = default;
    PackedIndexRange(const std::uint8_t *base, unsigned width,
                     std::size_t count)
        : base(base), w(width), n(count)
    {
    }

    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }

    VertexId
    operator[](std::size_t i) const
    {
        return packedIndexLoad(base + i * w, w);
    }
    VertexId front() const { return (*this)[0]; }
    VertexId back() const { return (*this)[n - 1]; }

    PackedIndexIterator begin() const { return {base, w}; }
    PackedIndexIterator
    end() const
    {
        return {base + n * w, w};
    }

  private:
    const std::uint8_t *base = nullptr;
    unsigned w = 4;
    std::size_t n = 0;
};

/** Fixed-width packed index array; width chosen per graph. */
class PackedIndexArray
{
  public:
    /** Narrowest byte width that can hold indices < @p num_values. */
    static unsigned
    widthFor(std::uint64_t num_values)
    {
        if (num_values <= (1ull << 8))
            return 1;
        if (num_values <= (1ull << 16))
            return 2;
        if (num_values <= (1ull << 24))
            return 3;
        return 4;
    }

    PackedIndexArray() = default;
    PackedIndexArray(std::size_t count, unsigned width)
        : bytes_(count * width, 0), count_(count), width_(width)
    {
    }

    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    unsigned width() const { return width_; }

    VertexId
    operator[](std::size_t i) const
    {
        return packedIndexLoad(bytes_.data() + i * width_, width_);
    }

    void
    set(std::size_t i, VertexId value)
    {
        std::uint8_t *p = bytes_.data() + i * width_;
        switch (width_) {
          case 1:
            p[0] = static_cast<std::uint8_t>(value);
            break;
          case 2: {
            const auto v = static_cast<std::uint16_t>(value);
            std::memcpy(p, &v, 2);
            break;
          }
          case 3:
            p[0] = static_cast<std::uint8_t>(value);
            p[1] = static_cast<std::uint8_t>(value >> 8);
            p[2] = static_cast<std::uint8_t>(value >> 16);
            break;
          default:
            std::memcpy(p, &value, 4);
            break;
        }
    }

    /** View of [first, first + count). */
    PackedIndexRange
    range(std::size_t first, std::size_t count) const
    {
        return {bytes_.data() + first * width_, width_, count};
    }

    /** View of the whole array. */
    PackedIndexRange
    all() const
    {
        return {bytes_.data(), width_, count_};
    }

    PackedIndexIterator begin() const { return all().begin(); }
    PackedIndexIterator end() const { return all().end(); }

    /** Storage bytes (footprint accounting). */
    std::uint64_t byteSize() const { return bytes_.size(); }

    /** Value-wise equality, width-agnostic. */
    friend bool
    operator==(const PackedIndexArray &a, const PackedIndexArray &b)
    {
        if (a.count_ != b.count_)
            return false;
        if (a.width_ == b.width_)
            return a.bytes_ == b.bytes_;
        for (std::size_t i = 0; i < a.count_; ++i) {
            if (a[i] != b[i])
                return false;
        }
        return true;
    }

  private:
    std::vector<std::uint8_t> bytes_;
    std::size_t count_ = 0;
    unsigned width_ = 4;
};

} // namespace sgcn

#endif // SGCN_GRAPH_PACKED_INDEX_HH
