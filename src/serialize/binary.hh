/**
 * @file
 * Endianness-stable binary encoding primitives of the artifact
 * format. `BinaryWriter` appends explicitly little-endian fixed-width
 * fields to a byte buffer; `BinaryReader` is the bounds-checked
 * mirror that never reads past the end: the first violation latches
 * an error Status and turns every subsequent read into a zero-value
 * no-op, so decoders can run to completion and report the failure
 * once through the Expected channel instead of asserting.
 *
 * The fixed-width fields are inline: each costs one bounds (or
 * room) check, and the vector fields check once per vector and then
 * convert the whole run.
 */

#ifndef DCMBQC_SERIALIZE_BINARY_HH
#define DCMBQC_SERIALIZE_BINARY_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "api/status.hh"

namespace dcmbqc
{

/** FNV-1a 64 offset basis: the seed of a hash over no bytes yet. */
inline constexpr std::uint64_t fnv1a64Basis = 0xcbf29ce484222325ull;

/** 64-bit FNV-1a hash (the artifact checksum / cache-key hash). */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t size,
                      std::uint64_t seed = fnv1a64Basis);

/**
 * Two FNV-1a 64 chains over the same bytes in one pass. `*first` and
 * `*second` hold each chain's running hash (its seed on entry) and
 * end as `fnv1a64(data, size, seed)` of their seeds. The two multiply
 * chains do not depend on each other, so the pair costs about one
 * pass: an artifact inside a checksummed message is hashed once for
 * both checksums, and a cache key once with its verifier.
 */
void fnv1a64Pair(const std::uint8_t *data, std::size_t size,
                 std::uint64_t *first, std::uint64_t *second);

namespace detail
{

/** Store `value` little-endian at `out`, whatever the host order. */
template <typename T>
inline void
storeLittle(std::uint8_t *out, T value)
{
    for (std::size_t i = 0; i < sizeof(T); ++i)
        out[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/** Load a little-endian `T` from `in`, whatever the host order. */
template <typename T>
inline T
loadLittle(const std::uint8_t *in)
{
    T value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
        value = static_cast<T>(value | static_cast<T>(in[i]) << (8 * i));
    return value;
}

inline std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value), "double is 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

inline double
bitsDouble(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

} // namespace detail

/**
 * Appends little-endian fields to a byte buffer. Every field takes
 * the same path in each of a writer's three modes, so an encoder
 * runs unchanged against any of them:
 *  - a default writer grows its buffer as fields arrive;
 *  - `measuring()` stores and allocates nothing: `size()` only adds
 *    up the bytes the fields would take;
 *  - `sized(n)` allocates one buffer of exactly `n` bytes and stores
 *    each field straight into it (growing only past its end);
 *    `beginArtifact` sizes one from a measuring pass, so an artifact
 *    is written into a buffer that never reallocates.
 */
class BinaryWriter
{
  public:
    static BinaryWriter
    measuring()
    {
        BinaryWriter writer;
        writer.measuring_ = true;
        return writer;
    }

    static BinaryWriter
    sized(std::size_t bytes)
    {
        BinaryWriter writer;
        writer.bytes_.resize(bytes);
        return writer;
    }

    /**
     * The buffer: `size()` bytes written, then whatever room of a
     * sized buffer is not written yet. Empty when measuring.
     */
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

    /** Bytes written, or when measuring, counted so far. */
    std::size_t size() const { return size_; }

    void writeU8(std::uint8_t value) { put(value); }
    void writeU16(std::uint16_t value) { put(value); }
    void writeU32(std::uint32_t value) { put(value); }
    void writeU64(std::uint64_t value) { put(value); }
    void writeI32(std::int32_t value)
    {
        put(static_cast<std::uint32_t>(value));
    }
    void writeI64(std::int64_t value)
    {
        put(static_cast<std::uint64_t>(value));
    }

    /** IEEE-754 bit pattern, little-endian (stable across hosts). */
    void writeF64(double value) { put(detail::doubleBits(value)); }

    /** u32 byte length + raw bytes. */
    void writeString(const std::string &value);

    /** u32 element count + little-endian elements. */
    void writeI32Vector(const std::vector<std::int32_t> &values);
    void writeF64Vector(const std::vector<double> &values);

    /** Raw bytes, no length prefix (for nested payloads). */
    void writeBytes(const std::uint8_t *data, std::size_t size);

  private:
    template <typename T>
    void
    put(T value)
    {
        if (std::uint8_t *out = claim(sizeof(T)))
            detail::storeLittle(out, value);
    }

    /**
     * Count the next `size` bytes and return where to store them:
     * inside the buffer when it has room, else after growing it;
     * null when measuring (or for no bytes at all in an empty one).
     */
    std::uint8_t *
    claim(std::size_t size)
    {
        const std::size_t at = size_;
        size_ += size;
        if (size_ <= bytes_.size())
            return bytes_.data() + at;
        if (measuring_)
            return nullptr;
        bytes_.resize(size_);
        return bytes_.data() + at;
    }

    std::vector<std::uint8_t> bytes_;
    std::size_t size_ = 0;
    bool measuring_ = false;
};

/**
 * Bounds-checked little-endian reader over a borrowed byte range.
 * After the first out-of-bounds read, `ok()` is false and all
 * further reads return zero values.
 */
class BinaryReader
{
  public:
    BinaryReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit BinaryReader(const std::vector<std::uint8_t> &bytes)
        : BinaryReader(bytes.data(), bytes.size())
    {
    }

    bool ok() const { return status_.ok(); }
    const Status &status() const { return status_; }
    std::size_t remaining() const { return size_ - pos_; }
    bool atEnd() const { return pos_ == size_; }

    /** Latch a decoder-level error (corruption found by a codec). */
    void fail(const std::string &message);

    std::uint8_t readU8() { return take<std::uint8_t>(); }
    std::uint16_t readU16() { return take<std::uint16_t>(); }
    std::uint32_t readU32() { return take<std::uint32_t>(); }
    std::uint64_t readU64() { return take<std::uint64_t>(); }
    std::int32_t
    readI32()
    {
        return static_cast<std::int32_t>(take<std::uint32_t>());
    }
    std::int64_t
    readI64()
    {
        return static_cast<std::int64_t>(take<std::uint64_t>());
    }
    double readF64() { return detail::bitsDouble(readU64()); }
    std::string readString();

    std::vector<std::int32_t>
    readI32Vector()
    {
        std::vector<std::int32_t> values;
        readI32Vector(values);
        return values;
    }

    /**
     * Read a u32-counted i32 vector into `values`, replacing its
     * contents but keeping its capacity, so a decoder can reuse one
     * buffer across many lists. Leaves it empty on error.
     */
    void readI32Vector(std::vector<std::int32_t> &values);

    std::vector<double> readF64Vector();

    /**
     * Read a u32 element count and verify the remaining bytes can
     * hold that many elements of `element_size` bytes; returns 0 and
     * latches an error otherwise (guards against allocation bombs
     * from corrupted length fields).
     */
    std::uint32_t readCount(std::size_t element_size);

  private:
    bool
    require(std::size_t bytes)
    {
        if (status_.ok() && size_ - pos_ >= bytes)
            return true;
        failTruncated(bytes);
        return false;
    }

    /** Latch the truncation error of a `require` that failed. */
    void failTruncated(std::size_t bytes);

    template <typename T>
    T
    take()
    {
        if (!require(sizeof(T)))
            return 0;
        const T value = detail::loadLittle<T>(data_ + pos_);
        pos_ += sizeof(T);
        return value;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    Status status_;
};

} // namespace dcmbqc

#endif // DCMBQC_SERIALIZE_BINARY_HH
