#include "serialize/binary.hh"

namespace dcmbqc
{

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t size, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= data[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

void
fnv1a64Pair(const std::uint8_t *data, std::size_t size,
            std::uint64_t *first, std::uint64_t *second)
{
    std::uint64_t a = *first;
    std::uint64_t b = *second;
    for (std::size_t i = 0; i < size; ++i) {
        a = (a ^ data[i]) * 0x100000001b3ull;
        b = (b ^ data[i]) * 0x100000001b3ull;
    }
    *first = a;
    *second = b;
}

void
BinaryWriter::writeString(const std::string &value)
{
    writeU32(static_cast<std::uint32_t>(value.size()));
    writeBytes(reinterpret_cast<const std::uint8_t *>(value.data()),
               value.size());
}

void
BinaryWriter::writeI32Vector(const std::vector<std::int32_t> &values)
{
    writeU32(static_cast<std::uint32_t>(values.size()));
    std::uint8_t *out = claim(4 * values.size());
    if (!out)
        return;
    for (std::int32_t v : values) {
        detail::storeLittle(out, static_cast<std::uint32_t>(v));
        out += 4;
    }
}

void
BinaryWriter::writeF64Vector(const std::vector<double> &values)
{
    writeU32(static_cast<std::uint32_t>(values.size()));
    std::uint8_t *out = claim(8 * values.size());
    if (!out)
        return;
    for (double v : values) {
        detail::storeLittle(out, detail::doubleBits(v));
        out += 8;
    }
}

void
BinaryWriter::writeBytes(const std::uint8_t *data, std::size_t size)
{
    std::uint8_t *out = claim(size);
    if (out && size > 0)
        std::memcpy(out, data, size);
}

void
BinaryReader::fail(const std::string &message)
{
    if (status_.ok())
        status_ = Status::invalidArgument(message);
}

void
BinaryReader::failTruncated(std::size_t bytes)
{
    if (!status_.ok())
        return;
    fail("artifact truncated: need " + std::to_string(bytes) +
         " bytes at offset " + std::to_string(pos_) + ", have " +
         std::to_string(size_ - pos_));
}

std::string
BinaryReader::readString()
{
    const std::uint32_t length = readCount(1);
    if (!ok())
        return {};
    std::string value(reinterpret_cast<const char *>(data_ + pos_),
                      length);
    pos_ += length;
    return value;
}

void
BinaryReader::readI32Vector(std::vector<std::int32_t> &values)
{
    const std::uint32_t count = readCount(4);
    values.resize(count);
    if (count == 0)
        return;
    const std::uint8_t *in = data_ + pos_;
    for (std::uint32_t i = 0; i < count; ++i)
        values[i] = static_cast<std::int32_t>(
            detail::loadLittle<std::uint32_t>(in + 4 * i));
    pos_ += 4 * static_cast<std::size_t>(count);
}

std::vector<double>
BinaryReader::readF64Vector()
{
    const std::uint32_t count = readCount(8);
    std::vector<double> values(count);
    if (count == 0)
        return values;
    const std::uint8_t *in = data_ + pos_;
    for (std::uint32_t i = 0; i < count; ++i)
        values[i] = detail::bitsDouble(
            detail::loadLittle<std::uint64_t>(in + 8 * i));
    pos_ += 8 * static_cast<std::size_t>(count);
    return values;
}

std::uint32_t
BinaryReader::readCount(std::size_t element_size)
{
    const std::uint32_t count = readU32();
    if (!ok())
        return 0;
    if (static_cast<std::uint64_t>(count) * element_size >
        size_ - pos_) {
        fail("artifact corrupted: element count " +
             std::to_string(count) + " exceeds remaining " +
             std::to_string(size_ - pos_) + " bytes");
        return 0;
    }
    return count;
}

} // namespace dcmbqc
