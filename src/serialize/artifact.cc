#include "serialize/artifact.hh"

#include <sys/stat.h>

#include <cstdio>

#include "common/logging.hh"

namespace dcmbqc
{

namespace
{

constexpr std::uint8_t kMagic[4] = {'D', 'C', 'M', 'B'};
constexpr std::size_t kHeaderSize = 16;
constexpr std::size_t kChecksumSize = 8;

bool
knownKind(std::uint16_t kind)
{
    return kind >= static_cast<std::uint16_t>(ArtifactKind::Circuit) &&
        kind <= static_cast<std::uint16_t>(ArtifactKind::NoiseConfig);
}

/** Everything `openArtifact` checks except the checksum. */
Expected<ArtifactView>
readEnvelope(const std::uint8_t *data, std::size_t size)
{
    if (size < kHeaderSize + kChecksumSize)
        return Status::invalidArgument(
            "artifact truncated: " + std::to_string(size) +
            " bytes, need at least " +
            std::to_string(kHeaderSize + kChecksumSize));
    for (std::size_t i = 0; i < sizeof(kMagic); ++i) {
        if (data[i] != kMagic[i])
            return Status::invalidArgument(
                "not a dcmbqc artifact (bad magic)");
    }

    BinaryReader reader(data + sizeof(kMagic), size - sizeof(kMagic));
    const std::uint16_t version = reader.readU16();
    const std::uint16_t raw_kind = reader.readU16();
    const std::uint64_t payload_size = reader.readU64();

    if (version == 0 || version > artifactFormatVersion)
        return Status::invalidArgument(
            "unsupported artifact version " + std::to_string(version) +
            " (this build reads <= " +
            std::to_string(artifactFormatVersion) + ")");
    if (!knownKind(raw_kind))
        return Status::invalidArgument("unknown artifact kind tag " +
                                       std::to_string(raw_kind));
    if (payload_size != size - kHeaderSize - kChecksumSize)
        return Status::invalidArgument(
            "artifact size mismatch: header claims " +
            std::to_string(payload_size) + " payload bytes, file has " +
            std::to_string(size - kHeaderSize - kChecksumSize));

    ArtifactView view;
    view.kind = static_cast<ArtifactKind>(raw_kind);
    view.version = version;
    view.payload = data + kHeaderSize;
    view.payloadSize = static_cast<std::size_t>(payload_size);

    BinaryReader trailer(data + kHeaderSize + view.payloadSize,
                         kChecksumSize);
    view.checksum = trailer.readU64();
    return view;
}

} // namespace

const char *
artifactKindName(ArtifactKind kind)
{
    switch (kind) {
      case ArtifactKind::Circuit: return "circuit";
      case ArtifactKind::Graph: return "graph";
      case ArtifactKind::Digraph: return "digraph";
      case ArtifactKind::Pattern: return "pattern";
      case ArtifactKind::Config: return "config";
      case ArtifactKind::LocalSchedule: return "local-schedule";
      case ArtifactKind::Schedule: return "schedule";
      case ArtifactKind::CompileReport: return "compile-report";
      case ArtifactKind::ExecResult: return "exec-result";
      case ArtifactKind::NoiseConfig: return "noise-config";
    }
    return "?";
}

BinaryWriter
beginArtifact(ArtifactKind kind, std::size_t payload_size)
{
    BinaryWriter writer =
        BinaryWriter::sized(kHeaderSize + payload_size + kChecksumSize);
    writer.writeBytes(kMagic, sizeof(kMagic));
    writer.writeU16(artifactFormatVersion);
    writer.writeU16(static_cast<std::uint16_t>(kind));
    writer.writeU64(payload_size);
    return writer;
}

std::vector<std::uint8_t>
sealArtifact(BinaryWriter &&writer)
{
    // Exactly the checksum's room is left only when the payload is
    // the size it was begun with (a longer one grows the buffer).
    DCMBQC_ASSERT(writer.bytes().size() == writer.size() + kChecksumSize,
                  "wrote ", writer.size(), " bytes into a ",
                  writer.bytes().size(), "-byte artifact buffer");
    writer.writeU64(fnv1a64(writer.bytes().data() + kHeaderSize,
                            writer.size() - kHeaderSize));
    return writer.take();
}

std::vector<std::uint8_t>
sealArtifact(ArtifactKind kind, const std::vector<std::uint8_t> &payload)
{
    BinaryWriter writer = beginArtifact(kind, payload.size());
    writer.writeBytes(payload.data(), payload.size());
    return sealArtifact(std::move(writer));
}

Expected<ArtifactView>
openArtifact(const std::uint8_t *data, std::size_t size,
             std::uint64_t *enclosing)
{
    auto view = readEnvelope(data, size);
    if (!view.ok()) {
        if (enclosing)
            *enclosing = fnv1a64(data, size, *enclosing);
        return view;
    }
    std::uint64_t actual = fnv1a64Basis;
    if (enclosing) {
        *enclosing = fnv1a64(data, kHeaderSize, *enclosing);
        fnv1a64Pair(view->payload, view->payloadSize, enclosing,
                    &actual);
        *enclosing = fnv1a64(view->payload + view->payloadSize,
                             kChecksumSize, *enclosing);
    } else {
        actual = fnv1a64(view->payload, view->payloadSize);
    }
    if (actual != view->checksum)
        return Status::invalidArgument(
            "artifact checksum mismatch: payload corrupted");
    return view;
}

Expected<ArtifactView>
openArtifact(const std::vector<std::uint8_t> &bytes)
{
    return openArtifact(bytes.data(), bytes.size());
}

Status
saveArtifactFile(const std::string &path,
                 const std::vector<std::uint8_t> &bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return Status::invalidArgument("cannot open " + path +
                                       " for writing");
    const std::size_t written =
        bytes.empty() ? 0
                      : std::fwrite(bytes.data(), 1, bytes.size(), file);
    const bool closed = std::fclose(file) == 0;
    if (written != bytes.size() || !closed)
        return Status::internal("short write to " + path);
    return Status::okStatus();
}

Expected<std::vector<std::uint8_t>>
loadArtifactFile(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        return Status::invalidArgument("cannot open " + path);
    // The buffer is sized from the file, so one call reads it whole.
    struct stat info;
    if (::fstat(::fileno(file), &info) != 0 || !S_ISREG(info.st_mode)) {
        std::fclose(file);
        return Status::invalidArgument(path + " is not a regular file");
    }
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(info.st_size));
    const std::size_t got =
        bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), file);
    const bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed)
        return Status::internal("read error on " + path);
    if (got != bytes.size())
        return Status::internal("short read on " + path + ": " +
                                std::to_string(got) + " of " +
                                std::to_string(bytes.size()) + " bytes");
    return bytes;
}

} // namespace dcmbqc
