/**
 * @file
 * The on-disk artifact envelope shared by every serialized IR type
 * and by the compile cache's disk tier:
 *
 *   offset  size  field
 *        0     4  magic "DCMB"
 *        4     2  format version (little-endian u16, currently 1)
 *        6     2  artifact kind tag (u16)
 *        8     8  payload size in bytes (u64)
 *       16     n  payload (kind-specific codec, serialize/codecs.hh)
 *     16+n     8  FNV-1a 64 checksum of the payload
 *
 * An artifact is written into one buffer of exactly this size
 * (`beginArtifact`, then `sealArtifact`), which the checksum fills.
 * `openArtifact` rejects bad magic, unsupported versions, truncated
 * buffers and checksum mismatches through the Status channel, so a
 * corrupted or foreign file never reaches a payload codec.
 */

#ifndef DCMBQC_SERIALIZE_ARTIFACT_HH
#define DCMBQC_SERIALIZE_ARTIFACT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/status.hh"
#include "serialize/binary.hh"

namespace dcmbqc
{

/** Current artifact format version. */
inline constexpr std::uint16_t artifactFormatVersion = 1;

/** Payload type stored in an artifact envelope. */
enum class ArtifactKind : std::uint16_t
{
    Circuit = 1,
    Graph = 2,
    Digraph = 3,
    Pattern = 4,
    Config = 5,
    LocalSchedule = 6,
    Schedule = 7,
    CompileReport = 8,
    ExecResult = 9,
    NoiseConfig = 10,
};

/** Stable display name of an artifact kind ("circuit", ...). */
const char *artifactKindName(ArtifactKind kind);

/** A validated, borrowed view into an artifact buffer. */
struct ArtifactView
{
    ArtifactKind kind = ArtifactKind::Circuit;
    std::uint16_t version = artifactFormatVersion;
    const std::uint8_t *payload = nullptr;
    std::size_t payloadSize = 0;
    std::uint64_t checksum = 0;
};

/**
 * A writer over one buffer sized exactly for the envelope of a
 * `payload_size`-byte payload, with the header written and the
 * writer at the payload. Write exactly `payload_size` bytes into it,
 * then seal it with `sealArtifact(std::move(writer))`.
 */
BinaryWriter beginArtifact(ArtifactKind kind, std::size_t payload_size);

/**
 * Checksum the payload of a `beginArtifact` writer in place and store
 * the checksum in the room left for it: the artifact, whose capacity
 * is its size. Panics when the payload is not the size it was begun
 * with (an encoder that writes other bytes than it measured).
 */
std::vector<std::uint8_t> sealArtifact(BinaryWriter &&writer);

/** Wrap a payload into a checksummed envelope (one copy of it). */
std::vector<std::uint8_t>
sealArtifact(ArtifactKind kind,
             const std::vector<std::uint8_t> &payload);

/**
 * Validate an envelope (magic, version, sizes, checksum) and return
 * a view into `data`, which must outlive the view.
 *
 * With `enclosing`, the artifact sits inside a larger checksummed
 * message: `*enclosing` holds that message's running FNV-1a hash up
 * to `data` and, whatever the outcome, absorbs all `size` bytes, so
 * the caller can finish and compare its own checksum. The payload is
 * then hashed once for both checksums (`fnv1a64Pair`).
 */
Expected<ArtifactView> openArtifact(const std::uint8_t *data,
                                    std::size_t size,
                                    std::uint64_t *enclosing = nullptr);

Expected<ArtifactView>
openArtifact(const std::vector<std::uint8_t> &bytes);

/** Write an artifact buffer to a file (atomic-enough: truncate). */
Status saveArtifactFile(const std::string &path,
                        const std::vector<std::uint8_t> &bytes);

/** Read a whole artifact file; IO errors come back as Status. */
Expected<std::vector<std::uint8_t>>
loadArtifactFile(const std::string &path);

} // namespace dcmbqc

#endif // DCMBQC_SERIALIZE_ARTIFACT_HH
