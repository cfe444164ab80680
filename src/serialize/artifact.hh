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

/** Wrap a payload into a checksummed envelope. */
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
