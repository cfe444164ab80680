#include "cache/cache_key.hh"

#include "serialize/binary.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{

namespace
{

/** Gates hashed per chunk when draining a CircuitStream. */
constexpr std::size_t kHashChunkGates = 4096;

} // namespace

CacheKeyPair
computeCacheKey(const CompileRequest &request,
                const DcMbqcConfig &config, bool baseline,
                const NoiseConfig *noise)
{
    const bool stream_entry = request.entryPoint() ==
        CompileRequest::EntryPoint::CircuitStream;

    BinaryWriter writer;
    writer.writeU32(compileCacheEpoch);
    writer.writeU16(artifactFormatVersion);
    writer.writeU8(baseline ? 1 : 0);
    // Stream entries hash under the Circuit tag with the exact
    // encodeCircuit byte layout, so a stream and its materialized
    // circuit share one cache line. Safe to alias: both lower through
    // the same pattern builder, so they compile to the same bytes
    // (pinned by tests/test_streaming.cc).
    writer.writeU8(static_cast<std::uint8_t>(
        stream_entry ? CompileRequest::EntryPoint::Circuit
                     : request.entryPoint()));
    switch (request.entryPoint()) {
      case CompileRequest::EntryPoint::Circuit:
        encodeCircuit(writer, request.circuit());
        break;
      case CompileRequest::EntryPoint::CircuitStream:
        // The gates are folded in below, chunk by chunk, so a
        // million-gate stream never materializes its encoded form.
        writer.writeI32(request.stream().numQubits());
        writer.writeString(request.stream().name());
        writer.writeU32(
            static_cast<std::uint32_t>(request.stream().totalGates()));
        break;
      case CompileRequest::EntryPoint::Pattern:
        encodePattern(writer, request.pattern());
        break;
      case CompileRequest::EntryPoint::Graph:
        encodeGraph(writer, request.graph());
        encodeDigraph(writer, request.deps());
        break;
    }

    // FNV-1a over a concatenation equals FNV-1a chained through the
    // pieces with the running hash as the next seed, so the streamed
    // chunked hash below lands on the same value as hashing one flat
    // encodeCircuit buffer. The verifier is an independent second
    // hash (different offset basis): one 64-bit collision must not be
    // enough to replay a foreign schedule. Both chains run in one
    // pass over each piece.
    CacheKeyPair pair;
    pair.key = fnv1a64Basis;
    pair.verifier = 0x6c62272e07bb0142ull;
    const auto absorb = [&pair](const BinaryWriter &piece) {
        fnv1a64Pair(piece.bytes().data(), piece.bytes().size(),
                    &pair.key, &pair.verifier);
    };
    absorb(writer);

    if (stream_entry) {
        CircuitStream &stream = request.stream();
        stream.reset();
        std::vector<Gate> gates;
        gates.reserve(kHashChunkGates);
        for (;;) {
            gates.clear();
            if (stream.next(kHashChunkGates, gates) == 0)
                break;
            BinaryWriter chunk;
            for (const Gate &gate : gates) {
                chunk.writeU8(static_cast<std::uint8_t>(gate.kind));
                chunk.writeI32(gate.q0);
                chunk.writeI32(gate.q1);
                chunk.writeI32(gate.q2);
                chunk.writeF64(gate.angle);
            }
            absorb(chunk);
        }
        stream.reset();
    }

    BinaryWriter tail;
    encodeConfig(tail, config);
    if (noise) {
        // Appended (never a zero placeholder) so keys without noise
        // keep their exact pre-noise byte stream and hash.
        tail.writeU8(1);
        encodeNoiseConfig(tail, *noise);
    }
    absorb(tail);
    return pair;
}

} // namespace dcmbqc
