/**
 * @file
 * Versioned binary codecs for the core IR types. Every type has a
 * payload-level pair
 *
 *   encodeX(BinaryWriter &, const X &)      append the payload
 *   decodeX(BinaryReader &) -> X           bounds/consistency checked
 *
 * plus an artifact-level pair that wraps the payload into the
 * checksummed envelope of serialize/artifact.hh:
 *
 *   encodeXArtifact(const X &) -> bytes
 *   decodeXArtifact(bytes) -> Expected<X>
 *
 * `encodeXArtifact` runs `encodeX` twice, first against a measuring
 * writer and then into one buffer of the artifact's exact size, so
 * an encode allocates one artifact and copies no payload.
 *
 * Decoders never assert on malformed input: structural violations
 * (out-of-range node ids, inconsistent vector sizes, invalid enum
 * tags, embedded X/Z dependency sets that disagree with the decoded
 * flow) latch an InvalidArgument on the reader, and the artifact
 * wrapper returns it through Expected, matching the PR-1 error
 * channel.
 */

#ifndef DCMBQC_SERIALIZE_CODECS_HH
#define DCMBQC_SERIALIZE_CODECS_HH

#include "api/driver.hh"
#include "circuit/circuit.hh"
#include "compiler/execution_layer.hh"
#include "exec/result.hh"
#include "core/lsp.hh"
#include "core/pipeline.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "mbqc/pattern.hh"
#include "noise/config.hh"
#include "serialize/artifact.hh"
#include "serialize/binary.hh"

namespace dcmbqc
{

// --- Payload codecs --------------------------------------------------------

/**
 * A u8 status code and the message; an unknown code fails the reader
 * (and decodes as OK). Compile reports and service replies share it.
 */
void encodeStatus(BinaryWriter &writer, const Status &status);
Status decodeStatus(BinaryReader &reader);

void encodeCircuit(BinaryWriter &writer, const Circuit &circuit);
Circuit decodeCircuit(BinaryReader &reader);

void encodeGraph(BinaryWriter &writer, const Graph &graph);
Graph decodeGraph(BinaryReader &reader);

void encodeDigraph(BinaryWriter &writer, const Digraph &digraph);
Digraph decodeDigraph(BinaryReader &reader);

/**
 * The pattern payload embeds the X/Z dependency sets derived from
 * the causal flow; decode recomputes them from the decoded flow and
 * rejects the artifact when they disagree (a deep corruption check
 * beyond the envelope checksum).
 */
void encodePattern(BinaryWriter &writer, const Pattern &pattern);
Pattern decodePattern(BinaryReader &reader);

void encodeConfig(BinaryWriter &writer, const DcMbqcConfig &config);
DcMbqcConfig decodeConfig(BinaryReader &reader);

void encodeLocalSchedule(BinaryWriter &writer,
                         const LocalSchedule &schedule);
LocalSchedule decodeLocalSchedule(BinaryReader &reader);

void encodeSchedule(BinaryWriter &writer, const Schedule &schedule);
Schedule decodeSchedule(BinaryReader &reader);

void encodeCompileReport(BinaryWriter &writer,
                         const CompileReport &report);
CompileReport decodeCompileReport(BinaryReader &reader);

void encodeExecResult(BinaryWriter &writer, const ExecResult &result);
ExecResult decodeExecResult(BinaryReader &reader);

/**
 * Mechanism names are checked against the noise registry on decode,
 * so an artifact naming a mechanism this build does not provide is
 * rejected structurally, not deferred to buildNoiseModel.
 */
void encodeNoiseConfig(BinaryWriter &writer, const NoiseConfig &config);
NoiseConfig decodeNoiseConfig(BinaryReader &reader);

// --- Artifact wrappers -----------------------------------------------------

std::vector<std::uint8_t> encodeCircuitArtifact(const Circuit &circuit);
Expected<Circuit>
decodeCircuitArtifact(const std::vector<std::uint8_t> &bytes);

std::vector<std::uint8_t> encodeGraphArtifact(const Graph &graph);
Expected<Graph>
decodeGraphArtifact(const std::vector<std::uint8_t> &bytes);

std::vector<std::uint8_t>
encodeDigraphArtifact(const Digraph &digraph);
Expected<Digraph>
decodeDigraphArtifact(const std::vector<std::uint8_t> &bytes);

std::vector<std::uint8_t> encodePatternArtifact(const Pattern &pattern);
Expected<Pattern>
decodePatternArtifact(const std::vector<std::uint8_t> &bytes);

std::vector<std::uint8_t>
encodeConfigArtifact(const DcMbqcConfig &config);
Expected<DcMbqcConfig>
decodeConfigArtifact(const std::vector<std::uint8_t> &bytes);

std::vector<std::uint8_t>
encodeLocalScheduleArtifact(const LocalSchedule &schedule);
Expected<LocalSchedule>
decodeLocalScheduleArtifact(const std::vector<std::uint8_t> &bytes);

std::vector<std::uint8_t>
encodeScheduleArtifact(const Schedule &schedule);
Expected<Schedule>
decodeScheduleArtifact(const std::vector<std::uint8_t> &bytes);

std::vector<std::uint8_t>
encodeCompileReportArtifact(const CompileReport &report);
Expected<CompileReport>
decodeCompileReportArtifact(const std::vector<std::uint8_t> &bytes);

/**
 * Decode the report of an envelope `openArtifact` already checked
 * (the daemon reply path, which checks it in the frame's pass).
 */
Expected<CompileReport>
decodeCompileReportArtifact(const ArtifactView &opened);

std::vector<std::uint8_t>
encodeExecResultArtifact(const ExecResult &result);
Expected<ExecResult>
decodeExecResultArtifact(const std::vector<std::uint8_t> &bytes);

std::vector<std::uint8_t>
encodeNoiseConfigArtifact(const NoiseConfig &config);
Expected<NoiseConfig>
decodeNoiseConfigArtifact(const std::vector<std::uint8_t> &bytes);

} // namespace dcmbqc

#endif // DCMBQC_SERIALIZE_CODECS_HH
