/**
 * @file
 * Translation from a {CZ, J(alpha)} program to a one-way measurement
 * pattern, following the standard J-calculus construction:
 *
 *   J(alpha) on wire w:  E(m, n)  then  M^{-alpha}(m)
 * with m the wire's current node and n a fresh node; the causal flow
 * is f(m) = n. CZ gates add graph edges between current wire nodes
 * (a repeated CZ on the same pair toggles the edge off, CZ^2 = I).
 *
 * All entry points share one settled-prefix builder. Toggled pairs
 * queue in first-toggle order, and a pair is *settled* once either
 * endpoint is retired by a J measurement: no later op can toggle it
 * again, so its final on/off state is known mid-program. Settled
 * pairs are emitted from the queue front only, which fixes the
 * pattern graph's edge order (and therefore the artifact bytes)
 * independently of how the input is chunked. Live state is bounded
 * by the open frontier (one current node per wire plus the
 * still-toggleable pairs), not by program length.
 */

#ifndef DCMBQC_MBQC_PATTERN_BUILDER_HH
#define DCMBQC_MBQC_PATTERN_BUILDER_HH

#include "api/status.hh"
#include "circuit/circuit.hh"
#include "circuit/circuit_stream.hh"
#include "circuit/transpile.hh"
#include "core/stream_window.hh"
#include "mbqc/pattern.hh"

namespace dcmbqc
{

/** Build the measurement pattern of a lowered program. */
Pattern buildPattern(const JCircuit &jcircuit);

/** Lower gate by gate and build, without materializing the JCircuit. */
Pattern buildPattern(const Circuit &circuit);

/**
 * Build the measurement pattern of `stream`, lowering `window.size`
 * gates between checkpoints (0 = whole input as one window; the
 * checkpoint then fires once at the end). The stream is reset before
 * the build.
 *
 * Returns the checkpoint's status unchanged when it aborts the build
 * (Cancelled, DeadlineExceeded). High-water marks are merged into
 * `*stats` when non-null.
 *
 * For every window size the returned Pattern is byte-identical to
 * `buildPattern` on the materialized circuit: node ids, edge order,
 * measurement order, and outputs all match.
 */
Expected<Pattern> buildPatternStreamed(
    CircuitStream &stream, const StreamWindow &window,
    const WindowCheckpoint &checkpoint = {},
    StreamStats *stats = nullptr);

} // namespace dcmbqc

#endif // DCMBQC_MBQC_PATTERN_BUILDER_HH
