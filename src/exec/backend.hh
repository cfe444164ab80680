/**
 * @file
 * The pluggable execution subsystem closing the compile -> execute
 * loop: a capability-queried `ExecutionBackend` interface, a
 * process-wide registry holding the four built-in backends
 * ("statevector", "stabilizer", "mc-loss", "schedule"), the
 * `executeProgram` dispatcher that validates options, checks the
 * program against the backend's capabilities, and times the run,
 * and the shot blocks and block tally the backends sample with.
 * Everything a caller can get wrong comes back as a Status; a
 * backend never aborts on bad input.
 */

#ifndef DCMBQC_EXEC_BACKEND_HH
#define DCMBQC_EXEC_BACKEND_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/status.hh"
#include "common/rng.hh"
#include "exec/options.hh"
#include "exec/program.hh"
#include "exec/result.hh"

namespace dcmbqc
{

/** What a backend can run, queried before dispatch. */
struct BackendCapabilities
{
    /** Consumes the program's measurement pattern. */
    bool runsPattern = false;

    /** Consumes the program's compiled distributed schedule. */
    bool runsSchedule = false;

    /**
     * Restricted to Clifford patterns (every measurement angle a
     * multiple of pi/2).
     */
    bool cliffordOnly = false;

    /** Can report exact per-outcome probabilities. */
    bool exactProbabilities = false;

    /**
     * Upper bound on output wires (0 = unbounded). The dense
     * statevector backend bounds this to keep memory sane.
     */
    int maxWires = 0;
};

/**
 * One execution engine. Implementations are stateless and
 * thread-safe: a single registered instance serves concurrent runs.
 */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /** Stable registry name ("statevector", ...). */
    virtual const char *name() const = 0;

    virtual BackendCapabilities capabilities() const = 0;

    /**
     * Run the program. Options and program/capability compatibility
     * are pre-checked by `executeProgram`; implementations re-check
     * only what is specific to them (e.g. the stabilizer backend's
     * Clifford angle test) and report violations via Status.
     */
    virtual Expected<ExecResult> run(const ExecProgram &program,
                                     const ExecOptions &options)
        const = 0;
};

/**
 * Look up a backend by registry name; null when unknown. The three
 * built-in backends are registered on first use.
 */
const ExecutionBackend *findBackend(const std::string &name);

/** Registry names in registration order. */
std::vector<std::string> backendNames();

/**
 * Register an additional backend (plug-in seam; the built-ins need
 * no call). Rejects null and duplicate names.
 */
Status registerBackend(std::unique_ptr<ExecutionBackend> backend);

/**
 * Validate options, resolve the backend, check the program against
 * its capabilities, run it, and stamp timing/threading metadata into
 * the result. This is the one seam every execution goes through —
 * the driver's execute()/compileAndExecute() and the CLI both call
 * it.
 */
Expected<ExecResult> executeProgram(const ExecProgram &program,
                                    const ExecOptions &options);

/**
 * Derive the independent per-shot RNG seed for (master seed, shot).
 * Shared by the backends so a result is reproducible from
 * (backend, seed) alone, bit-identical for any worker count.
 */
std::uint64_t shotSeed(std::int64_t seed, int shot);

/** The shots [begin, end) of one block. */
struct ShotRange
{
    int begin = 0;
    int end = 0;
};

/**
 * Block `block` of `blocks` contiguous blocks that split [0, shots)
 * as evenly as possible, in order; bounds are computed in 64 bits,
 * so any int shot count is safe.
 */
ShotRange shotBlock(int shots, int blocks, int block);

/**
 * Run `body` once per shotBlock(shots, threads, ·), one pool worker
 * each (threads <= 1: one block, inline). Bodies must be
 * independent.
 */
void forEachShotBlock(int shots, int threads,
                      const std::function<void(ShotRange)> &body);

class NoiseChannel;

/**
 * Sample one shot's outcome bits from the shot's stream `rng` into
 * `bits` (char w = output wire w); returns their exact probability,
 * or a negative value when the backend has none.
 */
using ShotSampler = std::function<double(Rng &rng, std::string &bits)>;

/**
 * Sample shots [0, shots) over forEachShotBlock and tally them into
 * `result`: counts, exact probabilities, lost and completed shots and
 * lost photons. Shot s samples its bits from Rng(shotSeed(seed, s));
 * with a `noise` channel it then draws its noise
 * (`NoiseChannel::sampleShot`), which may void the shot or flip its
 * bits, and no probability is recorded: a flip decouples a bitstring
 * from its probability. Each block tallies its own
 * shots and merges once, and the merge only adds integers, so the
 * result is the same for any worker count. Returns INTERNAL when two
 * shots give one outcome different probabilities.
 */
Status tallyShots(int shots, int threads, std::int64_t seed,
                  const NoiseChannel *noise, const ShotSampler &sample,
                  ExecResult &result);

/**
 * Run `body(shot)` for every shot in [0, shots) across `threads`
 * workers (resolved: <=1 runs inline). Bodies must be independent
 * and write only to per-shot slots.
 */
void forEachShot(int shots, int threads,
                 const std::function<void(int)> &body);

/** Resolve an ExecOptions thread count (0 = hardware) for `shots`. */
int resolveThreads(int num_threads, int shots);

} // namespace dcmbqc

#endif // DCMBQC_EXEC_BACKEND_HH
