/**
 * @file
 * Fork-on-first-measurement shot prefix tree. Sampling a shot walks
 * a binary tree whose nodes are the random decisions of the pattern
 * replay; the deterministic evolution between decisions (graph-state
 * prep, entangling, conjugation, deterministic measurements) is
 * computed once per distinct outcome prefix and shared by every shot
 * that follows the same prefix, instead of once per shot. The
 * stabilizer and schedule backends sample through it
 * (exec/stabilizer_replay.hh); the statevector backend does not,
 * because copying a dense amplitude vector at every decision costs
 * more than the prefix it saves.
 *
 * Determinism contract: a shot's outcome depends only on its own RNG
 * stream and the (deterministic) stepper — node caching changes
 * which work is reused, never a value — so results are bit-identical
 * to the naive per-shot replay (`runShotNaive`) for any worker
 * count, which tests/test_sim_kernels.cc pins.
 *
 * Concurrency: a node is expanded exactly once under its mutex and
 * then *settled* (atomic release). A settled node's payload
 * (terminal flag, result, p0, cached state) is immutable, so the
 * steady-state walk is lock-free: shots only touch a mutex on first
 * expansion and first child creation. The walk keeps its working
 * state in a thread-local scratch buffer, so steady-state sampling
 * performs no allocation beyond what the stepper itself does.
 *
 * Stepper concept (all methods const; State is copyable):
 *   State  root()                        — initial replay state
 *   bool   advance(State &)              — run deterministic work up
 *          to the next random decision; true when the shot is done
 *   double prob0(const State &)          — P(outcome 0) at the
 *          pending decision, exactly as the naive replay computes it
 *   int    draw(Rng &, double p0)        — consume the shot RNG the
 *          same way the naive replay does; returns the outcome
 *   void   applyOutcome(State &, int)    — take the chosen branch
 *   Result result(const State &)         — final per-shot payload
 *   size_t stateBytes(const State &)     — cache-budget estimate
 */

#ifndef DCMBQC_EXEC_SHOT_TREE_HH
#define DCMBQC_EXEC_SHOT_TREE_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/rng.hh"

namespace dcmbqc
{

/**
 * Default cap on cached prefix states. Nodes past the budget stay
 * transient: walks recompute their segment from the nearest cached
 * ancestor (correctness is unaffected, only reuse).
 */
constexpr std::size_t kShotTreeBudgetBytes = std::size_t(64) << 20;

template <class Stepper>
class ShotTree
{
  public:
    using State = typename Stepper::State;
    using Result = typename Stepper::Result;

    explicit ShotTree(Stepper stepper,
                      std::size_t budget_bytes = kShotTreeBudgetBytes)
        : stepper_(std::move(stepper)), budget_(budget_bytes)
    {
    }

    /** Sample one shot; safe to call from many threads at once. */
    Result run(Rng &rng)
    {
        // Reused across shots on this thread: copy-assignment into
        // an existing State recycles its vector capacities, so the
        // steady-state walk is assignment + applyOutcome per
        // decision, no construction.
        thread_local std::optional<State> scratch;
        Node *node = &root_;
        // Invariant on arrival at `node` when `have_arrival`:
        // *scratch is the parent's decision state with the chosen
        // outcome applied but not yet advanced (for the root: the
        // stepper's initial state). The fully-cached fast path never
        // materializes arrival states at all — it jumps straight
        // from cached advanced state to cached advanced state.
        bool have_arrival = false;
        for (;;) {
            if (node->settled.load(std::memory_order_acquire)) {
                // Settled payload is immutable: read without a lock.
                if (node->terminal)
                    return node->result;
                if (node->state) {
                    assign(scratch, *node->state);
                    have_arrival = true;
                } else {
                    // Past the cache budget: redo this segment from
                    // the arrival state.
                    materializeArrival(scratch, have_arrival);
                    stepper_.advance(*scratch);
                }
            } else {
                materializeArrival(scratch, have_arrival);
                std::lock_guard<std::mutex> lock(node->mu);
                if (node->settled.load(std::memory_order_relaxed)) {
                    // Another worker settled it while we waited.
                    if (node->terminal)
                        return node->result;
                    if (node->state)
                        assign(scratch, *node->state);
                    else
                        stepper_.advance(*scratch);
                } else {
                    const bool done = stepper_.advance(*scratch);
                    node->terminal = done;
                    if (done) {
                        node->result = stepper_.result(*scratch);
                    } else {
                        node->p0 = stepper_.prob0(*scratch);
                        const std::size_t bytes =
                            stepper_.stateBytes(*scratch);
                        if (cachedBytes_.load(
                                std::memory_order_relaxed) +
                                bytes <=
                            budget_) {
                            node->state.emplace(*scratch);
                            cachedBytes_.fetch_add(
                                bytes, std::memory_order_relaxed);
                        }
                    }
                    node->settled.store(true,
                                        std::memory_order_release);
                    if (done)
                        return node->result;
                }
            }
            const int outcome = stepper_.draw(rng, node->p0);
            Node *next =
                node->child[outcome].load(std::memory_order_acquire);
            if (!next) {
                std::lock_guard<std::mutex> lock(node->mu);
                next = node->child[outcome].load(
                    std::memory_order_relaxed);
                if (!next) {
                    next = new Node();
                    node->child[outcome].store(
                        next, std::memory_order_release);
                }
            }
            stepper_.applyOutcome(*scratch, outcome);
            node = next;
        }
    }

  private:
    struct Node
    {
        std::mutex mu;
        /** Release-set once the payload below is final. */
        std::atomic<bool> settled{false};
        bool terminal = false;
        double p0 = 0.0;
        std::optional<State> state;
        Result result{};
        std::atomic<Node *> child[2]{{nullptr}, {nullptr}};

        ~Node()
        {
            delete child[0].load(std::memory_order_relaxed);
            delete child[1].load(std::memory_order_relaxed);
        }
    };

    /** Copy `src` into the scratch slot, recycling its buffers. */
    static void
    assign(std::optional<State> &scratch, const State &src)
    {
        if (scratch)
            *scratch = src;
        else
            scratch.emplace(src);
    }

    /** Ensure *scratch holds the arrival state for the current node. */
    void
    materializeArrival(std::optional<State> &scratch,
                       bool &have_arrival) const
    {
        if (!have_arrival) {
            assign(scratch, stepper_.root());
            have_arrival = true;
        }
    }

    const Stepper stepper_;
    const std::size_t budget_;
    std::atomic<std::size_t> cachedBytes_{0};
    Node root_;
};

/**
 * Naive per-shot replay: the full shot start to finish with no
 * sharing. Consumes the RNG identically to ShotTree::run; it is the
 * tree's test oracle and the path taken when
 * SimKernelConfig::shotTree is off.
 */
template <class Stepper>
typename Stepper::Result
runShotNaive(const Stepper &stepper, Rng &rng)
{
    typename Stepper::State state = stepper.root();
    while (!stepper.advance(state)) {
        const double p0 = stepper.prob0(state);
        stepper.applyOutcome(state, stepper.draw(rng, p0));
    }
    return stepper.result(state);
}

} // namespace dcmbqc

#endif // DCMBQC_EXEC_SHOT_TREE_HH
