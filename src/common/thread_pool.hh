/**
 * @file
 * Minimal fixed-size thread pool shared by every internally parallel
 * layer of the library: `CompilerDriver::compileBatch`, the shot
 * execution backends, the portfolio racer, and the per-QPU local
 * compiles of `core/lsp_builder`. Deliberately tiny: FIFO
 * queue, no futures (results are written into pre-sized slots), and
 * a `wait()` barrier for the submitting thread. Lives in `common/`
 * so the core layers can use it without depending on `api/`.
 */

#ifndef DCMBQC_COMMON_THREAD_POOL_HH
#define DCMBQC_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dcmbqc
{

/** Fixed-size worker pool with a wait-for-idle barrier. */
class ThreadPool
{
  public:
    /**
     * Spawns `num_threads` workers (clamped to >= 1), or as many as
     * the OS grants: a refused thread ends the spawning instead of
     * throwing. With no worker at all, jobs run inside submit().
     */
    explicit ThreadPool(int num_threads);

    /** Drains outstanding work, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job. Jobs must not throw. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    /** Workers actually running (0 when the OS granted none). */
    int numThreads() const { return static_cast<int>(workers_.size()); }

    /** Hardware concurrency with a sane fallback. */
    static int defaultNumThreads();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    int active_ = 0;
    bool stopping_ = false;
};

} // namespace dcmbqc

#endif // DCMBQC_COMMON_THREAD_POOL_HH
