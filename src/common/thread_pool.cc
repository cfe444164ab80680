#include "common/thread_pool.hh"

#include <algorithm>
#include <system_error>

namespace dcmbqc
{

ThreadPool::ThreadPool(int num_threads)
{
    const int n = std::max(1, num_threads);
    workers_.reserve(n);
    try {
        for (int i = 0; i < n; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (const std::system_error &) {
        // The OS refused a thread (e.g. no address space left for its
        // stack under RLIMIT_AS). Run with the workers it granted;
        // with none, submit() runs jobs on the caller's thread.
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    if (workers_.empty()) {
        job();
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
    }
    workAvailable_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] {
        return queue_.empty() && active_ == 0;
    });
}

int
ThreadPool::defaultNumThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 4;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        job();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

} // namespace dcmbqc
