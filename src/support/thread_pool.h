/**
 * @file
 * A fixed-size worker pool with a simple FIFO task queue.
 *
 * The compilation driver uses it to compile the independent kernel
 * expressions of a benchmark concurrently (each expression owns its
 * Verifier / ExamplePool / SwizzleSearch state, so tasks share
 * nothing but the immutable expression DAGs and the mutex-guarded
 * synthesis cache). The pool is intentionally minimal: submit
 * closures, then wait for the queue to drain; the first exception
 * thrown by any task is captured and rethrown from wait().
 */
#ifndef RAKE_SUPPORT_THREAD_POOL_H
#define RAKE_SUPPORT_THREAD_POOL_H

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "support/deadline.h"
#include "support/parse.h"

namespace rake {

class ThreadPool
{
  public:
    explicit ThreadPool(int workers) : cancel_(CancelToken::root())
    {
        if (workers < 1)
            workers = 1;
        threads_.reserve(workers);
        for (int i = 0; i < workers; ++i)
            threads_.emplace_back([this] { worker_loop(); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Shutdown cancels: tasks still queued are dropped (they never
     * run) and the pool's CancelToken fires so deadline-aware tasks
     * already running wind down at their next poll. Drivers that want
     * every task to run call wait() first — parallel_for does.
     */
    ~ThreadPool()
    {
        cancel_pending();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    int workers() const { return static_cast<int>(threads_.size()); }

    /**
     * A token observed by cooperative tasks: derive per-task deadlines
     * from it (Deadline::with_token) and cancel_pending() — or pool
     * destruction — interrupts them at their next poll.
     */
    const CancelToken &cancel_token() const { return cancel_; }

    /**
     * Drop every not-yet-started task and fire the cancel token.
     * Running tasks are not interrupted preemptively — cancellation
     * is cooperative — but wait() returns as soon as they finish,
     * instead of after the whole queue drains. Returns the number of
     * tasks dropped.
     */
    int
    cancel_pending()
    {
        std::queue<std::function<void()>> dropped;
        int n = 0;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            dropped.swap(queue_);
            n = static_cast<int>(dropped.size());
            outstanding_ -= n;
            if (outstanding_ == 0)
                drained_.notify_all();
        }
        cancel_.cancel();
        // `dropped` destructs outside the lock: task closures can own
        // arbitrary captures whose destructors must not deadlock.
        return n;
    }

    /** Enqueue one task. Must not be called after the destructor runs. */
    void
    submit(std::function<void()> task)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queue_.push(std::move(task));
            ++outstanding_;
        }
        wake_.notify_one();
    }

    /**
     * Block until every submitted task has finished. Rethrows the
     * first exception any task raised (later ones are dropped; every
     * task still runs to its own completion or failure).
     */
    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        drained_.wait(lock, [this] { return outstanding_ == 0; });
        if (error_) {
            std::exception_ptr e = error_;
            error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

  private:
    void
    worker_loop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock,
                           [this] { return stop_ || !queue_.empty(); });
                if (queue_.empty())
                    return; // stop_ set and nothing left to do
                task = std::move(queue_.front());
                queue_.pop();
            }
            try {
                task();
            } catch (...) {
                std::unique_lock<std::mutex> lock(mutex_);
                if (!error_)
                    error_ = std::current_exception();
            }
            {
                std::unique_lock<std::mutex> lock(mutex_);
                if (--outstanding_ == 0)
                    drained_.notify_all();
            }
        }
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable drained_;
    std::queue<std::function<void()>> queue_;
    std::vector<std::thread> threads_;
    CancelToken cancel_;
    int outstanding_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;
};

/**
 * Resolve a requested job count: a positive request wins, otherwise
 * the RAKE_JOBS environment variable, otherwise 1 (sequential). A
 * set-but-malformed RAKE_JOBS (garbage, zero, negative, overflow) is
 * a hard UserError rather than silently running sequentially.
 */
inline int
resolve_jobs(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("RAKE_JOBS"))
        return static_cast<int>(parse_int_knob(env, "RAKE_JOBS", 1,
                                               1 << 16));
    return 1;
}

/**
 * Run fn(0) .. fn(n-1) on up to `jobs` workers. Sequential (no pool,
 * no locking) when jobs <= 1 or n <= 1. Rethrows the first task
 * exception after all tasks have finished.
 */
template <typename Fn>
void
parallel_for(int n, int jobs, Fn &&fn)
{
    if (n <= 0)
        return;
    if (jobs <= 1 || n == 1) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }
    ThreadPool pool(std::min(jobs, n));
    for (int i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
}

} // namespace rake

#endif // RAKE_SUPPORT_THREAD_POOL_H
