/**
 * @file
 * Fixed-size worker pool for deterministic fan-out parallelism.
 *
 * Design constraints, in order:
 *  - determinism of the *callers*: the pool never reorders results —
 *    callers index into pre-sized output slots, so scheduling can
 *    never change what a sweep computes, only how fast;
 *  - exception transparency: a task that throws surfaces the
 *    exception at the submitter through the returned future (and
 *    parallelFor rethrows the lowest-index failure);
 *  - no work stealing and no task priorities — a plain FIFO queue is
 *    enough for coarse-grained sweep cells and keeps behaviour easy
 *    to reason about under ThreadSanitizer.
 *
 * Submitting from inside a task is allowed (the queue lock is only
 * held to push). Blocking on a nested future from inside a task is
 * not: with every worker waiting, nobody is left to run the nested
 * task. parallelFor never does this — it only waits on the thread
 * that called it.
 */

#ifndef TLAT_UTIL_THREAD_POOL_HH
#define TLAT_UTIL_THREAD_POOL_HH

#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "mutex.hh"
#include "thread_annotations.hh"

namespace tlat::util
{

/** FIFO thread pool; all queued tasks finish before destruction. */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 means hardwareThreads().
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Enqueues @p task. The future reports completion; if the task
     * throws, future.get() rethrows the exception at the caller.
     */
    std::future<void> submit(std::function<void()> task);

    /** std::thread::hardware_concurrency, clamped to at least 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    Mutex mutex_;
    ConditionVariable work_ready_;
    std::deque<std::packaged_task<void()>> queue_
        TLAT_GUARDED_BY(mutex_);
    bool stopping_ TLAT_GUARDED_BY(mutex_) = false;
};

/**
 * Runs body(0) .. body(count - 1) on the pool and waits for all of
 * them. Iterations may run in any order and concurrently; the call
 * returns only after every iteration finished. If iterations throw,
 * the exception of the lowest index is rethrown here (the rest are
 * swallowed), so error reporting does not depend on scheduling.
 */
void parallelFor(ThreadPool &pool, std::size_t count,
                 const std::function<void(std::size_t)> &body);

/**
 * Waits for every valid future in @p futures, then collects their
 * results in index order and returns the exception of the lowest
 * index that failed (null when none did), so error reporting does not
 * depend on scheduling. Invalid (never assigned) futures are skipped.
 */
std::exception_ptr waitAll(std::vector<std::future<void>> &futures);

} // namespace tlat::util

#endif // TLAT_UTIL_THREAD_POOL_HH
