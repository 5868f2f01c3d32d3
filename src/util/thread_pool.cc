#include "thread_pool.hh"

#include <algorithm>
#include <exception>
#include <string>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace tlat::util
{

namespace
{

/**
 * Names a worker thread "tlat-pool-N" so pool threads are
 * identifiable in /proc, top -H, and sanitizer reports. Best-effort:
 * the 15-char comm limit truncates large indices and non-Linux
 * platforms are a no-op — naming is observability, never behaviour.
 */
void
nameWorkerThread(std::thread &worker, unsigned index)
{
#if defined(__linux__)
    const std::string name =
        "tlat-pool-" + std::to_string(index);
    pthread_setname_np(worker.native_handle(),
                       name.substr(0, 15).c_str());
#else
    (void)worker;
    (void)index;
#endif
}

} // namespace

unsigned
ThreadPool::hardwareThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
        nameWorkerThread(workers_.back(), i);
    }
}

ThreadPool::~ThreadPool()
{
    {
        const MutexLock lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notifyAll();
    for (std::thread &worker : workers_)
        worker.join();
}

std::future<void>
ThreadPool::submit(std::function<void()> task)
{
    std::packaged_task<void()> packaged(std::move(task));
    std::future<void> future = packaged.get_future();
    {
        const MutexLock lock(mutex_);
        queue_.push_back(std::move(packaged));
    }
    work_ready_.notifyOne();
    return future;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            const MutexLock lock(mutex_);
            // Explicit predicate loop: every read of the guarded
            // queue_/stopping_ state stays inside this annotated
            // scope (see util/mutex.hh on why not a wait-lambda).
            while (!stopping_ && queue_.empty())
                work_ready_.wait(mutex_);
            // Drain before honouring shutdown so every submitted
            // task's future becomes ready.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task(); // exceptions land in the task's future
    }
}

void
parallelFor(ThreadPool &pool, std::size_t count,
            const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    std::vector<std::future<void>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        futures.push_back(pool.submit([&body, i] { body(i); }));
    // Wait for everything first so a throwing iteration cannot leave
    // later iterations running against destroyed caller state.
    if (const std::exception_ptr error = waitAll(futures))
        std::rethrow_exception(error);
}

std::exception_ptr
waitAll(std::vector<std::future<void>> &futures)
{
    for (std::future<void> &future : futures) {
        if (future.valid())
            future.wait();
    }
    std::exception_ptr first_error;
    for (std::future<void> &future : futures) {
        if (!future.valid())
            continue;
        try {
            future.get();
        } catch (...) {
            if (!first_error)
                first_error = std::current_exception();
        }
    }
    return first_error;
}

} // namespace tlat::util
