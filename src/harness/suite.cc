#include "suite.hh"

#include <exception>
#include <filesystem>
#include <future>
#include <limits>
#include <optional>
#include <tuple>

#include <unistd.h>

#include "sim/simulator.hh"
#include "trace/trace_io.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"

namespace tlat::harness
{

namespace
{

/** Trace cache directory, or nullopt when caching is off. */
std::optional<std::string>
traceCacheDir()
{
    return util::envString("TLAT_TRACE_CACHE_DIR");
}

} // namespace

std::uint64_t
branchBudgetFromEnv()
{
    const auto text = util::envString("TLAT_BRANCH_BUDGET");
    if (!text)
        return kDefaultBranchBudget;
    const auto value = parseSize(*text);
    if (!value || *value == 0) {
        tlat_fatal("bad TLAT_BRANCH_BUDGET value '", *text, "'");
    }
    return *value;
}

BenchmarkSuite::BenchmarkSuite(std::uint64_t budget) : budget_(budget)
{
}

std::vector<std::string>
BenchmarkSuite::benchmarks() const
{
    return workloads::workloadNames();
}

namespace
{

/**
 * Loads the conditional-only trace from the TLAT_TRACE_CACHE_DIR
 * binary cache or generates (and caches) it. Free function of exactly
 * (budget, benchmark, dataSet) so streamTraces() workers can run it
 * while capturing only the budget value — no shared suite state
 * reaches the pool (guarded-state lint rule).
 */
trace::TraceBuffer
generateTraceToBudget(std::uint64_t budget,
                      const std::string &benchmark,
                      const std::string &dataSet)
{
    const auto dir = traceCacheDir();
    std::string path;
    if (dir) {
        path = *dir + "/" + benchmark + "-" + dataSet + "-" +
               std::to_string(budget) + ".cond.tltr";
        if (auto cached = trace::loadFromFile(path)) {
            // The checks guard against a foreign file landing on the
            // cache key; a stale or corrupt file just regenerates.
            if (cached->name() == benchmark &&
                cached->conditionalCount() == cached->size())
                return std::move(*cached);
        }
    }

    const auto workload = workloads::makeWorkload(benchmark);
    trace::TraceBuffer buffer = sim::collectTrace(
        workload->build(dataSet), budget,
        std::numeric_limits<std::uint64_t>::max(),
        sim::RecordFilter::Conditional);
    buffer.setName(benchmark);

    if (dir) {
        // Best-effort save; write-then-rename keeps a concurrent
        // process from ever observing a half-written cache file.
        std::error_code ec;
        std::filesystem::create_directories(*dir, ec);
        const std::string tmp =
            path + ".tmp." + std::to_string(::getpid());
        if (trace::saveToFile(buffer, tmp)) {
            std::filesystem::rename(tmp, path, ec);
            if (ec)
                std::filesystem::remove(tmp, ec);
        } else {
            std::filesystem::remove(tmp, ec);
        }
    }
    return buffer;
}

} // namespace

const trace::TraceBuffer &
BenchmarkSuite::traceFor(const std::string &benchmark,
                         const std::string &dataSet)
{
    const std::string key = benchmark + "/" + dataSet;
    auto it = cache_.find(key);
    if (it != cache_.end())
        return it->second;

    auto [inserted, ok] =
        cache_.emplace(key, generateTraceToBudget(budget_, benchmark,
                                                  dataSet));
    tlat_assert(ok, "duplicate trace cache entry");
    return inserted->second;
}

const trace::TraceBuffer &
BenchmarkSuite::testTrace(const std::string &benchmark)
{
    const auto workload = workloads::makeWorkload(benchmark);
    return traceFor(benchmark, workload->testSet());
}

void
BenchmarkSuite::streamTraces(util::ThreadPool &pool,
                             bool include_training,
                             const TraceReady &ready)
{
    struct Job
    {
        std::size_t benchmark;
        bool training;
        std::string dataSet;
        std::map<std::string, trace::TraceBuffer>::iterator entry;
        bool cached = false;
        /** Set by the worker once the trace is in its cache slot. */
        bool generated = false;
    };
    const std::vector<std::string> names = benchmarks();
    std::vector<Job> jobs;
    for (std::size_t b = 0; b < names.size(); ++b) {
        const auto workload = workloads::makeWorkload(names[b]);
        jobs.push_back({b, false, workload->testSet(), {}});
        if (include_training) {
            if (const auto train = workload->trainSet())
                jobs.push_back({b, true, *train, {}});
        }
    }

    // Missing traces get their (empty) cache slot up front, on this
    // thread and before any worker starts: map nodes never move, so
    // each worker fills only its own slot, and ready() hands out a
    // reference that stays valid.
    for (Job &job : jobs) {
        bool inserted = false;
        std::tie(job.entry, inserted) = cache_.try_emplace(
            names[job.benchmark] + "/" + job.dataSet);
        job.cached = !inserted;
    }
    // Valid for the traces this call generates.
    std::vector<std::future<void>> done(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        Job &job = jobs[i];
        if (job.cached)
            continue;
        done[i] = pool.submit([&job, &names, &ready,
                                budget = budget_] {
            trace::TraceBuffer buffer = generateTraceToBudget(
                budget, names[job.benchmark], job.dataSet);
            // Compile the SoA predecode while we are still parallel:
            // the artifact is cached inside the buffer and re-shared
            // by every sweep cell, so no cell pays the dictionary
            // build.
            buffer.predecoded();
            job.entry->second = std::move(buffer);
            job.generated = true;
            ready(job.benchmark, job.training, job.entry->second);
        });
    }
    std::exception_ptr ready_error;
    try {
        for (const Job &job : jobs) {
            if (job.cached)
                ready(job.benchmark, job.training, job.entry->second);
        }
    } catch (...) {
        ready_error = std::current_exception();
    }

    // Wait for every task before rethrowing, so no worker outlives
    // the job list. A trace that failed to generate leaves no cache
    // entry.
    const std::exception_ptr task_error = util::waitAll(done);
    for (const Job &job : jobs) {
        if (!job.cached && !job.generated)
            cache_.erase(job.entry);
    }
    if (task_error)
        std::rethrow_exception(task_error);
    if (ready_error)
        std::rethrow_exception(ready_error);
}

void
BenchmarkSuite::preload(util::ThreadPool &pool, bool include_training)
{
    streamTraces(pool, include_training,
                 [](std::size_t, bool, const trace::TraceBuffer &) {});
}

const trace::TraceBuffer *
BenchmarkSuite::trainTrace(const std::string &benchmark)
{
    const auto workload = workloads::makeWorkload(benchmark);
    const auto train = workload->trainSet();
    if (!train)
        return nullptr;
    return &traceFor(benchmark, *train);
}

bool
BenchmarkSuite::isFloatingPoint(const std::string &benchmark) const
{
    return workloads::makeWorkload(benchmark)->isFloatingPoint();
}

} // namespace tlat::harness
