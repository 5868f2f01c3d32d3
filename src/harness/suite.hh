/**
 * @file
 * Benchmark suite: generates and caches the branch traces of the nine
 * SPEC-mirror workloads.
 *
 * Traces are produced by running the micro88 simulator to a
 * conditional-branch budget (the paper simulated twenty million
 * conditional branches per benchmark; the default here is smaller so
 * the whole figure set regenerates in seconds — override with the
 * TLAT_BRANCH_BUDGET environment variable, accuracy converges long
 * before the paper's budget on these workloads).
 *
 * A suite trace holds the conditional-branch stream plus the dynamic
 * instruction mix of the run (sim::RecordFilter::Conditional): that
 * is all a predictor reads. Consumers of the other branch classes
 * (branch-mix tables, return stack, pipeline CPI) collect a full
 * trace with sim::collectTrace themselves.
 *
 * When TLAT_TRACE_CACHE_DIR names a directory, generated traces are
 * persisted there in the TLTR binary format, keyed
 * "<benchmark>-<dataset>-<budget>.cond.tltr" (the suffix keeps them
 * apart from full `tlat trace` files), and loaded back on the next
 * run instead of re-simulating — this removes the per-run preload
 * cost of every sweep/figure invocation. Cache files are validated on
 * load (format version, trace name, conditional records only) and
 * silently regenerated when stale; saves go through write-then-rename
 * so concurrent runs never observe partial files.
 */

#ifndef TLAT_HARNESS_SUITE_HH
#define TLAT_HARNESS_SUITE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace/trace_buffer.hh"
#include "workloads/workload.hh"

namespace tlat::util
{
class ThreadPool;
}

namespace tlat::harness
{

/** Default conditional-branch budget per benchmark trace. */
constexpr std::uint64_t kDefaultBranchBudget = 300000;

/** Reads TLAT_BRANCH_BUDGET, falling back to the default. */
std::uint64_t branchBudgetFromEnv();

/** Lazily generated, cached traces for the nine benchmarks. */
class BenchmarkSuite
{
  public:
    /** @param budget Conditional branches per generated trace. */
    explicit BenchmarkSuite(std::uint64_t budget =
                                branchBudgetFromEnv());

    /** Benchmark names in paper order. */
    std::vector<std::string> benchmarks() const;

    /** The testing-data-set trace of a benchmark (cached). */
    const trace::TraceBuffer &testTrace(const std::string &benchmark);

    /**
     * The training-data-set trace, or nullptr when the benchmark has
     * no usable distinct training set (paper Table 3: eqntott,
     * matrix300, fpppp, tomcatv).
     */
    const trace::TraceBuffer *
    trainTrace(const std::string &benchmark);

    /**
     * Receives one trace of streamTraces(): the index of its
     * benchmark in benchmarks(), whether it is the training-set
     * trace, and the trace itself, which stays valid and unchanged
     * for the suite's lifetime.
     */
    using TraceReady = std::function<void(
        std::size_t benchmark, bool training,
        const trace::TraceBuffer &trace)>;

    /**
     * Makes every test trace (and, with @p include_training, every
     * training trace) exist, generating the missing ones on @p pool,
     * and calls @p ready once per trace as soon as that trace exists.
     * A generated trace is reported from the worker that generated
     * it (its predecode already built); a cached one from the calling
     * thread, after every generation task was submitted. Returns once
     * every generation task and ready call finished; waiting for work
     * that @p ready submitted to the pool is the caller's job.
     *
     * Trace content depends only on (benchmark, data set, budget), so
     * the cache ends up bit-identical to demand generation no matter
     * how many workers run. Until this returns the suite must not be
     * used from anywhere else; afterwards testTrace()/trainTrace()
     * only read the cache, which is what makes the parallel sweep's
     * read-only sharing of traces safe.
     */
    void streamTraces(util::ThreadPool &pool, bool include_training,
                      const TraceReady &ready);

    /**
     * Generates every not-yet-cached trace on @p pool and caches it:
     * streamTraces() with nobody to tell.
     *
     * @param include_training Also generate the training-set traces.
     */
    void preload(util::ThreadPool &pool, bool include_training);

    /** True for the floating point benchmarks. */
    bool isFloatingPoint(const std::string &benchmark) const;

    std::uint64_t budget() const { return budget_; }

  private:
    const trace::TraceBuffer &
    traceFor(const std::string &benchmark,
             const std::string &dataSet);

    std::uint64_t budget_;
    std::map<std::string, trace::TraceBuffer> cache_;
};

} // namespace tlat::harness

#endif // TLAT_HARNESS_SUITE_HH
