/**
 * @file
 * Shared scaffolding for the figure/table reproduction binaries.
 *
 * Every bench prints:
 *  - a header naming the paper artifact it regenerates,
 *  - the measured table in the paper's layout,
 *  - the paper's qualitative expectation, so the output is
 *    self-checking by eye.
 *
 * The conditional-branch budget per benchmark comes from
 * TLAT_BRANCH_BUDGET (default 300000; the paper used twenty million —
 * accuracy differences past the budget are in the third digit).
 */

#ifndef TLAT_BENCH_BENCH_COMMON_HH
#define TLAT_BENCH_BENCH_COMMON_HH

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/figure_runner.hh"
#include "harness/parallel_sweep.hh"
#include "harness/suite.hh"
#include "sim/simulator.hh"
#include "util/env.hh"
#include "util/json_writer.hh"
#include "util/mutex.hh"
#include "util/string_utils.hh"
#include "util/thread_annotations.hh"
#include "workloads/workload.hh"

namespace tlat::bench
{

/** Prints the bench banner. */
inline void
printHeader(const std::string &artifact, const std::string &caption)
{
    std::cout << "==================================================="
                 "=========\n"
              << "Reproduction of " << artifact << "\n"
              << caption << "\n"
              << "branch budget per benchmark: "
              << harness::branchBudgetFromEnv()
              << " conditional branches"
              << " (override with TLAT_BRANCH_BUDGET)\n"
              << "sweep worker threads: " << harness::defaultJobs()
              << " (override with TLAT_JOBS; accuracies are "
                 "identical for every value)\n"
              << "==================================================="
                 "=========\n\n";
}

/**
 * The full testing-data-set trace of a benchmark, every branch class
 * included, at the suite's budget. Suite traces keep the conditional
 * stream only; the tables of the other classes (branch mix, return
 * stack, pipeline CPI) read this instead.
 */
inline trace::TraceBuffer
fullTestTrace(const std::string &benchmark)
{
    trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload(benchmark)->buildTest(),
        harness::branchBudgetFromEnv());
    trace.setName(benchmark);
    return trace;
}

/** Prints the paper's expectation below the measured table. */
inline void
printExpectation(const std::string &text)
{
    std::cout << "paper expectation: " << text << "\n\n";
}

/**
 * Writes the report as CSV into $TLAT_CSV_DIR/<stem>.csv when that
 * environment variable is set (for replotting outside the harness).
 */
inline void
maybeWriteCsv(const harness::AccuracyReport &report,
              const std::string &stem)
{
    const auto dir = util::envString("TLAT_CSV_DIR");
    if (!dir)
        return;
    const std::string path = *dir + "/" + stem + ".csv";
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    report.printCsv(os);
    std::cout << "(csv written to " << path << ")\n\n";
}

/**
 * Machine-readable record of one bench run, written as
 * BENCH_<stem>.json when the recorder goes out of scope.
 *
 * Schema "tlat-bench-v1":
 *   schema, figure, config{branch_budget, jobs, fingerprint},
 *   wall_time_seconds, results[{benchmark, scheme,
 *   accuracy_percent}], means[{scheme, int_mean, fp_mean,
 *   total_mean}], scalars{...}, and (when recorded) samples{name:
 *   [per-repeat values]}
 *
 * The file lands in $TLAT_BENCH_JSON_DIR when set, else the current
 * directory. `fingerprint` hashes the budget, the jobs setting and
 * every (benchmark, scheme) label, so a plotting script can tell two
 * records produced under different configurations apart. Everything
 * except wall_time_seconds is deterministic for a given config.
 */
class BenchRecorder
{
  public:
    explicit BenchRecorder(std::string stem)
        : stem_(std::move(stem)),
          start_(std::chrono::steady_clock::now())
    {
    }

    BenchRecorder(const BenchRecorder &) = delete;
    BenchRecorder &operator=(const BenchRecorder &) = delete;

    /**
     * Copies the report's cells and means into the record.
     * Thread-safe: a bench that records from sweep callbacks on pool
     * workers appends under the recorder's lock; rows keep arrival
     * order, so callers that need a deterministic file still record
     * from one thread or in a fixed order.
     */
    void
    addReport(const harness::AccuracyReport &report)
    {
        const util::MutexLock lock(mutex_);
        for (const std::string &scheme : report.schemes()) {
            for (const std::string &benchmark :
                 report.benchmarks()) {
                const double accuracy =
                    report.cell(benchmark, scheme);
                if (accuracy >= 0.0)
                    rows_.push_back({benchmark, scheme, accuracy});
            }
            means_.push_back({scheme, report.intMean(scheme),
                              report.fpMean(scheme),
                              report.totalMean(scheme)});
        }
    }

    /** Records one named headline number (e.g. a miss-rate ratio). */
    void
    addScalar(const std::string &name, double value)
    {
        const util::MutexLock lock(mutex_);
        scalars_.emplace_back(name, value);
    }

    /**
     * Records the per-repeat samples behind a headline number, so a
     * gate can judge their median instead of one run.
     */
    void
    addSamples(const std::string &name, std::vector<double> values)
    {
        const util::MutexLock lock(mutex_);
        samples_.emplace_back(name, std::move(values));
    }

    ~BenchRecorder()
    {
        const double wall_seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        const auto dir = util::envString("TLAT_BENCH_JSON_DIR");
        const std::string path = (dir ? *dir + "/" : "") +
                                 "BENCH_" + stem_ + ".json";
        // Write-then-rename (the trace preload cache's pattern): a
        // CI gate reading BENCH_*.json concurrently can never see a
        // half-written document, and a crashed bench never replaces
        // a good record with a truncated one.
        const std::string tmp =
            path + ".tmp." + std::to_string(::getpid());
        std::ofstream os(tmp);
        if (!os) {
            std::cerr << "cannot write " << tmp << "\n";
            return;
        }
        // Destruction is single-threaded by construction, but the
        // annotated fields are read here, so hold the lock for the
        // analysis (uncontended: no recorder outlives its writers).
        const util::MutexLock lock(mutex_);
        JsonWriter json(os);
        json.beginObject();
        json.member("schema", "tlat-bench-v1");
        json.member("figure", stem_);
        json.key("config").beginObject();
        json.member("branch_budget",
                    harness::branchBudgetFromEnv());
        json.member("jobs",
                    static_cast<std::uint64_t>(
                        harness::defaultJobs()));
        json.member("fingerprint", fingerprint());
        json.endObject();
        json.member("wall_time_seconds", wall_seconds);
        json.key("results").beginArray();
        for (const Row &row : rows_) {
            json.beginObject();
            json.member("benchmark", row.benchmark);
            json.member("scheme", row.scheme);
            json.member("accuracy_percent", row.accuracyPercent);
            json.endObject();
        }
        json.endArray();
        json.key("means").beginArray();
        for (const Mean &mean : means_) {
            json.beginObject();
            json.member("scheme", mean.scheme);
            json.member("int_mean", mean.intMean);
            json.member("fp_mean", mean.fpMean);
            json.member("total_mean", mean.totalMean);
            json.endObject();
        }
        json.endArray();
        json.key("scalars").beginObject();
        for (const auto &[name, value] : scalars_)
            json.member(name, value);
        json.endObject();
        if (!samples_.empty()) {
            json.key("samples").beginObject();
            for (const auto &[name, values] : samples_) {
                json.key(name).beginArray();
                for (const double value : values)
                    json.value(value);
                json.endArray();
            }
            json.endObject();
        }
        json.endObject();
        os.flush();
        std::error_code ec;
        if (!os) {
            std::cerr << "cannot write " << tmp << "\n";
            std::filesystem::remove(tmp, ec);
            return;
        }
        os.close();
        std::filesystem::rename(tmp, path, ec);
        if (ec) {
            std::cerr << "cannot rename " << tmp << " to " << path
                      << ": " << ec.message() << "\n";
            std::filesystem::remove(tmp, ec);
            return;
        }
        std::cout << "(bench record written to " << path << ")\n";
    }

  private:
    struct Row
    {
        std::string benchmark;
        std::string scheme;
        double accuracyPercent;
    };
    struct Mean
    {
        std::string scheme;
        double intMean;
        double fpMean;
        double totalMean;
    };

    /** FNV-1a over the run configuration, as a hex string. */
    std::string
    fingerprint() const TLAT_REQUIRES(mutex_)
    {
        std::uint64_t hash = 0xcbf29ce484222325ULL;
        const auto absorb = [&hash](std::string_view text) {
            for (const char c : text) {
                hash ^= static_cast<unsigned char>(c);
                hash *= 0x100000001b3ULL;
            }
            hash *= 0x100000001b3ULL; // separator
        };
        // Only results-affecting configuration: jobs and wall time
        // are run-shape, not result-shape (the sweep engine is
        // deterministic for every jobs count).
        absorb(stem_);
        absorb(std::to_string(harness::branchBudgetFromEnv()));
        for (const Row &row : rows_) {
            absorb(row.benchmark);
            absorb(row.scheme);
        }
        return format("%016llx",
                      static_cast<unsigned long long>(hash));
    }

    std::string stem_;
    std::chrono::steady_clock::time_point start_;
    mutable util::Mutex mutex_;
    std::vector<Row> rows_ TLAT_GUARDED_BY(mutex_);
    std::vector<Mean> means_ TLAT_GUARDED_BY(mutex_);
    std::vector<std::pair<std::string, double>> scalars_
        TLAT_GUARDED_BY(mutex_);
    std::vector<std::pair<std::string, std::vector<double>>> samples_
        TLAT_GUARDED_BY(mutex_);
};

} // namespace tlat::bench

#endif // TLAT_BENCH_BENCH_COMMON_HH
