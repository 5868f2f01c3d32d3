#include "parallel_sweep.hh"

#include <exception>
#include <future>
#include <optional>

#include "core/scheme_config.hh"
#include "experiment.hh"
#include "predictors/scheme_factory.hh"
#include "util/bitops.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/mutex.hh"
#include "util/string_utils.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace tlat::harness
{

unsigned
defaultJobs()
{
    const auto text = util::envString("TLAT_JOBS");
    if (!text)
        return util::ThreadPool::hardwareThreads();
    const auto value = parseSize(*text);
    if (!value || *value == 0 || *value > kMaxJobs) {
        tlat_fatal("bad TLAT_JOBS value '", *text, "' (want 1 <= N <= ",
                   kMaxJobs, ")");
    }
    return static_cast<unsigned>(*value);
}

std::uint64_t
cellSeed(std::string_view scheme, std::string_view benchmark)
{
    // FNV-1a over "scheme\0benchmark", then a SplitMix64 finalizer so
    // near-identical names land far apart in seed space.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto absorb = [&hash](std::string_view text) {
        for (const char c : text) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ULL;
        }
    };
    absorb(scheme);
    hash *= 0x100000001b3ULL; // NUL separator: "ab","c" != "a","bc"
    absorb(benchmark);
    return mix64(hash);
}

AccuracyReport
runSweep(BenchmarkSuite &suite, const std::string &title,
         const std::vector<std::string> &scheme_names,
         const std::vector<std::string> &column_labels, unsigned jobs,
         std::vector<RunMetricsReport> *metrics_out)
{
    tlat_assert(column_labels.empty() ||
                    column_labels.size() == scheme_names.size(),
                "label list does not match scheme list");
    if (jobs == 0)
        jobs = defaultJobs();

    std::vector<core::SchemeConfig> configs;
    configs.reserve(scheme_names.size());
    bool any_diff = false;
    for (const std::string &name : scheme_names) {
        const auto config = core::SchemeConfig::parse(name);
        if (!config)
            tlat_fatal("bad scheme name '", name, "'");
        any_diff |= config->data == core::DataMode::Diff;
        configs.push_back(*config);
    }

    // The cells of one benchmark and the traces they read. A Diff
    // cell needs both traces: whichever trace arrives last submits
    // the Diff cells.
    struct Benchmark
    {
        std::vector<std::size_t> same_cells;
        std::vector<std::size_t> diff_cells;
        /** Traces the sweep asks for: 2 with a training trace. */
        int traces = 1;
        util::Mutex mutex;
        int arrived TLAT_GUARDED_BY(mutex) = 0;
        const trace::TraceBuffer *test TLAT_GUARDED_BY(mutex) = nullptr;
        const trace::TraceBuffer *train TLAT_GUARDED_BY(mutex) =
            nullptr;
    };
    struct Cell
    {
        std::size_t scheme;
        std::size_t benchmark;
    };

    // Build the cell list single-threaded, in the fixed scheme-major
    // order the report will be merged in. A benchmark without a
    // training set leaves its Diff cells out; they print as "-".
    const std::vector<std::string> benchmarks = suite.benchmarks();
    std::vector<Benchmark> by_benchmark(benchmarks.size());
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        if (any_diff &&
            workloads::makeWorkload(benchmarks[b])->trainSet())
            by_benchmark[b].traces = 2;
    }
    std::vector<Cell> cells;
    cells.reserve(scheme_names.size() * benchmarks.size());
    for (std::size_t s = 0; s < scheme_names.size(); ++s) {
        const bool diff = configs[s].data == core::DataMode::Diff;
        for (std::size_t b = 0; b < benchmarks.size(); ++b) {
            if (diff && by_benchmark[b].traces == 1)
                continue; // no training set
            (diff ? by_benchmark[b].diff_cells
                  : by_benchmark[b].same_cells)
                .push_back(cells.size());
            cells.push_back(Cell{s, b});
        }
    }

    // One cold predictor per cell — never shared, never reused —
    // writing into a preassigned result slot. The metrics-collecting
    // loop only runs when the caller asked for it; the default path
    // is the plain measure() loop.
    std::vector<std::optional<ExperimentResult>> results(cells.size());
    std::vector<RunMetricsReport> cell_metrics(
        metrics_out ? cells.size() : 0);
    std::vector<std::future<void>> done(cells.size());
    util::ThreadPool pool(jobs);
    const auto submitCell = [&pool, &cells, &configs, metrics_out,
                             &cell_metrics, &results,
                             &done](std::size_t i,
                                    const trace::TraceBuffer *test,
                                    const trace::TraceBuffer *train) {
        // Explicit capture list (guarded-state lint rule): the cell
        // reads the shared cell/config tables and its two traces,
        // which exist by now and never change again, and writes only
        // its preassigned slots.
        done[i] = pool.submit([i, test, train, &cells, &configs,
                               metrics_out, &cell_metrics, &results] {
            const auto predictor =
                predictors::makePredictor(configs[cells[i].scheme]);
            if (metrics_out) {
                cell_metrics[i] =
                    runProfiledExperiment(*predictor, *test, train);
                ExperimentResult result;
                result.scheme = cell_metrics[i].scheme;
                result.benchmark = cell_metrics[i].benchmark;
                result.accuracy = cell_metrics[i].accuracy;
                results[i] = result;
            } else {
                results[i] = runExperiment(*predictor, *test, train);
            }
        });
    };

    // One task graph: each trace, the moment it exists, releases the
    // cells that read it — no barrier between trace generation and
    // the cells. Trace content is a pure function of (benchmark, data
    // set, budget), and every cell writes its own slot, so the
    // results do not depend on the schedule.
    const auto ready = [&by_benchmark, &submitCell](
                           std::size_t b, bool training,
                           const trace::TraceBuffer &trace) {
        Benchmark &bench = by_benchmark[b];
        if (!training) {
            for (const std::size_t i : bench.same_cells)
                submitCell(i, &trace, nullptr);
        }
        const trace::TraceBuffer *test = nullptr;
        const trace::TraceBuffer *train = nullptr;
        {
            const util::MutexLock lock(bench.mutex);
            if (training)
                bench.train = &trace;
            else
                bench.test = &trace;
            if (++bench.arrived < bench.traces)
                return;
            test = bench.test;
            train = bench.train;
        }
        for (const std::size_t i : bench.diff_cells)
            submitCell(i, test, train);
    };
    std::exception_ptr error;
    try {
        suite.streamTraces(pool, any_diff, ready);
    } catch (...) {
        error = std::current_exception();
    }
    const std::exception_ptr cell_error = util::waitAll(done);
    if (!error)
        error = cell_error;
    if (error)
        std::rethrow_exception(error);

    // Merge in cell-list order, which is scheme-major; the report's
    // column order, every cell and the appended metrics are therefore
    // independent of how the pool scheduled the cells.
    AccuracyReport report(title, workloads::workloadNames(),
                          workloads::floatingPointWorkloadNames());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &cell = cells[i];
        const std::string &label =
            column_labels.empty() ? scheme_names[cell.scheme]
                                  : column_labels[cell.scheme];
        report.add(benchmarks[cell.benchmark], label,
                   results[i]->accuracy.accuracyPercent());
        if (metrics_out)
            metrics_out->push_back(std::move(cell_metrics[i]));
    }
    return report;
}

} // namespace tlat::harness
