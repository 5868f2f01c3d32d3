/**
 * @file
 * Serial-equivalence harness for the deterministic parallel sweep
 * engine (the Figure 5 grid is the golden workload):
 *
 *  - jobs=1 and jobs=4..8 produce bit-identical AccuracyReports,
 *    including when the traces themselves are generated under
 *    different pool widths;
 *  - repeated runs at the same jobs value are bit-identical;
 *  - the engine matches a hand-rolled serial reference that runs one
 *    cold predictor per (scheme, benchmark) cell;
 *  - every cell starts from a cold predictor — no warmed HRT/PT state
 *    leaks from one benchmark into the next (regression guard for the
 *    old runSchemes, which reused one predictor per scheme column);
 *  - the streamed sweep (cells released as each trace lands) prints
 *    the same table and metrics at every jobs count, on a cold suite
 *    and on one warmed by preload(), Diff cells included;
 *  - the per-cell RNG seeding rule is a pure, collision-aware
 *    function of (scheme, benchmark).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheme_config.hh"
#include "harness/experiment.hh"
#include "harness/figure_runner.hh"
#include "harness/metrics_json.hh"
#include "harness/parallel_sweep.hh"
#include "predictors/scheme_factory.hh"
#include "util/thread_pool.hh"
#include "workloads/workload.hh"

namespace tlat::harness
{
namespace
{

// Small but non-trivial: every benchmark exercises HRT evictions and
// the tests stay fast enough for tier1.
constexpr std::uint64_t kBudget = 2000;

const std::vector<std::string> kFig5Schemes = {
    "AT(AHRT(512,12SR),PT(2^12,A2),)",
    "AT(AHRT(512,12SR),PT(2^12,A3),)",
    "AT(AHRT(512,12SR),PT(2^12,A4),)",
    "AT(AHRT(512,12SR),PT(2^12,LT),)",
};
const std::vector<std::string> kFig5Labels = {"A2", "A3", "A4", "LT"};

/** Exact bit equality — stricter than double ==, which would let
 *  +0.0 pass for -0.0. */
void
expectBitIdentical(double a, double b, const std::string &where)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
              std::bit_cast<std::uint64_t>(b))
        << where << ": " << a << " vs " << b;
}

/** Every cell, every mean, and the column order must match. */
void
expectReportsBitIdentical(const AccuracyReport &a,
                          const AccuracyReport &b)
{
    ASSERT_EQ(a.schemes(), b.schemes());
    for (const std::string &scheme : a.schemes()) {
        for (const std::string &bench : workloads::workloadNames()) {
            expectBitIdentical(a.cell(bench, scheme),
                               b.cell(bench, scheme),
                               bench + "/" + scheme);
        }
        expectBitIdentical(a.totalMean(scheme), b.totalMean(scheme),
                           "totalMean/" + scheme);
        expectBitIdentical(a.intMean(scheme), b.intMean(scheme),
                           "intMean/" + scheme);
        expectBitIdentical(a.fpMean(scheme), b.fpMean(scheme),
                           "fpMean/" + scheme);
    }
}

AccuracyReport
runFig5(unsigned jobs)
{
    // A fresh suite per run: trace generation itself happens under
    // the pool width being tested, so this covers preload
    // determinism, not just the cell engine.
    BenchmarkSuite suite(kBudget);
    return runSweep(suite, "fig5", kFig5Schemes, kFig5Labels, jobs);
}

TEST(ParallelSweep, SerialEquivalenceAcrossJobCounts)
{
    const AccuracyReport serial = runFig5(1);
    for (const unsigned jobs : {4u, 8u}) {
        const AccuracyReport parallel = runFig5(jobs);
        expectReportsBitIdentical(serial, parallel);
    }
}

TEST(ParallelSweep, RepeatedRunsAtSameJobCountAreIdentical)
{
    const AccuracyReport first = runFig5(6);
    const AccuracyReport second = runFig5(6);
    expectReportsBitIdentical(first, second);
}

TEST(ParallelSweep, MatchesHandRolledSerialReference)
{
    // Reference: the textbook serial protocol, one cold predictor per
    // cell, no thread pool anywhere.
    BenchmarkSuite ref_suite(kBudget);
    AccuracyReport reference(
        "fig5", workloads::workloadNames(),
        workloads::floatingPointWorkloadNames());
    for (std::size_t s = 0; s < kFig5Schemes.size(); ++s) {
        const auto config =
            core::SchemeConfig::parse(kFig5Schemes[s]);
        ASSERT_TRUE(config.has_value());
        for (const std::string &bench : ref_suite.benchmarks()) {
            const auto predictor = predictors::makePredictor(*config);
            const ExperimentResult result = runExperiment(
                *predictor, ref_suite.testTrace(bench), nullptr);
            reference.add(bench, kFig5Labels[s],
                          result.accuracy.accuracyPercent());
        }
    }
    expectReportsBitIdentical(reference, runFig5(5));
}

TEST(ParallelSweep, EveryCellStartsFromAColdPredictor)
{
    // Regression guard: the pre-engine runSchemes built one predictor
    // per scheme and carried it across all nine benchmarks. Each cell
    // of a full-suite sweep must equal a standalone run on a fresh
    // predictor that has never seen another benchmark.
    const std::string scheme = kFig5Schemes[0];
    BenchmarkSuite suite(kBudget);
    const AccuracyReport swept =
        runSchemes(suite, "cold", {scheme}, {"A2"}, 3);
    for (const std::string &bench : suite.benchmarks()) {
        const auto predictor = predictors::makePredictor(scheme);
        const ExperimentResult standalone = runExperiment(
            *predictor, suite.testTrace(bench), nullptr);
        expectBitIdentical(swept.cell(bench, "A2"),
                           standalone.accuracy.accuracyPercent(),
                           "cold cell " + bench);
    }
}

TEST(ParallelSweep, DiffCellsSkipBenchmarksWithoutTrainingSets)
{
    // Paper Table 3: four benchmarks have no distinct training set;
    // their Diff-data cells must stay empty at any jobs count, and
    // the measured cells must agree between serial and parallel.
    const std::vector<std::string> schemes = {
        "ST(AHRT(512,12SR),PT(2^12,PB),Diff)"};
    BenchmarkSuite serial_suite(kBudget);
    const AccuracyReport serial =
        runSweep(serial_suite, "st-diff", schemes, {"ST"}, 1);
    BenchmarkSuite parallel_suite(kBudget);
    const AccuracyReport parallel =
        runSweep(parallel_suite, "st-diff", schemes, {"ST"}, 4);

    for (const std::string &bench : serial_suite.benchmarks()) {
        const bool has_training =
            serial_suite.trainTrace(bench) != nullptr;
        EXPECT_EQ(serial.cell(bench, "ST") >= 0.0, has_training)
            << bench;
        expectBitIdentical(serial.cell(bench, "ST"),
                           parallel.cell(bench, "ST"), bench);
    }
}

// Same-data, Diff-data and untrained schemes in one grid, so the
// streamed sweep releases cells from test traces, from training
// traces, and from whichever of a pair arrives last.
const std::vector<std::string> kStreamSchemes = {
    "AT(AHRT(512,12SR),PT(2^12,A2),)",
    "ST(AHRT(512,12SR),PT(2^12,PB),Diff)",
    "ST(IHRT(,6SR),PT(2^6,PB),Same)",
    "LS(AHRT(512,A2),,)",
};

/** The printed table followed by every cell's metrics document. */
std::string
renderStreamSweep(BenchmarkSuite &suite, unsigned jobs)
{
    std::vector<RunMetricsReport> metrics;
    const AccuracyReport report =
        runSweep(suite, "stream", kStreamSchemes, {}, jobs, &metrics);
    std::ostringstream os;
    report.print(os);
    for (const RunMetricsReport &cell : metrics)
        os << runMetricsJsonString(cell) << "\n";
    return os.str();
}

TEST(ParallelSweep, StreamedSweepIsByteIdenticalColdAndWarm)
{
    // Cold: every trace is generated inside the sweep, and each one
    // releases its cells as it lands. Warm: preload() already cached
    // the traces (all of them, or only the test sets, leaving the
    // training sets to the sweep). Table and metrics must not move.
    BenchmarkSuite cold_serial(kBudget);
    const std::string expected = renderStreamSweep(cold_serial, 1);
    EXPECT_NE(expected.find(" - "), std::string::npos)
        << "the Diff scheme leaves benchmarks without a training set "
           "empty";
    for (const unsigned jobs : {1u, 3u, 8u}) {
        BenchmarkSuite cold(kBudget);
        EXPECT_EQ(renderStreamSweep(cold, jobs), expected)
            << "cold, jobs=" << jobs;
        for (const bool include_training : {false, true}) {
            BenchmarkSuite warm(kBudget);
            {
                util::ThreadPool pool(2);
                warm.preload(pool, include_training);
            }
            EXPECT_EQ(renderStreamSweep(warm, jobs), expected)
                << "warm (training " << include_training
                << "), jobs=" << jobs;
        }
    }
}

TEST(ParallelSweep, StreamedDiffCellsMatchSerialReference)
{
    // Every cell, Diff ones included, equals the textbook serial run
    // on the suite's cached traces: a Diff cell trains on its own
    // benchmark's training trace, never on another's.
    BenchmarkSuite suite(kBudget);
    const AccuracyReport swept =
        runSweep(suite, "stream", kStreamSchemes, {}, 4);
    for (const std::string &scheme : kStreamSchemes) {
        const auto config = core::SchemeConfig::parse(scheme);
        ASSERT_TRUE(config.has_value());
        for (const std::string &bench : suite.benchmarks()) {
            const trace::TraceBuffer *train = nullptr;
            if (config->data == core::DataMode::Diff) {
                train = suite.trainTrace(bench);
                if (!train) {
                    EXPECT_LT(swept.cell(bench, scheme), 0.0) << bench;
                    continue;
                }
            }
            const auto predictor = predictors::makePredictor(*config);
            const ExperimentResult result = runExperiment(
                *predictor, suite.testTrace(bench), train);
            expectBitIdentical(swept.cell(bench, scheme),
                               result.accuracy.accuracyPercent(),
                               bench + "/" + scheme);
        }
    }
}

TEST(CellSeed, PureFunctionOfSchemeAndBenchmark)
{
    EXPECT_EQ(cellSeed("AT(...)", "gcc"), cellSeed("AT(...)", "gcc"));
    EXPECT_NE(cellSeed("AT(...)", "gcc"), cellSeed("AT(...)", "li"));
    EXPECT_NE(cellSeed("AT(...)", "gcc"), cellSeed("LS(...)", "gcc"));
    // Swapping the roles must matter...
    EXPECT_NE(cellSeed("gcc", "li"), cellSeed("li", "gcc"));
    // ...and the separator keeps concatenations apart.
    EXPECT_NE(cellSeed("ab", "c"), cellSeed("a", "bc"));
}

TEST(CellSeed, SpreadsAcrossTheFigureGrid)
{
    std::set<std::uint64_t> seeds;
    for (const std::string &scheme : kFig5Schemes)
        for (const std::string &bench : workloads::workloadNames())
            seeds.insert(cellSeed(scheme, bench));
    EXPECT_EQ(seeds.size(),
              kFig5Schemes.size() * workloads::workloadNames().size());
}

TEST(DefaultJobs, ReadsTlatJobsUpToTheBound)
{
    ::setenv("TLAT_JOBS", "1", 1);
    EXPECT_EQ(defaultJobs(), 1u);
    ::setenv("TLAT_JOBS", "256", 1);
    EXPECT_EQ(defaultJobs(), kMaxJobs);
    ::unsetenv("TLAT_JOBS");
    EXPECT_EQ(defaultJobs(), util::ThreadPool::hardwareThreads());
}

TEST(DefaultJobsDeath, OutOfRangeOrJunkTlatJobsIsFatal)
{
    // defaultJobs() only reads the value and builds no pool, so none
    // of these starts a thread. 4294967296 is 2^32, which a narrowing
    // cast to unsigned would turn into 0.
    for (const char *value : {"0", "257", "4294967296", "junk"}) {
        ::setenv("TLAT_JOBS", value, 1);
        EXPECT_EXIT(defaultJobs(), ::testing::ExitedWithCode(1),
                    "TLAT_JOBS.*want 1 <= N <= 256")
            << value;
    }
    ::unsetenv("TLAT_JOBS");
}

} // namespace
} // namespace tlat::harness
