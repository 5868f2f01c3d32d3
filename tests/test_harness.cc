/**
 * @file
 * Unit tests for the harness layer: the experiment driver, the trace
 * suite, the scheme factory and the paper-style accuracy report.
 */

#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/figure_runner.hh"
#include "harness/report.hh"
#include "harness/suite.hh"
#include "predictors/scheme_factory.hh"
#include "predictors/static_predictors.hh"
#include "sim/simulator.hh"
#include "trace/trace_filter.hh"
#include "workloads/workload.hh"

namespace tlat::harness
{
namespace
{

trace::BranchRecord
conditional(std::uint64_t pc, bool taken)
{
    trace::BranchRecord record;
    record.pc = pc;
    record.target = pc + 16;
    record.cls = trace::BranchClass::Conditional;
    record.taken = taken;
    return record;
}

TEST(Measure, CountsOnlyConditionalBranches)
{
    trace::TraceBuffer buffer("t");
    buffer.append(conditional(4, true));
    trace::BranchRecord jump;
    jump.pc = 8;
    jump.cls = trace::BranchClass::ImmediateUnconditional;
    jump.taken = true;
    buffer.append(jump);
    buffer.append(conditional(4, false));

    predictors::AlwaysTakenPredictor predictor;
    const AccuracyCounter accuracy = measure(predictor, buffer);
    EXPECT_EQ(accuracy.total(), 2u);
    EXPECT_EQ(accuracy.hits(), 1u);
}

TEST(RunExperiment, TrainsOnTestTraceWhenNoTrainingTraceGiven)
{
    trace::TraceBuffer buffer("bench");
    for (int i = 0; i < 10; ++i)
        buffer.append(conditional(4, false)); // always not taken

    auto profile = predictors::makePredictor("Profile");
    const ExperimentResult result = runExperiment(*profile, buffer);
    // Profile trained on the test trace predicts not-taken: perfect.
    EXPECT_DOUBLE_EQ(result.accuracy.accuracyPercent(), 100.0);
    EXPECT_EQ(result.benchmark, "bench");
    EXPECT_EQ(result.scheme, "Profile");
}

TEST(RunExperiment, UsesProvidedTrainingTrace)
{
    trace::TraceBuffer test("test");
    for (int i = 0; i < 10; ++i)
        test.append(conditional(4, false));
    trace::TraceBuffer train("train");
    for (int i = 0; i < 10; ++i)
        train.append(conditional(4, true)); // opposite behaviour

    auto profile = predictors::makePredictor("Profile");
    const ExperimentResult result =
        runExperiment(*profile, test, &train);
    EXPECT_DOUBLE_EQ(result.accuracy.accuracyPercent(), 0.0);
}

TEST(RunExperiment, ResetsPredictorState)
{
    trace::TraceBuffer all_taken("t");
    for (int i = 0; i < 50; ++i)
        all_taken.append(conditional(4, true));
    trace::TraceBuffer all_not("n");
    for (int i = 0; i < 50; ++i)
        all_not.append(conditional(4, false));

    auto at = predictors::makePredictor(
        "AT(IHRT(,4SR),PT(2^4,A2),)");
    runExperiment(*at, all_not);
    // Second experiment must start from the taken-biased initial
    // state, not from the not-taken state the first run left.
    const ExperimentResult result = runExperiment(*at, all_taken);
    EXPECT_DOUBLE_EQ(result.accuracy.accuracyPercent(), 100.0);
}

TEST(SchemeFactory, BuildsEveryFamily)
{
    const char *names[] = {
        "AT(AHRT(512,12SR),PT(2^12,A2),)",
        "AT(HHRT(256,8SR),PT(2^8,LT),)",
        "AT(IHRT(,6SR),PT(2^6,A3),)",
        "ST(AHRT(512,12SR),PT(2^12,PB),Same)",
        "ST(IHRT(,12SR),PT(2^12,PB),Diff)",
        "LS(AHRT(512,A2),,)",
        "LS(IHRT(,LT),,)",
        "AlwaysTaken",
        "AlwaysNotTaken",
        "BTFN",
        "Profile",
    };
    for (const char *name : names) {
        const auto predictor = predictors::makePredictor(name);
        ASSERT_NE(predictor, nullptr) << name;
        EXPECT_EQ(predictor->name(), name);
    }
}

TEST(SchemeFactoryDeath, BadNameIsFatal)
{
    EXPECT_EXIT(predictors::makePredictor("gshare"),
                ::testing::ExitedWithCode(1), "unparsable");
}

TEST(Suite, CachesTraces)
{
    BenchmarkSuite suite(500);
    const trace::TraceBuffer &first = suite.testTrace("matrix300");
    const trace::TraceBuffer &second = suite.testTrace("matrix300");
    EXPECT_EQ(&first, &second); // same object: cached
    EXPECT_EQ(first.conditionalCount(), 500u);
}

TEST(Suite, BinaryTraceCacheRoundTrips)
{
    // With TLAT_TRACE_CACHE_DIR set, a second suite must load the
    // persisted binary trace instead of re-simulating, and the loaded
    // trace must be bit-identical to the generated one.
    const std::string dir = ::testing::TempDir() + "tlat_trace_cache";
    ::setenv("TLAT_TRACE_CACHE_DIR", dir.c_str(), 1);

    BenchmarkSuite generator(400);
    const trace::TraceBuffer &generated =
        generator.testTrace("eqntott");
    const std::string cache_file =
        dir + "/eqntott-" +
        workloads::makeWorkload("eqntott")->testSet() +
        "-400.cond.tltr";
    EXPECT_TRUE(std::ifstream(cache_file).good())
        << "expected cache file " << cache_file;

    BenchmarkSuite loader(400);
    const trace::TraceBuffer &loaded = loader.testTrace("eqntott");
    ::unsetenv("TLAT_TRACE_CACHE_DIR");

    ASSERT_EQ(loaded.size(), generated.size());
    ASSERT_EQ(loaded.conditionalCount(),
              generated.conditionalCount());
    EXPECT_EQ(loaded.name(), generated.name());
    EXPECT_EQ(loaded.mix().total(), generated.mix().total());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].pc, generated[i].pc) << i;
        EXPECT_EQ(loaded[i].target, generated[i].target) << i;
        EXPECT_EQ(loaded[i].cls, generated[i].cls) << i;
        EXPECT_EQ(loaded[i].taken, generated[i].taken) << i;
        EXPECT_EQ(loaded[i].isCall, generated[i].isCall) << i;
        if (::testing::Test::HasFailure())
            break;
    }
}

/** Every mix counter, not just the total. */
void
expectSameMix(const trace::InstructionMix &a,
              const trace::InstructionMix &b, const std::string &where)
{
    EXPECT_EQ(a.intAlu, b.intAlu) << where;
    EXPECT_EQ(a.fpAlu, b.fpAlu) << where;
    EXPECT_EQ(a.memory, b.memory) << where;
    EXPECT_EQ(a.controlFlow, b.controlFlow) << where;
    EXPECT_EQ(a.other, b.other) << where;
}

TEST(Suite, TracesAreTheConditionalStreamOfTheFullTrace)
{
    // A suite trace is the full collectTrace() run with only its
    // conditional records kept, and the whole run's mix: test and
    // training sets alike.
    constexpr std::uint64_t kBudget = 3000;
    BenchmarkSuite suite(kBudget);
    for (const std::string &name : suite.benchmarks()) {
        const auto workload = workloads::makeWorkload(name);
        std::vector<std::pair<std::string, const trace::TraceBuffer *>>
            traces{{workload->testSet(), &suite.testTrace(name)}};
        if (const auto train = workload->trainSet())
            traces.emplace_back(*train, suite.trainTrace(name));
        for (const auto &[set, trace] : traces) {
            const std::string where = name + "/" + set;
            const trace::TraceBuffer expected = trace::filterByClass(
                sim::collectTrace(workload->build(set), kBudget),
                trace::BranchClass::Conditional);
            EXPECT_EQ(trace->name(), name) << where;
            EXPECT_EQ(trace->records(), expected.records()) << where;
            EXPECT_EQ(trace->conditionalCount(), kBudget) << where;
            EXPECT_EQ(trace->conditionalView().data(),
                      trace->records().data())
                << where << ": stored once";
            expectSameMix(trace->mix(), expected.mix(), where);
        }
    }
}

TEST(Suite, TrainTraceOnlyWhereTable3HasOne)
{
    BenchmarkSuite suite(200);
    EXPECT_EQ(suite.trainTrace("matrix300"), nullptr);
    EXPECT_EQ(suite.trainTrace("eqntott"), nullptr);
    EXPECT_NE(suite.trainTrace("li"), nullptr);
    EXPECT_NE(suite.trainTrace("gcc"), nullptr);
}

TEST(Suite, FpClassification)
{
    BenchmarkSuite suite(100);
    EXPECT_TRUE(suite.isFloatingPoint("tomcatv"));
    EXPECT_FALSE(suite.isFloatingPoint("gcc"));
}

TEST(Report, GeometricMeansAndMissingCells)
{
    AccuracyReport report("fig", {"a", "b", "c"}, {"c"});
    report.add("a", "s1", 90.0);
    report.add("b", "s1", 160.0);
    report.add("c", "s1", 40.0);
    report.add("a", "s2", 50.0);
    // s1 complete: total gmean = cbrt(90*160*40) = 83.2..
    EXPECT_NEAR(report.totalMean("s1"), 83.2034, 1e-3);
    EXPECT_NEAR(report.intMean("s1"), 120.0, 1e-9);
    EXPECT_NEAR(report.fpMean("s1"), 40.0, 1e-9);
    // s2 incomplete: means report missing.
    EXPECT_LT(report.totalMean("s2"), 0.0);
    EXPECT_LT(report.cell("b", "s2"), 0.0);
    EXPECT_DOUBLE_EQ(report.cell("a", "s2"), 50.0);
}

TEST(Report, PrintsPaperLayout)
{
    AccuracyReport report("Figure X", {"a", "b"}, {"b"});
    report.add("a", "s", 97.0);
    report.add("b", "s", 99.0);
    std::ostringstream oss;
    report.print(oss);
    const std::string text = oss.str();
    EXPECT_NE(text.find("Figure X"), std::string::npos);
    EXPECT_NE(text.find("Int G Mean"), std::string::npos);
    EXPECT_NE(text.find("FP G Mean"), std::string::npos);
    EXPECT_NE(text.find("Tot G Mean"), std::string::npos);
    EXPECT_NE(text.find("97.00"), std::string::npos);
}

TEST(Report, CsvOutput)
{
    AccuracyReport report("fig", {"a"}, {});
    report.add("a", "s1", 97.5);
    std::ostringstream oss;
    report.printCsv(oss);
    EXPECT_EQ(oss.str(), "benchmark,s1\na,97.5000\n");
}

TEST(FigureRunner, RunsSchemesOverSuite)
{
    BenchmarkSuite suite(300);
    const AccuracyReport report = runSchemes(
        suite, "test", {"AlwaysTaken", "BTFN"}, {"AT-col", "B-col"});
    EXPECT_EQ(report.schemes(),
              (std::vector<std::string>{"AT-col", "B-col"}));
    for (const std::string &benchmark : suite.benchmarks()) {
        EXPECT_GE(report.cell(benchmark, "AT-col"), 0.0) << benchmark;
        EXPECT_GE(report.cell(benchmark, "B-col"), 0.0) << benchmark;
    }
    EXPECT_GT(report.totalMean("AT-col"), 0.0);
}

TEST(FigureRunner, DiffSchemesSkipBenchmarksWithoutTrainingSets)
{
    BenchmarkSuite suite(300);
    const AccuracyReport report = runSchemes(
        suite, "test", {"ST(IHRT(,6SR),PT(2^6,PB),Diff)"}, {"st"});
    EXPECT_LT(report.cell("matrix300", "st"), 0.0);
    EXPECT_LT(report.cell("eqntott", "st"), 0.0);
    EXPECT_GE(report.cell("li", "st"), 0.0);
    EXPECT_GE(report.cell("gcc", "st"), 0.0);
    // And therefore no total mean.
    EXPECT_LT(report.totalMean("st"), 0.0);
}

TEST(BranchBudget, EnvOverride)
{
    ::setenv("TLAT_BRANCH_BUDGET", "12345", 1);
    EXPECT_EQ(branchBudgetFromEnv(), 12345u);
    ::setenv("TLAT_BRANCH_BUDGET", "2^10", 1);
    EXPECT_EQ(branchBudgetFromEnv(), 1024u);
    ::unsetenv("TLAT_BRANCH_BUDGET");
    EXPECT_EQ(branchBudgetFromEnv(), kDefaultBranchBudget);
}

} // namespace
} // namespace tlat::harness
