/**
 * @file
 * Extension bench: the two-level design space beyond the paper.
 *
 * The MICRO-24 scheme is "PAg" — per-address history registers, one
 * global pattern table — so its column is AT(IHRT). The authors'
 * follow-up work explores the full scope matrix; this bench measures
 * the interesting corners on the benchmark suite at equal history
 * length, plus the gshare refinement of the global-history point.
 */

#include <cmath>

#include "bench_common.hh"
#include "core/two_level_predictor.hh"
#include "harness/experiment.hh"
#include "predictors/scheme_factory.hh"
#include "util/table_printer.hh"
#include "workloads/workload.hh"

namespace
{

using namespace tlat;

core::TwoLevelConfig
makeConfig(core::HistoryScope history, core::PatternScope pattern,
           bool xor_address = false)
{
    core::TwoLevelConfig config;
    config.hrtKind = core::TableKind::Ideal;
    config.historyScope = history;
    config.patternScope = pattern;
    config.historyBits = 12;
    config.setBits = 4;
    config.xorAddress = xor_address;
    return config;
}

} // namespace

int
main()
{
    using namespace tlat;
    bench::BenchRecorder record("variants_taxonomy");
    bench::printHeader(
        "Extension: two-level variants",
        "GAg / GAg+xor / SAg / PAg (the paper) / PAs / PAp at 12 "
        "history bits.");

    const core::TwoLevelConfig configs[] = {
        makeConfig(core::HistoryScope::Global,
                   core::PatternScope::Global),
        makeConfig(core::HistoryScope::Global,
                   core::PatternScope::Global, true),
        makeConfig(core::HistoryScope::PerSet,
                   core::PatternScope::Global),
        makeConfig(core::HistoryScope::PerAddress,
                   core::PatternScope::Global),
        makeConfig(core::HistoryScope::PerAddress,
                   core::PatternScope::PerSet),
        makeConfig(core::HistoryScope::PerAddress,
                   core::PatternScope::PerAddress),
    };

    harness::BenchmarkSuite suite;
    TablePrinter table("prediction accuracy (percent)");
    {
        std::vector<std::string> header = {"benchmark"};
        for (const auto &config : configs)
            header.push_back(
                core::TwoLevelPredictor(config).name());
        table.setHeader(header);
    }

    std::vector<double> log_sums(std::size(configs), 0.0);
    for (const std::string &name : suite.benchmarks()) {
        const trace::TraceBuffer &trace = suite.testTrace(name);
        std::vector<std::string> row = {name};
        for (std::size_t c = 0; c < std::size(configs); ++c) {
            core::TwoLevelPredictor predictor(configs[c]);
            const double accuracy =
                harness::measure(predictor, trace).accuracyPercent();
            log_sums[c] += std::log(accuracy);
            row.push_back(TablePrinter::percentCell(accuracy));
        }
        table.addRow(row);
    }
    table.addSeparator();
    std::vector<std::string> mean_row = {"Tot G Mean"};
    for (double log_sum : log_sums) {
        mean_row.push_back(TablePrinter::percentCell(std::exp(
            log_sum /
            static_cast<double>(suite.benchmarks().size()))));
    }
    table.addRow(mean_row);
    table.print(std::cout);
    for (std::size_t c = 0; c < std::size(configs); ++c) {
        record.addScalar(
            core::TwoLevelPredictor(configs[c]).name() +
                "_total_mean",
            std::exp(log_sums[c] /
                     static_cast<double>(suite.benchmarks().size())));
    }

    // ---- H2P leg: the adversarial workloads through the taxonomy --
    //
    // The paper scheme over the analytic kernels, reported through
    // the hard-to-predict classification: alternating must collapse
    // to zero H2P sites, datadep/kmp surface Chaotic sites, burst's
    // boundary misses are Systematic. Recorded to BENCH_h2p.json so
    // CI archives the taxonomy alongside the accuracy grids.
    bench::BenchRecorder h2p_record("h2p");
    TablePrinter h2p_table(
        "adversarial workloads, AT(IHRT(,6SR),PT(2^6,A2),) taxonomy");
    h2p_table.setHeader({"workload", "accuracy", "sites", "h2p sites",
                         "systematic", "transient"});
    for (const std::string &name :
         workloads::adversarialWorkloadNames()) {
        const trace::TraceBuffer &trace = suite.testTrace(name);
        const auto predictor =
            predictors::makePredictor("AT(IHRT(,6SR),PT(2^6,A2),)");
        const harness::RunMetricsReport report =
            harness::runProfiledExperiment(*predictor, trace);
        h2p_table.addRow(
            {name,
             TablePrinter::percentCell(
                 report.accuracy.accuracyPercent()),
             std::to_string(report.h2p.staticSites),
             std::to_string(report.h2p.h2pSiteCount),
             std::to_string(report.h2p.systematicMisses),
             std::to_string(report.h2p.transientMisses)});
        h2p_record.addScalar(name + "_accuracy_percent",
                             report.accuracy.accuracyPercent());
        h2p_record.addScalar(
            name + "_h2p_sites",
            static_cast<double>(report.h2p.h2pSiteCount));
        h2p_record.addScalar(
            name + "_systematic_misses",
            static_cast<double>(report.h2p.systematicMisses));
        h2p_record.addScalar(
            name + "_transient_misses",
            static_cast<double>(report.h2p.transientMisses));
    }
    h2p_table.print(std::cout);

    bench::printExpectation(
        "per-address history (the paper's choice) beats global "
        "history at equal length; finer pattern-table scope adds "
        "little once histories are per-address (PAg ~ PAs ~ PAp); "
        "xor recovers part of GAg's alias loss. This matches the "
        "follow-up literature on two-level variants.");
    return 0;
}
