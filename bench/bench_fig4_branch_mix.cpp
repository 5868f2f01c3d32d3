/**
 * @file
 * Figure 4: distribution of dynamic branch instructions across the
 * four branch classes of the paper's methodology section. The paper
 * reports about 80% of dynamic branches are conditional.
 */

#include "bench_common.hh"
#include "trace/trace_stats.hh"
#include "util/table_printer.hh"

int
main()
{
    using namespace tlat;
    bench::BenchRecorder record("fig4_branch_mix");
    bench::printHeader(
        "Figure 4", "Distribution of dynamic branch instructions.");

    TablePrinter table(
        "dynamic branch class mix (percent of dynamic branches)");
    table.setHeader({"benchmark", "conditional", "return",
                     "imm uncond", "reg uncond", "dyn branches",
                     "taken %"});

    double conditional_sum = 0;
    int count = 0;
    for (const std::string &name : workloads::workloadNames()) {
        const trace::TraceStats stats =
            trace::computeStats(bench::fullTestTrace(name));
        const auto pct = [&stats](trace::BranchClass cls) {
            return TablePrinter::percentCell(
                100.0 * stats.classFraction(cls));
        };
        table.addRow(
            {name, pct(trace::BranchClass::Conditional),
             pct(trace::BranchClass::Return),
             pct(trace::BranchClass::ImmediateUnconditional),
             pct(trace::BranchClass::RegisterUnconditional),
             std::to_string(stats.dynamicBranches()),
             TablePrinter::percentCell(100.0 *
                                       stats.takenFraction())});
        conditional_sum +=
            100.0 * stats.classFraction(trace::BranchClass::Conditional);
        ++count;
    }
    table.addSeparator();
    table.addRow({"mean",
                  TablePrinter::percentCell(conditional_sum / count),
                  "", "", "", "", ""});
    table.print(std::cout);

    bench::printExpectation(
        "about 80% of the dynamic branch instructions are "
        "conditional branches; about 60% of conditional branches are "
        "taken.");
    return 0;
}
