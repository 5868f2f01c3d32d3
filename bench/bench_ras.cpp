/**
 * @file
 * Section 4 companion experiment: return address stack target
 * prediction. "A return address is pushed onto the stack when a
 * subroutine is called and is popped as the prediction ... The
 * return address prediction may miss when the return address stack
 * overflows." Sweeps the stack depth per benchmark.
 */

#include "bench_common.hh"
#include "harness/ras_experiment.hh"
#include "util/table_printer.hh"

int
main()
{
    using namespace tlat;
    bench::BenchRecorder record("ras");
    bench::printHeader(
        "Section 4: return address stack",
        "Return-target hit rate versus stack depth.");

    const std::size_t depths[] = {1, 2, 4, 8, 16, 32};

    TablePrinter table("return-target hit rate (percent)");
    {
        std::vector<std::string> header = {"benchmark", "returns"};
        for (std::size_t depth : depths)
            header.push_back("depth " + std::to_string(depth));
        table.setHeader(header);
    }

    for (const std::string &name : workloads::workloadNames()) {
        const trace::TraceBuffer trace = bench::fullTestTrace(name);
        std::vector<std::string> row = {name};
        const harness::RasResult probe =
            harness::runRasExperiment(trace, 1);
        row.push_back(std::to_string(probe.returns));
        for (std::size_t depth : depths) {
            if (probe.returns == 0) {
                row.push_back("-");
                continue;
            }
            const harness::RasResult result =
                harness::runRasExperiment(trace, depth);
            row.push_back(TablePrinter::percentCell(
                result.hitRate() * 100.0));
        }
        table.addRow(row);
    }
    table.print(std::cout);

    bench::printExpectation(
        "returns are perfectly predictable once the stack covers the "
        "call depth; shallow stacks lose exactly the overflowed "
        "frames (visible on the recursion-heavy li and the "
        "call-structured doduc/eqntott).");
    return 0;
}
