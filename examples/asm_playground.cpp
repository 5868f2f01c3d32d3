/**
 * @file
 * Assembler playground: write micro88 assembly, run it, and watch how
 * different predictors handle each static branch.
 *
 * The built-in program is a nested loop with one data-dependent
 * branch; pass a file path to assemble your own program instead.
 *
 * Usage: asm_playground [program.s]
 */

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "core/two_level_predictor.hh"
#include "isa/assembler.hh"
#include "isa/disassembler.hh"
#include "sim/simulator.hh"

namespace
{

const char *kDefaultProgram = R"(
# Nested loop with a data-dependent branch: the inner branch
# alternates in a period-3 pattern that defeats a plain 2-bit
# counter but is trivially captured by pattern history.
        li   r1, 0          # outer counter
outer:
        li   r2, 0          # inner counter
inner:
        # data-dependent: taken when (r1 + r2) % 3 != 0
        add  r3, r1, r2
        li   r4, 3
        rem  r3, r3, r4
        beq  r3, r0, skip
        addi r5, r5, 1
skip:
        addi r2, r2, 1
        li   r4, 6
        blt  r2, r4, inner
        addi r1, r1, 1
        li   r4, 2000
        blt  r1, r4, outer
        halt
)";

} // namespace

int
main(int argc, char **argv)
{
    using namespace tlat;

    std::string source = kDefaultProgram;
    if (argc > 1) {
        std::ifstream file(argv[1]);
        if (!file) {
            std::cerr << "cannot open " << argv[1] << '\n';
            return 1;
        }
        std::ostringstream buffer;
        buffer << file.rdbuf();
        source = buffer.str();
    }

    const isa::Program program =
        isa::assembleOrDie(source, "playground");
    std::cout << isa::disassemble(program) << '\n';

    const trace::TraceBuffer trace = sim::collectTrace(program, 0);
    std::cout << "executed: " << trace.conditionalCount()
              << " conditional branches\n\n";

    core::TwoLevelConfig at_config;
    at_config.hrtKind = core::TableKind::Ideal;
    at_config.historyBits = 8;
    core::TwoLevelPredictor at(at_config);

    // Lee-Smith: the same engine with the automaton in the HRT entry.
    core::TwoLevelConfig ls_config;
    ls_config.patternScope = core::PatternScope::InEntry;
    ls_config.hrtKind = core::TableKind::Ideal;
    core::TwoLevelPredictor ls(ls_config);

    for (core::BranchPredictor *predictor :
         {static_cast<core::BranchPredictor *>(&at),
          static_cast<core::BranchPredictor *>(&ls)}) {
        // Per-branch accuracy breakdown.
        std::map<std::uint64_t, std::pair<std::uint64_t,
                                          std::uint64_t>> per_pc;
        for (const trace::BranchRecord &record : trace.records()) {
            if (record.cls != trace::BranchClass::Conditional)
                continue;
            const bool correct =
                predictor->predict(record) == record.taken;
            auto &[hits, total] = per_pc[record.pc];
            hits += correct ? 1 : 0;
            ++total;
            predictor->update(record);
        }

        std::cout << predictor->name() << ":\n";
        std::uint64_t hits = 0;
        std::uint64_t total = 0;
        for (const auto &[pc, counts] : per_pc) {
            std::cout << "  branch @" << pc / 4 << ": "
                      << 100.0 * counts.first / counts.second
                      << " % over " << counts.second
                      << " executions\n";
            hits += counts.first;
            total += counts.second;
        }
        std::cout << "  overall: " << 100.0 * hits / total << " %\n\n";
    }
    return 0;
}
