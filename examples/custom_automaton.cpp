/**
 * @file
 * Custom predictor example: the library's BranchPredictor interface is
 * open — this example implements GAg-style *global*-history two-level
 * prediction (a single shared history register instead of the paper's
 * per-address registers, in later literature the paper's design is
 * "PAg" and this one "GAg") and compares both on a benchmark.
 *
 * It also shows the automaton framework directly by simulating a
 * hand-rolled pattern sequence through each of the five automata.
 *
 * Usage: custom_automaton [benchmark]
 */

#include <iostream>

#include "core/automaton.hh"
#include "core/pattern_table.hh"
#include "core/two_level_predictor.hh"
#include "harness/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace
{

using namespace tlat;

/** Two-level prediction with one global history register (GAg). */
class GlobalHistoryPredictor : public core::BranchPredictor
{
  public:
    GlobalHistoryPredictor(unsigned history_bits,
                           core::AutomatonKind kind)
        : history_bits_(history_bits),
          mask_((1u << history_bits) - 1), history_(mask_),
          table_(history_bits, kind)
    {
    }

    std::string
    name() const override
    {
        return "GAg(" + std::to_string(history_bits_) + "," +
               core::automatonName(table_.automatonKind()) + ")";
    }

    bool
    predict(const trace::BranchRecord &) override
    {
        return table_.predict(history_);
    }

    void
    update(const trace::BranchRecord &record) override
    {
        table_.update(history_, record.taken);
        history_ =
            ((history_ << 1) | (record.taken ? 1u : 0u)) & mask_;
    }

    void
    reset() override
    {
        history_ = mask_;
        table_.reset();
    }

  private:
    unsigned history_bits_;
    std::uint32_t mask_;
    std::uint32_t history_;
    core::PatternTable table_;
};

void
traceAutomata()
{
    // Feed the classic loop pattern T T T N through every automaton
    // and print the prediction it settles on.
    const bool outcomes[] = {true, true, true, false};
    std::cout << "automaton behaviour on repeating T T T N:\n";
    for (unsigned k = 0;
         k < static_cast<unsigned>(core::AutomatonKind::NumKinds);
         ++k) {
        // lambda and delta are the spec's two tables (paper
        // equations 1 and 2).
        const core::AutomatonSpec &spec =
            core::automatonSpec(static_cast<core::AutomatonKind>(k));
        std::uint8_t state = spec.initialState;
        unsigned correct = 0;
        unsigned total = 0;
        for (int pass = 0; pass < 64; ++pass) {
            for (bool outcome : outcomes) {
                if (spec.predictTaken[state] == outcome)
                    ++correct;
                ++total;
                state = spec.nextState[state][outcome ? 1 : 0];
            }
        }
        std::cout << "  " << spec.name << ": "
                  << 100.0 * correct / total << " % correct\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string benchmark = argc > 1 ? argv[1] : "gcc";

    traceAutomata();

    const auto workload = workloads::makeWorkload(benchmark);
    const trace::TraceBuffer trace =
        sim::collectTrace(workload->buildTest(), 100000);

    core::TwoLevelConfig config;
    config.hrtKind = core::TableKind::Ideal;
    config.historyBits = 12;
    core::TwoLevelPredictor per_address(config);

    GlobalHistoryPredictor global(12, core::AutomatonKind::A2);

    std::cout << "\n" << benchmark << " (100k conditional branches):\n";
    for (core::BranchPredictor *predictor :
         {static_cast<core::BranchPredictor *>(&per_address),
          static_cast<core::BranchPredictor *>(&global)}) {
        const AccuracyCounter accuracy =
            harness::measure(*predictor, trace);
        std::cout << "  " << predictor->name() << ": "
                  << accuracy.accuracyPercent() << " %\n";
    }
    std::cout << "\nPer-address history (the paper's design) usually "
                 "wins at equal history length;\nglobal history "
                 "needs longer registers to separate branches.\n";
    return 0;
}
