/**
 * @file
 * The micro88 instruction-level simulator — the trace generator of this
 * study, standing in for the Motorola 88100 ISIM of the paper's
 * methodology section.
 *
 * The simulator executes a Program to completion (Halt) or until an
 * instruction budget or the trace sink stops it, reporting every
 * executed branch to the sink and accumulating the dynamic instruction
 * mix.
 */

#ifndef TLAT_SIM_SIMULATOR_HH
#define TLAT_SIM_SIMULATOR_HH

#include <cstdint>
#include <functional>
#include <limits>

#include "isa/program.hh"
#include "memory.hh"
#include "trace/trace_buffer.hh"

namespace tlat::sim
{

/** Why a simulation run ended. */
enum class StopReason : std::uint8_t
{
    Halted,          ///< the program executed Halt
    InstructionCap,  ///< the instruction budget was exhausted
    SinkRequest      ///< the trace sink asked to stop
};

/** Summary of one simulation run. */
struct SimResult
{
    StopReason stopReason = StopReason::Halted;
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t conditionalBranches = 0;
    trace::InstructionMix mix;
};

/** Which branch records collectTrace() stores in the trace. */
enum class RecordFilter : std::uint8_t
{
    All,        ///< every executed branch (`tlat trace`, goldens)
    Conditional ///< conditional branches only (what predictors read)
};

/**
 * Receives executed-branch callbacks during simulation.
 * Returning false stops the run after the current instruction.
 */
using BranchSink = std::function<bool(const trace::BranchRecord &)>;

/** Configuration for a simulation run. */
struct SimOptions
{
    /** Hard cap on executed instructions. */
    std::uint64_t maxInstructions =
        std::numeric_limits<std::uint64_t>::max();

    /**
     * Restart the program when it halts instead of stopping. This is
     * how short workloads are extended to an arbitrary branch budget:
     * registers and the pc are reset; *data memory is preserved*, so
     * successive iterations see the data the previous iteration
     * mutated.
     */
    bool restartOnHalt = false;
};

/** Executes micro88 programs. */
class Simulator
{
  public:
    /** Builds a simulator with a fresh memory sized for @p program. */
    explicit Simulator(const isa::Program &program);

    /**
     * Runs until Halt, the instruction cap, or the sink stops it.
     * A null @p sink runs without reporting branches. May be called
     * only once per Simulator instance.
     */
    SimResult run(const BranchSink &sink,
                  const SimOptions &options = SimOptions{});

    /** Read a register (for tests). */
    std::uint64_t reg(unsigned index) const { return regs_[index]; }

    /** The data memory (for tests and post-run inspection). */
    Memory &memory() { return memory_; }
    const Memory &memory() const { return memory_; }

  private:
    friend trace::TraceBuffer collectTrace(const isa::Program &program,
                                           std::uint64_t conditionalBudget,
                                           std::uint64_t maxInstructions,
                                           RecordFilter filter);

    /**
     * The interpreter loop, shared by run() and collectTrace(). @p sink
     * is any callable taking a BranchRecord and returning false to
     * stop, so a concrete sink inlines into the loop.
     */
    template <typename Sink>
    SimResult runLoop(Sink &&sink, const SimOptions &options);

    void resetCpu();

    const isa::Program &program_;
    Memory memory_;
    std::uint64_t regs_[isa::kNumRegisters] = {};
    std::uint64_t pc_ = 0;
    bool ran_ = false;
};

/**
 * Convenience helper: runs @p program collecting conditional branches
 * until @p conditionalBudget of them executed (restarting on halt), and
 * returns the trace. A budget of 0 means "run to natural completion
 * once".
 *
 * @p filter chooses the records the trace keeps; the instruction mix
 * always counts the whole run. RecordFilter::Conditional stores each
 * conditional record once and nothing else, which is all a predictor
 * reads.
 *
 * With a nonzero budget the trace storage is sized before the run.
 * A conditional-only trace gets exactly the budget. A full trace gets
 * the budget for the conditional mirror and twice it for the record
 * vector (the suite workloads carry at most ~1.6 records per
 * conditional), so neither vector reallocates while the program
 * runs. A program with more unconditional branches grows the record
 * vector as usual past that point.
 */
trace::TraceBuffer collectTrace(const isa::Program &program,
                                std::uint64_t conditionalBudget,
                                std::uint64_t maxInstructions =
                                    std::numeric_limits<
                                        std::uint64_t>::max(),
                                RecordFilter filter = RecordFilter::All);

} // namespace tlat::sim

#endif // TLAT_SIM_SIMULATOR_HH
