#include "simulator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "util/logging.hh"

namespace tlat::sim
{

namespace
{

constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(isa::Opcode::NumOpcodes);

/**
 * Largest conditional budget collectTrace() reserves storage for
 * up front (~1.2 GiB of address space across both vectors, touched
 * only as records arrive). Larger budgets reserve this much and grow
 * past it, so an absurd budget cannot fail one huge allocation.
 */
constexpr std::uint64_t kMaxReservedConditionals = std::uint64_t{1}
                                                   << 24;

double
asDouble(std::uint64_t bits)
{
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

std::uint64_t
asBits(double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

} // namespace

Simulator::Simulator(const isa::Program &program)
    : program_(program),
      memory_(program.dataWords ? program.dataWords : 1)
{
    memory_.initialize(program.initialData);
    resetCpu();
}

void
Simulator::resetCpu()
{
    std::memset(regs_, 0, sizeof(regs_));
    pc_ = program_.entry;
}

template <typename Sink>
SimResult
Simulator::runLoop(Sink &&sink, const SimOptions &options)
{
    tlat_assert(!ran_, "Simulator::run() called twice");
    ran_ = true;
    tlat_assert(!program_.code.empty(), "empty program");

    using isa::Opcode;
    SimResult result;

    // Dynamic count per opcode, folded into the instruction mix once
    // the run ends.
    std::uint64_t op_counts[kNumOpcodes] = {};

    const isa::Instruction *const code = program_.code.data();
    const std::uint64_t code_size = program_.code.size();
    bool stop = false;

    while (!stop) {
        if (result.instructions >= options.maxInstructions) {
            result.stopReason = StopReason::InstructionCap;
            break;
        }
        if (pc_ >= code_size) {
            tlat_fatal("pc ", pc_, " ran off the end of program '",
                       program_.name, "' (", code_size,
                       " instructions)");
        }

        const isa::Instruction &in = code[pc_];
        ++result.instructions;

        const auto rd = in.rd;
        const std::uint64_t a = regs_[in.rs1];
        const std::uint64_t b = regs_[in.rs2];
        const auto sa = static_cast<std::int64_t>(a);
        const auto sb = static_cast<std::int64_t>(b);
        const std::int32_t imm = in.imm;
        std::uint64_t next_pc = pc_ + 1;

        // Writes go through this lambda so r0 stays hardwired to zero.
        const auto write = [this](unsigned reg, std::uint64_t value) {
            if (reg != isa::kZeroReg)
                regs_[reg] = value;
        };

        // Reports a branch to the sink; sets `stop` on sink request.
        const auto report = [&](trace::BranchClass cls,
                                std::uint64_t target_pc, bool taken,
                                bool is_call = false) {
            ++result.branches;
            if (cls == trace::BranchClass::Conditional)
                ++result.conditionalBranches;
            trace::BranchRecord record;
            record.pc = pc_ * isa::kInstructionBytes;
            record.target = target_pc * isa::kInstructionBytes;
            record.cls = cls;
            record.taken = taken;
            record.isCall = is_call;
            if (!sink(record)) {
                result.stopReason = StopReason::SinkRequest;
                stop = true;
            }
        };

        const auto condBranch = [&](bool taken) {
            const std::uint64_t target =
                pc_ + static_cast<std::int64_t>(imm);
            report(trace::BranchClass::Conditional, target, taken);
            if (taken)
                next_pc = target;
        };

        switch (in.opcode) {
          case Opcode::Add: write(rd, a + b); break;
          case Opcode::Sub: write(rd, a - b); break;
          case Opcode::Mul: write(rd, a * b); break;
          case Opcode::Div:
            // Division by zero is defined (not trapped) so workload
            // bugs surface as wrong data, not simulator crashes.
            write(rd, sb == 0
                          ? 0
                          : static_cast<std::uint64_t>(sa / sb));
            break;
          case Opcode::Rem:
            write(rd, sb == 0
                          ? a
                          : static_cast<std::uint64_t>(sa % sb));
            break;
          case Opcode::And: write(rd, a & b); break;
          case Opcode::Or: write(rd, a | b); break;
          case Opcode::Xor: write(rd, a ^ b); break;
          case Opcode::Sll: write(rd, a << (b & 63)); break;
          case Opcode::Srl: write(rd, a >> (b & 63)); break;
          case Opcode::Sra:
            write(rd, static_cast<std::uint64_t>(sa >> (b & 63)));
            break;
          case Opcode::Slt: write(rd, sa < sb ? 1 : 0); break;
          case Opcode::Sltu: write(rd, a < b ? 1 : 0); break;

          case Opcode::Addi:
            write(rd, a + static_cast<std::int64_t>(imm));
            break;
          case Opcode::Andi:
            write(rd, a & static_cast<std::uint32_t>(imm & 0xffff));
            break;
          case Opcode::Ori:
            write(rd, a | static_cast<std::uint32_t>(imm & 0xffff));
            break;
          case Opcode::Xori:
            write(rd, a ^ static_cast<std::uint32_t>(imm & 0xffff));
            break;
          case Opcode::Slli: write(rd, a << (imm & 63)); break;
          case Opcode::Srli: write(rd, a >> (imm & 63)); break;
          case Opcode::Srai:
            write(rd, static_cast<std::uint64_t>(sa >> (imm & 63)));
            break;
          case Opcode::Slti:
            write(rd, sa < static_cast<std::int64_t>(imm) ? 1 : 0);
            break;
          case Opcode::Li:
            write(rd, static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(imm)));
            break;

          case Opcode::Fadd:
            write(rd, asBits(asDouble(a) + asDouble(b)));
            break;
          case Opcode::Fsub:
            write(rd, asBits(asDouble(a) - asDouble(b)));
            break;
          case Opcode::Fmul:
            write(rd, asBits(asDouble(a) * asDouble(b)));
            break;
          case Opcode::Fdiv:
            write(rd, asBits(asDouble(a) / asDouble(b)));
            break;
          case Opcode::Fneg: write(rd, asBits(-asDouble(a))); break;
          case Opcode::Fabs:
            write(rd, asBits(std::fabs(asDouble(a))));
            break;
          case Opcode::Fsqrt:
            write(rd, asBits(std::sqrt(asDouble(a))));
            break;
          case Opcode::Fcvt:
            write(rd, asBits(static_cast<double>(sa)));
            break;
          case Opcode::Ftoi:
            write(rd, static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(asDouble(a))));
            break;
          case Opcode::Flt:
            write(rd, asDouble(a) < asDouble(b) ? 1 : 0);
            break;
          case Opcode::Fle:
            write(rd, asDouble(a) <= asDouble(b) ? 1 : 0);
            break;
          case Opcode::Feq:
            write(rd, asDouble(a) == asDouble(b) ? 1 : 0);
            break;

          case Opcode::Ld:
            write(rd,
                  memory_.load(a + static_cast<std::int64_t>(imm)));
            break;
          case Opcode::St:
            memory_.store(a + static_cast<std::int64_t>(imm), b);
            break;

          case Opcode::Beq: condBranch(a == b); break;
          case Opcode::Bne: condBranch(a != b); break;
          case Opcode::Blt: condBranch(sa < sb); break;
          case Opcode::Bge: condBranch(sa >= sb); break;
          case Opcode::Bltu: condBranch(a < b); break;
          case Opcode::Bgeu: condBranch(a >= b); break;

          case Opcode::Jmp: {
            const std::uint64_t target =
                pc_ + static_cast<std::int64_t>(imm);
            report(trace::BranchClass::ImmediateUnconditional, target,
                   true);
            next_pc = target;
            break;
          }
          case Opcode::Call: {
            const std::uint64_t target =
                pc_ + static_cast<std::int64_t>(imm);
            write(isa::kLinkReg,
                  (pc_ + 1) * isa::kInstructionBytes);
            report(trace::BranchClass::ImmediateUnconditional, target,
                   true, /*is_call=*/true);
            next_pc = target;
            break;
          }
          case Opcode::Jr: {
            const std::uint64_t target = a / isa::kInstructionBytes;
            report(trace::BranchClass::RegisterUnconditional, target,
                   true);
            next_pc = target;
            break;
          }
          case Opcode::Ret: {
            const std::uint64_t target =
                regs_[isa::kLinkReg] / isa::kInstructionBytes;
            report(trace::BranchClass::Return, target, true);
            next_pc = target;
            break;
          }

          case Opcode::Nop:
            break;
          case Opcode::Halt:
            if (options.restartOnHalt) {
                // Registers and pc restart from the entry point; data
                // memory is kept.
                resetCpu();
                next_pc = pc_;
                break;
            }
            result.stopReason = StopReason::Halted;
            stop = true;
            break;

          default:
            tlat_panic("unhandled opcode in simulator");
        }

        ++op_counts[static_cast<std::size_t>(in.opcode)];
        if (!stop)
            pc_ = next_pc;
    }

    trace::InstructionMix &mix = result.mix;
    for (std::size_t op = 0; op < kNumOpcodes; ++op) {
        const std::uint64_t count = op_counts[op];
        switch (isa::opcodeGroup(static_cast<Opcode>(op))) {
          case isa::InstrGroup::IntAlu: mix.intAlu += count; break;
          case isa::InstrGroup::FpAlu: mix.fpAlu += count; break;
          case isa::InstrGroup::Memory: mix.memory += count; break;
          case isa::InstrGroup::ControlFlow:
            mix.controlFlow += count;
            break;
          case isa::InstrGroup::Other: mix.other += count; break;
        }
    }
    return result;
}

SimResult
Simulator::run(const BranchSink &sink, const SimOptions &options)
{
    if (!sink) {
        return runLoop([](const trace::BranchRecord &) { return true; },
                       options);
    }
    return runLoop(sink, options);
}

trace::TraceBuffer
collectTrace(const isa::Program &program,
             std::uint64_t conditionalBudget,
             std::uint64_t maxInstructions, RecordFilter filter)
{
    Simulator simulator(program);
    trace::TraceBuffer buffer(program.name);
    const bool keep_all = filter == RecordFilter::All;
    if (conditionalBudget != 0) {
        const auto conditional = static_cast<std::size_t>(
            std::min(conditionalBudget, kMaxReservedConditionals));
        if (keep_all)
            buffer.reserve(2 * conditional, conditional);
        else
            buffer.reserve(conditional, 0);
    }

    SimOptions options;
    options.maxInstructions = maxInstructions;
    options.restartOnHalt = conditionalBudget != 0;

    // The filter is a compile-time constant of the sink: a run-time
    // test inside it slows the whole interpreter loop it inlines into.
    std::uint64_t conditional_seen = 0;
    const auto collect = [&](auto all) {
        return simulator.runLoop(
            [&](const trace::BranchRecord &record) {
                const bool conditional =
                    record.cls == trace::BranchClass::Conditional;
                if (all || conditional)
                    buffer.append(record);
                if (conditional) {
                    ++conditional_seen;
                    if (conditionalBudget != 0 &&
                        conditional_seen >= conditionalBudget)
                        return false;
                }
                return true;
            },
            options);
    };
    const SimResult result = keep_all ? collect(std::true_type{})
                                      : collect(std::false_type{});
    buffer.mix() = result.mix;
    return buffer;
}

} // namespace tlat::sim
