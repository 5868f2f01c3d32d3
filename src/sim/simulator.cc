#include "simulator.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

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

/**
 * One instruction of the per-run program copy. The block fields are
 * read where control enters a block at this pc.
 */
struct Slot
{
    const void *handler = nullptr; ///< label of the opcode's handler
    std::int32_t imm = 0;
    std::uint8_t rd = 0; ///< kNumRegisters (the scratch slot) for r0
    std::uint8_t rs1 = 0;
    std::uint8_t rs2 = 0;
    /** Instructions from this pc through the one that ends its block. */
    std::uint64_t length = 0;
    /** Times control entered a block at this pc. */
    std::uint64_t entries = 0;
};

/** True for the instructions that end a basic block. */
bool
endsBlock(isa::Opcode opcode)
{
    return isa::isControlFlow(opcode) || opcode == isa::Opcode::Halt;
}

/**
 * Folds the block-entry counts of a finished run into the instruction
 * mix and counters of @p result. An instruction ran once per block
 * entered at its pc, plus once per run of its predecessor unless that
 * predecessor ends a block; the @p capped_length instructions from
 * @p capped_start ran once more, in the block the cap cut short.
 */
void
foldCounts(const std::vector<isa::Instruction> &code,
           const std::vector<Slot> &slots,
           std::uint64_t capped_start, std::uint64_t capped_length,
           SimResult &result)
{
    std::uint64_t op_counts[kNumOpcodes] = {};
    std::uint64_t runs = 0;
    for (std::uint64_t pc = 0; pc < code.size(); ++pc) {
        if (pc > 0 && endsBlock(code[pc - 1].opcode))
            runs = 0;
        runs += slots[pc].entries;
        const bool capped = pc - capped_start < capped_length;
        op_counts[static_cast<std::size_t>(code[pc].opcode)] +=
            runs + (capped ? 1 : 0);
    }

    trace::InstructionMix &mix = result.mix;
    for (std::size_t op = 0; op < kNumOpcodes; ++op) {
        const std::uint64_t count = op_counts[op];
        const auto opcode = static_cast<isa::Opcode>(op);
        result.instructions += count;
        if (isa::isConditionalBranch(opcode))
            result.conditionalBranches += count;
        switch (isa::opcodeGroup(opcode)) {
          case isa::InstrGroup::IntAlu: mix.intAlu += count; break;
          case isa::InstrGroup::FpAlu: mix.fpAlu += count; break;
          case isa::InstrGroup::Memory: mix.memory += count; break;
          case isa::InstrGroup::ControlFlow:
            // Every control-flow instruction reports one branch.
            mix.controlFlow += count;
            result.branches += count;
            break;
          case isa::InstrGroup::Other: mix.other += count; break;
        }
    }
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
}

/**
 * Where runLoop() delivers executed branches: appended to a trace
 * buffer (collectTrace), handed to a callback (run()), or, with
 * neither set, dropped.
 */
struct Simulator::RecordSink
{
    const BranchSink *callback = nullptr;
    trace::TraceBuffer *buffer = nullptr;
    /** Buffer every branch, not only the conditional ones. */
    bool keepAll = false;
    /** Stop after this many conditional branches; 0 never stops. */
    std::uint64_t conditionalBudget = 0;
    std::uint64_t conditionalSeen = 0;

    /**
     * Takes one executed branch (pcs as instruction indices); false
     * stops the run. Inlined into each branch handler, where the
     * class is a constant.
     */
    [[gnu::always_inline]] bool
    deliver(trace::BranchClass cls, std::uint64_t from, std::uint64_t to,
            bool taken, bool is_call)
    {
        trace::BranchRecord record;
        record.pc = from * isa::kInstructionBytes;
        record.target = to * isa::kInstructionBytes;
        record.cls = cls;
        record.taken = taken;
        record.isCall = is_call;
        if (buffer == nullptr)
            return callback == nullptr || (*callback)(record);
        const bool conditional = cls == trace::BranchClass::Conditional;
        if (conditional || keepAll)
            buffer->append(record);
        return !conditional || conditionalBudget == 0 ||
               ++conditionalSeen < conditionalBudget;
    }
};

SimResult
Simulator::runLoop(RecordSink &sink, const SimOptions &options)
{
    tlat_assert(!ran_, "Simulator::run() called twice");
    ran_ = true;
    tlat_assert(!program_.code.empty(), "empty program");

    using trace::BranchClass;
    SimResult result;

    // Handler label of each opcode, in Opcode order. Labels as values
    // and computed goto are this file's GNU extensions, each spelled
    // with __extension__ (CONTRIBUTING.md).
    static const void *const kHandlers[] = {
        __extension__ &&op_add, __extension__ &&op_sub,
        __extension__ &&op_mul, __extension__ &&op_div,
        __extension__ &&op_rem, __extension__ &&op_and,
        __extension__ &&op_or, __extension__ &&op_xor,
        __extension__ &&op_sll, __extension__ &&op_srl,
        __extension__ &&op_sra, __extension__ &&op_slt,
        __extension__ &&op_sltu, __extension__ &&op_addi,
        __extension__ &&op_andi, __extension__ &&op_ori,
        __extension__ &&op_xori, __extension__ &&op_slli,
        __extension__ &&op_srli, __extension__ &&op_srai,
        __extension__ &&op_slti, __extension__ &&op_li,
        __extension__ &&op_fadd, __extension__ &&op_fsub,
        __extension__ &&op_fmul, __extension__ &&op_fdiv,
        __extension__ &&op_fneg, __extension__ &&op_fabs,
        __extension__ &&op_fsqrt, __extension__ &&op_fcvt,
        __extension__ &&op_ftoi, __extension__ &&op_flt,
        __extension__ &&op_fle, __extension__ &&op_feq,
        __extension__ &&op_ld, __extension__ &&op_st,
        __extension__ &&op_beq, __extension__ &&op_bne,
        __extension__ &&op_blt, __extension__ &&op_bge,
        __extension__ &&op_bltu, __extension__ &&op_bgeu,
        __extension__ &&op_jmp, __extension__ &&op_call,
        __extension__ &&op_jr, __extension__ &&op_ret,
        __extension__ &&op_nop, __extension__ &&op_halt,
    };
    static_assert(sizeof(kHandlers) / sizeof(kHandlers[0]) ==
                      kNumOpcodes,
                  "handler table out of sync with Opcode enum");

    // Predecode the per-run copy. Slot code_size is the pc one past
    // the end: a block that falls off the program runs into its
    // handler, which is the pc-bound fatal.
    const std::uint64_t code_size = program_.code.size();
    std::vector<Slot> slots(code_size + 1);
    for (std::uint64_t pc = 0; pc < code_size; ++pc) {
        const isa::Instruction &in = program_.code[pc];
        const auto op = static_cast<std::size_t>(in.opcode);
        if (op >= kNumOpcodes) {
            tlat_panic("unhandled opcode in simulator: byte ", op,
                       " at pc ", pc);
        }
        if (in.rd >= isa::kNumRegisters ||
            in.rs1 >= isa::kNumRegisters ||
            in.rs2 >= isa::kNumRegisters) {
            tlat_panic("register index out of range in simulator at "
                       "pc ", pc);
        }
        Slot &slot = slots[pc];
        slot.handler = kHandlers[op];
        slot.imm = in.imm;
        // Writes to r0 land in the scratch register, so r0 reads zero
        // without a test on every write.
        slot.rd = in.rd == isa::kZeroReg ? isa::kNumRegisters : in.rd;
        slot.rs1 = in.rs1;
        slot.rs2 = in.rs2;
    }
    slots[code_size].handler = __extension__ &&off_end;
    slots[code_size].length = 1;
    for (std::uint64_t pc = code_size; pc-- > 0;) {
        slots[pc].length = endsBlock(program_.code[pc].opcode)
                               ? 1
                               : slots[pc + 1].length + 1;
    }

    std::uint64_t *const r = regs_;
    Slot *const base = slots.data();
    Slot *ip = base;
    std::uint64_t remaining = options.maxInstructions;
    std::uint64_t wild_pc = 0; // a jump target outside the code

// Jumps to the handler of the instruction at `ip`. Every handler ends
// in its own copy of this jump, so the host predicts each opcode's
// successor separately rather than through one shared switch jump.
#define TLAT_SIM_DISPATCH() __extension__({ goto *ip->handler; })

// Enters the block at `slot`. The cap is the only per-block test: when
// fewer instructions remain than the block holds, the cold path
// patches a stop handler in at the cap.
#define TLAT_SIM_ENTER(slot)                                             \
    do {                                                                 \
        ip = (slot);                                                     \
        if (ip->length > remaining) [[unlikely]]                         \
            goto cap_in_block;                                           \
        remaining -= ip->length;                                         \
        ++ip->entries;                                                   \
        TLAT_SIM_DISPATCH();                                             \
    } while (0)

// Enters the block at a computed `pc`, which may lie outside the code.
#define TLAT_SIM_ENTER_PC(pc)                                            \
    do {                                                                 \
        if ((pc) >= code_size) [[unlikely]] {                            \
            wild_pc = (pc);                                              \
            goto wild_jump;                                              \
        }                                                                \
        TLAT_SIM_ENTER(base + (pc));                                     \
    } while (0)

// The operands every handler may read.
#define TLAT_SIM_OPERANDS()                                              \
    [[maybe_unused]] const std::uint64_t a = r[ip->rs1];                 \
    [[maybe_unused]] const std::uint64_t b = r[ip->rs2];                 \
    [[maybe_unused]] const auto sa = static_cast<std::int64_t>(a);       \
    [[maybe_unused]] const auto sb = static_cast<std::int64_t>(b);       \
    [[maybe_unused]] const std::int32_t imm = ip->imm

// A straight-line instruction writing rd.
#define TLAT_SIM_WRITE(label, ...)                                       \
    label: {                                                             \
        TLAT_SIM_OPERANDS();                                             \
        r[ip->rd] = (__VA_ARGS__);                                       \
        ++ip;                                                            \
        TLAT_SIM_DISPATCH();                                             \
    }

// A conditional branch: report, then enter the target or fall through.
#define TLAT_SIM_BRANCH_IF(label, ...)                                   \
    label: {                                                             \
        TLAT_SIM_OPERANDS();                                             \
        const bool taken = (__VA_ARGS__);                                \
        const auto at = static_cast<std::uint64_t>(ip - base);           \
        const std::uint64_t target = at + static_cast<std::int64_t>(imm); \
        if (!sink.deliver(BranchClass::Conditional, at, target, taken,   \
                          false))                                        \
            goto sink_stop;                                              \
        if (taken)                                                       \
            TLAT_SIM_ENTER_PC(target);                                   \
        TLAT_SIM_ENTER(ip + 1);                                          \
    }

// An unconditional transfer from `at` to `target`.
#define TLAT_SIM_TRANSFER(cls, is_call)                                  \
    do {                                                                 \
        if (!sink.deliver(cls, at, target, true, is_call))               \
            goto sink_stop;                                              \
        TLAT_SIM_ENTER_PC(target);                                       \
    } while (0)

    TLAT_SIM_ENTER_PC(program_.entry);

    TLAT_SIM_WRITE(op_add, a + b)
    TLAT_SIM_WRITE(op_sub, a - b)
    TLAT_SIM_WRITE(op_mul, a * b)
    // Division by zero is defined (not trapped) so workload bugs
    // surface as wrong data, not simulator crashes.
    TLAT_SIM_WRITE(op_div,
                   sb == 0 ? 0 : static_cast<std::uint64_t>(sa / sb))
    TLAT_SIM_WRITE(op_rem,
                   sb == 0 ? a : static_cast<std::uint64_t>(sa % sb))
    TLAT_SIM_WRITE(op_and, a & b)
    TLAT_SIM_WRITE(op_or, a | b)
    TLAT_SIM_WRITE(op_xor, a ^ b)
    TLAT_SIM_WRITE(op_sll, a << (b & 63))
    TLAT_SIM_WRITE(op_srl, a >> (b & 63))
    TLAT_SIM_WRITE(op_sra, static_cast<std::uint64_t>(sa >> (b & 63)))
    TLAT_SIM_WRITE(op_slt, sa < sb ? 1 : 0)
    TLAT_SIM_WRITE(op_sltu, a < b ? 1 : 0)

    TLAT_SIM_WRITE(op_addi, a + static_cast<std::int64_t>(imm))
    TLAT_SIM_WRITE(op_andi, a & static_cast<std::uint32_t>(imm & 0xffff))
    TLAT_SIM_WRITE(op_ori, a | static_cast<std::uint32_t>(imm & 0xffff))
    TLAT_SIM_WRITE(op_xori, a ^ static_cast<std::uint32_t>(imm & 0xffff))
    TLAT_SIM_WRITE(op_slli, a << (imm & 63))
    TLAT_SIM_WRITE(op_srli, a >> (imm & 63))
    TLAT_SIM_WRITE(op_srai, static_cast<std::uint64_t>(sa >> (imm & 63)))
    TLAT_SIM_WRITE(op_slti, sa < static_cast<std::int64_t>(imm) ? 1 : 0)
    TLAT_SIM_WRITE(op_li, static_cast<std::uint64_t>(
                              static_cast<std::int64_t>(imm)))

    TLAT_SIM_WRITE(op_fadd, asBits(asDouble(a) + asDouble(b)))
    TLAT_SIM_WRITE(op_fsub, asBits(asDouble(a) - asDouble(b)))
    TLAT_SIM_WRITE(op_fmul, asBits(asDouble(a) * asDouble(b)))
    TLAT_SIM_WRITE(op_fdiv, asBits(asDouble(a) / asDouble(b)))
    TLAT_SIM_WRITE(op_fneg, asBits(-asDouble(a)))
    TLAT_SIM_WRITE(op_fabs, asBits(std::fabs(asDouble(a))))
    TLAT_SIM_WRITE(op_fsqrt, asBits(std::sqrt(asDouble(a))))
    TLAT_SIM_WRITE(op_fcvt, asBits(static_cast<double>(sa)))
    TLAT_SIM_WRITE(op_ftoi, static_cast<std::uint64_t>(
                                static_cast<std::int64_t>(asDouble(a))))
    TLAT_SIM_WRITE(op_flt, asDouble(a) < asDouble(b) ? 1 : 0)
    TLAT_SIM_WRITE(op_fle, asDouble(a) <= asDouble(b) ? 1 : 0)
    TLAT_SIM_WRITE(op_feq, asDouble(a) == asDouble(b) ? 1 : 0)

    TLAT_SIM_WRITE(op_ld, memory_.load(a + static_cast<std::int64_t>(imm)))
op_st: {
    TLAT_SIM_OPERANDS();
    memory_.store(a + static_cast<std::int64_t>(imm), b);
    ++ip;
    TLAT_SIM_DISPATCH();
}

    TLAT_SIM_BRANCH_IF(op_beq, a == b)
    TLAT_SIM_BRANCH_IF(op_bne, a != b)
    TLAT_SIM_BRANCH_IF(op_blt, sa < sb)
    TLAT_SIM_BRANCH_IF(op_bge, sa >= sb)
    TLAT_SIM_BRANCH_IF(op_bltu, a < b)
    TLAT_SIM_BRANCH_IF(op_bgeu, a >= b)

op_jmp: {
    const auto at = static_cast<std::uint64_t>(ip - base);
    const std::uint64_t target = at + static_cast<std::int64_t>(ip->imm);
    TLAT_SIM_TRANSFER(BranchClass::ImmediateUnconditional, false);
}
op_call: {
    const auto at = static_cast<std::uint64_t>(ip - base);
    const std::uint64_t target = at + static_cast<std::int64_t>(ip->imm);
    r[isa::kLinkReg] = (at + 1) * isa::kInstructionBytes;
    TLAT_SIM_TRANSFER(BranchClass::ImmediateUnconditional, true);
}
op_jr: {
    const auto at = static_cast<std::uint64_t>(ip - base);
    const std::uint64_t target = r[ip->rs1] / isa::kInstructionBytes;
    TLAT_SIM_TRANSFER(BranchClass::RegisterUnconditional, false);
}
op_ret: {
    const auto at = static_cast<std::uint64_t>(ip - base);
    const std::uint64_t target = r[isa::kLinkReg] / isa::kInstructionBytes;
    TLAT_SIM_TRANSFER(BranchClass::Return, false);
}

op_nop:
    ++ip;
    TLAT_SIM_DISPATCH();
op_halt:
    if (options.restartOnHalt) {
        // Registers and pc restart from the entry point; data memory
        // is kept.
        resetCpu();
        TLAT_SIM_ENTER_PC(program_.entry);
    }
    result.stopReason = StopReason::Halted;
    goto done;

#undef TLAT_SIM_TRANSFER
#undef TLAT_SIM_BRANCH_IF
#undef TLAT_SIM_WRITE
#undef TLAT_SIM_OPERANDS
#undef TLAT_SIM_ENTER_PC
#undef TLAT_SIM_ENTER

cap_in_block:
    // The cap ends the run `remaining` instructions into the block at
    // `ip`. A block runs straight through to its last instruction, so
    // the stop handler patched in there is always reached.
    ip[remaining].handler = __extension__ &&cap_stop;
    TLAT_SIM_DISPATCH();
#undef TLAT_SIM_DISPATCH

off_end:
    wild_pc = code_size;
    goto ran_off_end;
wild_jump:
    // As at every block entry, the cap is checked before the pc.
    if (remaining == 0)
        goto cap_stop;
ran_off_end:
    tlat_fatal("pc ", wild_pc, " ran off the end of program '",
               program_.name, "' (", code_size, " instructions)");
cap_stop:
    // `ip` is the stop, `remaining` instructions past the capped
    // block's start (none after a wild jump).
    result.stopReason = StopReason::InstructionCap;
    foldCounts(program_.code, slots,
               static_cast<std::uint64_t>(ip - base) - remaining,
               remaining, result);
    return result;
sink_stop:
    result.stopReason = StopReason::SinkRequest;
done:
    foldCounts(program_.code, slots, 0, 0, result);
    return result;
}

SimResult
Simulator::run(const BranchSink &sink, const SimOptions &options)
{
    RecordSink records;
    if (sink)
        records.callback = &sink;
    return runLoop(records, options);
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

    Simulator::RecordSink records;
    records.buffer = &buffer;
    records.keepAll = keep_all;
    records.conditionalBudget = conditionalBudget;
    const SimResult result = simulator.runLoop(records, options);
    buffer.mix() = result.mix;
    return buffer;
}

} // namespace tlat::sim
