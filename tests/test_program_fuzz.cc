/**
 * @file
 * Structured fuzzing of the ISA/simulator/trace stack: generate
 * random — but terminating by construction — micro88 programs, run
 * them, and check global invariants:
 *
 *  - the run halts (no instruction-cap hit, no crash);
 *  - every branch record is well formed (pc within code, relative
 *    targets consistent, classes matching opcodes);
 *  - encode/decode round-trips the whole program image;
 *  - the run is deterministic (same program -> identical trace);
 *  - every predictor family survives the trace without disagreeing
 *    with its own re-run.
 *
 * Programs are generated structurally: straight-line ALU/FP/memory
 * blocks, bounded counted loops (possibly nested), forward
 * if/else diamonds on computed values, forward branches and jr jumps
 * into the middle of a straight-line block, and call/return pairs to
 * leaf subroutines. No irreducible control flow, so termination is
 * guaranteed without a watchdog.
 *
 * A cap sweep runs each program under every instruction cap up to a
 * bound and checks the result against the instruction stream that
 * the uncapped run's branch records imply.
 */

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "isa/encoding.hh"
#include "isa/program.hh"
#include "predictors/scheme_factory.hh"
#include "sim/simulator.hh"
#include "util/random.hh"

namespace tlat
{
namespace
{

using isa::ProgramBuilder;
using Label = isa::ProgramBuilder::Label;

/** Generates one structured random program. */
class ProgramFuzzer
{
  public:
    explicit ProgramFuzzer(std::uint64_t seed) : rng_(seed) {}

    isa::Program
    generate()
    {
        ProgramBuilder b("fuzz");
        data_base_ = b.bss(64); // shared scratch array
        b.loadImm(20, static_cast<std::int64_t>(data_base_));

        // A few leaf subroutines to call into.
        Label over = b.newLabel();
        b.jmp(over);
        const unsigned num_subs = 1 + rng_.nextBelow(3);
        for (unsigned s = 0; s < num_subs; ++s) {
            subroutines_.push_back(b.newLabel());
            b.bind(subroutines_.back());
            emitStraightLine(b, 2 + rng_.nextBelow(6));
            b.ret();
        }
        b.bind(over);

        emitBlockSequence(b, /*depth=*/0,
                          2 + rng_.nextBelow(4));
        b.halt();
        return b.build();
    }

  private:
    /** Random register in the scratch range r1..r15. */
    unsigned reg() { return 1 + rng_.nextBelow(15); }

    void
    emitStraightLine(ProgramBuilder &b, unsigned count)
    {
        for (unsigned i = 0; i < count; ++i) {
            switch (rng_.nextBelow(8)) {
              case 0: b.add(reg(), reg(), reg()); break;
              case 1: b.sub(reg(), reg(), reg()); break;
              case 2: b.mul(reg(), reg(), reg()); break;
              case 3:
                b.addi(reg(), reg(),
                       static_cast<std::int32_t>(
                           rng_.nextInRange(-100, 100)));
                break;
              case 4: b.fadd(reg(), reg(), reg()); break;
              case 5: b.xor_(reg(), reg(), reg()); break;
              case 6: {
                // Masked store into the scratch array.
                const unsigned value = reg();
                const unsigned addr = reg();
                b.andi(addr, addr, 63 * 8);
                b.andi(addr, addr, -8); // 0xfff8 zero-extended
                b.add(addr, addr, 20);
                b.st(addr, value, 0);
                break;
              }
              default: {
                const unsigned dst = reg();
                const unsigned addr = reg();
                b.andi(addr, addr, 63 * 8);
                b.andi(addr, addr, -8); // 0xfff8 zero-extended
                b.add(addr, addr, 20);
                b.ld(dst, addr, 0);
                break;
              }
            }
        }
    }

    void
    emitBlockSequence(ProgramBuilder &b, unsigned depth,
                      unsigned blocks)
    {
        for (unsigned block = 0; block < blocks; ++block) {
            switch (rng_.nextBelow(5)) {
              case 0:
                emitStraightLine(b, 1 + rng_.nextBelow(8));
                break;
              case 1:
                emitCountedLoop(b, depth);
                break;
              case 2:
                emitDiamond(b, depth);
                break;
              case 3:
                emitMidBlockEntry(b);
                break;
              default:
                if (!subroutines_.empty()) {
                    b.call(subroutines_[rng_.nextBelow(
                        subroutines_.size())]);
                } else {
                    b.nop();
                }
                break;
            }
        }
    }

    void
    emitCountedLoop(ProgramBuilder &b, unsigned depth)
    {
        // Dedicated counter registers per depth keep nesting sound.
        const unsigned counter = 16 + depth; // r16..r18
        const auto trips = static_cast<std::int32_t>(
            1 + rng_.nextBelow(6));
        b.li(counter, 0);
        Label loop = b.newLabel();
        b.bind(loop);
        if (depth < 2 && rng_.nextBool(0.4)) {
            emitBlockSequence(b, depth + 1, 1 + rng_.nextBelow(2));
        } else {
            emitStraightLine(b, 1 + rng_.nextBelow(5));
        }
        b.addi(counter, counter, 1);
        b.li(19, trips);
        b.blt(counter, 19, loop);
    }

    void
    emitDiamond(ProgramBuilder &b, unsigned depth)
    {
        Label else_part = b.newLabel();
        Label join = b.newLabel();
        switch (rng_.nextBelow(3)) {
          case 0: b.beq(reg(), reg(), else_part); break;
          case 1: b.blt(reg(), reg(), else_part); break;
          default: b.bgeu(reg(), reg(), else_part); break;
        }
        emitStraightLine(b, 1 + rng_.nextBelow(4));
        b.jmp(join);
        b.bind(else_part);
        if (depth < 2 && rng_.nextBool(0.3))
            emitBlockSequence(b, depth + 1, 1);
        else
            emitStraightLine(b, 1 + rng_.nextBelow(4));
        b.bind(join);
    }

    /**
     * A straight-line run entered at its head and, by a
     * data-dependent branch or by jr, in its middle:
     *
     *     bne  rA, rB, middle  ; branch into the middle
     *     bltu rC, rD, head    ; branch to the head
     *     la   r21, middle
     *     jr   r21             ; jump into the middle
     *   head:
     *     <straight line>
     *   middle:
     *     <straight line>
     */
    void
    emitMidBlockEntry(ProgramBuilder &b)
    {
        Label head = b.newLabel();
        Label middle = b.newLabel();
        b.bne(reg(), reg(), middle);
        b.bltu(reg(), reg(), head);
        b.la(21, middle);
        b.jr(21);
        b.bind(head);
        emitStraightLine(b, 1 + rng_.nextBelow(4));
        b.bind(middle);
        emitStraightLine(b, 1 + rng_.nextBelow(4));
    }

    Rng rng_;
    std::uint64_t data_base_ = 0;
    std::vector<Label> subroutines_;
};

class ProgramFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ProgramFuzz, RunsAndProducesWellFormedTrace)
{
    ProgramFuzzer fuzzer(GetParam());
    const isa::Program program = fuzzer.generate();
    ASSERT_GT(program.code.size(), 4u);

    // Encode/decode round trip over the whole image.
    for (const isa::Instruction &instruction : program.code) {
        ASSERT_TRUE(isa::isEncodable(instruction));
        const auto decoded = isa::decode(isa::encode(instruction));
        ASSERT_TRUE(decoded.has_value());
        EXPECT_EQ(*decoded, instruction);
    }

    sim::Simulator simulator(program);
    std::vector<trace::BranchRecord> records;
    sim::SimOptions options;
    options.maxInstructions = 2000000;
    const sim::SimResult result = simulator.run(
        [&](const trace::BranchRecord &record) {
            records.push_back(record);
            return true;
        },
        options);
    EXPECT_EQ(result.stopReason, sim::StopReason::Halted)
        << "structured program failed to terminate";

    const std::uint64_t code_bytes = program.code.size() * 4;
    for (const trace::BranchRecord &record : records) {
        EXPECT_LT(record.pc, code_bytes);
        EXPECT_LT(record.target, code_bytes);
        EXPECT_EQ(record.pc % 4, 0u);
        if (record.cls != trace::BranchClass::Conditional) {
            EXPECT_TRUE(record.taken);
        }
        const isa::Instruction &instruction =
            program.code[record.pc / 4];
        switch (record.cls) {
          case trace::BranchClass::Conditional:
            EXPECT_TRUE(isa::isConditionalBranch(instruction.opcode));
            break;
          case trace::BranchClass::Return:
            EXPECT_EQ(instruction.opcode, isa::Opcode::Ret);
            break;
          case trace::BranchClass::ImmediateUnconditional:
            EXPECT_TRUE(instruction.opcode == isa::Opcode::Jmp ||
                        instruction.opcode == isa::Opcode::Call);
            EXPECT_EQ(record.isCall,
                      instruction.opcode == isa::Opcode::Call);
            break;
          case trace::BranchClass::RegisterUnconditional:
            EXPECT_EQ(instruction.opcode, isa::Opcode::Jr);
            break;
          default:
            FAIL() << "bad class";
        }
    }

    // Determinism: a second run produces the identical trace.
    sim::Simulator again(program);
    std::vector<trace::BranchRecord> records2;
    again.run(
        [&](const trace::BranchRecord &record) {
            records2.push_back(record);
            return true;
        },
        options);
    EXPECT_EQ(records, records2);

    // Every predictor family digests the trace deterministically.
    trace::TraceBuffer buffer("fuzz");
    for (const auto &record : records)
        buffer.append(record);
    for (const char *scheme :
         {"AT(AHRT(512,12SR),PT(2^12,A2),)", "LS(HHRT(512,LT),,)",
          "ST(IHRT(,8SR),PT(2^8,PB),Same)", "BTFN"}) {
        auto first = predictors::makePredictor(scheme);
        auto second = predictors::makePredictor(scheme);
        if (first->needsTraining()) {
            first->train(buffer);
            second->train(buffer);
        }
        for (const auto &record : buffer.records()) {
            if (record.cls != trace::BranchClass::Conditional)
                continue;
            ASSERT_EQ(first->predict(record),
                      second->predict(record))
                << scheme;
            first->update(record);
            second->update(record);
        }
    }
}

/**
 * Differential check of the two simulator entry points: collectTrace()
 * must produce, record for record, what Simulator::run() hands a
 * std::function sink that appends and stops at the same budget, with
 * the same instruction mix. Covered once to the natural Halt and once
 * restarting on Halt at a budget of a few iterations; the instruction
 * cap ends restarts of programs with too few conditional branches.
 */
TEST_P(ProgramFuzz, CollectTraceMatchesFunctionSinkRun)
{
    ProgramFuzzer fuzzer(GetParam());
    const isa::Program program = fuzzer.generate();

    constexpr std::uint64_t kMaxInstructions = 200000;
    for (const std::uint64_t budget : {std::uint64_t{0},
                                       std::uint64_t{500}}) {
        const trace::TraceBuffer collected =
            sim::collectTrace(program, budget, kMaxInstructions);

        std::vector<trace::BranchRecord> records;
        std::uint64_t conditional_seen = 0;
        const sim::BranchSink sink =
            [&](const trace::BranchRecord &record) {
                records.push_back(record);
                if (record.cls == trace::BranchClass::Conditional &&
                    budget != 0 && ++conditional_seen >= budget)
                    return false;
                return true;
            };
        sim::SimOptions options;
        options.maxInstructions = kMaxInstructions;
        options.restartOnHalt = budget != 0;
        sim::Simulator simulator(program);
        const sim::SimResult result = simulator.run(sink, options);

        ASSERT_EQ(collected.size(), records.size())
            << "budget " << budget;
        for (std::size_t i = 0; i < records.size(); ++i)
            ASSERT_EQ(collected[i], records[i])
                << "record " << i << ", budget " << budget;
        EXPECT_EQ(collected.conditionalCount(),
                  result.conditionalBranches);
        EXPECT_EQ(collected.mix().intAlu, result.mix.intAlu);
        EXPECT_EQ(collected.mix().fpAlu, result.mix.fpAlu);
        EXPECT_EQ(collected.mix().memory, result.mix.memory);
        EXPECT_EQ(collected.mix().controlFlow, result.mix.controlFlow);
        EXPECT_EQ(collected.mix().other, result.mix.other);
        EXPECT_EQ(collected.mix().total(), result.instructions);
    }
}

/** Runs @p program under @p options, keeping every branch record. */
sim::SimResult
runCollecting(const isa::Program &program, const sim::SimOptions &options,
              std::vector<trace::BranchRecord> &records)
{
    records.clear();
    sim::Simulator simulator(program);
    return simulator.run(
        [&](const trace::BranchRecord &record) {
            records.push_back(record);
            return true;
        },
        options);
}

/**
 * Rebuilds the pcs a run executed from the program and the run's
 * branch records alone, without the simulator's block logic: control
 * runs straight on from the entry and leaves only at a branch (to the
 * record's target if taken) or at Halt (back to the entry when
 * @p restart). Stops after @p limit instructions, at a Halt without
 * restart, or at a branch the records do not reach; by then every
 * record must have been followed.
 */
std::vector<std::uint64_t>
replay(const isa::Program &program,
       const std::vector<trace::BranchRecord> &records, bool restart,
       std::uint64_t limit)
{
    std::vector<std::uint64_t> pcs;
    std::size_t next = 0; // the record of the next branch
    std::uint64_t pc = program.entry;
    while (pcs.size() < limit && pc < program.code.size()) {
        const isa::Opcode opcode = program.code[pc].opcode;
        if (isa::isControlFlow(opcode)) {
            if (next == records.size())
                break;
            const trace::BranchRecord &record = records[next++];
            EXPECT_EQ(record.pc, pc * isa::kInstructionBytes);
            pcs.push_back(pc);
            pc = record.taken ? record.target / isa::kInstructionBytes
                              : pc + 1;
            continue;
        }
        pcs.push_back(pc);
        if (opcode != isa::Opcode::Halt)
            ++pc;
        else if (restart)
            pc = program.entry;
        else
            break;
    }
    EXPECT_EQ(next, records.size());
    return pcs;
}

/** Adds one executed instruction of @p opcode to @p mix. */
void
countInstruction(trace::InstructionMix &mix, isa::Opcode opcode)
{
    switch (isa::opcodeGroup(opcode)) {
      case isa::InstrGroup::IntAlu: ++mix.intAlu; break;
      case isa::InstrGroup::FpAlu: ++mix.fpAlu; break;
      case isa::InstrGroup::Memory: ++mix.memory; break;
      case isa::InstrGroup::ControlFlow: ++mix.controlFlow; break;
      case isa::InstrGroup::Other: ++mix.other; break;
    }
}

/**
 * Instruction-cap sweep. A run capped at k instructions must stop
 * after exactly min(k, N) of them, N being the uncapped count: its
 * branch records are that prefix of the uncapped run's, its mix and
 * counters are those of the prefix's instructions (rebuilt by
 * replay()), and it stops on the cap, or on Halt once k >= N. Every
 * k up to a bound is tried, so the cap lands on every offset of
 * every block reached, including blocks entered mid-way. The
 * restart-on-Halt pass has no natural end; its reference is the run
 * capped at the bound, and the cap carries into later iterations.
 */
TEST_P(ProgramFuzz, EveryInstructionCapStopsAtThatPrefix)
{
    ProgramFuzzer fuzzer(GetParam());
    const isa::Program program = fuzzer.generate();
    constexpr std::uint64_t kMaxCap = 1500;

    for (const bool restart : {false, true}) {
        sim::SimOptions options;
        options.restartOnHalt = restart;
        options.maxInstructions =
            restart ? kMaxCap : std::numeric_limits<std::uint64_t>::max();
        std::vector<trace::BranchRecord> reference;
        const sim::SimResult uncapped =
            runCollecting(program, options, reference);
        const std::uint64_t n = uncapped.instructions;
        const std::vector<std::uint64_t> pcs =
            replay(program, reference, restart, n);
        ASSERT_EQ(pcs.size(), n) << "restart " << restart;

        // Without restart, one cap past the natural end must halt.
        const std::uint64_t last = restart ? n : n + 1;
        std::vector<std::uint64_t> caps;
        for (std::uint64_t k = 0; k <= std::min(last, kMaxCap); ++k)
            caps.push_back(k);
        if (last > kMaxCap)
            caps.insert(caps.end(), {n, n + 1});

        // The mix and counters of the first `executed` instructions.
        trace::InstructionMix mix;
        std::size_t branches = 0;
        std::uint64_t conditional = 0;
        std::uint64_t executed = 0;
        for (const std::uint64_t k : caps) {
            for (; executed < std::min(k, n); ++executed) {
                const isa::Opcode opcode =
                    program.code[pcs[executed]].opcode;
                countInstruction(mix, opcode);
                branches += isa::isControlFlow(opcode) ? 1 : 0;
                conditional += isa::isConditionalBranch(opcode) ? 1 : 0;
            }

            options.maxInstructions = k;
            std::vector<trace::BranchRecord> records;
            const sim::SimResult result =
                runCollecting(program, options, records);
            const auto where = ::testing::Message()
                               << "cap " << k << " of " << n
                               << ", restart " << restart;
            ASSERT_EQ(result.instructions, executed) << where;
            ASSERT_EQ(result.stopReason,
                      restart || k < n ? sim::StopReason::InstructionCap
                                       : sim::StopReason::Halted)
                << where;
            ASSERT_EQ(records.size(), branches) << where;
            ASSERT_TRUE(std::equal(records.begin(), records.end(),
                                   reference.begin()))
                << where;
            ASSERT_EQ(result.branches, branches) << where;
            ASSERT_EQ(result.conditionalBranches, conditional) << where;
            ASSERT_EQ(result.mix.intAlu, mix.intAlu) << where;
            ASSERT_EQ(result.mix.fpAlu, mix.fpAlu) << where;
            ASSERT_EQ(result.mix.memory, mix.memory) << where;
            ASSERT_EQ(result.mix.controlFlow, mix.controlFlow) << where;
            ASSERT_EQ(result.mix.other, mix.other) << where;
            ASSERT_EQ(result.mix.total(), result.instructions) << where;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

} // namespace
} // namespace tlat
