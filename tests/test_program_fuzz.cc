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
 * if/else diamonds on computed values, and call/return pairs to leaf
 * subroutines. No irreducible control flow, so termination is
 * guaranteed without a watchdog.
 */

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
            switch (rng_.nextBelow(4)) {
              case 0:
                emitStraightLine(b, 1 + rng_.nextBelow(8));
                break;
              case 1:
                emitCountedLoop(b, depth);
                break;
              case 2:
                emitDiamond(b, depth);
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

INSTANTIATE_TEST_SUITE_P(Seeds, ProgramFuzz,
                         ::testing::Range<std::uint64_t>(1, 26));

} // namespace
} // namespace tlat
