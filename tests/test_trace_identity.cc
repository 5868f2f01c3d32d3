/**
 * @file
 * Trace-identity goldens for the micro88 simulator: a 64-bit FNV-1a
 * digest over every branch record (pc, target, class, taken, isCall),
 * the dynamic instruction mix and the SimResult counters of a run.
 *
 * Each suite workload's testing and training sets are pinned at a
 * 20000-conditional budget, plus one small program run to its natural
 * Halt (budget 0) and the same program restarted on Halt. The digests
 * were taken from the simulator before its run loop was specialised
 * per sink; any change to what the simulator executes or reports --
 * a reordered record, a miscounted Halt restart, a dropped check that
 * alters control flow -- moves them.
 *
 * collectTrace() is digested directly. The SimResult counters come
 * from Simulator::run() driven by a std::function sink that appends
 * and stops at the same budget; its records and mix must match
 * collectTrace()'s, so both entry points are pinned by one digest.
 */

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "isa/program.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace tlat::sim
{
namespace
{

constexpr std::uint64_t kSuiteBudget = 20000;

/** 64-bit FNV-1a over fixed-width little-endian fields. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t value)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (value >> (8 * byte)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void
addRecord(Fnv1a &digest, const trace::BranchRecord &record)
{
    digest.add(record.pc);
    digest.add(record.target);
    digest.add(static_cast<std::uint64_t>(record.cls));
    digest.add(record.taken ? 1 : 0);
    digest.add(record.isCall ? 1 : 0);
}

void
addMix(Fnv1a &digest, const trace::InstructionMix &mix)
{
    digest.add(mix.intAlu);
    digest.add(mix.fpAlu);
    digest.add(mix.memory);
    digest.add(mix.controlFlow);
    digest.add(mix.other);
}

/**
 * Digests collectTrace(@p program, @p budget) and the SimResult of
 * the equivalent Simulator::run(); fails the test if the two entry
 * points disagree on any record or on the mix.
 */
std::uint64_t
traceDigest(const isa::Program &program, std::uint64_t budget)
{
    const trace::TraceBuffer buffer = collectTrace(program, budget);

    std::vector<trace::BranchRecord> records;
    std::uint64_t conditional_seen = 0;
    const BranchSink sink = [&](const trace::BranchRecord &record) {
        records.push_back(record);
        if (record.cls == trace::BranchClass::Conditional) {
            ++conditional_seen;
            if (budget != 0 && conditional_seen >= budget)
                return false;
        }
        return true;
    };
    SimOptions options;
    options.restartOnHalt = budget != 0;
    Simulator simulator(program);
    const SimResult result = simulator.run(sink, options);

    EXPECT_EQ(buffer.records(), records);
    EXPECT_EQ(buffer.mix().intAlu, result.mix.intAlu);
    EXPECT_EQ(buffer.mix().fpAlu, result.mix.fpAlu);
    EXPECT_EQ(buffer.mix().memory, result.mix.memory);
    EXPECT_EQ(buffer.mix().controlFlow, result.mix.controlFlow);
    EXPECT_EQ(buffer.mix().other, result.mix.other);

    Fnv1a digest;
    digest.add(buffer.size());
    for (const trace::BranchRecord &record : buffer.records())
        addRecord(digest, record);
    addMix(digest, buffer.mix());
    digest.add(static_cast<std::uint64_t>(result.stopReason));
    digest.add(result.instructions);
    digest.add(result.branches);
    digest.add(result.conditionalBranches);
    return digest.value();
}

/**
 * A small program touching every branch class, memory, FP, the link
 * register and a write to r0: a counted outer loop calling a leaf
 * that walks a data array, an indirect jump, and a data-dependent
 * diamond.
 */
isa::Program
haltingProgram()
{
    isa::ProgramBuilder b("halting");
    const auto data = b.data({3, 1, 4, 1, 5, 9, 2, 6});
    auto leaf = b.newLabel();
    auto start = b.newLabel();
    auto outer = b.newLabel();
    auto odd = b.newLabel();
    auto join = b.newLabel();
    auto after_jr = b.newLabel();
    b.jmp(start);

    // leaf: r5 += data[r1 & 7] * 2.0 (through FP), data[...] += 1
    b.bind(leaf);
    b.andi(2, 1, 7);
    b.slli(2, 2, 3);
    b.add(2, 2, 10);
    b.ld(3, 2, 0);
    b.fcvt(4, 3);
    b.fadd(4, 4, 4);
    b.ftoi(4, 4);
    b.add(5, 5, 4);
    b.addi(3, 3, 1);
    b.st(2, 3, 0);
    b.ret();

    b.bind(start);
    b.loadImm(10, static_cast<std::int64_t>(data));
    b.li(1, 0);
    b.bind(outer);
    b.call(leaf);
    // r0 must read zero after a write, or the diamond below flips.
    b.addi(0, 1, 1);
    b.add(5, 5, 0);
    b.andi(6, 5, 1);
    b.bne(6, 0, odd);
    b.addi(7, 7, 1);
    b.jmp(join);
    b.bind(odd);
    b.la(8, after_jr);
    b.jr(8);
    b.nop();
    b.bind(after_jr);
    b.bind(join);
    b.addi(1, 1, 1);
    b.li(9, 40);
    b.blt(1, 9, outer);
    b.halt();
    return b.build();
}

struct SuiteCase
{
    const char *workload;
    const char *dataSet;
    std::uint64_t digest;
};

void
PrintTo(const SuiteCase &c, std::ostream *os)
{
    *os << c.workload << "/" << c.dataSet;
}

/** Digests at kSuiteBudget, captured before the sink-templated loop. */
const SuiteCase kSuiteCases[] = {
    {"eqntott", "int_pri_3", 0x436f3ad34f094057ull},
    {"espresso", "bca", 0x2e0002bb7c4ca296ull},
    {"espresso", "cps", 0xda0547ad1f21a109ull},
    {"gcc", "dbxout", 0x4d091d96538994c2ull},
    {"gcc", "cexp", 0xa047bdd1bec51002ull},
    {"li", "queens", 0x9bf66187f975a482ull},
    {"li", "hanoi", 0xe9ccc5a76d6090d6ull},
    {"doduc", "doducin", 0x8cc1233917ebaa8eull},
    {"doduc", "tiny", 0x85e7870cdf70cd17ull},
    {"fpppp", "natoms", 0xa70aa0242c5ac1baull},
    {"matrix300", "default", 0x745e2672bf160193ull},
    {"spice2g6", "greycode", 0x44d912e4032a3794ull},
    {"spice2g6", "short-greycode", 0x29ac4e5914ef553aull},
    {"tomcatv", "default", 0x632937e0712e11beull},
};

constexpr std::uint64_t kHaltOnceDigest = 0x19bf238278403497ull;
constexpr std::uint64_t kHaltRestartDigest = 0x3fb1a179c46a0408ull;
constexpr std::uint64_t kHaltRestartBudget = 1000;

TEST(TraceIdentity, CasesCoverEverySuiteDataSet)
{
    std::vector<std::string> covered;
    for (const SuiteCase &c : kSuiteCases)
        covered.push_back(std::string(c.workload) + "/" + c.dataSet);
    for (const std::string &name : workloads::workloadNames()) {
        const auto workload = workloads::makeWorkload(name);
        std::vector<std::string> sets = {workload->testSet()};
        if (const auto train = workload->trainSet())
            sets.push_back(*train);
        for (const std::string &set : sets) {
            EXPECT_NE(std::find(covered.begin(), covered.end(),
                                name + "/" + set),
                      covered.end())
                << name << "/" << set << " has no golden";
        }
    }
}

class SuiteTraceIdentity : public ::testing::TestWithParam<SuiteCase>
{
};

TEST_P(SuiteTraceIdentity, DigestMatchesGolden)
{
    const SuiteCase &c = GetParam();
    const auto workload = workloads::makeWorkload(c.workload);
    const isa::Program program = workload->build(c.dataSet);
    EXPECT_EQ(traceDigest(program, kSuiteBudget), c.digest)
        << c.workload << "/" << c.dataSet;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, SuiteTraceIdentity, ::testing::ValuesIn(kSuiteCases),
    [](const ::testing::TestParamInfo<SuiteCase> &info) {
        std::string name =
            std::string(info.param.workload) + "_" + info.param.dataSet;
        for (char &ch : name) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return name;
    });

TEST(TraceIdentity, RunToHaltProgram)
{
    const isa::Program program = haltingProgram();
    EXPECT_EQ(traceDigest(program, 0), kHaltOnceDigest);
}

TEST(TraceIdentity, RestartOnHaltProgram)
{
    const isa::Program program = haltingProgram();
    EXPECT_EQ(traceDigest(program, kHaltRestartBudget),
              kHaltRestartDigest);
}

} // namespace
} // namespace tlat::sim
