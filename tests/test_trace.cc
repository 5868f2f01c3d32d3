/**
 * @file
 * Unit tests for the trace layer: buffers, binary/text serialization
 * round trips and trace statistics.
 */

#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>

#include <gtest/gtest.h>

#include "trace/trace_io.hh"
#include "trace/trace_stats.hh"
#include "util/random.hh"

namespace tlat::trace
{
namespace
{

BranchRecord
record(std::uint64_t pc, std::uint64_t target, BranchClass cls,
       bool taken, bool is_call = false)
{
    BranchRecord r;
    r.pc = pc;
    r.target = target;
    r.cls = cls;
    r.taken = taken;
    r.isCall = is_call;
    return r;
}

TraceBuffer
sampleTrace()
{
    TraceBuffer buffer("sample");
    buffer.mix().intAlu = 10;
    buffer.mix().fpAlu = 5;
    buffer.mix().memory = 3;
    buffer.mix().controlFlow = 4;
    buffer.mix().other = 1;
    buffer.append(record(4, 16, BranchClass::Conditional, true));
    buffer.append(record(8, 16, BranchClass::Conditional, false));
    buffer.append(
        record(12, 40, BranchClass::ImmediateUnconditional, true));
    buffer.append(record(20, 4, BranchClass::Return, true));
    return buffer;
}

/** An input buffer that cannot seek, as a pipe or FIFO reads. */
class NoSeekBuf : public std::streambuf
{
  public:
    explicit NoSeekBuf(std::string bytes) : bytes_(std::move(bytes))
    {
        setg(bytes_.data(), bytes_.data(),
             bytes_.data() + bytes_.size());
    }

  private:
    std::string bytes_;
};

TEST(TraceBuffer, Basics)
{
    const TraceBuffer buffer = sampleTrace();
    EXPECT_EQ(buffer.size(), 4u);
    EXPECT_EQ(buffer.conditionalCount(), 2u);
    EXPECT_EQ(buffer.name(), "sample");
    EXPECT_EQ(buffer[0].pc, 4u);
}

TEST(TraceBuffer, Clear)
{
    TraceBuffer buffer = sampleTrace();
    buffer.clear();
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(buffer.mix().total(), 0u);
}

/** Appends @p count conditional records with pcs from @p first_pc. */
void
appendConditionals(TraceBuffer &buffer, std::uint64_t first_pc,
                   std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i)
        buffer.append(record(first_pc + 4 * i, 16,
                             BranchClass::Conditional, i % 3 == 0));
}

/** The view holds exactly the conditional records, in trace order. */
void
expectViewIsConditionalStream(const TraceBuffer &buffer)
{
    std::vector<BranchRecord> expected;
    for (const BranchRecord &r : buffer.records()) {
        if (r.cls == BranchClass::Conditional)
            expected.push_back(r);
    }
    const auto view = buffer.conditionalView();
    EXPECT_EQ(std::vector<BranchRecord>(view.begin(), view.end()),
              expected);
    EXPECT_EQ(buffer.conditionalCount(), expected.size());
}

TEST(TraceBuffer, ViewAliasesRecordsWhileAllAreConditional)
{
    TraceBuffer buffer("conditional-only");
    appendConditionals(buffer, 0x100, 5);
    EXPECT_EQ(buffer.conditionalView().data(), buffer.records().data());
    EXPECT_EQ(buffer.conditionalView().size(), 5u);
    // No mirror storage exists: each record is held once.
    EXPECT_EQ(buffer.conditionalCapacity(), 0u);
    expectViewIsConditionalStream(buffer);
}

TEST(TraceBuffer, MirrorAppearsOnFirstNonConditional)
{
    TraceBuffer buffer("mixed");
    appendConditionals(buffer, 0x100, 3);
    buffer.append(record(0x200, 0x400, BranchClass::Return, true));
    EXPECT_NE(buffer.conditionalView().data(), buffer.records().data());
    EXPECT_EQ(buffer.conditionalCount(), 3u);
    expectViewIsConditionalStream(buffer);
    // Conditionals after the switch land in the mirror as well.
    appendConditionals(buffer, 0x300, 2);
    buffer.append(record(0x500, 0x40,
                         BranchClass::ImmediateUnconditional, true));
    EXPECT_EQ(buffer.size(), 7u);
    EXPECT_EQ(buffer.conditionalCount(), 5u);
    expectViewIsConditionalStream(buffer);
}

TEST(TraceBuffer, CopyMoveAndClearKeepTheViewOnTheirOwnRecords)
{
    TraceBuffer aliased("aliased");
    appendConditionals(aliased, 0x100, 4);
    const TraceBuffer mixed = sampleTrace();

    // A copy's view reads the copy's own storage, never the source's.
    const TraceBuffer aliased_copy(aliased);
    EXPECT_EQ(aliased_copy.conditionalView().data(),
              aliased_copy.records().data());
    expectViewIsConditionalStream(aliased_copy);
    TraceBuffer mixed_copy;
    mixed_copy = mixed;
    EXPECT_NE(mixed_copy.conditionalView().data(),
              mixed.conditionalView().data());
    expectViewIsConditionalStream(mixed_copy);
    EXPECT_EQ(mixed_copy.conditionalCount(), 2u);

    // A move carries the storage the view points into.
    const BranchRecord *storage = aliased.records().data();
    TraceBuffer moved(std::move(aliased));
    EXPECT_EQ(moved.conditionalView().data(), storage);
    expectViewIsConditionalStream(moved);
    TraceBuffer mixed_moved;
    mixed_moved = std::move(mixed_copy);
    expectViewIsConditionalStream(mixed_moved);
    EXPECT_EQ(mixed_moved.conditionalCount(), 2u);

    // clear() forgets the mirror: the next trace aliases again.
    mixed_moved.clear();
    EXPECT_EQ(mixed_moved.conditionalCount(), 0u);
    appendConditionals(mixed_moved, 0x100, 2);
    EXPECT_EQ(mixed_moved.conditionalView().data(),
              mixed_moved.records().data());
    expectViewIsConditionalStream(mixed_moved);
}

TEST(TraceBuffer, PredecodeIsRebuiltAfterGrowth)
{
    TraceBuffer buffer("grow");
    appendConditionals(buffer, 0x100, 3);
    const auto first = buffer.predecoded();
    EXPECT_EQ(first->size(), 3u);
    EXPECT_EQ(buffer.predecoded(), first); // cached
    appendConditionals(buffer, 0x200, 2);
    EXPECT_EQ(buffer.predecoded()->size(), 5u);
    // Growth past the switch to the mirror rebuilds it too.
    buffer.append(record(0x300, 0x40, BranchClass::Return, true));
    appendConditionals(buffer, 0x400, 1);
    const auto grown = buffer.predecoded();
    EXPECT_EQ(grown->size(), 6u);
    EXPECT_EQ(buffer.predecodedView().records().data(),
              buffer.conditionalView().data());
}

TEST(InstructionMix, Fractions)
{
    const TraceBuffer buffer = sampleTrace();
    EXPECT_EQ(buffer.mix().total(), 23u);
    EXPECT_NEAR(buffer.mix().branchFraction(), 4.0 / 23.0, 1e-12);
}

TEST(InstructionMix, Merge)
{
    InstructionMix a;
    a.intAlu = 1;
    InstructionMix b;
    b.intAlu = 2;
    b.fpAlu = 3;
    a.merge(b);
    EXPECT_EQ(a.intAlu, 3u);
    EXPECT_EQ(a.fpAlu, 3u);
}

TEST(TraceIo, BinaryRoundTrip)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    const auto loaded = readBinary(stream);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->name(), original.name());
    EXPECT_EQ(loaded->records(), original.records());
    EXPECT_EQ(loaded->mix().total(), original.mix().total());
}

TEST(TraceIo, BinaryLoadReservesExactCapacity)
{
    // Bulk loads reserve both record vectors from the TLTR v2 header
    // count, so a multi-million-record load performs exactly one
    // allocation per lane instead of doubling-growth reallocations.
    // A non-power-of-two count makes growth observable: push_back
    // growth would land on a power-of-two capacity, not the count.
    TraceBuffer original("reserve");
    Rng rng(0xcafe);
    constexpr std::size_t kRecords = 1234;
    for (std::size_t i = 0; i < kRecords; ++i) {
        const bool conditional = rng.nextBool(0.75);
        original.append(record(
            4 * (i + 1), 16,
            conditional ? BranchClass::Conditional
                        : BranchClass::ImmediateUnconditional,
            rng.nextBool(0.5)));
    }

    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    const auto loaded = readBinary(stream);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), kRecords);
    EXPECT_EQ(loaded->recordCapacity(), kRecords);
    EXPECT_EQ(loaded->conditionalCapacity(), kRecords);
    EXPECT_LE(loaded->conditionalCount(), kRecords);
}

TEST(TraceIo, TextRoundTrip)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeText(original, stream));
    const auto loaded = readText(stream);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->name(), original.name());
    EXPECT_EQ(loaded->records(), original.records());
    EXPECT_EQ(loaded->mix().intAlu, original.mix().intAlu);
}

TEST(TraceIo, BinaryRejectsGarbage)
{
    std::stringstream stream("not a trace at all");
    EXPECT_FALSE(readBinary(stream).has_value());
}

TEST(TraceIo, BinaryRejectsTruncation)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    const std::string full = stream.str();
    for (std::size_t cut : {4ul, 12ul, full.size() - 3}) {
        std::stringstream truncated(full.substr(0, cut));
        EXPECT_FALSE(readBinary(truncated).has_value()) << cut;
        NoSeekBuf buf(full.substr(0, cut));
        std::istream pipe(&buf);
        EXPECT_FALSE(readBinary(pipe).has_value()) << "pipe " << cut;
    }
}

TEST(TraceIo, BinaryReadsAStreamThatCannotSeek)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    NoSeekBuf buf(stream.str());
    std::istream pipe(&buf);
    const auto loaded = readBinary(pipe);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->name(), original.name());
    EXPECT_EQ(loaded->records(), original.records());
}

TEST(TraceIo, BinaryRejectsAHugeCountThatCannotSeek)
{
    const TraceBuffer original = sampleTrace();
    std::stringstream stream;
    ASSERT_TRUE(writeBinary(original, stream));
    // A record count of 2^40 is caught by the chunked read, not an
    // allocation. The count follows magic, version, name length, the
    // name and the five mix counters.
    std::string huge = stream.str();
    const std::uint64_t count = std::uint64_t{1} << 40;
    const std::size_t count_offset = 12 + original.name().size() + 40;
    std::memcpy(huge.data() + count_offset, &count, sizeof(count));
    NoSeekBuf buf(huge);
    std::istream pipe(&buf);
    EXPECT_FALSE(readBinary(pipe).has_value());
}

TEST(TraceIo, TextRejectsBadRecords)
{
    std::stringstream bad_class("4 8 X T\n");
    EXPECT_FALSE(readText(bad_class).has_value());
    std::stringstream bad_taken("4 8 C Q\n");
    EXPECT_FALSE(readText(bad_taken).has_value());
    std::stringstream bad_fields("4\n");
    EXPECT_FALSE(readText(bad_fields).has_value());
}

TEST(TraceIo, TextRejectsTrailingJunk)
{
    // Only four fields are defined; a fifth token is junk, not
    // silently ignored.
    std::stringstream junk("4 8 C T extra\n");
    TextReadError error;
    EXPECT_FALSE(readText(junk, &error).has_value());
    EXPECT_EQ(error.line, 1u);
    EXPECT_NE(error.message.find("trailing junk"), std::string::npos);
    EXPECT_NE(error.message.find("extra"), std::string::npos);

    std::stringstream many("4 8 C T N G 12\n");
    EXPECT_FALSE(readText(many).has_value());
}

TEST(TraceIo, TextErrorsReportLineNumbers)
{
    std::stringstream bad_class("# name: x\n4 8 C T\n4 8 X T\n");
    TextReadError error;
    EXPECT_FALSE(readText(bad_class, &error).has_value());
    EXPECT_EQ(error.line, 3u);
    EXPECT_NE(error.message.find("class letter"), std::string::npos);

    std::stringstream short_line("4 8 C T\n\n4 8\n");
    error = {};
    EXPECT_FALSE(readText(short_line, &error).has_value());
    EXPECT_EQ(error.line, 3u);

    std::stringstream bad_outcome("4 8 C T\n4 8 C Q\n");
    error = {};
    EXPECT_FALSE(readText(bad_outcome, &error).has_value());
    EXPECT_EQ(error.line, 2u);
    EXPECT_NE(error.message.find("outcome"), std::string::npos);
}

TEST(TraceIo, TextEncodesClassAndCallBitIndependently)
{
    // Regression: writeText used to collapse any call record to 'J',
    // so a register-unconditional call read back as an
    // immediate-unconditional one.
    TraceBuffer buffer("calls");
    buffer.append(record(4, 96, BranchClass::RegisterUnconditional,
                         true, /*is_call=*/true));
    buffer.append(record(8, 96, BranchClass::ImmediateUnconditional,
                         true, /*is_call=*/true));
    std::stringstream text;
    ASSERT_TRUE(writeText(buffer, text));
    const auto loaded = readText(text);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->records(), buffer.records());
    EXPECT_EQ(loaded->records()[0].cls,
              BranchClass::RegisterUnconditional);
    EXPECT_TRUE(loaded->records()[0].isCall);
}

TEST(TraceIo, TextAcceptsLegacyCallLetter)
{
    // Old traces encoded immediate-unconditional calls as 'J'.
    std::stringstream text("10 40 J T\n");
    const auto loaded = readText(text);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_EQ(loaded->records()[0].cls,
              BranchClass::ImmediateUnconditional);
    EXPECT_TRUE(loaded->records()[0].isCall);
    EXPECT_TRUE(loaded->records()[0].taken);
}

TEST(TraceIo, RoundTripAllClassFlagCombinations)
{
    // binary -> text -> binary over the full class x taken x call
    // cross product: every combination must survive both formats.
    TraceBuffer buffer("combos");
    std::uint64_t pc = 4;
    for (unsigned cls = 0;
         cls < static_cast<unsigned>(BranchClass::NumClasses); ++cls) {
        for (const bool taken : {false, true}) {
            for (const bool is_call : {false, true}) {
                buffer.append(record(pc, pc + 64,
                                     static_cast<BranchClass>(cls),
                                     taken, is_call));
                pc += 4;
            }
        }
    }

    std::stringstream binary;
    ASSERT_TRUE(writeBinary(buffer, binary));
    const auto from_binary = readBinary(binary);
    ASSERT_TRUE(from_binary.has_value());
    EXPECT_EQ(from_binary->records(), buffer.records());

    std::stringstream text;
    ASSERT_TRUE(writeText(*from_binary, text));
    const auto from_text = readText(text);
    ASSERT_TRUE(from_text.has_value());
    EXPECT_EQ(from_text->records(), buffer.records());

    std::stringstream binary_again;
    ASSERT_TRUE(writeBinary(*from_text, binary_again));
    const auto full_circle = readBinary(binary_again);
    ASSERT_TRUE(full_circle.has_value());
    EXPECT_EQ(full_circle->records(), buffer.records());
}

TEST(TraceIo, TextSkipsBlanksAndComments)
{
    std::stringstream stream("# name: x\n\n# comment\n4 8 C T\n");
    const auto loaded = readText(stream);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->name(), "x");
    ASSERT_EQ(loaded->size(), 1u);
    EXPECT_TRUE(loaded->records()[0].taken);
}

TEST(TraceIo, RandomRoundTripProperty)
{
    Rng rng(0x77ace);
    TraceBuffer buffer("random");
    for (int i = 0; i < 5000; ++i) {
        buffer.append(record(
            rng.next() & ~3ull, rng.next() & ~3ull,
            static_cast<BranchClass>(rng.nextBelow(
                static_cast<std::uint64_t>(BranchClass::NumClasses))),
            rng.nextBool(), rng.nextBool()));
    }
    std::stringstream binary;
    ASSERT_TRUE(writeBinary(buffer, binary));
    const auto from_binary = readBinary(binary);
    ASSERT_TRUE(from_binary.has_value());
    EXPECT_EQ(from_binary->records(), buffer.records());

    std::stringstream text;
    ASSERT_TRUE(writeText(buffer, text));
    const auto from_text = readText(text);
    ASSERT_TRUE(from_text.has_value());
    EXPECT_EQ(from_text->records(), buffer.records());
}

TEST(TraceStats, ComputesClassCountsAndCensus)
{
    TraceBuffer buffer("stats");
    // Two static conditional branches (pc 4 twice, pc 8 once), one
    // return, one unconditional.
    buffer.append(record(4, 16, BranchClass::Conditional, true));
    buffer.append(record(4, 16, BranchClass::Conditional, false));
    buffer.append(record(8, 16, BranchClass::Conditional, true));
    buffer.append(record(20, 4, BranchClass::Return, true));
    buffer.append(
        record(24, 40, BranchClass::RegisterUnconditional, true));
    const TraceStats stats = computeStats(buffer);
    EXPECT_EQ(stats.dynamicBranches(), 5u);
    EXPECT_EQ(stats.dynamicConditionalBranches, 3u);
    EXPECT_EQ(stats.takenConditionalBranches, 2u);
    EXPECT_EQ(stats.staticConditionalBranches, 2u);
    EXPECT_EQ(stats.staticBranches, 4u);
    EXPECT_NEAR(stats.takenFraction(), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(stats.classFraction(BranchClass::Conditional),
                3.0 / 5.0, 1e-12);
    EXPECT_NEAR(stats.classFraction(BranchClass::Return), 1.0 / 5.0,
                1e-12);
}

TEST(TraceStats, EmptyTrace)
{
    const TraceStats stats = computeStats(TraceBuffer{});
    EXPECT_EQ(stats.dynamicBranches(), 0u);
    EXPECT_EQ(stats.takenFraction(), 0.0);
    EXPECT_EQ(stats.classFraction(BranchClass::Conditional), 0.0);
}

TEST(BranchClassNames, AllNamed)
{
    EXPECT_STREQ(branchClassName(BranchClass::Conditional),
                 "conditional");
    EXPECT_STREQ(branchClassName(BranchClass::Return), "return");
    EXPECT_STREQ(
        branchClassName(BranchClass::ImmediateUnconditional),
        "immediate-unconditional");
    EXPECT_STREQ(branchClassName(BranchClass::RegisterUnconditional),
                 "register-unconditional");
}

} // namespace
} // namespace tlat::trace
