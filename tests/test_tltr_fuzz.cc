/**
 * @file
 * Seeded mutation fuzz of the TLTR binary format: both readers must
 * agree on every mutant of a small valid file.
 *
 * trace::loadFromFile() (the whole-buffer loader) and a fully drained
 * trace::MmapChunkStream (the streaming decoder) implement the same
 * wire layout twice. For each mutant — byte flips, edits of the
 * magic, version, name length, instruction mix, record count, class
 * and flag bytes, and truncation — either both deliver the same
 * trace (name, mix, records) or both reject it: loadFromFile() with
 * nullopt, the stream at open() or with a non-empty error() once
 * drained. Neither may abort. The seed and the iteration budget are
 * fixed, so every run replays the same mutants.
 */

#include <cstdint>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "trace/chunk_stream.hh"
#include "trace/trace_io.hh"
#include "util/random.hh"

namespace tlat
{
namespace
{

using trace::BranchClass;
using trace::BranchRecord;

constexpr std::uint64_t kSeed = 0x746c7472667a7a31ULL;
constexpr int kIterations = 3000;

// Byte offsets of the TLTR v2 header fields (trace_io.hh).
constexpr std::size_t kVersionOffset = 4;
constexpr std::size_t kNameLengthOffset = 8;
constexpr std::size_t kNameOffset = 12;

/** A small valid trace: every class, taken and call bits mixed. */
trace::TraceBuffer
seedTrace()
{
    trace::TraceBuffer buffer("fuzz");
    buffer.mix() = {100, 7, 40, 37, 3};
    Rng rng(kSeed);
    for (std::uint64_t i = 0; i < 37; ++i) {
        BranchRecord record;
        record.pc = 0x1000 + 4 * rng.nextBelow(16);
        record.target = 0x2000 + 4 * i;
        record.cls = static_cast<BranchClass>(rng.nextBelow(
            static_cast<std::uint64_t>(BranchClass::NumClasses)));
        record.taken = rng.nextBelow(2) == 1;
        record.isCall = rng.nextBelow(4) == 0;
        buffer.append(record);
    }
    return buffer;
}

template <typename T>
void
poke(std::string &bytes, std::size_t offset, T value)
{
    if (offset + sizeof(value) <= bytes.size())
        std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

/** A field value worth trying: edge values or random bits. */
std::uint64_t
edgeValue(Rng &rng, std::uint64_t valid)
{
    const std::uint64_t candidates[] = {
        0, 1, valid - 1, valid + 1, valid * 2,
        std::uint64_t{1} << 20, (std::uint64_t{1} << 20) + 1,
        std::uint64_t{1} << 32, std::uint64_t{1} << 40,
        ~std::uint64_t{0}, rng.next()};
    return candidates[rng.nextBelow(std::size(candidates))];
}

/** Applies one seeded mutation to a valid TLTR image. */
std::string
mutate(const std::string &valid, const trace::TraceBuffer &source,
       Rng &rng)
{
    std::string bytes = valid;
    const std::size_t name_length = source.name().size();
    const std::size_t mix_offset = kNameOffset + name_length;
    const std::size_t count_offset = mix_offset + 5 * 8;
    const std::size_t records_offset = count_offset + 8;
    const std::size_t record = records_offset +
                               trace::kTltrWireRecordSize *
                                   rng.nextBelow(source.size());
    switch (rng.nextBelow(9)) {
      case 0: // byte flips anywhere
        for (std::uint64_t n = 1 + rng.nextBelow(3); n > 0; --n)
            bytes[rng.nextBelow(bytes.size())] ^=
                static_cast<char>(1 + rng.nextBelow(255));
        break;
      case 1: // magic
        bytes[rng.nextBelow(4)] = static_cast<char>(rng.next());
        break;
      case 2: // version
        poke(bytes, kVersionOffset,
             static_cast<std::uint32_t>(
                 edgeValue(rng, trace::kTltrFormatVersion)));
        break;
      case 3: // name length
        poke(bytes, kNameLengthOffset,
             static_cast<std::uint32_t>(edgeValue(rng, name_length)));
        break;
      case 4: // one instruction-mix counter
        poke(bytes, mix_offset + 8 * rng.nextBelow(5),
             edgeValue(rng, source.mix().total()));
        break;
      case 5: // record count
        poke(bytes, count_offset, edgeValue(rng, source.size()));
        break;
      case 6: // a record's class byte
        bytes[record + 16] = static_cast<char>(rng.nextBelow(256));
        break;
      case 7: // a record's flag byte
        bytes[record + 17] = static_cast<char>(rng.nextBelow(256));
        break;
      default: // truncation
        bytes.resize(rng.nextBelow(bytes.size()));
        break;
    }
    return bytes;
}

/** What one reader made of a file: the trace, or a rejection. */
struct Outcome
{
    bool accepted = false;
    std::string name;
    trace::InstructionMix mix;
    std::vector<BranchRecord> records;
};

Outcome
loadWhole(const std::string &path)
{
    Outcome outcome;
    std::string error;
    const auto loaded = trace::loadFromFile(path, &error);
    if (!loaded) {
        EXPECT_FALSE(error.empty());
        return outcome;
    }
    outcome.accepted = true;
    outcome.name = loaded->name();
    outcome.mix = loaded->mix();
    outcome.records = loaded->records();
    return outcome;
}

Outcome
drainStream(const std::string &path, std::size_t chunk_records)
{
    Outcome outcome;
    std::string error;
    const auto stream =
        trace::MmapChunkStream::open(path, chunk_records, &error);
    if (!stream) {
        EXPECT_FALSE(error.empty());
        return outcome;
    }
    while (const trace::TraceChunk *chunk = stream->next())
        outcome.records.insert(outcome.records.end(),
                               chunk->records.begin(),
                               chunk->records.end());
    if (!stream->error().empty())
        return Outcome{};
    EXPECT_EQ(outcome.records.size(), stream->recordCount());
    outcome.accepted = true;
    outcome.name = stream->name();
    outcome.mix = stream->mix();
    return outcome;
}

bool
sameMix(const trace::InstructionMix &a, const trace::InstructionMix &b)
{
    return a.intAlu == b.intAlu && a.fpAlu == b.fpAlu &&
           a.memory == b.memory && a.controlFlow == b.controlFlow &&
           a.other == b.other;
}

TEST(TltrFuzz, BothReadersAgreeOnEveryMutant)
{
    const trace::TraceBuffer source = seedTrace();
    const std::string path = testing::TempDir() + "tlat_tltr_fuzz_" +
                             std::to_string(::getpid()) + ".tltr";
    ASSERT_TRUE(trace::saveToFile(source, path));
    std::string valid;
    {
        std::ifstream is(path, std::ios::binary);
        valid.assign(std::istreambuf_iterator<char>(is), {});
    }
    ASSERT_FALSE(valid.empty());

    Rng rng(kSeed);
    const std::size_t chunkings[] = {0, 1, 5, 64};
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string mutant = mutate(valid, source, rng);
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os.write(mutant.data(),
                     static_cast<std::streamsize>(mutant.size()));
            ASSERT_TRUE(os) << "mutant " << i;
        }
        const std::size_t chunk_records =
            chunkings[rng.nextBelow(std::size(chunkings))];
        const Outcome whole = loadWhole(path);
        const Outcome streamed = drainStream(path, chunk_records);
        ASSERT_EQ(whole.accepted, streamed.accepted)
            << "mutant " << i << " (" << mutant.size()
            << " bytes, chunk " << chunk_records << ")";
        if (!whole.accepted)
            continue;
        ++accepted;
        EXPECT_EQ(whole.name, streamed.name) << "mutant " << i;
        EXPECT_TRUE(sameMix(whole.mix, streamed.mix)) << "mutant " << i;
        EXPECT_EQ(whole.records, streamed.records) << "mutant " << i;
    }
    // The budget exercises both verdicts, not only rejections.
    EXPECT_GT(accepted, kIterations / 20);
    EXPECT_LT(accepted, kIterations - kIterations / 20);
    std::remove(path.c_str());
}

} // namespace
} // namespace tlat
