/**
 * @file
 * Seeded mutation fuzz of the text trace format: every mutant of a
 * small valid file is either rejected with a line number or survives
 * the trip through TLTR unchanged.
 *
 * Each mutant edits one thing of the text trace::writeText() writes:
 * a class letter (lowercase call forms, the legacy 'J', unknown
 * letters), an outcome letter, a hex pc or target (edge values,
 * overflow, signs, prefixes), the "# name:" or "# mix:" header,
 * trailing junk after a record, blank and whitespace-only lines, a
 * dropped or duplicated field, or one flipped byte. Then:
 *  - trace::readText() either rejects it, naming a line of the file,
 *    or delivers a trace;
 *  - an accepted trace written with trace::writeBinary() and drained
 *    through a trace::MmapChunkStream yields the same name, mix and
 *    records;
 *  - trace::loadFromFile() agrees with readText() on the .txt file
 *    (the same verdict, with the line in its message) and delivers
 *    the same trace from the .tltr file.
 * Neither reader may abort. The seed and the iteration budget are
 * fixed, so every run replays the same mutants. A second test holds
 * signed pc, target and "# mix:" fields, which stream extraction
 * would wrap, to a rejection naming their line.
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
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

constexpr std::uint64_t kSeed = 0x7478747466757a31ULL;
constexpr int kIterations = 3000;

/** Lines before the first record: "# name:" and "# mix:". */
constexpr std::size_t kHeaderLines = 2;

/** A small valid trace: every class, taken and call bits mixed. */
trace::TraceBuffer
seedTrace()
{
    trace::TraceBuffer buffer("fuzz");
    buffer.mix() = {100, 7, 40, 37, 3};
    Rng rng(kSeed);
    for (std::uint64_t i = 0; i < 29; ++i) {
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

std::vector<std::string>
split(const std::string &text, char separator)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream is(text);
    while (std::getline(is, part, separator))
        parts.push_back(part);
    return parts;
}

std::string
join(const std::vector<std::string> &parts, char separator)
{
    std::string text;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            text += separator;
        text += parts[i];
    }
    return text;
}

template <std::size_t N>
const char *
pick(Rng &rng, const char *const (&choices)[N])
{
    return choices[rng.nextBelow(N)];
}

const char *const kClassLetters[] = {
    "C", "R", "U", "G", "c", "r", "u", "g", "J", "j",
    "X", "x", "0", "CC", "?", "\xc3\x87"};
const char *const kOutcomeLetters[] = {
    "T", "N", "t", "n", "F", "1", "0", "TN", "Y", "-"};
const char *const kHexFields[] = {
    "0", "1", "ffffffffffffffff", "FFFFFFFFFFFFFFFF",
    "10000000000000000", "0x10", "0X1f", "-1", "+4", "g",
    "1g", "0000000000000000000004", "DEADbeef", "0x"};
const char *const kNameHeaders[] = {
    "# name:", "# name: ", "# name: other name", "#name: fuzz",
    "# name: fuzz # mix: 1 2 3 4 5", "# name:\tspaced\t",
    "# name: C 0 0 T"};
const char *const kMixHeaders[] = {
    "# mix:", "# mix: 1 2 3 4", "# mix: 1 2 3 4 5 6",
    "# mix: 1 2 x 4 5", "# mix: -1 2 3 4 5",
    "# mix: 18446744073709551615 0 0 0 0",
    "# mix: 18446744073709551616 0 0 0 0", "#mix: 1 2 3 4 5",
    "# mix:1 2 3 4 5", "# mix: 0x10 2 3 4 5"};
const char *const kJunk[] = {
    " x", " T", " 0", "\t#", " # comment", "  ", "\r", "x"};
const char *const kBlankLines[] = {"", " ", "\t", "   \t  ", "\r", "#"};

/** Applies one seeded mutation to the lines of a valid text trace. */
std::string
mutate(const std::vector<std::string> &valid, Rng &rng)
{
    std::vector<std::string> lines = valid;
    std::string &record =
        lines[kHeaderLines + rng.nextBelow(lines.size() - kHeaderLines)];
    std::vector<std::string> fields = split(record, ' ');
    switch (rng.nextBelow(10)) {
      case 0: // class letter
        fields[2] = pick(rng, kClassLetters);
        break;
      case 1: // outcome letter
        fields[3] = pick(rng, kOutcomeLetters);
        break;
      case 2: { // pc or target
        std::string &field = fields[rng.nextBelow(2)];
        field = rng.nextBool(0.7)
            ? std::string(pick(rng, kHexFields))
            : [&rng] {
                  std::ostringstream os;
                  os << std::hex << rng.next();
                  return os.str();
              }();
        break;
      }
      case 3:
        lines[0] = pick(rng, kNameHeaders);
        break;
      case 4:
        lines[1] = pick(rng, kMixHeaders);
        break;
      case 5: // trailing junk
        fields.back() += pick(rng, kJunk);
        break;
      case 6: // blank, whitespace-only and comment lines
        lines.insert(lines.begin() +
                         static_cast<std::ptrdiff_t>(
                             rng.nextBelow(lines.size() + 1)),
                     pick(rng, kBlankLines));
        return join(lines, '\n') + '\n';
      case 7: // a dropped or duplicated field
        if (rng.nextBool(0.5)) {
            fields.erase(fields.begin() +
                         static_cast<std::ptrdiff_t>(rng.nextBelow(4)));
        } else {
            const std::size_t at = rng.nextBelow(4);
            fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(at),
                          fields[at]);
        }
        break;
      case 8: { // one flipped byte of the record
        const std::size_t at = rng.nextBelow(record.size());
        record[at] = static_cast<char>(record[at] ^
                                       (1 + rng.nextBelow(127)));
        return join(lines, '\n') + '\n';
      }
      default: // no final newline, or a CRLF line
        if (rng.nextBool(0.5))
            return join(lines, '\n');
        fields.back() += '\r';
        break;
    }
    record = join(fields, ' ');
    return join(lines, '\n') + '\n';
}

bool
sameMix(const trace::InstructionMix &a, const trace::InstructionMix &b)
{
    return a.intAlu == b.intAlu && a.fpAlu == b.fpAlu &&
           a.memory == b.memory && a.controlFlow == b.controlFlow &&
           a.other == b.other;
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(os) << path;
}

/** Drains @p path through the chunk stream into one buffer. */
std::optional<trace::TraceBuffer>
drainStream(const std::string &path, std::size_t chunk_records)
{
    std::string error;
    const auto stream =
        trace::MmapChunkStream::open(path, chunk_records, &error);
    if (!stream)
        return std::nullopt;
    trace::TraceBuffer drained(stream->name());
    drained.mix() = stream->mix();
    while (const trace::TraceChunk *chunk = stream->next()) {
        for (const BranchRecord &record : chunk->records)
            drained.append(record);
    }
    if (!stream->error().empty())
        return std::nullopt;
    return drained;
}

TEST(TextTraceFuzz, EveryMutantIsRejectedWithALineOrRoundTrips)
{
    const trace::TraceBuffer source = seedTrace();
    std::ostringstream text;
    ASSERT_TRUE(trace::writeText(source, text));
    const std::vector<std::string> valid = split(text.str(), '\n');
    ASSERT_EQ(valid.size(), kHeaderLines + source.size());

    const std::string base = testing::TempDir() + "tlat_text_fuzz_" +
                             std::to_string(::getpid());
    const std::string text_path = base + ".txt";
    const std::string binary_path = base + ".tltr";
    Rng rng(kSeed);
    const std::size_t chunkings[] = {0, 1, 5, 64};
    int accepted = 0;
    for (int i = 0; i < kIterations; ++i) {
        const std::string mutant = mutate(valid, rng);
        const std::size_t line_count = split(mutant, '\n').size();
        std::istringstream is(mutant);
        trace::TextReadError read_error;
        const auto parsed = trace::readText(is, &read_error);

        writeFile(text_path, mutant);
        std::string load_error;
        const auto loaded = trace::loadFromFile(text_path, &load_error);
        ASSERT_EQ(parsed.has_value(), loaded.has_value())
            << "mutant " << i << ":\n" << mutant;
        if (!parsed) {
            EXPECT_GE(read_error.line, 1u) << "mutant " << i;
            EXPECT_LE(read_error.line, line_count) << "mutant " << i;
            EXPECT_FALSE(read_error.message.empty()) << "mutant " << i;
            EXPECT_EQ(load_error, "line " +
                                      std::to_string(read_error.line) +
                                      ": " + read_error.message)
                << "mutant " << i;
            continue;
        }
        ++accepted;
        EXPECT_EQ(loaded->name(), parsed->name()) << "mutant " << i;
        EXPECT_TRUE(sameMix(loaded->mix(), parsed->mix()))
            << "mutant " << i;
        EXPECT_EQ(loaded->records(), parsed->records()) << "mutant " << i;

        {
            std::ofstream os(binary_path,
                             std::ios::binary | std::ios::trunc);
            ASSERT_TRUE(trace::writeBinary(*parsed, os)) << "mutant " << i;
        }
        const std::size_t chunk_records =
            chunkings[rng.nextBelow(std::size(chunkings))];
        const auto drained = drainStream(binary_path, chunk_records);
        ASSERT_TRUE(drained.has_value())
            << "mutant " << i << " (chunk " << chunk_records << ")";
        EXPECT_EQ(drained->name(), parsed->name()) << "mutant " << i;
        EXPECT_TRUE(sameMix(drained->mix(), parsed->mix()))
            << "mutant " << i;
        EXPECT_EQ(drained->records(), parsed->records())
            << "mutant " << i << " (chunk " << chunk_records << ")";

        const auto reloaded = trace::loadFromFile(binary_path);
        ASSERT_TRUE(reloaded.has_value()) << "mutant " << i;
        EXPECT_EQ(reloaded->name(), parsed->name()) << "mutant " << i;
        EXPECT_TRUE(sameMix(reloaded->mix(), parsed->mix()))
            << "mutant " << i;
        EXPECT_EQ(reloaded->records(), parsed->records())
            << "mutant " << i;
    }
    // The budget exercises both verdicts, not only rejections.
    EXPECT_GT(accepted, kIterations / 20);
    EXPECT_LT(accepted, kIterations - kIterations / 20);
    std::remove(text_path.c_str());
    std::remove(binary_path.c_str());
}

TEST(TextTraceFuzz, SignedFieldsAreRejectedWithTheirLine)
{
    // Unsigned fields take no sign: operator>> would read "-1" as
    // 2^64 - 1. Each case names the line that must be rejected.
    const struct
    {
        const char *text;
        std::size_t line;
    } cases[] = {
        {"# mix: -1 2 3 4 5\n-1 40 c T\n", 1},
        {"# mix: 1 2 3 4 -0\n", 1},
        {"# mix: 1 +2 3 4 5\n", 1},
        {"# mix: 1 2 3 4 5\n-1 40 C T\n", 2},
        {"# mix: 1 2 3 4 5\n40 -1 C T\n", 2},
        {"1000 100 C T\n-0 40 C N\n", 2},
        {"1000 100 C T\n40 \t-ffffffffffffffff C N\n", 2},
        {"+4 40 C T\n", 1},
    };
    const std::string path = testing::TempDir() + "tlat_text_signed_" +
                             std::to_string(::getpid()) + ".txt";
    for (const auto &c : cases) {
        std::istringstream is(c.text);
        trace::TextReadError read_error;
        EXPECT_FALSE(trace::readText(is, &read_error).has_value())
            << c.text;
        EXPECT_EQ(read_error.line, c.line) << c.text;
        writeFile(path, c.text);
        std::string load_error;
        EXPECT_FALSE(trace::loadFromFile(path, &load_error).has_value())
            << c.text;
        EXPECT_EQ(load_error.rfind("line " + std::to_string(c.line) + ": ",
                                   0),
                  0u)
            << c.text << load_error;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace tlat
