#include "trace_io.hh"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

// Include-what-you-pin: re-evaluates the TLTR wire-layout contracts
// in the TU that implements the format. The trace-local header keeps
// the layer DAG acyclic (trace must not include core; layer-order
// lint rule).
#include "wire_contracts.hh"
#include "util/string_utils.hh"

namespace tlat::trace
{

namespace
{

constexpr char kMagic[4] = {'T', 'L', 'T', 'R'};

template <typename T>
void
writeScalar(std::ostream &os, T value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

template <typename T>
bool
readScalar(std::istream &is, T &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(value));
    return static_cast<bool>(is);
}

char
classLetter(BranchClass cls)
{
    switch (cls) {
      case BranchClass::Conditional:
        return 'C';
      case BranchClass::Return:
        return 'R';
      case BranchClass::ImmediateUnconditional:
        return 'U';
      case BranchClass::RegisterUnconditional:
        return 'G';
      default:
        return '?';
    }
}

std::optional<BranchClass>
classFromLetter(char letter)
{
    switch (letter) {
      case 'C':
        return BranchClass::Conditional;
      case 'R':
        return BranchClass::Return;
      case 'U':
        return BranchClass::ImmediateUnconditional;
      case 'G':
        return BranchClass::RegisterUnconditional;
      default:
        return std::nullopt;
    }
}

void
setError(TextReadError *error, std::size_t line,
         std::string message)
{
    if (!error)
        return;
    error->line = line;
    error->message = std::move(message);
}

/**
 * Extracts one unsigned text field in the stream's base. operator>>
 * alone reads a leading '-' and wraps the value, so a sign of either
 * kind fails the stream instead.
 */
void
readUnsigned(std::istream &is, std::uint64_t &value)
{
    const int next = (is >> std::ws).peek();
    if (next == '-' || next == '+')
        is.setstate(std::ios::failbit);
    else
        is >> value;
}

/** On-wire record stride: pc u64 + target u64 + cls u8 + flags u8. */
constexpr std::size_t kWireRecordSize = kTltrWireRecordSize;

/** Records staged per bulk read/write (bounds buffer memory and keeps
 *  a corrupt count field from triggering a giant allocation). */
constexpr std::size_t kRecordChunk = 1u << 16;

/** Bytes between the read position and the end; nullopt when the
 *  stream cannot seek. */
std::optional<std::uint64_t>
bytesLeft(std::istream &is)
{
    const std::istream::pos_type here = is.tellg();
    if (here == std::istream::pos_type(-1))
        return std::nullopt;
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.clear(); // a failed seek to the end leaves the stream readable
    is.seekg(here);
    if (end == std::istream::pos_type(-1) || !is)
        return std::nullopt;
    return static_cast<std::uint64_t>(end - here);
}

} // namespace

void
packWireRecord(const BranchRecord &record, char *out)
{
    std::memcpy(out, &record.pc, sizeof(record.pc));
    std::memcpy(out + 8, &record.target, sizeof(record.target));
    out[16] = static_cast<char>(record.cls);
    out[17] = static_cast<char>(
        static_cast<std::uint8_t>(record.taken ? 1 : 0) |
        static_cast<std::uint8_t>(record.isCall ? 2 : 0));
}

bool
writeBinaryHeader(std::ostream &os, const std::string &name,
                  const InstructionMix &mix,
                  std::uint64_t record_count)
{
    os.write(kMagic, sizeof(kMagic));
    writeScalar(os, kTltrFormatVersion);
    writeScalar(os, static_cast<std::uint32_t>(name.size()));
    os.write(name.data(),
             static_cast<std::streamsize>(name.size()));
    writeScalar(os, mix.intAlu);
    writeScalar(os, mix.fpAlu);
    writeScalar(os, mix.memory);
    writeScalar(os, mix.controlFlow);
    writeScalar(os, mix.other);
    writeScalar(os, record_count);
    return static_cast<bool>(os);
}

bool
writeBinaryRecords(std::ostream &os,
                   std::span<const BranchRecord> records)
{
    std::vector<char> buffer;
    for (std::size_t base = 0; base < records.size();
         base += kRecordChunk) {
        const std::size_t n =
            std::min(kRecordChunk, records.size() - base);
        buffer.resize(n * kWireRecordSize);
        for (std::size_t i = 0; i < n; ++i)
            packWireRecord(records[base + i],
                           buffer.data() + i * kWireRecordSize);
        os.write(buffer.data(),
                 static_cast<std::streamsize>(buffer.size()));
    }
    return static_cast<bool>(os);
}

std::optional<TltrHeader>
parseBinaryHeader(const char *data, std::size_t size)
{
    TltrHeader header;
    std::size_t off = 0;
    const auto have = [&](std::size_t n) { return size - off >= n; };
    if (!have(12) || std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        return std::nullopt;
    std::uint32_t version = 0;
    std::memcpy(&version, data + 4, sizeof(version));
    if (version != kTltrFormatVersion)
        return std::nullopt;
    std::uint32_t name_length = 0;
    std::memcpy(&name_length, data + 8, sizeof(name_length));
    if (name_length > (1u << 20))
        return std::nullopt;
    off = 12;
    if (!have(name_length))
        return std::nullopt;
    header.name.assign(data + off, name_length);
    off += name_length;
    if (!have(6 * sizeof(std::uint64_t)))
        return std::nullopt;
    const auto readU64 = [&] {
        std::uint64_t value = 0;
        std::memcpy(&value, data + off, sizeof(value));
        off += sizeof(value);
        return value;
    };
    header.mix.intAlu = readU64();
    header.mix.fpAlu = readU64();
    header.mix.memory = readU64();
    header.mix.controlFlow = readU64();
    header.mix.other = readU64();
    header.recordCount = readU64();
    header.recordsOffset = off;
    if (header.recordCount > (size - off) / kWireRecordSize)
        return std::nullopt;
    return header;
}

bool
writeBinary(const TraceBuffer &trace, std::ostream &os)
{
    return writeBinaryHeader(os, trace.name(), trace.mix(),
                             trace.size()) &&
           writeBinaryRecords(os, trace.records());
}

std::optional<TraceBuffer>
readBinary(std::istream &is)
{
    char magic[4];
    is.read(magic, sizeof(magic));
    if (!is || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return std::nullopt;

    std::uint32_t version = 0;
    if (!readScalar(is, version) || version != kTltrFormatVersion)
        return std::nullopt;

    std::uint32_t name_length = 0;
    if (!readScalar(is, name_length) || name_length > (1u << 20))
        return std::nullopt;
    std::string name(name_length, '\0');
    is.read(name.data(), name_length);
    if (!is)
        return std::nullopt;

    TraceBuffer trace(name);
    InstructionMix &mix = trace.mix();
    if (!readScalar(is, mix.intAlu) || !readScalar(is, mix.fpAlu) ||
        !readScalar(is, mix.memory) ||
        !readScalar(is, mix.controlFlow) || !readScalar(is, mix.other))
        return std::nullopt;

    std::uint64_t count = 0;
    if (!readScalar(is, count))
        return std::nullopt;
    // A corrupt count must not size the reservation. A seekable
    // stream rejects a count its remaining bytes cannot hold
    // (parseBinaryHeader()'s rule for a mapped file); a pipe reserves
    // at most one chunk and the chunked read rejects a short stream.
    const std::optional<std::uint64_t> left = bytesLeft(is);
    if (left && count > *left / kWireRecordSize)
        return std::nullopt;
    const auto reserved = static_cast<std::size_t>(
        left ? count : std::min<std::uint64_t>(count, kRecordChunk));
    trace.reserve(reserved, reserved);
    std::vector<char> buffer;
    for (std::uint64_t base = 0; base < count; base += kRecordChunk) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kRecordChunk, count - base));
        buffer.resize(n * kWireRecordSize);
        is.read(buffer.data(),
                static_cast<std::streamsize>(buffer.size()));
        if (!is)
            return std::nullopt;
        for (std::size_t i = 0; i < n; ++i) {
            BranchRecord record;
            if (!unpackWireRecord(buffer.data() + i * kWireRecordSize,
                                  record))
                return std::nullopt;
            trace.append(record);
        }
    }
    return trace;
}

bool
writeText(const TraceBuffer &trace, std::ostream &os)
{
    os << "# name: " << trace.name() << '\n';
    const InstructionMix &mix = trace.mix();
    os << "# mix: " << mix.intAlu << ' ' << mix.fpAlu << ' '
       << mix.memory << ' ' << mix.controlFlow << ' ' << mix.other
       << '\n';
    for (const BranchRecord &record : trace.records()) {
        // Class and call bit are independent: calls print as the
        // lowercase class letter ('u' = immediate call, 'g' =
        // register-indirect call), so every combination round-trips.
        const char upper = classLetter(record.cls);
        const char cls_letter = record.isCall
            ? static_cast<char>(
                  std::tolower(static_cast<unsigned char>(upper)))
            : upper;
        os << std::hex << record.pc << ' ' << record.target << std::dec
           << ' ' << cls_letter << ' ' << (record.taken ? 'T' : 'N')
           << '\n';
    }
    return static_cast<bool>(os);
}

std::optional<TraceBuffer>
readText(std::istream &is, TextReadError *error)
{
    TraceBuffer trace;
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(is, line)) {
        ++line_number;
        const std::string text = trim(line);
        if (text.empty())
            continue;
        if (text[0] == '#') {
            if (startsWith(text, "# name:")) {
                trace.setName(trim(text.substr(7)));
            } else if (startsWith(text, "# mix:")) {
                std::istringstream mix_in(text.substr(6));
                InstructionMix &mix = trace.mix();
                for (std::uint64_t *count :
                     {&mix.intAlu, &mix.fpAlu, &mix.memory,
                      &mix.controlFlow, &mix.other})
                    readUnsigned(mix_in, *count);
                if (!mix_in) {
                    setError(error, line_number,
                             "malformed '# mix:' header (want five "
                             "unsigned decimal counts)");
                    return std::nullopt;
                }
            }
            continue;
        }

        std::istringstream record_in(text);
        BranchRecord record;
        std::string cls_text;
        std::string taken_text;
        record_in >> std::hex;
        readUnsigned(record_in, record.pc);
        readUnsigned(record_in, record.target);
        record_in >> cls_text >> taken_text;
        if (!record_in || cls_text.size() != 1 ||
            taken_text.size() != 1) {
            setError(error, line_number,
                     "expected '<pc> <target> <class> <T|N>' with an "
                     "unsigned hex pc and target");
            return std::nullopt;
        }
        std::string junk;
        if (record_in >> junk) {
            setError(error, line_number,
                     "trailing junk after record fields: '" + junk +
                         "'");
            return std::nullopt;
        }

        char letter = cls_text[0];
        if (letter == 'J') {
            // Legacy encoding: 'J' (jsr) was an immediate call.
            letter = 'u';
        }
        record.isCall =
            std::islower(static_cast<unsigned char>(letter)) != 0;
        const auto cls = classFromLetter(static_cast<char>(
            std::toupper(static_cast<unsigned char>(letter))));
        if (!cls) {
            setError(error, line_number,
                     std::string("unknown branch class letter '") +
                         cls_text[0] + "'");
            return std::nullopt;
        }
        if (taken_text[0] != 'T' && taken_text[0] != 'N') {
            setError(error, line_number,
                     std::string("bad outcome letter '") +
                         taken_text[0] + "' (want T or N)");
            return std::nullopt;
        }
        record.cls = *cls;
        record.taken = taken_text[0] == 'T';
        trace.append(record);
    }
    return trace;
}

bool
saveToFile(const TraceBuffer &trace, const std::string &path)
{
    if (endsWith(path, ".txt")) {
        std::ofstream os(path);
        return os && writeText(trace, os);
    }
    std::ofstream os(path, std::ios::binary);
    return os && writeBinary(trace, os);
}

std::optional<TraceBuffer>
loadFromFile(const std::string &path, std::string *error)
{
    if (endsWith(path, ".txt")) {
        std::ifstream is(path);
        if (!is) {
            if (error)
                *error = "cannot open file";
            return std::nullopt;
        }
        TextReadError text_error;
        auto loaded = readText(is, &text_error);
        if (!loaded && error) {
            *error = "line " + std::to_string(text_error.line) +
                     ": " + text_error.message;
        }
        return loaded;
    }
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        if (error)
            *error = "cannot open file";
        return std::nullopt;
    }
    auto loaded = readBinary(is);
    if (!loaded && error)
        *error = "malformed or truncated binary trace";
    return loaded;
}

} // namespace tlat::trace
