/**
 * @file
 * Serialization of branch traces.
 *
 * Two formats are supported:
 *  - a binary format ("TLTR"), compact and fast, used to cache
 *    generated workload traces between bench runs;
 *  - a text format, one record per line, for debugging and for feeding
 *    externally generated traces into the harness.
 *
 * Binary layout (all integers little-endian):
 *   magic            4 bytes  "TLTR"
 *   version          u32      currently 2
 *   name length      u32
 *   name bytes       ...
 *   instruction mix  5 x u64  (intAlu, fpAlu, memory, controlFlow, other)
 *   record count     u64
 *   records          count x { pc u64, target u64, cls u8, flags u8 }
 * where flags bit 0 is the taken outcome and bit 1 the call bit.
 * Records are staged through a flat buffer and hit the stream as a
 * few large read()/write() calls, not one per field — this is the
 * fast preload path for every sweep run (see TLAT_TRACE_CACHE_DIR in
 * harness::Suite).
 *
 * Text format, after an optional "# name: ..." header line:
 *   <pc-hex> <target-hex> <class-letter> <T|N>
 * where C=conditional, R=return, U=immediate unconditional,
 * G=register unconditional. The branch class and the call bit are
 * encoded independently: a subroutine call is written as the
 * *lowercase* class letter (u = immediate-unconditional call,
 * g = register-unconditional call), so every class/flag combination
 * round-trips. The legacy letter J (an immediate-unconditional call)
 * is still accepted on input. Record lines must have exactly four
 * fields; trailing junk is rejected with the offending line number.
 */

#ifndef TLAT_TRACE_TRACE_IO_HH
#define TLAT_TRACE_TRACE_IO_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "trace_buffer.hh"

namespace tlat::trace
{

/**
 * TLTR binary format version. The single authoritative definition —
 * tlat-lint's schema-once rule holds the tree to exactly one — bumped
 * whenever the wire layout above changes incompatibly.
 */
inline constexpr std::uint32_t kTltrFormatVersion = 2;

/**
 * On-wire record stride: pc u64 + target u64 + cls u8 + flags u8.
 * Pinned by core/contracts.hh so a field added to the packed record
 * is a compile error until this constant (and the version) move with
 * it.
 */
inline constexpr std::size_t kTltrWireRecordSize = 18;

/** Writes the binary format. Returns false on stream failure. */
bool writeBinary(const TraceBuffer &trace, std::ostream &os);

/**
 * Reads the binary format; nullopt on malformed input, including a
 * record count the remaining bytes cannot hold. A stream that cannot
 * seek (a pipe) is read too, its truncation caught by the reads.
 */
std::optional<TraceBuffer> readBinary(std::istream &is);

/**
 * Streamed-access face of the binary format, shared by the
 * whole-buffer reader/writer above, `tlat trace convert`'s streamed
 * path, and trace::MmapChunkStream — one wire-layout implementation,
 * three consumers.
 */

/** The TLTR header fields, plus where the record array starts. */
struct TltrHeader
{
    std::string name;
    InstructionMix mix;
    std::uint64_t recordCount = 0;
    /** Byte offset of the first packed record. */
    std::size_t recordsOffset = 0;
};

/**
 * Parses a TLTR header from an in-memory byte range (e.g. an mmap'd
 * file). Validates magic, version, and that the range is large
 * enough to hold recordCount packed records after the header;
 * nullopt otherwise. Trailing bytes past the records are tolerated,
 * matching readBinary().
 */
std::optional<TltrHeader> parseBinaryHeader(const char *data,
                                            std::size_t size);

/** Packs one record into kTltrWireRecordSize bytes at @p out. */
void packWireRecord(const BranchRecord &record, char *out);

/**
 * Unpacks one packed record; false when the class or flag bits are
 * out of range (corrupt input). Inline: it is the per-record body of
 * both the whole-file loader and the chunk decoder.
 */
inline bool
unpackWireRecord(const char *in, BranchRecord &record)
{
    std::memcpy(&record.pc, in, sizeof(record.pc));
    std::memcpy(&record.target, in + 8, sizeof(record.target));
    const auto cls = static_cast<std::uint8_t>(in[16]);
    const auto flags = static_cast<std::uint8_t>(in[17]);
    if (cls >= static_cast<std::uint8_t>(BranchClass::NumClasses) ||
        flags > 3)
        return false;
    record.cls = static_cast<BranchClass>(cls);
    record.taken = (flags & 1) != 0;
    record.isCall = (flags & 2) != 0;
    return true;
}

/**
 * Writes everything up to the record array for a stream that will
 * carry @p record_count records. Pair with writeBinaryRecords()
 * calls totalling exactly that count to produce a stream
 * byte-identical to writeBinary() of the equivalent TraceBuffer.
 */
bool writeBinaryHeader(std::ostream &os, const std::string &name,
                       const InstructionMix &mix,
                       std::uint64_t record_count);

/** Packs and appends records to a stream opened by
 *  writeBinaryHeader(). Returns false on stream failure. */
bool writeBinaryRecords(std::ostream &os,
                        std::span<const BranchRecord> records);

/** Writes the text format. Returns false on stream failure. */
bool writeText(const TraceBuffer &trace, std::ostream &os);

/** Where and why text parsing failed (1-based line number). */
struct TextReadError
{
    std::size_t line = 0;
    std::string message;
};

/**
 * Reads the text format; nullopt on malformed input, with the
 * offending line reported through @p error when non-null.
 */
std::optional<TraceBuffer> readText(std::istream &is,
                                    TextReadError *error = nullptr);

/** Saves to a file, picking the format from the extension (.tltr/.txt). */
bool saveToFile(const TraceBuffer &trace, const std::string &path);

/**
 * Loads from a file, picking the format from the extension. On
 * failure @p error (when non-null) receives a human-readable reason,
 * including the line number for text-format parse errors.
 */
std::optional<TraceBuffer> loadFromFile(const std::string &path,
                                        std::string *error = nullptr);

} // namespace tlat::trace

#endif // TLAT_TRACE_TRACE_IO_HH
