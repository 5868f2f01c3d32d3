/**
 * @file
 * Shared framing for predictor checkpoints.
 *
 * Every checkpoint stream is: 4-byte magic "TLCP", a uint32 per-class
 * version, a uint64 configuration fingerprint (mix64 chain over the
 * geometry fields, salted per predictor class so an LS checkpoint can
 * never masquerade as an AT one), the class-specific payload, and the
 * uint32 end sentinel. Loaders must (a) parse into temporaries and
 * commit by swap only after the *entire* stream — sentinel included —
 * validated, so a truncated or corrupt stream leaves the predictor
 * untouched, and (b) verify the stream is fully consumed after the
 * sentinel, so trailing junk is rejected instead of silently
 * accepted. Sub-checkpoints (combining components) are embedded as
 * length-prefixed blobs and re-parsed from an isolated stream, which
 * makes the fully-consumed check compose.
 */

#ifndef TLAT_CORE_CHECKPOINT_HH
#define TLAT_CORE_CHECKPOINT_HH

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <string>

#include "util/bitops.hh"

namespace tlat::core::ckpt
{

inline constexpr char kMagic[4] = {'T', 'L', 'C', 'P'};
/** "TLCE" little-endian: closes every checkpoint stream. */
inline constexpr std::uint32_t kEndSentinel = 0x45434c54u;
/** Sanity cap for embedded blob sizes (far above any real state). */
inline constexpr std::uint64_t kMaxBlobBytes = 1ull << 32;

template <typename T>
void
putScalar(std::ostream &os, const T &value)
{
    os.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

template <typename T>
bool
getScalar(std::istream &is, T &value)
{
    is.read(reinterpret_cast<char *>(&value), sizeof(value));
    return static_cast<bool>(is);
}

/** Writes magic, per-class version, and config fingerprint. */
inline void
writeHeader(std::ostream &os, std::uint32_t version,
            std::uint64_t fingerprint)
{
    os.write(kMagic, sizeof(kMagic));
    putScalar(os, version);
    putScalar(os, fingerprint);
}

/**
 * Reads and validates the header against the expected version and
 * fingerprint. False on short reads or any mismatch.
 */
inline bool
readHeader(std::istream &is, std::uint32_t version,
           std::uint64_t fingerprint)
{
    char magic[sizeof(kMagic)] = {};
    is.read(magic, sizeof(magic));
    if (!is || !std::equal(std::begin(magic), std::end(magic),
                           std::begin(kMagic)))
        return false;
    std::uint32_t got_version = 0;
    std::uint64_t got_fingerprint = 0;
    if (!getScalar(is, got_version) || got_version != version)
        return false;
    if (!getScalar(is, got_fingerprint) ||
        got_fingerprint != fingerprint)
        return false;
    return true;
}

/** Appends the end sentinel that closes a checkpoint stream. */
inline void
writeEnd(std::ostream &os)
{
    putScalar(os, kEndSentinel);
}

/**
 * Consumes the end sentinel and verifies the stream holds nothing
 * after it: a checkpoint with trailing junk is as corrupt as a
 * truncated one (the extra bytes mean the reader and writer disagree
 * about the framing).
 */
inline bool
readEnd(std::istream &is)
{
    std::uint32_t sentinel = 0;
    if (!getScalar(is, sentinel) || sentinel != kEndSentinel)
        return false;
    return is.peek() == std::istream::traits_type::eof();
}

/** Writes a length-prefixed byte blob (embedded sub-checkpoint). */
inline void
writeBlob(std::ostream &os, const std::string &bytes)
{
    putScalar(os, static_cast<std::uint64_t>(bytes.size()));
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/**
 * Reads a length-prefixed byte blob; false on short or oversized. The
 * blob grows only with bytes actually read, so a corrupt length costs
 * at most the stream's own size in memory, not the length it claims.
 */
inline bool
readBlob(std::istream &is, std::string &bytes)
{
    std::uint64_t size = 0;
    if (!getScalar(is, size) || size > kMaxBlobBytes)
        return false;
    bytes.clear();
    char buffer[4096];
    while (size > 0) {
        const auto step = static_cast<std::streamsize>(
            std::min<std::uint64_t>(size, sizeof(buffer)));
        if (!is.read(buffer, step))
            return false;
        bytes.append(buffer, static_cast<std::size_t>(step));
        size -= static_cast<std::uint64_t>(step);
    }
    return true;
}

/**
 * Folds a string (e.g. a component scheme name) into a fingerprint
 * chain, so a combining checkpoint binds to its components' identity.
 */
inline std::uint64_t
mixString(std::uint64_t hash, const std::string &text)
{
    hash = mix64(hash ^ text.size());
    for (const char c : text)
        hash = mix64(hash ^ static_cast<unsigned char>(c));
    return hash;
}

} // namespace tlat::core::ckpt

#endif // TLAT_CORE_CHECKPOINT_HH
