/**
 * @file
 * Shared framing for predictor checkpoints.
 *
 * Every checkpoint stream is: 4-byte magic "TLCP", a uint32 per-class
 * version, a uint64 configuration fingerprint (mix64 chain over the
 * config fields, salted per predictor class so one class's checkpoint
 * can never pass for another's), the class-specific payload, and the
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
#include <vector>

#include "util/bitops.hh"

namespace tlat::core::ckpt
{

inline constexpr char kMagic[4] = {'T', 'L', 'C', 'P'};
/** "TLCE" little-endian: closes every checkpoint stream. */
inline constexpr std::uint32_t kEndSentinel = 0x45434c54u;
/** Sanity cap for embedded blob sizes (far above any real state). */
inline constexpr std::uint64_t kMaxBlobBytes = 1ull << 32;
/** Sanity cap for the items of a pc-keyed section. */
inline constexpr std::uint64_t kMaxSortedItems = 1ull << 32;

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

/** Writes @p items count-prefixed, each through put_item(os, item). */
template <typename Items, typename F>
void
writeCounted(std::ostream &os, const Items &items, F &&put_item)
{
    putScalar(os, static_cast<std::uint64_t>(items.size()));
    for (const auto &item : items)
        put_item(os, item);
}

/**
 * Reads a writeCounted() section into @p items, whose size the
 * configuration fixes: the count must equal it, and each item must
 * pass get_item(is, item). False on short input or any mismatch.
 */
template <typename Items, typename F>
bool
readCounted(std::istream &is, Items &items, F &&get_item)
{
    std::uint64_t count = 0;
    if (!getScalar(is, count) || count != items.size())
        return false;
    for (auto &item : items) {
        if (!get_item(is, item))
            return false;
    }
    return true;
}

/**
 * The (pc, item) pairs of the pc-keyed @p map in ascending pc order:
 * the ordered projection through which every walk of a hash-ordered
 * map goes, so nothing it feeds depends on insertion history.
 */
template <typename Map>
std::vector<const typename Map::value_type *>
sortedByPc(const Map &map)
{
    std::vector<const typename Map::value_type *> sorted;
    sorted.reserve(map.size());
    for (const auto &item : map)
        sorted.push_back(&item);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto *a, const auto *b) {
                  return a->first < b->first;
              });
    return sorted;
}

/**
 * Writes the pc-keyed @p map as a count-prefixed section of (pc,
 * item) pairs in ascending pc order, each item through
 * put_item(os, item). The map is hash-ordered, but checkpoint bytes
 * must not depend on insertion history: identical contents always
 * serialize identically.
 */
template <typename Map, typename F>
void
writeSorted(std::ostream &os, const Map &map, F &&put_item)
{
    const auto sorted = sortedByPc(map);
    putScalar(os, static_cast<std::uint64_t>(sorted.size()));
    for (const auto *item : sorted) {
        putScalar(os, item->first);
        put_item(os, item->second);
    }
}

/**
 * Reads a writeSorted() section, calling get_item(pc) to read and
 * keep each item. False on short input, more than kMaxSortedItems
 * items, or pcs not strictly ascending (a repeated pc would silently
 * drop an item, and no save writes one).
 */
template <typename F>
bool
readSorted(std::istream &is, F &&get_item)
{
    std::uint64_t count = 0;
    if (!getScalar(is, count) || count > kMaxSortedItems)
        return false;
    std::uint64_t previous_pc = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t pc = 0;
        if (!getScalar(is, pc) || (i > 0 && pc <= previous_pc) ||
            !get_item(pc))
            return false;
        previous_pc = pc;
    }
    return true;
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
