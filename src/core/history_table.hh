/**
 * @file
 * History register table (HRT) storage strategies (paper Section 3.1).
 *
 * The paper evaluates three ways of holding per-branch state:
 *
 *  - IHRT: the Ideal HRT — one entry per static branch, never misses.
 *  - AHRT: a set-associative cache with tags and LRU replacement
 *    (4-way in every paper configuration).
 *  - HHRT: a tagless hash table; different branches can collide and
 *    interfere, which is what costs it accuracy relative to the AHRT.
 *
 * The same storage holds Lee & Smith's Branch Target Buffer entries
 * (an automaton instead of a shift register) and Static Training's
 * history registers, so the tables are generic over the entry
 * payload.
 *
 * Reallocation semantics follow the paper exactly: "During execution,
 * when an entry is re-allocated to a different static branch, the
 * history register is not re-initialized" — on an AHRT miss the
 * victim's payload is handed to the new branch as-is.
 *
 * The three tables share no base class: an owner holds one as an
 * AnyHistoryTable (a std::variant, built by makeHistoryTable()) and
 * reaches the concrete table with one std::visit or std::get, so
 * every probe is a direct, inlinable call. Entry savers and loaders
 * are template parameters for the same reason.
 */

#ifndef TLAT_CORE_HISTORY_TABLE_HH
#define TLAT_CORE_HISTORY_TABLE_HH

#include <cstdint>
#include <iosfwd>
#include <istream>
#include <ostream>
#include <unordered_map>
#include <variant>
#include <vector>

#include "checkpoint.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace tlat::core
{

/** HRT storage flavours. */
enum class TableKind : std::uint8_t
{
    Ideal,       ///< IHRT
    Associative, ///< AHRT
    Hashed       ///< HHRT
};

/** Renders "IHRT" / "AHRT" / "HHRT". */
const char *tableKindName(TableKind kind);

/** Index hash for the tagless HHRT (ablation). */
enum class HashKind : std::uint8_t
{
    /** Low address bits — the paper-era default. */
    LowBits,
    /** SplitMix64-mixed bits. */
    Mixed
};

/** Access counters for hit-ratio reporting (paper Section 5.1.2). */
struct TableStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /**
     * Misses that displaced a live entry (AHRT): the victim's payload
     * is re-allocated to a different static branch without
     * re-initialization, so the new branch inherits foreign history.
     * Always 0 for the ideal table.
     */
    std::uint64_t evictions = 0;
    /**
     * Accesses that observed another branch's state in the shared
     * slot: HHRT lookups whose slot was last used by a different
     * address line, and AHRT re-allocations (which hand the evicted
     * payload to the new branch). Always 0 for the ideal table.
     */
    std::uint64_t aliasedLookups = 0;

    double
    hitRatio() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(total);
    }

    /** Checkpoint form: the four counters in declaration order. */
    void
    save(std::ostream &os) const
    {
        ckpt::putScalar(os, hits);
        ckpt::putScalar(os, misses);
        ckpt::putScalar(os, evictions);
        ckpt::putScalar(os, aliasedLookups);
    }

    bool
    load(std::istream &is)
    {
        return ckpt::getScalar(is, hits) && ckpt::getScalar(is, misses) &&
               ckpt::getScalar(is, evictions) &&
               ckpt::getScalar(is, aliasedLookups);
    }
};

/** IHRT: unbounded, one entry per static branch. */
template <typename Entry>
class IdealTable
{
  public:
    /** @param initial Value new entries start from. */
    explicit IdealTable(Entry initial) : initial_(initial) {}

    /**
     * Finds or allocates the entry for @p pc. The reference stays
     * valid across later lookups (unordered_map nodes are stable).
     */
    Entry &
    lookup(std::uint64_t pc)
    {
        auto [it, inserted] = entries_.try_emplace(pc, initial_);
        if (inserted)
            ++stats_.misses;
        else
            ++stats_.hits;
        return it->second;
    }

    /**
     * The entry of @p pc, allocated if absent, with no statistics:
     * for state set outside any probe (Profile's preset bits).
     */
    Entry &
    entry(std::uint64_t pc)
    {
        return entries_.try_emplace(pc, initial_).first->second;
    }

    /**
     * Statistics-only accounting for the SoA fast path: once a
     * branch-id slot caches the entry reference (node handles are
     * stable across rehashing), repeat probes skip the hash lookup
     * entirely but must still count as hits so the table statistics
     * stay bit-identical to the reference loop's.
     */
    void noteRepeatHit() { ++stats_.hits; }

    /** Bulk form of noteRepeatHit() for the SIMD lane path, which
     *  resolves each unique pc exactly once up front and knows the
     *  remaining probes are all repeat hits. */
    void noteRepeatHits(std::uint64_t count)
    {
        stats_.hits += count;
    }

    const TableStats &stats() const { return stats_; }

    /** Drops all state, restoring initial entry values. */
    void
    reset()
    {
        entries_.clear();
        stats_ = TableStats{};
    }

    /** Number of static branches seen (IHRT size is demand-grown). */
    std::size_t size() const { return entries_.size(); }

    /**
     * Checkpoint form: statistics, then the entries as a pc-sorted
     * section, each through save_entry(os, entry).
     */
    template <typename Save>
    void
    saveState(std::ostream &os, Save &&save_entry) const
    {
        stats_.save(os);
        ckpt::writeSorted(os, entries_, save_entry);
    }

    /**
     * Restores a saveState() section, each entry through
     * load_entry(is, entry). False on malformed input.
     */
    template <typename Load>
    bool
    loadState(std::istream &is, Load &&load_entry)
    {
        entries_.clear();
        return stats_.load(is) &&
               ckpt::readSorted(is, [&](std::uint64_t pc) {
                   Entry entry = initial_;
                   if (!load_entry(is, entry))
                       return false;
                   entries_.emplace(pc, entry);
                   return true;
               });
    }

  private:
    Entry initial_;
    std::unordered_map<std::uint64_t, Entry> entries_;
    TableStats stats_;
};

/**
 * AHRT: set-associative with tags and LRU.
 *
 * Branch addresses are instruction-aligned, so the low
 * @p addr_shift bits (2 for micro88's 4-byte instructions) are dropped
 * before indexing and tagging.
 */
template <typename Entry>
class AssociativeTable
{
  public:
    /**
     * @param entries Total entry count (power of two).
     * @param ways Associativity (paper: 4).
     * @param initial Initial payload of every entry.
     * @param addr_shift Low address bits dropped before indexing.
     */
    AssociativeTable(std::size_t entries, unsigned ways, Entry initial,
                     unsigned addr_shift = 2)
        : ways_(ways), addr_shift_(addr_shift), initial_(initial)
    {
        tlat_assert(ways >= 1, "associativity must be >= 1");
        tlat_assert(entries % ways == 0,
                    "entries not divisible by ways");
        num_sets_ = entries / ways;
        tlat_assert(isPowerOfTwo(num_sets_),
                    "set count must be a power of two, got ",
                    num_sets_);
        reset();
    }

    /**
     * Finds the entry for @p pc or re-allocates the set's LRU way to
     * it; the reference is valid until the next lookup.
     */
    Entry &
    lookup(std::uint64_t pc)
    {
        const std::uint64_t line = pc >> addr_shift_;
        return lookupWithSetTag(line & (num_sets_ - 1),
                                line / num_sets_);
    }

    /**
     * Probe with the set/tag pair already derived — the SoA fast path
     * reads both from a per-geometry index lane
     * (trace::PredecodedTrace::ahrtLane) computed once per unique PC
     * instead of once per dynamic branch. Behaviour and statistics
     * are identical to lookup() (which delegates here).
     */
    Entry &
    lookupWithSetTag(std::size_t set, std::uint64_t tag)
    {
        Way *ways = &ways_store_[set * ways_];

        ++tick_;
        Way *victim = &ways[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (ways[w].valid && ways[w].tag == tag) {
                ++stats_.hits;
                ways[w].lastUse = tick_;
                return ways[w].entry;
            }
            if (ways[w].lastUse < victim->lastUse)
                victim = &ways[w];
        }

        // Miss: re-allocate the LRU way. Per the paper, the payload is
        // *not* re-initialized — when the victim was live, the new
        // branch inherits foreign history (eviction + aliasing).
        ++stats_.misses;
        if (victim->valid) {
            ++stats_.evictions;
            ++stats_.aliasedLookups;
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = tick_;
        return victim->entry;
    }

    const TableStats &stats() const { return stats_; }

    /** Drops all state, restoring initial entry values. */
    void
    reset()
    {
        ways_store_.assign(num_sets_ * ways_, Way{initial_, 0, 0, false});
        tick_ = 0;
        stats_ = TableStats{};
    }

    std::size_t numSets() const { return num_sets_; }
    unsigned associativity() const { return ways_; }
    unsigned addrShift() const { return addr_shift_; }

    /** Checkpoint form: statistics, the LRU clock, then every way. */
    template <typename Save>
    void
    saveState(std::ostream &os, Save &&save_entry) const
    {
        stats_.save(os);
        ckpt::putScalar(os, tick_);
        ckpt::putScalar(
            os, static_cast<std::uint64_t>(ways_store_.size()));
        for (const Way &way : ways_store_) {
            ckpt::putScalar(os, way.tag);
            ckpt::putScalar(os, way.lastUse);
            ckpt::putScalar(
                os, static_cast<std::uint8_t>(way.valid ? 1 : 0));
            save_entry(os, way.entry);
        }
    }

    /** Restores a saveState() section; false on malformed input. */
    template <typename Load>
    bool
    loadState(std::istream &is, Load &&load_entry)
    {
        if (!stats_.load(is) || !ckpt::getScalar(is, tick_))
            return false;
        std::uint64_t count;
        if (!ckpt::getScalar(is, count) ||
            count != ways_store_.size())
            return false;
        for (std::size_t i = 0; i < ways_store_.size(); ++i) {
            Way &way = ways_store_[i];
            std::uint8_t valid;
            if (!ckpt::getScalar(is, way.tag) ||
                !ckpt::getScalar(is, way.lastUse) ||
                !ckpt::getScalar(is, valid) || valid > 1 ||
                way.lastUse > tick_ || !load_entry(is, way.entry))
                return false;
            way.valid = valid != 0;
            // A probe hits the first valid way with its tag, so a
            // second one in the set could never be reached: no probe
            // sequence writes that, and no load accepts it.
            const Way *set = &ways_store_[i - i % ways_];
            for (const Way *other = set; other != &way; ++other) {
                if (way.valid && other->valid && other->tag == way.tag)
                    return false;
            }
        }
        return true;
    }

  private:
    struct Way
    {
        Entry entry;
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned ways_;
    unsigned addr_shift_;
    Entry initial_;
    std::size_t num_sets_ = 0;
    std::vector<Way> ways_store_;
    std::uint64_t tick_ = 0;
    TableStats stats_;
};

/**
 * HHRT: tagless, direct-indexed hash table. Collisions silently share
 * an entry (history interference) — cheaper than the AHRT (no tag
 * store) but less accurate, exactly the paper's trade-off.
 */
template <typename Entry>
class HashedTable
{
  public:
    HashedTable(std::size_t entries, Entry initial,
                unsigned addr_shift = 2,
                HashKind hash = HashKind::LowBits)
        : addr_shift_(addr_shift), hash_(hash), initial_(initial)
    {
        tlat_assert(isPowerOfTwo(entries),
                    "HHRT size must be a power of two, got ", entries);
        size_ = entries;
        reset();
    }

    /**
     * The slot @p pc hashes to, shared with whichever branches
     * collide there. Re-derives the slot index from the address on
     * every probe — under HashKind::Mixed that is one mix64 per
     * dynamic branch. The SoA fast path avoids the recomputation by
     * probing through lookupAtIndex() with a per-geometry index lane
     * hashed once per *unique* PC.
     */
    Entry &
    lookup(std::uint64_t pc)
    {
        const std::uint64_t line = pc >> addr_shift_;
        return lookupAtIndex(indexOfLine(line), line);
    }

    /**
     * Probe with the slot index already derived (from
     * trace::PredecodedTrace::hashedLane); @p line must be the
     * address line the index was hashed from, because it feeds the
     * aliasing attribution. Behaviour and statistics — including the
     * touched_/lines_ interference tracking — are identical to
     * lookup() (which delegates here).
     */
    Entry &
    lookupAtIndex(std::size_t index, std::uint64_t line)
    {
        // A tagless table cannot distinguish hit from miss; count the
        // first touch of a slot as a miss for reporting purposes. A
        // touched slot last used by a *different* line is collision
        // interference — the aliasing that costs the HHRT accuracy.
        if (touched_[index]) {
            ++stats_.hits;
            if (lines_[index] != line)
                ++stats_.aliasedLookups;
        } else {
            ++stats_.misses;
            touched_[index] = true;
        }
        lines_[index] = line;
        return entries_[index];
    }

    /** The slot an address line hashes to (lane-consistency tests). */
    std::size_t
    indexOfLine(std::uint64_t line) const
    {
        return (hash_ == HashKind::LowBits ? line : mix64(line)) &
               (size_ - 1);
    }

    const TableStats &stats() const { return stats_; }

    /** Drops all state, restoring initial entry values. */
    void
    reset()
    {
        entries_.assign(size_, initial_);
        touched_.assign(size_, false);
        lines_.assign(size_, 0);
        stats_ = TableStats{};
    }

    std::size_t size() const { return size_; }
    unsigned addrShift() const { return addr_shift_; }
    HashKind hashKind() const { return hash_; }

    /** Checkpoint form: statistics, then every slot with its
     *  aliasing attribution. */
    template <typename Save>
    void
    saveState(std::ostream &os, Save &&save_entry) const
    {
        stats_.save(os);
        ckpt::putScalar(os, static_cast<std::uint64_t>(size_));
        for (std::size_t i = 0; i < size_; ++i) {
            ckpt::putScalar(
                os, static_cast<std::uint8_t>(touched_[i] ? 1 : 0));
            ckpt::putScalar(os, lines_[i]);
            save_entry(os, entries_[i]);
        }
    }

    /** Restores a saveState() section; false on malformed input. */
    template <typename Load>
    bool
    loadState(std::istream &is, Load &&load_entry)
    {
        std::uint64_t count;
        if (!stats_.load(is) || !ckpt::getScalar(is, count) ||
            count != size_)
            return false;
        for (std::size_t i = 0; i < size_; ++i) {
            std::uint8_t touched;
            if (!ckpt::getScalar(is, touched) || touched > 1 ||
                !ckpt::getScalar(is, lines_[i]) ||
                !load_entry(is, entries_[i]))
                return false;
            touched_[i] = touched != 0;
        }
        return true;
    }

  private:
    unsigned addr_shift_;
    HashKind hash_;
    Entry initial_;
    std::size_t size_ = 0;
    std::vector<Entry> entries_;
    std::vector<bool> touched_;
    /** Last address line to use each slot (aliasing attribution). */
    std::vector<std::uint64_t> lines_;
    TableStats stats_;
};

/** One HRT of any flavour, reached with std::visit or std::get. */
template <typename Entry>
using AnyHistoryTable = std::variant<IdealTable<Entry>, AssociativeTable<Entry>,
                                     HashedTable<Entry>>;

/**
 * The one HRT factory: a fresh table of @p kind whose entries start
 * as @p initial. @p entries and @p ways are ignored by the kinds that
 * do not use them, as is @p hash outside the HHRT.
 */
template <typename Entry>
AnyHistoryTable<Entry>
makeHistoryTable(TableKind kind, std::size_t entries, unsigned ways,
                 const Entry &initial, unsigned addr_shift,
                 HashKind hash = HashKind::LowBits)
{
    switch (kind) {
      case TableKind::Ideal:
        return IdealTable<Entry>(initial);
      case TableKind::Associative:
        return AssociativeTable<Entry>(entries, ways, initial,
                                       addr_shift);
      case TableKind::Hashed:
        return HashedTable<Entry>(entries, initial, addr_shift, hash);
    }
    tlat_panic("unhandled HRT kind");
}

} // namespace tlat::core

#endif // TLAT_CORE_HISTORY_TABLE_HH
