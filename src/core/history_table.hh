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
 */

#ifndef TLAT_CORE_HISTORY_TABLE_HH
#define TLAT_CORE_HISTORY_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <istream>
#include <memory>
#include <ostream>
#include <unordered_map>
#include <vector>

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
};

/**
 * Abstract per-branch storage: maps a branch address to an Entry,
 * allocating (by the strategy's rules) when the branch is not present.
 */
template <typename Entry>
class HistoryTable
{
  public:
    virtual ~HistoryTable() = default;

    /**
     * Finds or allocates the entry for @p pc and returns a reference
     * valid until the next lookup.
     *
     * Each concrete table also exposes the same operation as a
     * non-virtual lookupDirect() with identical behaviour (including
     * statistics); the fused batch simulation loop dispatches once on
     * the table kind (visitTable() below) and then calls
     * lookupDirect() so the per-branch probe inlines.
     */
    virtual Entry &lookup(std::uint64_t pc) = 0;

    virtual TableKind kind() const = 0;

    const TableStats &stats() const { return stats_; }

    /** Drops all state, restoring initial entry values. */
    virtual void reset() = 0;

    /** Serializes one entry payload / restores it. */
    using EntrySaver =
        std::function<void(std::ostream &, const Entry &)>;
    using EntryLoader = std::function<bool(std::istream &, Entry &)>;

    /**
     * Writes the table's full state (entries plus replacement and
     * statistics state) for checkpointing.
     */
    virtual void saveState(std::ostream &os,
                           const EntrySaver &save_entry) const = 0;

    /**
     * Restores a state written by saveState on a table with the same
     * geometry. Returns false on malformed input.
     */
    virtual bool loadState(std::istream &is,
                           const EntryLoader &load_entry) = 0;

  protected:
    template <typename T>
    static void
    putScalar(std::ostream &os, T value)
    {
        os.write(reinterpret_cast<const char *>(&value),
                 sizeof(value));
    }

    template <typename T>
    static bool
    getScalar(std::istream &is, T &value)
    {
        is.read(reinterpret_cast<char *>(&value), sizeof(value));
        return static_cast<bool>(is);
    }

    void
    saveStats(std::ostream &os) const
    {
        putScalar(os, stats_.hits);
        putScalar(os, stats_.misses);
        putScalar(os, stats_.evictions);
        putScalar(os, stats_.aliasedLookups);
    }

    bool
    loadStats(std::istream &is)
    {
        return getScalar(is, stats_.hits) &&
               getScalar(is, stats_.misses) &&
               getScalar(is, stats_.evictions) &&
               getScalar(is, stats_.aliasedLookups);
    }

    TableStats stats_;
};

/** IHRT: unbounded, one entry per static branch. */
template <typename Entry>
class IdealTable : public HistoryTable<Entry>
{
  public:
    /** @param initial Value new entries start from. */
    explicit IdealTable(Entry initial) : initial_(initial) {}

    Entry &
    lookup(std::uint64_t pc) override
    {
        return lookupDirect(pc);
    }

    /** Non-virtual lookup for the devirtualized batch loop. */
    Entry &
    lookupDirect(std::uint64_t pc)
    {
        auto [it, inserted] = entries_.try_emplace(pc, initial_);
        if (inserted)
            ++this->stats_.misses;
        else
            ++this->stats_.hits;
        return it->second;
    }

    /**
     * Statistics-only accounting for the SoA fast path: once a
     * branch-id slot caches the entry reference (node handles are
     * stable across rehashing), repeat probes skip the hash lookup
     * entirely but must still count as hits so the table statistics
     * stay bit-identical to the reference loop's.
     */
    void noteRepeatHit() { ++this->stats_.hits; }

    /** Bulk form of noteRepeatHit() for the SIMD lane path, which
     *  resolves each unique pc exactly once up front and knows the
     *  remaining probes are all repeat hits. */
    void noteRepeatHits(std::uint64_t count)
    {
        this->stats_.hits += count;
    }

    TableKind kind() const override { return TableKind::Ideal; }

    void
    reset() override
    {
        entries_.clear();
        this->stats_ = TableStats{};
    }

    /** Number of static branches seen (IHRT size is demand-grown). */
    std::size_t size() const { return entries_.size(); }

    void
    saveState(std::ostream &os, const typename HistoryTable<
                                    Entry>::EntrySaver &save_entry)
        const override
    {
        this->saveStats(os);
        this->putScalar(
            os, static_cast<std::uint64_t>(entries_.size()));
        forEachOrdered([&](std::uint64_t pc, const Entry &entry) {
            this->putScalar(os, pc);
            save_entry(os, entry);
        });
    }

    /**
     * Calls f(pc, entry) in pc order. The map is hash-ordered, but
     * checkpoint bytes must not depend on insertion history — emit by
     * pc so identical table contents always serialize identically.
     */
    template <typename F>
    void
    forEachOrdered(F &&f) const
    {
        std::vector<const typename decltype(entries_)::value_type *>
            ordered;
        ordered.reserve(entries_.size());
        for (const auto &item : entries_)
            ordered.push_back(&item);
        std::sort(ordered.begin(), ordered.end(),
                  [](const auto *a, const auto *b) {
                      return a->first < b->first;
                  });
        for (const auto *item : ordered)
            f(item->first, item->second);
    }

    /** The entry of @p pc, created if absent; no statistics (loads). */
    Entry &
    insert(std::uint64_t pc)
    {
        return entries_.try_emplace(pc, initial_).first->second;
    }

    bool
    loadState(std::istream &is,
              const typename HistoryTable<Entry>::EntryLoader
                  &load_entry) override
    {
        entries_.clear();
        if (!this->loadStats(is))
            return false;
        std::uint64_t count;
        if (!this->getScalar(is, count) || count > (1ull << 32))
            return false;
        for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t pc;
            Entry entry = initial_;
            if (!this->getScalar(is, pc) || !load_entry(is, entry))
                return false;
            entries_.emplace(pc, entry);
        }
        return true;
    }

  private:
    Entry initial_;
    std::unordered_map<std::uint64_t, Entry> entries_;
};

/**
 * AHRT: set-associative with tags and LRU.
 *
 * Branch addresses are instruction-aligned, so the low
 * @p addr_shift bits (2 for micro88's 4-byte instructions) are dropped
 * before indexing and tagging.
 */
template <typename Entry>
class AssociativeTable : public HistoryTable<Entry>
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

    Entry &
    lookup(std::uint64_t pc) override
    {
        return lookupDirect(pc);
    }

    /** Non-virtual lookup for the devirtualized batch loop. */
    Entry &
    lookupDirect(std::uint64_t pc)
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
     * are identical to lookupDirect (which now delegates here).
     */
    Entry &
    lookupWithSetTag(std::size_t set, std::uint64_t tag)
    {
        Way *ways = &ways_store_[set * ways_];

        ++tick_;
        Way *victim = &ways[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (ways[w].valid && ways[w].tag == tag) {
                ++this->stats_.hits;
                ways[w].lastUse = tick_;
                return ways[w].entry;
            }
            if (ways[w].lastUse < victim->lastUse)
                victim = &ways[w];
        }

        // Miss: re-allocate the LRU way. Per the paper, the payload is
        // *not* re-initialized — when the victim was live, the new
        // branch inherits foreign history (eviction + aliasing).
        ++this->stats_.misses;
        if (victim->valid) {
            ++this->stats_.evictions;
            ++this->stats_.aliasedLookups;
        }
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = tick_;
        return victim->entry;
    }

    TableKind kind() const override { return TableKind::Associative; }

    void
    reset() override
    {
        ways_store_.assign(num_sets_ * ways_, Way{initial_, 0, 0, false});
        tick_ = 0;
        this->stats_ = TableStats{};
    }

    std::size_t numSets() const { return num_sets_; }
    unsigned associativity() const { return ways_; }
    unsigned addrShift() const { return addr_shift_; }

    void
    saveState(std::ostream &os, const typename HistoryTable<
                                    Entry>::EntrySaver &save_entry)
        const override
    {
        this->saveStats(os);
        this->putScalar(os, tick_);
        this->putScalar(
            os, static_cast<std::uint64_t>(ways_store_.size()));
        for (const Way &way : ways_store_) {
            this->putScalar(os, way.tag);
            this->putScalar(os, way.lastUse);
            this->putScalar(
                os, static_cast<std::uint8_t>(way.valid ? 1 : 0));
            save_entry(os, way.entry);
        }
    }

    bool
    loadState(std::istream &is,
              const typename HistoryTable<Entry>::EntryLoader
                  &load_entry) override
    {
        if (!this->loadStats(is) || !this->getScalar(is, tick_))
            return false;
        std::uint64_t count;
        if (!this->getScalar(is, count) ||
            count != ways_store_.size())
            return false;
        for (Way &way : ways_store_) {
            std::uint8_t valid;
            if (!this->getScalar(is, way.tag) ||
                !this->getScalar(is, way.lastUse) ||
                !this->getScalar(is, valid) || valid > 1 ||
                !load_entry(is, way.entry))
                return false;
            way.valid = valid != 0;
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
};

/**
 * HHRT: tagless, direct-indexed hash table. Collisions silently share
 * an entry (history interference) — cheaper than the AHRT (no tag
 * store) but less accurate, exactly the paper's trade-off.
 */
template <typename Entry>
class HashedTable : public HistoryTable<Entry>
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

    Entry &
    lookup(std::uint64_t pc) override
    {
        return lookupDirect(pc);
    }

    /**
     * Non-virtual lookup for the devirtualized batch loop. Scalar
     * fallback path: re-derives the slot index from the address on
     * every probe — under HashKind::Mixed that is one mix64 per
     * dynamic branch. The SoA fast path avoids the recomputation by
     * probing through lookupAtIndex() with a per-geometry index lane
     * hashed once per *unique* PC.
     */
    Entry &
    lookupDirect(std::uint64_t pc)
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
     * lookupDirect (which now delegates here).
     */
    Entry &
    lookupAtIndex(std::size_t index, std::uint64_t line)
    {
        // A tagless table cannot distinguish hit from miss; count the
        // first touch of a slot as a miss for reporting purposes. A
        // touched slot last used by a *different* line is collision
        // interference — the aliasing that costs the HHRT accuracy.
        if (touched_[index]) {
            ++this->stats_.hits;
            if (lines_[index] != line)
                ++this->stats_.aliasedLookups;
        } else {
            ++this->stats_.misses;
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

    TableKind kind() const override { return TableKind::Hashed; }

    void
    reset() override
    {
        entries_.assign(size_, initial_);
        touched_.assign(size_, false);
        lines_.assign(size_, 0);
        this->stats_ = TableStats{};
    }

    std::size_t size() const { return size_; }
    unsigned addrShift() const { return addr_shift_; }
    HashKind hashKind() const { return hash_; }

    void
    saveState(std::ostream &os, const typename HistoryTable<
                                    Entry>::EntrySaver &save_entry)
        const override
    {
        this->saveStats(os);
        this->putScalar(os, static_cast<std::uint64_t>(size_));
        for (std::size_t i = 0; i < size_; ++i) {
            this->putScalar(
                os, static_cast<std::uint8_t>(touched_[i] ? 1 : 0));
            this->putScalar(os, lines_[i]);
            save_entry(os, entries_[i]);
        }
    }

    bool
    loadState(std::istream &is,
              const typename HistoryTable<Entry>::EntryLoader
                  &load_entry) override
    {
        std::uint64_t count;
        if (!this->loadStats(is) || !this->getScalar(is, count) ||
            count != size_)
            return false;
        for (std::size_t i = 0; i < size_; ++i) {
            std::uint8_t touched;
            if (!this->getScalar(is, touched) || touched > 1 ||
                !this->getScalar(is, lines_[i]) ||
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
};

/**
 * The one HRT factory: a fresh table of @p kind whose entries start
 * as @p initial. @p entries and @p ways are ignored by the kinds that
 * do not use them, as is @p hash outside the HHRT.
 */
template <typename Entry>
std::unique_ptr<HistoryTable<Entry>>
makeHistoryTable(TableKind kind, std::size_t entries, unsigned ways,
                 const Entry &initial, unsigned addr_shift,
                 HashKind hash = HashKind::LowBits)
{
    switch (kind) {
      case TableKind::Ideal:
        return std::make_unique<IdealTable<Entry>>(initial);
      case TableKind::Associative:
        return std::make_unique<AssociativeTable<Entry>>(
            entries, ways, initial, addr_shift);
      case TableKind::Hashed:
        return std::make_unique<HashedTable<Entry>>(entries, initial,
                                                    addr_shift, hash);
    }
    tlat_panic("unhandled HRT kind");
}

/**
 * The one runtime-to-compile-time table dispatch: calls @p f with
 * @p table downcast to its concrete flavour (by its kind()), so the
 * fused loops' per-branch probe inlines. Returns what @p f returns.
 */
template <typename Entry, typename F>
decltype(auto)
visitTable(HistoryTable<Entry> &table, F &&f)
{
    switch (table.kind()) {
      case TableKind::Ideal:
        return f(static_cast<IdealTable<Entry> &>(table));
      case TableKind::Associative:
        return f(static_cast<AssociativeTable<Entry> &>(table));
      case TableKind::Hashed:
        return f(static_cast<HashedTable<Entry> &>(table));
    }
    tlat_panic("unhandled table kind");
}

} // namespace tlat::core

#endif // TLAT_CORE_HISTORY_TABLE_HH
