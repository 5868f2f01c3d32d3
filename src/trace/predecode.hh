/**
 * @file
 * Trace predecode: immutable structure-of-arrays "hot lanes" compiled
 * once per trace and shared read-only by every simulation that replays
 * it.
 *
 * The sweep engine replays the same immutable trace through dozens of
 * predictor configurations (the paper's Figures 5-10 all reuse one
 * trace per benchmark), yet a loop over the 24-byte BranchRecord
 * re-derives everything once per branch per cell: the IHRT hashes the
 * pc into an unordered_map, the AHRT re-computes set/tag, the HHRT
 * re-runs mix64. Predecoding hoists
 * all of that per-PC work out of the per-cell loops:
 *
 *  - a dense static-branch-id lane: each unique conditional PC is
 *    mapped once, at first appearance, to a small integer through a
 *    per-trace dictionary, so per-branch state can live in plain
 *    vectors indexed by id (no hashing on the hot path at all);
 *  - a packed outcome bitvector (one bit per conditional, 64 per
 *    word) replacing the one-byte-per-record taken flag;
 *  - lazily built per-geometry index lanes: the AHRT set/tag pair and
 *    the HHRT hashed slot index of every *unique* PC, computed once
 *    per (trace, geometry) instead of once per branch per cell.
 *
 * Everything here is a pure function of the conditional record stream
 * (and, for index lanes, the table geometry), so a predecoded trace
 * built by any thread is bit-identical to one built by any other —
 * sharing it across sweep shards cannot perturb results at any --jobs
 * count. The dense lanes are immutable once shared; the lane cache is
 * guarded by a mutex so concurrent cells that need the same geometry
 * build it once and share the result.
 *
 * Two ways to build the lanes, one dictionary: the span constructor
 * compiles an existing conditional-only AoS span, and the chunk
 * decoder (trace/chunk_stream.cc) fills a reusable trace record by
 * record straight from wire bytes through reset()/append()/finish().
 * Both map pcs through BranchIdDictionary, so they cannot disagree.
 */

#ifndef TLAT_TRACE_PREDECODE_HH
#define TLAT_TRACE_PREDECODE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "record.hh"
#include "util/mutex.hh"
#include "util/thread_annotations.hh"

namespace tlat::trace
{

/** Dense per-trace identifier of a unique conditional-branch PC. */
using BranchId = std::uint32_t;

/**
 * Per-geometry AHRT index lane: the set index and tag of each unique
 * PC, in branch-id order. Derivation matches
 * core::AssociativeTable::lookupDirect exactly (line = pc >> shift,
 * set = line & (sets-1), tag = line / sets) — pinned by
 * tests/test_predecode.
 */
struct AhrtLane
{
    std::vector<std::uint32_t> sets;
    std::vector<std::uint64_t> tags;
};

/**
 * Per-geometry HHRT index lane: the hashed slot index and the address
 * line (the HHRT's aliasing-attribution key) of each unique PC, in
 * branch-id order. Derivation matches core::HashedTable::lookupDirect
 * (index = (mixed ? mix64(line) : line) & (size-1)).
 */
struct HashedLane
{
    std::vector<std::uint32_t> indices;
    std::vector<std::uint64_t> lines;
};

/**
 * First-appearance map from conditional pc to dense BranchId: a flat
 * open-addressing table (linear probing, Fibonacci hashing) kept at or
 * below 50% load by doubling. clear() is O(1) — each slot carries the
 * generation stamp it was written under — so one dictionary is reused
 * across every chunk of a stream without per-chunk allocation or
 * zeroing, and a chunk whose every pc is distinct simply grows it.
 */
class BranchIdDictionary
{
  public:
    BranchIdDictionary() : slots_(kInitialSlots) {}

    /** Forgets every pc; keeps the capacity for the next trace. */
    void clear();

    /** Distinct pcs seen since the last clear(). */
    std::size_t size() const { return size_; }

    /**
     * The id of @p pc. On first sight since clear() the pc gets the
     * next dense id (the old size()) and @p inserted is set.
     */
    BranchId
    findOrInsert(std::uint64_t pc, bool &inserted)
    {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = home(pc);; i = (i + 1) & mask) {
            Slot &slot = slots_[i];
            if (slot.stamp != stamp_) {
                if (2 * (size_ + 1) > slots_.size()) {
                    grow();
                    return findOrInsert(pc, inserted);
                }
                slot = Slot{pc, static_cast<BranchId>(size_), stamp_};
                ++size_;
                inserted = true;
                return slot.id;
            }
            if (slot.pc == pc) {
                inserted = false;
                return slot.id;
            }
        }
    }

    /** The id of @p pc, or nullopt if it was not seen since clear(). */
    std::optional<BranchId> find(std::uint64_t pc) const;

  private:
    static constexpr std::size_t kInitialSlots = 16;

    struct Slot
    {
        std::uint64_t pc = 0;
        BranchId id = 0;
        /** Generation the slot was written in; stale = empty. */
        std::uint32_t stamp = 0;
    };

    std::size_t
    home(std::uint64_t pc) const
    {
        // Fibonacci hashing: the top log2(capacity) bits of the
        // golden-ratio product spread word-aligned pcs evenly.
        return static_cast<std::size_t>(
            (pc * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    /** Doubles the table and re-inserts the live generation. */
    void grow();

    std::vector<Slot> slots_;
    std::uint32_t stamp_ = 1;
    std::size_t size_ = 0;
    /** 64 - log2(slots_.size()). */
    unsigned shift_ = 60;
};

/** The predecoded (SoA) form of one trace's conditional stream. */
class PredecodedTrace
{
  public:
    /** Bits per packed-outcome word (layout pinned in contracts.hh). */
    static constexpr unsigned kOutcomeWordBits = 64;

    /** An empty trace, to be filled through reset()/append(). */
    PredecodedTrace() = default;

    /**
     * Compiles @p conditionals (a conditional-only span, trace order)
     * into the dense lanes. Non-conditional records are not allowed
     * here — callers pass TraceBuffer::conditionalView().
     */
    explicit PredecodedTrace(std::span<const BranchRecord> conditionals);

    // ---- one-pass build (legal only while the trace is unshared) ----

    /**
     * Empties every lane and the geometry lane caches, keeping their
     * capacity, and makes room for up to @p max_conditionals appends.
     * The caller clears the dictionary it will pass to append().
     */
    void reset(std::size_t max_conditionals);

    /** Appends the next conditional of the trace. */
    void
    append(std::uint64_t pc, bool taken, BranchIdDictionary &dictionary)
    {
        bool inserted = false;
        const BranchId id = dictionary.findOrInsert(pc, inserted);
        if (inserted)
            notePc(pc);
        const std::size_t position = ids_.size();
        ids_.push_back(id);
        // Branch-free: outcomes are close to random per record.
        outcome_words_[position / kOutcomeWordBits] |=
            std::uint64_t{taken} << (position % kOutcomeWordBits);
    }

    /** Ends a build: trims the outcome words to size() bits. */
    void finish();

    /**
     * Makes this trace a copy of @p source's dense lanes (ids, outcome
     * words, unique pcs), reusing this trace's capacity, and empties
     * the geometry lane caches. For a consumer that keeps a chunk's
     * lanes past the stream's next() without holding the stream's own
     * lanes object, which the stream may reuse. Legal only while this
     * trace is unshared.
     */
    void assignLanes(const PredecodedTrace &source);

    /** Number of conditional branches (dense-lane length). */
    std::size_t size() const { return ids_.size(); }

    /** Static-branch id of each conditional, in trace order. */
    std::span<const BranchId> branchIds() const { return ids_; }

    /** Outcome of conditional @p i (packed bitvector read). */
    bool
    taken(std::size_t i) const
    {
        return ((outcome_words_[i / kOutcomeWordBits] >>
                 (i % kOutcomeWordBits)) &
                1u) != 0;
    }

    /** The packed outcome words (tests; size() bits are valid). */
    std::span<const std::uint64_t>
    outcomeWords() const
    {
        return outcome_words_;
    }

    /** Unique conditional PCs indexed by BranchId (dictionary). */
    std::span<const std::uint64_t> uniquePcs() const { return pcs_; }

    /** Number of unique conditional PCs in the trace. */
    std::size_t uniquePcCount() const { return pcs_.size(); }

    /**
     * The AHRT index lane for one table geometry, built on first
     * request and cached for the trace's lifetime. Thread-safe: sweep
     * cells that share a geometry share one lane.
     */
    const AhrtLane &ahrtLane(unsigned addr_shift,
                             std::size_t num_sets) const;

    /** The HHRT index lane for one table geometry (see ahrtLane). */
    const HashedLane &hashedLane(unsigned addr_shift,
                                 std::size_t table_size,
                                 bool mixed) const;

  private:
    /** Records a newly seen pc in the dictionary lane. */
    void notePc(std::uint64_t pc);

    std::vector<BranchId> ids_;
    std::vector<std::uint64_t> outcome_words_;
    std::vector<std::uint64_t> pcs_;

    // Geometry-keyed lane caches. std::map: iteration order is never
    // observable (lookup only), and the deterministic comparator
    // avoids hash-order questions outright. unique_ptr keeps lane
    // references stable across cache growth.
    using AhrtKey = std::pair<unsigned, std::size_t>;
    using HashedKey = std::tuple<unsigned, std::size_t, bool>;
    mutable util::Mutex lanes_mutex_;
    mutable std::map<AhrtKey, std::unique_ptr<const AhrtLane>>
        ahrt_lanes_ TLAT_GUARDED_BY(lanes_mutex_);
    mutable std::map<HashedKey, std::unique_ptr<const HashedLane>>
        hashed_lanes_ TLAT_GUARDED_BY(lanes_mutex_);
};

/**
 * What a predictor receives for a batch run over a predecoded trace:
 * the SoA lanes plus the AoS conditional span the lanes were compiled
 * from, so any predictor (or any mode whose fast path is unsafe —
 * delayed updates, mid-pair memo state) can fall back to the existing
 * reference twin via records().
 */
class PredecodedView
{
  public:
    PredecodedView(std::span<const BranchRecord> conditionals,
                   std::shared_ptr<const PredecodedTrace> soa)
        : conditionals_(conditionals), soa_(std::move(soa))
    {
    }

    /** The AoS conditional records the lanes mirror (fallback path). */
    std::span<const BranchRecord> records() const
    {
        return conditionals_;
    }

    /** The shared SoA lanes. */
    const PredecodedTrace &soa() const { return *soa_; }

    /** The owning handle (plumbing that re-shares the artifact). */
    const std::shared_ptr<const PredecodedTrace> &shared() const
    {
        return soa_;
    }

  private:
    std::span<const BranchRecord> conditionals_;
    std::shared_ptr<const PredecodedTrace> soa_;
};

/**
 * Build-once cache slot embedded (via shared_ptr, to keep TraceBuffer
 * movable) in each TraceBuffer. get() compiles the predecoded form on
 * first use and re-shares it afterwards; a grown conditional stream
 * (trace still being recorded) is detected by length and recompiled.
 */
class PredecodeCache
{
  public:
    std::shared_ptr<const PredecodedTrace>
    get(std::span<const BranchRecord> conditionals)
    {
        const util::MutexLock lock(mutex_);
        if (!trace_ || trace_->size() != conditionals.size()) {
            trace_ =
                std::make_shared<const PredecodedTrace>(conditionals);
        }
        return trace_;
    }

    void
    invalidate()
    {
        const util::MutexLock lock(mutex_);
        trace_.reset();
    }

  private:
    util::Mutex mutex_;
    std::shared_ptr<const PredecodedTrace> trace_
        TLAT_GUARDED_BY(mutex_);
};

} // namespace tlat::trace

#endif // TLAT_TRACE_PREDECODE_HH
