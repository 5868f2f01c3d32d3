#include "predecode.hh"

#include <algorithm>
#include <limits>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace tlat::trace
{

namespace
{

std::size_t
outcomeWordCount(std::size_t conditionals)
{
    return (conditionals + PredecodedTrace::kOutcomeWordBits - 1) /
           PredecodedTrace::kOutcomeWordBits;
}

} // namespace

void
BranchIdDictionary::clear()
{
    size_ = 0;
    if (++stamp_ == 0) {
        // Stamp wrapped after 2^32 clears: stale slots could now
        // alias the live generation, so empty them for real once.
        std::fill(slots_.begin(), slots_.end(), Slot{});
        stamp_ = 1;
    }
}

std::optional<BranchId>
BranchIdDictionary::find(std::uint64_t pc) const
{
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = home(pc);; i = (i + 1) & mask) {
        const Slot &slot = slots_[i];
        if (slot.stamp != stamp_)
            return std::nullopt;
        if (slot.pc == pc)
            return slot.id;
    }
}

void
BranchIdDictionary::grow()
{
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    --shift_;
    const std::size_t mask = slots_.size() - 1;
    for (const Slot &slot : old) {
        if (slot.stamp != stamp_)
            continue;
        std::size_t i = home(slot.pc);
        while (slots_[i].stamp == stamp_)
            i = (i + 1) & mask;
        slots_[i] = slot;
    }
}

PredecodedTrace::PredecodedTrace(
    std::span<const BranchRecord> conditionals)
{
    // First-appearance dictionary: ids are assigned in trace order, so
    // the mapping (and with it every lane) is a pure function of the
    // conditional stream — independent of who builds it and when.
    BranchIdDictionary dictionary;
    reset(conditionals.size());
    for (const BranchRecord &record : conditionals) {
        tlat_assert(record.cls == BranchClass::Conditional,
                    "predecode input must be conditional-only");
        append(record.pc, record.taken, dictionary);
    }
    finish();
}

void
PredecodedTrace::reset(std::size_t max_conditionals)
{
    ids_.clear();
    ids_.reserve(max_conditionals);
    pcs_.clear();
    outcome_words_.assign(outcomeWordCount(max_conditionals), 0);
    const util::MutexLock lock(lanes_mutex_);
    ahrt_lanes_.clear();
    hashed_lanes_.clear();
}

void
PredecodedTrace::notePc(std::uint64_t pc)
{
    tlat_assert(pcs_.size() < std::numeric_limits<BranchId>::max(),
                "trace exceeds the 2^32-1 unique-branch-id space");
    pcs_.push_back(pc);
}

void
PredecodedTrace::finish()
{
    outcome_words_.resize(outcomeWordCount(ids_.size()));
}

void
PredecodedTrace::assignLanes(const PredecodedTrace &source)
{
    ids_ = source.ids_;
    outcome_words_ = source.outcome_words_;
    pcs_ = source.pcs_;
    const util::MutexLock lock(lanes_mutex_);
    ahrt_lanes_.clear();
    hashed_lanes_.clear();
}

const AhrtLane &
PredecodedTrace::ahrtLane(unsigned addr_shift,
                          std::size_t num_sets) const
{
    tlat_assert(isPowerOfTwo(num_sets),
                "AHRT set count must be a power of two, got ",
                num_sets);
    const util::MutexLock lock(lanes_mutex_);
    auto &slot = ahrt_lanes_[AhrtKey{addr_shift, num_sets}];
    if (!slot) {
        auto lane = std::make_unique<AhrtLane>();
        lane->sets.reserve(pcs_.size());
        lane->tags.reserve(pcs_.size());
        for (const std::uint64_t pc : pcs_) {
            // Must match AssociativeTable::lookupDirect bit-for-bit
            // (pinned by tests/test_predecode).
            const std::uint64_t line = pc >> addr_shift;
            lane->sets.push_back(static_cast<std::uint32_t>(
                line & (num_sets - 1)));
            lane->tags.push_back(line / num_sets);
        }
        slot = std::move(lane);
    }
    return *slot;
}

const HashedLane &
PredecodedTrace::hashedLane(unsigned addr_shift,
                            std::size_t table_size, bool mixed) const
{
    tlat_assert(isPowerOfTwo(table_size),
                "HHRT size must be a power of two, got ", table_size);
    const util::MutexLock lock(lanes_mutex_);
    auto &slot =
        hashed_lanes_[HashedKey{addr_shift, table_size, mixed}];
    if (!slot) {
        auto lane = std::make_unique<HashedLane>();
        lane->indices.reserve(pcs_.size());
        lane->lines.reserve(pcs_.size());
        for (const std::uint64_t pc : pcs_) {
            // Must match HashedTable::lookupDirect bit-for-bit: this
            // is where the per-probe mix64 recomputation goes to die —
            // one hash per unique PC per geometry, ever.
            const std::uint64_t line = pc >> addr_shift;
            lane->indices.push_back(static_cast<std::uint32_t>(
                (mixed ? mix64(line) : line) & (table_size - 1)));
            lane->lines.push_back(line);
        }
        slot = std::move(lane);
    }
    return *slot;
}

} // namespace tlat::trace
