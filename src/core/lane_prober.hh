/**
 * @file
 * The operand source for the fused simulateBatch loops, and the SoA
 * index-lane probers behind it.
 *
 * Every fused predictor runs one loop body per batch (the paper's
 * eqs. 1-2: probe the branch's first-level state, apply lambda and
 * delta) over one kind of input, a predecoded trace. LaneSource walks
 * its dense branch-id lane and packed outcome bits; its
 * forEach(body) calls body(entry, taken) once per conditional branch
 * in trace order, probing the table through a lane prober.
 *
 * The probers answer probe(id) — "the entry for static branch @p id"
 * — using whatever the predecode layer precomputed for the table's
 * geometry (makeLaneProber() picks the one matching a table type):
 *
 *  - IdealLaneProber: a per-id pointer lane. The first probe of an id
 *    pays the one unordered_map lookup (which also books the
 *    reference loop's hit-or-miss for that first touch, warm tables
 *    included); every repeat is a direct vector index plus a
 *    noteRepeatHit() — no hashing on the steady-state path at all.
 *  - AssociativeLaneProber: reads the precomputed (set, tag) pair
 *    from the trace's AHRT lane and probes via lookupWithSetTag().
 *  - HashedLaneProber: reads the precomputed slot index (the mix64 is
 *    paid once per unique PC per geometry, not once per branch) from
 *    the trace's HHRT lane and probes via lookupAtIndex().
 *  - ScopeLaneProber: the generalized two-level predictor's lazy
 *    per-id cache of each branch's BranchScope (history register,
 *    pattern table, xor term), resolved at first appearance.
 *
 * All of them produce bit-identical table state and statistics to a
 * lookupDirect(pc)-per-branch loop; tests/test_simulate_batch_fuzz
 * and tests/test_history_table hold them to it.
 */

#ifndef TLAT_CORE_LANE_PROBER_HH
#define TLAT_CORE_LANE_PROBER_HH

#include <span>
#include <utility>
#include <vector>

#include "history_table.hh"
#include "pattern_table.hh"
#include "trace/predecode.hh"

namespace tlat::core
{

/** IHRT prober: hash each unique PC once, then index a pointer lane. */
template <typename Entry>
class IdealLaneProber
{
  public:
    IdealLaneProber(IdealTable<Entry> &table,
                    const trace::PredecodedTrace &soa)
        : table_(table), unique_pcs_(soa.uniquePcs()),
          slots_(soa.uniquePcCount(), nullptr)
    {
    }

    Entry &
    probe(trace::BranchId id)
    {
        Entry *&slot = slots_[id];
        if (slot == nullptr) {
            // First touch in this batch: the real lookup books the
            // hit (warm table) or miss (fresh allocation) exactly as
            // the reference loop would. unordered_map references are
            // node-stable, so the cached pointer survives growth.
            slot = &table_.lookupDirect(unique_pcs_[id]);
        } else {
            table_.noteRepeatHit();
        }
        return *slot;
    }

  private:
    IdealTable<Entry> &table_;
    std::span<const std::uint64_t> unique_pcs_;
    std::vector<Entry *> slots_;
};

/** AHRT prober: set/tag from the per-geometry lane, LRU probe here. */
template <typename Entry>
class AssociativeLaneProber
{
  public:
    AssociativeLaneProber(AssociativeTable<Entry> &table,
                          const trace::PredecodedTrace &soa)
        : table_(table),
          lane_(soa.ahrtLane(table.addrShift(), table.numSets()))
    {
    }

    Entry &
    probe(trace::BranchId id)
    {
        return table_.lookupWithSetTag(lane_.sets[id],
                                       lane_.tags[id]);
    }

  private:
    AssociativeTable<Entry> &table_;
    const trace::AhrtLane &lane_;
};

/** HHRT prober: slot index from the per-geometry lane (no re-hash). */
template <typename Entry>
class HashedLaneProber
{
  public:
    HashedLaneProber(HashedTable<Entry> &table,
                     const trace::PredecodedTrace &soa)
        : table_(table),
          lane_(soa.hashedLane(table.addrShift(), table.size(),
                               table.hashKind() == HashKind::Mixed))
    {
    }

    Entry &
    probe(trace::BranchId id)
    {
        return table_.lookupAtIndex(lane_.indices[id],
                                    lane_.lines[id]);
    }

  private:
    HashedTable<Entry> &table_;
    const trace::HashedLane &lane_;
};

/** The lane prober matching each concrete table flavour. */
template <typename Entry>
IdealLaneProber<Entry>
makeLaneProber(IdealTable<Entry> &table,
               const trace::PredecodedTrace &soa)
{
    return IdealLaneProber<Entry>(table, soa);
}

template <typename Entry>
AssociativeLaneProber<Entry>
makeLaneProber(AssociativeTable<Entry> &table,
               const trace::PredecodedTrace &soa)
{
    return AssociativeLaneProber<Entry>(table, soa);
}

template <typename Entry>
HashedLaneProber<Entry>
makeLaneProber(HashedTable<Entry> &table,
               const trace::PredecodedTrace &soa)
{
    return HashedLaneProber<Entry>(table, soa);
}

/**
 * A generalized two-level branch's scope: the history register and
 * pattern table its pc selects, plus the address bits XORed into the
 * pattern index (0 without the gshare refinement).
 */
struct BranchScope
{
    std::uint32_t *history = nullptr;
    PatternTable *table = nullptr;
    std::uint32_t xorTerm = 0;
};

/**
 * Generalized two-level prober: each id's scope is resolved through
 * resolver.lookupDirect(pc) at its first appearance — the moment the
 * reference loop would insert it into the demand-grown per-address
 * maps, so that state is created in the identical order — and served
 * from the per-id cache afterwards. The cached pointers stay valid
 * because the global/per-set stores are preallocated and
 * unordered_map nodes are stable across growth.
 */
template <typename Resolver>
class ScopeLaneProber
{
  public:
    ScopeLaneProber(Resolver resolver,
                    const trace::PredecodedTrace &soa)
        : resolver_(resolver), unique_pcs_(soa.uniquePcs()),
          scopes_(soa.uniquePcCount())
    {
    }

    const BranchScope &
    probe(trace::BranchId id)
    {
        BranchScope &scope = scopes_[id];
        if (scope.history == nullptr)
            scope = resolver_.lookupDirect(unique_pcs_[id]);
        return scope;
    }

  private:
    Resolver resolver_;
    std::span<const std::uint64_t> unique_pcs_;
    std::vector<BranchScope> scopes_;
};

/** SoA operand source: the id lane and packed outcome bits. */
template <typename Prober>
class LaneSource
{
  public:
    LaneSource(Prober prober, const trace::PredecodedTrace &soa)
        : prober_(std::move(prober)), soa_(soa)
    {
    }

    template <typename Body>
    void
    forEach(Body &&body)
    {
        const std::span<const trace::BranchId> ids = soa_.branchIds();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            auto &&entry = prober_.probe(ids[i]);
            body(entry, soa_.taken(i));
        }
    }

  private:
    Prober prober_;
    const trace::PredecodedTrace &soa_;
};

} // namespace tlat::core

#endif // TLAT_CORE_LANE_PROBER_HH
