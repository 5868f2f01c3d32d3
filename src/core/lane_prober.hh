/**
 * @file
 * The operand source for the fused simulateBatch loops, and the SoA
 * index-lane probers behind it.
 *
 * The two-level engine runs one loop body per batch (the paper's
 * eqs. 1-2: probe the branch's first-level state, apply lambda and
 * delta) over one kind of input, a predecoded trace. LaneSource walks
 * its dense branch-id lane and packed outcome bits; its
 * forEach(body) calls body(entry, state, taken) once per conditional
 * branch in trace order, probing the table through a lane prober and
 * finding the pattern state byte through a placement.
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
 *  - RegisterLaneProber: global and per-set history registers, a
 *    per-id pointer lane resolved once per batch (no statistics: a
 *    register file is not an HRT).
 *
 * The placements answer state(entry, id) — the pattern state byte the
 * entry's history selects: GlobalPlacement indexes the one pattern
 * table, InEntryPlacement returns the entry's own automaton state,
 * and ScopedPlacement indexes the per-set or per-address table of
 * each id, with the gshare xor term.
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

/** Global (one) or per-set registers, indexed by low address bits. */
template <typename Entry>
class RegisterLaneProber
{
  public:
    RegisterLaneProber(std::vector<Entry> &registers, unsigned addr_shift,
                       const trace::PredecodedTrace &soa)
    {
        slots_.reserve(soa.uniquePcCount());
        for (const std::uint64_t pc : soa.uniquePcs()) {
            slots_.push_back(
                &registers[(pc >> addr_shift) & (registers.size() - 1)]);
        }
    }

    Entry &probe(trace::BranchId id) { return *slots_[id]; }

  private:
    std::vector<Entry *> slots_;
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
 * Global pattern table: the entry's history register indexes it. The
 * table's raw states and index mask are copied out up front: the loop
 * body's byte stores may alias anything, so every field reached
 * through a table reference would be re-read on every branch.
 */
class GlobalPlacement
{
  public:
    explicit GlobalPlacement(PatternTable &table)
        : states_(table.statesData()),
          mask_(static_cast<std::uint32_t>(table.size() - 1))
    {
    }

    template <typename Entry>
    std::uint8_t &
    state(Entry &entry, trace::BranchId) const
    {
        return states_[entry.history & mask_];
    }

  private:
    std::uint8_t *states_;
    std::uint32_t mask_;
};

/** In-entry automaton (Lee-Smith): the state is the entry's own. */
struct InEntryPlacement
{
    template <typename Entry>
    std::uint8_t &
    state(Entry &entry, trace::BranchId) const
    {
        return entry.state;
    }
};

/**
 * Per-set, per-address or xor-indexed pattern tables: each id's table
 * and xor term, resolved through resolve(pc) once per batch in id
 * order. The table pointers stay valid because the per-set tables are
 * preallocated and unordered_map nodes are stable across growth.
 */
class ScopedPlacement
{
  public:
    struct Scope
    {
        PatternTable *table;
        std::uint32_t xorTerm;
    };

    template <typename Resolve>
    ScopedPlacement(const trace::PredecodedTrace &soa, Resolve &&resolve)
    {
        scopes_.reserve(soa.uniquePcCount());
        for (const std::uint64_t pc : soa.uniquePcs())
            scopes_.push_back(resolve(pc));
    }

    template <typename Entry>
    std::uint8_t &
    state(Entry &entry, trace::BranchId id) const
    {
        const Scope &scope = scopes_[id];
        return scope.table->stateAt(entry.history ^ scope.xorTerm);
    }

  private:
    std::vector<Scope> scopes_;
};

/** SoA operand source: the id lane and packed outcome bits. */
template <typename Prober, typename Placement>
class LaneSource
{
  public:
    using PlacementType = Placement;

    LaneSource(Prober prober, Placement placement,
               const trace::PredecodedTrace &soa)
        : prober_(std::move(prober)), placement_(std::move(placement)),
          soa_(soa)
    {
    }

    template <typename Body>
    void
    forEach(Body &&body)
    {
        const std::span<const trace::BranchId> ids = soa_.branchIds();
        for (std::size_t i = 0; i < ids.size(); ++i) {
            auto &entry = prober_.probe(ids[i]);
            body(entry, placement_.state(entry, ids[i]), soa_.taken(i));
        }
    }

  private:
    Prober prober_;
    Placement placement_;
    const trace::PredecodedTrace &soa_;
};

} // namespace tlat::core

#endif // TLAT_CORE_LANE_PROBER_HH
