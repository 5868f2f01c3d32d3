/**
 * @file
 * Unit tests for the HRT storage strategies: ideal, set-associative
 * (tags + LRU) and tagless hashed, including the paper's
 * no-reinitialization-on-reallocation rule.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/history_table.hh"
#include "util/random.hh"

namespace tlat::core
{
namespace
{

struct Payload
{
    int value = -1;
    bool operator==(const Payload &other) const = default;
};

TEST(TableKindNames, Rendering)
{
    EXPECT_STREQ(tableKindName(TableKind::Ideal), "IHRT");
    EXPECT_STREQ(tableKindName(TableKind::Associative), "AHRT");
    EXPECT_STREQ(tableKindName(TableKind::Hashed), "HHRT");
}

TEST(IdealTable, OneEntryPerAddressNeverEvicts)
{
    IdealTable<Payload> table(Payload{7});
    for (std::uint64_t pc = 0; pc < 1000 * 4; pc += 4) {
        Payload &entry = table.lookup(pc);
        EXPECT_EQ(entry.value, 7);
        entry.value = static_cast<int>(pc);
    }
    EXPECT_EQ(table.size(), 1000u);
    for (std::uint64_t pc = 0; pc < 1000 * 4; pc += 4)
        EXPECT_EQ(table.lookup(pc).value, static_cast<int>(pc));
    EXPECT_EQ(table.stats().misses, 1000u);
    EXPECT_EQ(table.stats().hits, 1000u);
}

TEST(IdealTable, Reset)
{
    IdealTable<Payload> table(Payload{1});
    table.lookup(4).value = 9;
    table.reset();
    EXPECT_EQ(table.lookup(4).value, 1);
    EXPECT_EQ(table.size(), 1u);
}

TEST(AssociativeTable, HitsWithinTheWorkingSet)
{
    // 8 entries, 4-way => 2 sets. Two branches mapping to different
    // sets always hit after first touch.
    AssociativeTable<Payload> table(8, 4, Payload{0});
    table.lookup(0 * 4).value = 1;
    table.lookup(1 * 4).value = 2;
    EXPECT_EQ(table.lookup(0 * 4).value, 1);
    EXPECT_EQ(table.lookup(1 * 4).value, 2);
    EXPECT_EQ(table.stats().misses, 2u);
    EXPECT_EQ(table.stats().hits, 2u);
}

TEST(AssociativeTable, LruEvictsLeastRecentlyUsed)
{
    // One set (4 entries, 4-way): pcs 0,8,16,24 (all even set bits —
    // with 1 set every line maps to set 0).
    AssociativeTable<Payload> table(4, 4, Payload{0});
    for (int i = 0; i < 4; ++i)
        table.lookup(static_cast<std::uint64_t>(i) * 4).value = i;
    // Touch 0,1,2 so 3 is LRU.
    table.lookup(0);
    table.lookup(4);
    table.lookup(8);
    // A fifth branch evicts pc 12 (value 3).
    table.lookup(16 * 4).value = 99;
    // pc 12 misses now; pcs 0,4,8 still hit with their payloads.
    EXPECT_EQ(table.lookup(0).value, 0);
    EXPECT_EQ(table.lookup(4).value, 1);
    EXPECT_EQ(table.lookup(8).value, 2);
    const std::uint64_t misses_before = table.stats().misses;
    table.lookup(12);
    EXPECT_EQ(table.stats().misses, misses_before + 1);
}

TEST(AssociativeTable, ReallocationKeepsPayload)
{
    // Paper Section 4.2: "when an entry is re-allocated to a
    // different static branch, the history register is not
    // re-initialized."
    AssociativeTable<Payload> table(4, 4, Payload{5});
    for (int i = 0; i < 4; ++i)
        table.lookup(static_cast<std::uint64_t>(i) * 4).value = 10 + i;
    // Evict the LRU entry (pc 0) with a new branch: the new branch
    // must inherit value 10, not the initial 5.
    EXPECT_EQ(table.lookup(100 * 4).value, 10);
}

TEST(AssociativeTable, TagsDistinguishAliasedAddresses)
{
    // 4 entries, 4-way = 1 set: all addresses alias the set but tags
    // keep them distinct.
    AssociativeTable<Payload> table(4, 4, Payload{0});
    table.lookup(0x1000).value = 1;
    table.lookup(0x2000).value = 2;
    EXPECT_EQ(table.lookup(0x1000).value, 1);
    EXPECT_EQ(table.lookup(0x2000).value, 2);
}

TEST(AssociativeTable, GeometryAccessors)
{
    AssociativeTable<Payload> table(512, 4, Payload{});
    EXPECT_EQ(table.numSets(), 128u);
    EXPECT_EQ(table.associativity(), 4u);
}

TEST(AssociativeTable, Reset)
{
    AssociativeTable<Payload> table(8, 4, Payload{3});
    table.lookup(4).value = 9;
    table.reset();
    EXPECT_EQ(table.lookup(4).value, 3);
    EXPECT_EQ(table.stats().misses, 1u);
    EXPECT_EQ(table.stats().hits, 0u);
}

TEST(HashedTable, CollisionsShareEntries)
{
    // 4 entries, low-bit indexing on pc>>2: pcs 0 and 16 collide
    // (lines 0 and 4, index 0).
    HashedTable<Payload> table(4, Payload{0});
    table.lookup(0).value = 42;
    EXPECT_EQ(table.lookup(16).value, 42); // interference!
    table.lookup(16).value = 7;
    EXPECT_EQ(table.lookup(0).value, 7);
}

TEST(HashedTable, DistinctIndicesAreIndependent)
{
    HashedTable<Payload> table(4, Payload{0});
    table.lookup(0 * 4).value = 1;
    table.lookup(1 * 4).value = 2;
    table.lookup(2 * 4).value = 3;
    EXPECT_EQ(table.lookup(0 * 4).value, 1);
    EXPECT_EQ(table.lookup(1 * 4).value, 2);
    EXPECT_EQ(table.lookup(2 * 4).value, 3);
}

TEST(HashedTable, MixedHashSpreadsStridedAddresses)
{
    // Addresses striding by table-size*4 all collide with low-bit
    // indexing but spread under the mixed hash.
    HashedTable<Payload> low(16, Payload{0}, 2, HashKind::LowBits);
    HashedTable<Payload> mixed(16, Payload{0}, 2, HashKind::Mixed);
    int low_collisions = 0;
    int mixed_collisions = 0;
    for (int i = 0; i < 8; ++i) {
        const std::uint64_t pc = static_cast<std::uint64_t>(i) * 16 * 4;
        Payload &le = low.lookup(pc);
        if (le.value == 1)
            ++low_collisions;
        le.value = 1;
        Payload &me = mixed.lookup(pc);
        if (me.value == 1)
            ++mixed_collisions;
        me.value = 1;
    }
    EXPECT_EQ(low_collisions, 7);
    EXPECT_LT(mixed_collisions, 7);
}

TEST(HashedTable, FirstTouchCountsAsMiss)
{
    HashedTable<Payload> table(8, Payload{0});
    table.lookup(0);
    table.lookup(0);
    table.lookup(32); // collides with 0 (8 entries): counted a hit
    EXPECT_EQ(table.stats().misses, 1u);
    EXPECT_EQ(table.stats().hits, 2u);
}

TEST(TableStats, HitRatio)
{
    TableStats stats;
    EXPECT_EQ(stats.hitRatio(), 0.0);
    stats.hits = 3;
    stats.misses = 1;
    EXPECT_DOUBLE_EQ(stats.hitRatio(), 0.75);
}

TEST(HashedTableDeath, NonPowerOfTwoSizeIsRejected)
{
    EXPECT_DEATH(HashedTable<Payload>(100, Payload{}),
                 "power of two");
}

TEST(AssociativeTableDeath, BadGeometryIsRejected)
{
    EXPECT_DEATH(AssociativeTable<Payload>(10, 4, Payload{}),
                 "divisible");
    EXPECT_DEATH(AssociativeTable<Payload>(12, 4, Payload{}),
                 "power of two");
}

/**
 * Randomized-operation fuzz of the AHRT against a naive reference:
 * each set is modelled as an LRU-ordered list (front = next victim)
 * with at most `ways` residents. Checked on every operation:
 *  - tag match correctness: a hit returns the payload last written
 *    through that (set, tag), never an alias's;
 *  - LRU eviction order: a miss in a full set re-allocates exactly
 *    the least recently used way, and (paper rule) the new branch
 *    inherits the victim's payload un-reinitialized;
 *  - occupancy: a set never holds more residents than ways;
 *  - hit/miss accounting matches the reference exactly.
 */
void
fuzzAssociativeAgainstReference(std::size_t entries, unsigned ways,
                                std::uint64_t address_pool,
                                std::uint64_t seed, int iterations)
{
    const int kInitial = -1;
    core::AssociativeTable<Payload> table(entries, ways,
                                          Payload{kInitial});
    const std::size_t num_sets = entries / ways;

    struct RefEntry
    {
        std::uint64_t tag;
        int value;
    };
    std::vector<std::list<RefEntry>> sets(num_sets);
    std::uint64_t ref_hits = 0;
    std::uint64_t ref_misses = 0;

    tlat::Rng rng(seed);
    int next_value = 0;
    for (int i = 0; i < iterations; ++i) {
        const std::uint64_t pc = rng.nextBelow(address_pool) * 4;
        const std::uint64_t line = pc >> 2;
        const std::size_t set_index = line & (num_sets - 1);
        const std::uint64_t tag = line / num_sets;
        auto &set = sets[set_index];

        Payload &entry = table.lookup(pc);

        auto it = set.begin();
        while (it != set.end() && it->tag != tag)
            ++it;
        if (it != set.end()) {
            ++ref_hits;
            ASSERT_EQ(entry.value, it->value)
                << "hit payload mismatch at pc " << pc
                << " (iteration " << i << ")";
            set.splice(set.end(), set, it); // now most recent
        } else {
            ++ref_misses;
            int inherited = kInitial;
            if (set.size() == ways) {
                inherited = set.front().value;
                set.pop_front();
            }
            ASSERT_EQ(entry.value, inherited)
                << "re-allocated way did not inherit the LRU "
                   "victim's payload at pc "
                << pc << " (iteration " << i << ")";
            set.push_back(RefEntry{tag, inherited});
        }
        ASSERT_LE(set.size(), ways);

        if (rng.nextBool(0.5)) {
            entry.value = next_value;
            set.back().value = next_value;
            ++next_value;
        }
    }

    EXPECT_EQ(table.stats().hits, ref_hits);
    EXPECT_EQ(table.stats().misses, ref_misses);
    EXPECT_GT(ref_hits, 0u);
    EXPECT_GT(ref_misses, static_cast<std::uint64_t>(num_sets));
}

TEST(AssociativeTableFuzz, PaperGeometryEightSets)
{
    // 32 entries, 4-way = 8 sets; 96 hot lines => 12 tags per set
    // competing for 4 ways, so evictions are constant.
    fuzzAssociativeAgainstReference(32, 4, 96, 0xa11ce, 20000);
}

TEST(AssociativeTableFuzz, FullyAssociativeSingleSet)
{
    fuzzAssociativeAgainstReference(4, 4, 12, 0xbeef1, 10000);
}

TEST(AssociativeTableFuzz, DirectMappedDegenerateWays)
{
    fuzzAssociativeAgainstReference(16, 1, 48, 0xcafe2, 10000);
}

TEST(AssociativeTableFuzz, DeterministicUnderIdenticalSeeds)
{
    // The fuzz itself must be reproducible: same seed, same walk.
    for (int round = 0; round < 2; ++round)
        fuzzAssociativeAgainstReference(32, 4, 64, 0xd00d3, 5000);
}

// -----------------------------------------------------------------
// SoA index-lane probe equivalence: lookup() delegates to
// lookupAtIndex()/lookupWithSetTag(), and the predecode fast path
// calls those directly with precomputed operands. Driving two tables
// through the two entry points with the same pc walk must leave them
// byte-identical — entries, replacement state, statistics, and (for
// the HHRT) the touched_/lines_ aliasing attribution, all of which
// saveState() serializes.
// -----------------------------------------------------------------

template <typename Table>
std::string
tableStateBytes(const Table &table)
{
    std::ostringstream os;
    table.saveState(os, [](std::ostream &out, const Payload &p) {
        out.write(reinterpret_cast<const char *>(&p.value),
                  sizeof(p.value));
    });
    return os.str();
}

void
fuzzHashedProbeEquivalence(HashKind hash, std::uint64_t seed)
{
    // Small table + strided addresses so collisions (and thus the
    // aliasing attribution the satellite fix must preserve) are hot.
    HashedTable<Payload> direct(64, Payload{-1}, 2, hash);
    HashedTable<Payload> indexed(64, Payload{-1}, 2, hash);

    tlat::Rng rng(seed);
    int next_value = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t pc = rng.nextBelow(4096) * 4;
        Payload &a = direct.lookup(pc);
        const std::uint64_t line = pc >> indexed.addrShift();
        Payload &b =
            indexed.lookupAtIndex(indexed.indexOfLine(line), line);
        ASSERT_EQ(a.value, b.value) << "probe divergence at pc "
                                    << pc << " (iteration " << i
                                    << ")";
        if (rng.nextBool(0.5)) {
            a.value = next_value;
            b.value = next_value;
            ++next_value;
        }
    }

    EXPECT_EQ(direct.stats().hits, indexed.stats().hits);
    EXPECT_EQ(direct.stats().misses, indexed.stats().misses);
    EXPECT_EQ(direct.stats().aliasedLookups,
              indexed.stats().aliasedLookups);
    EXPECT_GT(direct.stats().aliasedLookups, 0u);
    EXPECT_EQ(tableStateBytes(direct), tableStateBytes(indexed));
}

TEST(HashedTable, LookupAtIndexMatchesDirectLowBits)
{
    fuzzHashedProbeEquivalence(HashKind::LowBits, 0x50a1);
}

TEST(HashedTable, LookupAtIndexMatchesDirectMixed)
{
    // The Mixed hash is the costly one: lookup() re-runs
    // mix64 per probe, the lane path must not change any behaviour.
    fuzzHashedProbeEquivalence(HashKind::Mixed, 0x50a2);
}

TEST(AssociativeTable, LookupWithSetTagMatchesDirect)
{
    AssociativeTable<Payload> direct(32, 4, Payload{-1});
    AssociativeTable<Payload> indexed(32, 4, Payload{-1});

    tlat::Rng rng(0x5e7a);
    int next_value = 0;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t pc = rng.nextBelow(256) * 4;
        Payload &a = direct.lookup(pc);
        const std::uint64_t line = pc >> indexed.addrShift();
        Payload &b = indexed.lookupWithSetTag(
            line & (indexed.numSets() - 1), line / indexed.numSets());
        ASSERT_EQ(a.value, b.value);
        if (rng.nextBool(0.5)) {
            a.value = next_value;
            b.value = next_value;
            ++next_value;
        }
    }

    EXPECT_EQ(direct.stats().hits, indexed.stats().hits);
    EXPECT_EQ(direct.stats().misses, indexed.stats().misses);
    EXPECT_EQ(direct.stats().evictions, indexed.stats().evictions);
    EXPECT_GT(direct.stats().evictions, 0u);
    EXPECT_EQ(tableStateBytes(direct), tableStateBytes(indexed));
}

TEST(IdealTable, NoteRepeatHitMatchesRepeatedLookup)
{
    IdealTable<Payload> direct(Payload{3});
    IdealTable<Payload> noted(Payload{3});

    for (std::uint64_t pc = 0; pc < 64; pc += 4) {
        direct.lookup(pc);
        noted.lookup(pc);
    }
    // Repeat pass: the SoA prober replaces the repeated hash lookup
    // with a cached pointer + noteRepeatHit().
    for (std::uint64_t pc = 0; pc < 64; pc += 4) {
        direct.lookup(pc);
        noted.noteRepeatHit();
    }
    EXPECT_EQ(direct.stats().hits, noted.stats().hits);
    EXPECT_EQ(direct.stats().misses, noted.stats().misses);
    EXPECT_EQ(tableStateBytes(direct), tableStateBytes(noted));
}

} // namespace
} // namespace tlat::core
