/**
 * @file
 * Unit tests for the two-level engine's scope taxonomy (GAg..SAp and
 * gshare), including the key identity: the PAg point of the design
 * space is the paper's predictor with an ideal HRT.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "core/two_level_predictor.hh"
#include "predictors/scheme_factory.hh"
#include "util/random.hh"

namespace tlat::core
{
namespace
{

trace::BranchRecord
conditional(std::uint64_t pc, bool taken)
{
    trace::BranchRecord record;
    record.pc = pc;
    record.target = pc + 16;
    record.cls = trace::BranchClass::Conditional;
    record.taken = taken;
    return record;
}

TwoLevelConfig
makeConfig(HistoryScope history, PatternScope pattern,
           unsigned bits = 6)
{
    TwoLevelConfig config;
    config.hrtKind = TableKind::Ideal;
    config.historyScope = history;
    config.patternScope = pattern;
    config.historyBits = bits;
    return config;
}

TEST(Generalized, TaxonomyNames)
{
    EXPECT_EQ(TwoLevelPredictor(
                  makeConfig(HistoryScope::PerAddress,
                             PatternScope::Global, 12))
                  .name(),
              "AT(IHRT(,12SR),PT(2^12,A2),)");
    EXPECT_EQ(TwoLevelPredictor(
                  makeConfig(HistoryScope::Global,
                             PatternScope::Global, 12))
                  .name(),
              "GAg(12,A2)");
    EXPECT_EQ(TwoLevelPredictor(
                  makeConfig(HistoryScope::PerAddress,
                             PatternScope::PerAddress, 8))
                  .name(),
              "PAp(8,A2)");
    EXPECT_EQ(TwoLevelPredictor(
                  makeConfig(HistoryScope::PerSet,
                             PatternScope::PerSet, 10))
                  .name(),
              "SAs(10,A2)");
    TwoLevelConfig gshare =
        makeConfig(HistoryScope::Global, PatternScope::Global, 12);
    gshare.xorAddress = true;
    EXPECT_EQ(TwoLevelPredictor(gshare).name(),
              "GSH(12,A2)");
}

TEST(Generalized, PAgMatchesTwoLevelPredictorExactly)
{
    // Property: the PAg point of the design space is the paper's
    // predictor with an ideal HRT — same name, same predictions on
    // arbitrary traces as the factory's AT(IHRT).
    TwoLevelPredictor pag(makeConfig(HistoryScope::PerAddress,
                                     PatternScope::Global, 8));
    const auto reference =
        predictors::makePredictor("AT(IHRT(,8SR),PT(2^8,A2),)");
    EXPECT_EQ(pag.name(), reference->name());

    Rng rng(0x9a9);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t pc = 4 * (1 + rng.nextBelow(40));
        const bool taken = rng.nextBool(0.6);
        const auto record = conditional(pc, taken);
        ASSERT_EQ(pag.predict(record), reference->predict(record))
            << "iteration " << i;
        pag.update(record);
        reference->update(record);
    }
}

TEST(Generalized, GlobalHistoryIsShared)
{
    TwoLevelPredictor gag(
        makeConfig(HistoryScope::Global, PatternScope::Global, 4));
    // Branch A drives the global register to 0.
    for (int i = 0; i < 4; ++i)
        gag.update(conditional(4, false));
    // Branch B sees the same (zeroed) register: its prediction is
    // driven by PT[0000], which A pushed toward not-taken.
    for (int i = 0; i < 3; ++i)
        gag.update(conditional(400, false));
    EXPECT_FALSE(gag.predict(conditional(4000, false)));
}

TEST(Generalized, PerAddressPatternTablesIsolateBranches)
{
    // In PAp, branch B cannot pollute branch A's pattern entries.
    TwoLevelPredictor pap(makeConfig(
        HistoryScope::PerAddress, PatternScope::PerAddress, 4));
    // Four fresh branches each push their own PT[1111] once: no
    // accumulation across branches.
    for (std::uint64_t pc = 4; pc <= 16; pc += 4)
        pap.update(conditional(pc, false));
    EXPECT_TRUE(pap.predict(conditional(400, false)));

    // The global-table flavour accumulates (regression companion of
    // TwoLevel.HistoryIsPerBranchPatternTableIsShared).
    TwoLevelPredictor pag(makeConfig(
        HistoryScope::PerAddress, PatternScope::Global, 4));
    for (std::uint64_t pc = 4; pc <= 16; pc += 4)
        pag.update(conditional(pc, false));
    EXPECT_FALSE(pag.predict(conditional(400, false)));
}

TEST(Generalized, PerSetScopesPartitionByAddress)
{
    TwoLevelConfig config = makeConfig(HistoryScope::PerSet,
                                          PatternScope::Global, 4);
    config.setBits = 2; // 4 sets, selected by pc bits [3:2]
    TwoLevelPredictor sag(config);
    // pcs 0 and 16 share set 0 (line bits 0 and 4 -> low 2 bits 0);
    // pc 4 (line 1) is in set 1. Six not-takens walk set 0's
    // register to 0000 and then drive PT[0000] to not-taken.
    for (int i = 0; i < 6; ++i)
        sag.update(conditional(0, false));
    EXPECT_FALSE(sag.predict(conditional(16, false)));
    // Set 1 still holds 1111, whose entry predicts taken.
    EXPECT_TRUE(sag.predict(conditional(4, false)));
}

TEST(Generalized, GshareXorSeparatesAliasedHistories)
{
    // Two branches with identical (all-taken) behaviour but
    // different addresses: with plain GAg they share PT entries;
    // with the xor refinement their patterns separate.
    TwoLevelConfig plain =
        makeConfig(HistoryScope::Global, PatternScope::Global, 8);
    TwoLevelConfig xored = plain;
    xored.xorAddress = true;
    TwoLevelPredictor gag(plain);
    TwoLevelPredictor gshare(xored);

    // Branch A taken, branch B not taken, alternating. The xor keeps
    // their pattern sets apart, so gshare converges to perfect
    // prediction at least as fast.
    int gag_misses = 0;
    int gshare_misses = 0;
    for (int i = 0; i < 400; ++i) {
        for (auto [pc, taken] :
             {std::pair<std::uint64_t, bool>{64, true},
              std::pair<std::uint64_t, bool>{4096, false}}) {
            const auto record = conditional(pc, taken);
            gag_misses += gag.predict(record) != taken;
            gshare_misses += gshare.predict(record) != taken;
            gag.update(record);
            gshare.update(record);
        }
    }
    EXPECT_LE(gshare_misses, gag_misses);
}

TEST(Generalized, LearnsPeriodicPatternInEveryScope)
{
    for (HistoryScope history :
         {HistoryScope::Global, HistoryScope::PerAddress,
          HistoryScope::PerSet}) {
        for (PatternScope pattern :
             {PatternScope::Global, PatternScope::PerSet,
              PatternScope::PerAddress}) {
            TwoLevelPredictor predictor(
                makeConfig(history, pattern, 6));
            // Single branch, T T N repeating: every scope collapses
            // to the same machine and must learn it perfectly.
            int correct = 0;
            int total = 0;
            for (int i = 0; i < 300; ++i) {
                const bool taken = i % 3 != 2;
                const auto record = conditional(64, taken);
                if (i >= 60) {
                    ++total;
                    correct += predictor.predict(record) == taken;
                }
                predictor.update(record);
            }
            EXPECT_EQ(correct, total)
                << predictor.name();
        }
    }
}

TEST(Generalized, ResetRestoresInitialState)
{
    const auto bytes = [](const TwoLevelPredictor &predictor) {
        std::ostringstream os;
        EXPECT_TRUE(predictor.saveCheckpoint(os));
        return os.str();
    };
    for (const HistoryScope history :
         {HistoryScope::Global, HistoryScope::PerAddress,
          HistoryScope::PerSet}) {
        TwoLevelPredictor predictor(
            makeConfig(history, PatternScope::PerAddress, 4));
        const std::string fresh = bytes(predictor);
        for (std::uint64_t pc = 4; pc <= 64; pc += 4)
            predictor.update(conditional(pc, false));
        ASSERT_NE(bytes(predictor), fresh) << predictor.name();
        // Per-address tables and registers are dropped, the others
        // re-initialized: the state is a fresh predictor's.
        predictor.reset();
        EXPECT_EQ(bytes(predictor), fresh) << predictor.name();
        EXPECT_TRUE(predictor.predict(conditional(4, false)));
    }
}

TEST(GeneralizedDeath, XorRequiresGlobalHistory)
{
    TwoLevelConfig config = makeConfig(
        HistoryScope::PerAddress, PatternScope::Global, 8);
    config.xorAddress = true;
    EXPECT_DEATH(TwoLevelPredictor{config},
                 "global-history");
}

TEST(GeneralizedDeath, RejectsCombinationsNoSchemeBuilds)
{
    // In-entry automata keep no history register to share.
    TwoLevelConfig in_entry =
        makeConfig(HistoryScope::Global, PatternScope::InEntry, 8);
    EXPECT_DEATH(TwoLevelPredictor{in_entry}, "per-address entries");
    // The taxonomy's per-address history is unbounded.
    TwoLevelConfig pap_ahrt = makeConfig(HistoryScope::PerAddress,
                                         PatternScope::PerAddress, 8);
    pap_ahrt.hrtKind = TableKind::Associative;
    EXPECT_DEATH(TwoLevelPredictor{pap_ahrt}, "IHRT");
    // The AT-only options need a per-address history register and
    // one global pattern table.
    TwoLevelConfig cached =
        makeConfig(HistoryScope::Global, PatternScope::Global, 8);
    cached.cachedPredictionBit = true;
    EXPECT_DEATH(TwoLevelPredictor{cached}, "global table");
    TwoLevelConfig counters = makeConfig(HistoryScope::PerAddress,
                                         PatternScope::InEntry, 8);
    counters.counterBits = 3;
    EXPECT_DEATH(TwoLevelPredictor{counters}, "global table");
}

} // namespace
} // namespace tlat::core
