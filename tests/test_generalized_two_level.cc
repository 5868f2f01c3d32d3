/**
 * @file
 * Unit tests for the generalized two-level predictor (the GAg..PAp
 * scope taxonomy), including the key equivalence: the PAg point of
 * the design space makes exactly the predictions of the paper's
 * TwoLevelPredictor with an ideal HRT.
 */

#include <gtest/gtest.h>

#include "core/generalized_two_level.hh"
#include "core/two_level_predictor.hh"
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

GeneralizedConfig
makeConfig(HistoryScope history, PatternScope pattern,
           unsigned bits = 6)
{
    GeneralizedConfig config;
    config.historyScope = history;
    config.patternScope = pattern;
    config.historyBits = bits;
    return config;
}

TEST(Generalized, TaxonomyNames)
{
    EXPECT_EQ(GeneralizedTwoLevelPredictor(
                  makeConfig(HistoryScope::PerAddress,
                             PatternScope::Global, 12))
                  .name(),
              "PAg(12,A2)");
    EXPECT_EQ(GeneralizedTwoLevelPredictor(
                  makeConfig(HistoryScope::Global,
                             PatternScope::Global, 12))
                  .name(),
              "GAg(12,A2)");
    EXPECT_EQ(GeneralizedTwoLevelPredictor(
                  makeConfig(HistoryScope::PerAddress,
                             PatternScope::PerAddress, 8))
                  .name(),
              "PAp(8,A2)");
    EXPECT_EQ(GeneralizedTwoLevelPredictor(
                  makeConfig(HistoryScope::PerSet,
                             PatternScope::PerSet, 10))
                  .name(),
              "SAs(10,A2)");
    GeneralizedConfig gshare =
        makeConfig(HistoryScope::Global, PatternScope::Global, 12);
    gshare.xorAddress = true;
    EXPECT_EQ(GeneralizedTwoLevelPredictor(gshare).name(),
              "GSH(12,A2)");
}

TEST(Generalized, PAgMatchesTwoLevelPredictorExactly)
{
    // Property: the paper's predictor with an ideal HRT and the PAg
    // point of the generalized design make identical predictions on
    // arbitrary traces.
    GeneralizedTwoLevelPredictor pag(makeConfig(
        HistoryScope::PerAddress, PatternScope::Global, 8));
    TwoLevelConfig reference_config;
    reference_config.hrtKind = TableKind::Ideal;
    reference_config.historyBits = 8;
    TwoLevelPredictor reference(reference_config);

    Rng rng(0x9a9);
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t pc = 4 * (1 + rng.nextBelow(40));
        const bool taken = rng.nextBool(0.6);
        const auto record = conditional(pc, taken);
        ASSERT_EQ(pag.predict(record), reference.predict(record))
            << "iteration " << i;
        pag.update(record);
        reference.update(record);
    }
}

TEST(Generalized, GlobalHistoryIsShared)
{
    GeneralizedTwoLevelPredictor gag(
        makeConfig(HistoryScope::Global, PatternScope::Global, 4));
    // Branch A drives the global register to 0.
    for (int i = 0; i < 4; ++i)
        gag.update(conditional(4, false));
    EXPECT_EQ(gag.historyRegisterCount(), 1u);
    // Branch B sees the same (zeroed) register: its prediction is
    // driven by PT[0000], which A pushed toward not-taken.
    for (int i = 0; i < 3; ++i)
        gag.update(conditional(400, false));
    EXPECT_FALSE(gag.predict(conditional(4000, false)));
}

TEST(Generalized, PerAddressPatternTablesIsolateBranches)
{
    // In PAp, branch B cannot pollute branch A's pattern entries.
    GeneralizedTwoLevelPredictor pap(makeConfig(
        HistoryScope::PerAddress, PatternScope::PerAddress, 4));
    // Four fresh branches each push their own PT[1111] once: no
    // accumulation across branches.
    for (std::uint64_t pc = 4; pc <= 16; pc += 4)
        pap.update(conditional(pc, false));
    EXPECT_EQ(pap.patternTableCount(), 4u);
    EXPECT_TRUE(pap.predict(conditional(400, false)));

    // The global-table flavour accumulates (regression companion of
    // TwoLevel.HistoryIsPerBranchPatternTableIsShared).
    GeneralizedTwoLevelPredictor pag(makeConfig(
        HistoryScope::PerAddress, PatternScope::Global, 4));
    for (std::uint64_t pc = 4; pc <= 16; pc += 4)
        pag.update(conditional(pc, false));
    EXPECT_FALSE(pag.predict(conditional(400, false)));
}

TEST(Generalized, PerSetScopesPartitionByAddress)
{
    GeneralizedConfig config = makeConfig(HistoryScope::PerSet,
                                          PatternScope::Global, 4);
    config.setBits = 2; // 4 sets, selected by pc bits [3:2]
    GeneralizedTwoLevelPredictor sag(config);
    EXPECT_EQ(sag.historyRegisterCount(), 4u);
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
    GeneralizedConfig plain =
        makeConfig(HistoryScope::Global, PatternScope::Global, 8);
    GeneralizedConfig xored = plain;
    xored.xorAddress = true;
    GeneralizedTwoLevelPredictor gag(plain);
    GeneralizedTwoLevelPredictor gshare(xored);

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
            GeneralizedTwoLevelPredictor predictor(
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
    GeneralizedTwoLevelPredictor predictor(makeConfig(
        HistoryScope::PerAddress, PatternScope::PerAddress, 4));
    for (std::uint64_t pc = 4; pc <= 64; pc += 4)
        predictor.update(conditional(pc, false));
    predictor.reset();
    EXPECT_EQ(predictor.patternTableCount(), 0u);
    EXPECT_EQ(predictor.historyRegisterCount(), 0u);
    EXPECT_TRUE(predictor.predict(conditional(4, false)));
}

TEST(GeneralizedDeath, XorRequiresGlobalHistory)
{
    GeneralizedConfig config = makeConfig(
        HistoryScope::PerAddress, PatternScope::Global, 8);
    config.xorAddress = true;
    EXPECT_DEATH(GeneralizedTwoLevelPredictor{config},
                 "global-history");
}

} // namespace
} // namespace tlat::core
