/**
 * @file
 * Unit tests for the Two-Level Adaptive Training predictor itself —
 * the update protocol of paper Section 2.1, the Section 3.2 cached
 * prediction bit, and the behaviour the scheme is famous for:
 * learning per-branch periodic patterns that defeat counters.
 */

#include <gtest/gtest.h>

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

TwoLevelConfig
idealConfig(unsigned history_bits = 4)
{
    TwoLevelConfig config;
    config.hrtKind = TableKind::Ideal;
    config.historyBits = history_bits;
    return config;
}

/** Runs a repeating pattern and returns accuracy over the last
 *  @p measure occurrences. */
double
accuracyOnPattern(BranchPredictor &predictor,
                  const std::string &pattern, int warmup_reps,
                  int measure_reps)
{
    int correct = 0;
    int total = 0;
    for (int rep = 0; rep < warmup_reps + measure_reps; ++rep) {
        for (char c : pattern) {
            const auto record = conditional(64, c == 'T');
            const bool predicted = predictor.predict(record);
            if (rep >= warmup_reps) {
                ++total;
                if (predicted == record.taken)
                    ++correct;
            }
            predictor.update(record);
        }
    }
    return static_cast<double>(correct) / total;
}

TEST(TwoLevel, InitialPredictionIsTaken)
{
    // All-ones initial history + state-3 automata => predict taken.
    TwoLevelPredictor predictor(idealConfig());
    EXPECT_TRUE(predictor.predict(conditional(4, false)));
}

TEST(TwoLevel, UpdateStepsOldPatternThenShifts)
{
    // Hand-checked sequence with k=2, A2: initial history 0b11,
    // PT all state 3.
    TwoLevelConfig config = idealConfig(2);
    TwoLevelPredictor predictor(config);
    const auto r_nt = conditional(4, false);

    // Update 1: PT[11] steps N (3->2); history becomes 10.
    predictor.update(r_nt);
    EXPECT_EQ(predictor.patternTable().state(0b11), 2);
    // Prediction now uses PT[10], still 3 -> taken.
    EXPECT_TRUE(predictor.predict(r_nt));

    // Update 2: PT[10] steps N (3->2); history becomes 00.
    predictor.update(r_nt);
    EXPECT_EQ(predictor.patternTable().state(0b10), 2);
    // PT[00] is untouched -> predict taken.
    EXPECT_TRUE(predictor.predict(r_nt));

    // Update 3: PT[00] steps N; history stays 00.
    predictor.update(r_nt);
    EXPECT_EQ(predictor.patternTable().state(0b00), 2);
    // Update 4: PT[00] steps N again (2->1): now predicts not taken.
    predictor.update(r_nt);
    EXPECT_FALSE(predictor.predict(r_nt));
}

TEST(TwoLevel, LearnsShortPeriodicPatternPerfectly)
{
    // T T N repeating: a 2-bit counter mispredicts every period; the
    // two-level scheme reaches 100% once trained.
    TwoLevelPredictor at(idealConfig(6));
    EXPECT_DOUBLE_EQ(accuracyOnPattern(at, "TTN", 30, 100), 1.0);

    TwoLevelConfig ls_config;
    ls_config.patternScope = PatternScope::InEntry;
    ls_config.hrtKind = TableKind::Ideal;
    TwoLevelPredictor ls(ls_config);
    EXPECT_LT(accuracyOnPattern(ls, "TTN", 30, 100), 0.75);
}

TEST(TwoLevel, LearnsAlternation)
{
    // T N T N: poison for counters and Last-Time, trivial for
    // pattern history.
    TwoLevelPredictor at(idealConfig(4));
    EXPECT_DOUBLE_EQ(accuracyOnPattern(at, "TN", 30, 100), 1.0);
}

TEST(TwoLevel, LearnsLoopExitWithLongEnoughHistory)
{
    // An 8-iteration loop (7 T then N) is fully captured by k >= 8
    // but not by k = 4 (the all-ones pattern is ambiguous).
    TwoLevelPredictor wide(idealConfig(8));
    EXPECT_DOUBLE_EQ(accuracyOnPattern(wide, "TTTTTTTN", 40, 100),
                     1.0);
    TwoLevelPredictor narrow(idealConfig(4));
    EXPECT_LT(accuracyOnPattern(narrow, "TTTTTTTN", 40, 100), 1.0);
}

TEST(TwoLevel, HistoryIsPerBranchPatternTableIsShared)
{
    // Branches share the pattern table: that is what "global pattern
    // table" means. Four *different* fresh branches each start with
    // history 1111, so each one's first not-taken outcome steps
    // PT[1111] (3 -> 2 -> 1 -> 0).
    TwoLevelConfig config = idealConfig(4);
    TwoLevelPredictor predictor(config);
    for (std::uint64_t pc = 4; pc <= 16; pc += 4)
        predictor.update(conditional(pc, false));
    EXPECT_EQ(predictor.patternTable().state(0xf), 0);
    // A fifth fresh branch (history 1111) inherits that training.
    EXPECT_FALSE(predictor.predict(conditional(400, false)));
}

TEST(TwoLevel, HistoryMaskLimitsPatternSpace)
{
    TwoLevelConfig config = idealConfig(3);
    TwoLevelPredictor predictor(config);
    const auto take = conditional(4, true);
    for (int i = 0; i < 20; ++i)
        predictor.update(take);
    // History saturated at 0b111; pattern table has 8 entries.
    EXPECT_EQ(predictor.patternTable().size(), 8u);
    EXPECT_TRUE(predictor.predict(take));
}

TEST(TwoLevel, CachedPredictionBitMatchesOnSingleBranch)
{
    // With one branch the cached bit is computed from exactly the
    // state the two-lookup scheme would read: identical predictions.
    TwoLevelConfig direct_config = idealConfig(6);
    TwoLevelConfig cached_config = idealConfig(6);
    cached_config.cachedPredictionBit = true;
    TwoLevelPredictor direct(direct_config);
    TwoLevelPredictor cached(cached_config);
    const char *pattern = "TTNTNNTTTNTN";
    for (int rep = 0; rep < 40; ++rep) {
        for (const char *c = pattern; *c; ++c) {
            const auto record = conditional(8, *c == 'T');
            EXPECT_EQ(direct.predict(record),
                      cached.predict(record));
            direct.update(record);
            cached.update(record);
        }
    }
}

TEST(TwoLevel, CachedPredictionBitCanDivergeAcrossBranches)
{
    // Section 3.2 is an approximation: branch B can move the shared
    // PT entry after branch A cached its bit. Construct exactly that.
    TwoLevelConfig direct_config = idealConfig(2);
    TwoLevelConfig cached_config = idealConfig(2);
    cached_config.cachedPredictionBit = true;
    TwoLevelPredictor direct(direct_config);
    TwoLevelPredictor cached(cached_config);

    const std::uint64_t pc_a = 4;
    const std::uint64_t pc_b = 800;
    // A: taken,taken keeps history 11 and caches prediction of PT[11]
    // (taken).
    for (int i = 0; i < 2; ++i) {
        direct.update(conditional(pc_a, true));
        cached.update(conditional(pc_a, true));
    }
    // B visits pattern 11 twice with not-taken outcomes (N,T,T,N
    // walks its history back to 11 in between): PT[11] drops to
    // state 1 (predict not-taken), but A's cached bit is stale.
    for (bool taken : {false, true, true, false}) {
        direct.update(conditional(pc_b, taken));
        cached.update(conditional(pc_b, taken));
    }
    const auto probe = conditional(pc_a, true);
    EXPECT_FALSE(direct.predict(probe));  // fresh PT[11] lookup
    EXPECT_TRUE(cached.predict(probe));   // stale cached bit
    EXPECT_NE(direct.predict(probe), cached.predict(probe));
}

TEST(TwoLevel, InitializationAblationChangesEarlyPredictions)
{
    TwoLevelConfig zeros = idealConfig(4);
    zeros.initHistoryOnes = false;
    zeros.automatonInitState = 0;
    TwoLevelPredictor predictor(zeros);
    EXPECT_FALSE(predictor.predict(conditional(4, false)));
}

TEST(TwoLevel, ResetRestoresInitialState)
{
    TwoLevelPredictor predictor(idealConfig(4));
    for (int i = 0; i < 8; ++i)
        predictor.update(conditional(4, false));
    EXPECT_FALSE(predictor.predict(conditional(4, false)));
    predictor.reset();
    EXPECT_TRUE(predictor.predict(conditional(4, false)));
    EXPECT_EQ(predictor.patternTable().state(0b1111), 3);
}

TEST(TwoLevel, NameFollowsTableTwoNotation)
{
    TwoLevelConfig config;
    config.hrtKind = TableKind::Associative;
    config.hrtEntries = 512;
    config.historyBits = 12;
    config.automaton = AutomatonKind::A2;
    EXPECT_EQ(TwoLevelPredictor(config).name(),
              "AT(AHRT(512,12SR),PT(2^12,A2),)");

    config.hrtKind = TableKind::Ideal;
    EXPECT_EQ(TwoLevelPredictor(config).name(),
              "AT(IHRT(,12SR),PT(2^12,A2),)");

    config.hrtKind = TableKind::Hashed;
    config.hrtEntries = 256;
    config.historyBits = 8;
    config.automaton = AutomatonKind::LastTime;
    EXPECT_EQ(TwoLevelPredictor(config).name(),
              "AT(HHRT(256,8SR),PT(2^8,LT),)");
}

TEST(TwoLevel, HhrtInterferenceLowersAccuracyVersusAhrt)
{
    // Two branches with opposite fixed behaviours that collide in a
    // tiny HHRT but coexist in an AHRT of the same size.
    TwoLevelConfig hashed = idealConfig(4);
    hashed.hrtKind = TableKind::Hashed;
    hashed.hrtEntries = 4;
    TwoLevelConfig assoc = idealConfig(4);
    assoc.hrtKind = TableKind::Associative;
    assoc.hrtEntries = 4;
    assoc.associativity = 4;

    for (auto *config : {&hashed, &assoc}) {
        (void)config;
    }
    TwoLevelPredictor hashed_predictor(hashed);
    TwoLevelPredictor assoc_predictor(assoc);

    const std::uint64_t pc_a = 0;      // index 0 in both
    const std::uint64_t pc_b = 4 * 16; // HHRT index 0 again (4 entries)

    // A is a perfectly regular always-taken branch; B is an
    // irregular branch (pseudo-random outcomes). In the AHRT, A keeps
    // its own history register and stays essentially perfect. In the
    // HHRT, B's outcomes are shifted into the register A uses —
    // history interference — so A's lookup pattern is scrambled and
    // A mispredicts far more often.
    // B runs an irregular number of times between A's executions so
    // the scrambled history cannot settle into a benign pattern.
    Rng rng(0xb0b);
    int hashed_a_misses = 0;
    int assoc_a_misses = 0;
    for (int i = 0; i < 2000; ++i) {
        const auto a_record = conditional(pc_a, true);
        hashed_a_misses += !hashed_predictor.predict(a_record);
        assoc_a_misses += !assoc_predictor.predict(a_record);
        hashed_predictor.update(a_record);
        assoc_predictor.update(a_record);

        const auto reps = rng.nextBelow(3);
        for (std::uint64_t r = 0; r < reps; ++r) {
            const auto b_record = conditional(pc_b, rng.nextBool());
            hashed_predictor.predict(b_record);
            assoc_predictor.predict(b_record);
            hashed_predictor.update(b_record);
            assoc_predictor.update(b_record);
        }
    }
    EXPECT_GT(hashed_a_misses, 2 * assoc_a_misses + 10);
}

TEST(TwoLevel, HrtStatsExposeHitRatio)
{
    TwoLevelConfig config = idealConfig(4);
    config.hrtKind = TableKind::Associative;
    config.hrtEntries = 8;
    TwoLevelPredictor predictor(config);
    const auto record = conditional(4, true);
    predictor.predict(record);
    predictor.update(record); // reuses the predict lookup
    predictor.predict(conditional(4, false));
    EXPECT_EQ(predictor.hrtStats().misses, 1u);
    EXPECT_GE(predictor.hrtStats().hits, 1u);
}


TEST(TwoLevel, CounterModeNameAndEquivalence)
{
    TwoLevelConfig config = idealConfig(6);
    config.counterBits = 3;
    TwoLevelPredictor c3(config);
    EXPECT_EQ(c3.name(), "AT(IHRT(,6SR),PT(2^6,C3),)");

    // counterBits = 2 is exactly A2: end-to-end equivalence.
    TwoLevelConfig counter_config = idealConfig(6);
    counter_config.counterBits = 2;
    TwoLevelPredictor counter(counter_config);
    TwoLevelPredictor automaton(idealConfig(6));
    const char *pattern = "TTNTNNTTTNTNNNTT";
    for (int rep = 0; rep < 30; ++rep) {
        for (const char *c = pattern; *c; ++c) {
            const auto record =
                conditional(8 * (1 + (*c == 'T')), *c == 'T');
            ASSERT_EQ(counter.predict(record),
                      automaton.predict(record));
            counter.update(record);
            automaton.update(record);
        }
    }
}

TEST(TwoLevel, WiderCountersAdaptMoreSlowly)
{
    // After a behaviour flip, a 4-bit counter entry needs more
    // contrary outcomes than a 2-bit one to follow.
    auto flips_needed = [](unsigned bits) {
        TwoLevelConfig config;
        config.hrtKind = TableKind::Ideal;
        config.historyBits = 1;
        config.counterBits = bits;
        TwoLevelPredictor predictor(config);
        // Saturate taken on a steady branch.
        for (int i = 0; i < 40; ++i)
            predictor.update(conditional(4, true));
        int updates = 0;
        while (predictor.predict(conditional(4, false)) &&
               updates < 100) {
            predictor.update(conditional(4, false));
            ++updates;
        }
        return updates;
    };
    EXPECT_LT(flips_needed(2), flips_needed(4));
}

} // namespace
} // namespace tlat::core
