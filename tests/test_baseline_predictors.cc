/**
 * @file
 * Unit tests for the comparison schemes: the static predictors, the
 * profiling scheme (the two-level engine with preset in-entry bits)
 * and Lee & Smith's BTB designs (the two-level engine with in-entry
 * automata).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/two_level_predictor.hh"
#include "predictors/scheme_factory.hh"
#include "predictors/static_predictors.hh"
#include "util/stats.hh"

namespace tlat::predictors
{
namespace
{

trace::BranchRecord
conditional(std::uint64_t pc, std::uint64_t target, bool taken)
{
    trace::BranchRecord record;
    record.pc = pc;
    record.target = target;
    record.cls = trace::BranchClass::Conditional;
    record.taken = taken;
    return record;
}

/** Lee-Smith: the automaton lives in the table entry. */
core::TwoLevelConfig
leeSmith()
{
    core::TwoLevelConfig config;
    config.patternScope = core::PatternScope::InEntry;
    return config;
}

TEST(AlwaysTaken, AlwaysPredictsTaken)
{
    AlwaysTakenPredictor predictor;
    EXPECT_TRUE(predictor.predict(conditional(4, 8, false)));
    predictor.update(conditional(4, 8, false));
    EXPECT_TRUE(predictor.predict(conditional(4, 8, false)));
    EXPECT_FALSE(predictor.needsTraining());
    EXPECT_EQ(predictor.name(), "AlwaysTaken");
}

TEST(AlwaysNotTaken, AlwaysPredictsNotTaken)
{
    AlwaysNotTakenPredictor predictor;
    EXPECT_FALSE(predictor.predict(conditional(4, 8, true)));
    EXPECT_EQ(predictor.name(), "AlwaysNotTaken");
}

TEST(Btfn, DirectionFollowsTargetComparison)
{
    BtfnPredictor predictor;
    // Backward branch (target < pc): predict taken.
    EXPECT_TRUE(predictor.predict(conditional(100, 40, false)));
    // Forward branch: predict not taken.
    EXPECT_FALSE(predictor.predict(conditional(100, 200, true)));
    // Self-branch counts as forward (not strictly backward).
    EXPECT_FALSE(predictor.predict(conditional(100, 100, true)));
}

TEST(Btfn, PerfectOnSimpleLoop)
{
    // A loop-closing backward branch taken (n-1)/n of the time: BTFN
    // misses only the exit, the effect the paper reports for the
    // loop-bound benchmarks.
    BtfnPredictor predictor;
    int misses = 0;
    for (int rep = 0; rep < 10; ++rep) {
        for (int i = 0; i < 10; ++i) {
            const bool taken = i != 9;
            const auto record = conditional(100, 40, taken);
            misses += predictor.predict(record) != taken;
            predictor.update(record);
        }
    }
    EXPECT_EQ(misses, 10); // exactly one per loop exit
}

/** Branch 4: taken 3 of 4; branch 8: taken 1 of 4. */
trace::TraceBuffer
majorityTrace()
{
    trace::TraceBuffer training("train");
    for (int i = 0; i < 4; ++i) {
        training.append(conditional(4, 16, i != 0));
        training.append(conditional(8, 16, i == 0));
    }
    return training;
}

TEST(Profile, PredictsMajorityDirectionPerBranch)
{
    const auto predictor = makePredictor("Profile");
    ASSERT_TRUE(predictor->needsTraining());
    predictor->train(majorityTrace());
    EXPECT_TRUE(predictor->predict(conditional(4, 16, false)));
    EXPECT_FALSE(predictor->predict(conditional(8, 16, true)));
    // Exactly the two trained branches are profiled: any other branch
    // keeps the predict-taken default.
    EXPECT_TRUE(predictor->predict(conditional(12, 16, false)));
    EXPECT_EQ(predictor->name(), "Profile");
}

TEST(Profile, UnseenBranchDefaultsToTaken)
{
    const auto predictor = makePredictor("Profile");
    predictor->train(trace::TraceBuffer{});
    EXPECT_TRUE(predictor->predict(conditional(4, 16, false)));
}

TEST(Profile, TiePredictsTaken)
{
    const auto predictor = makePredictor("Profile");
    trace::TraceBuffer training("train");
    training.append(conditional(4, 16, true));
    training.append(conditional(4, 16, false));
    predictor->train(training);
    EXPECT_TRUE(predictor->predict(conditional(4, 16, false)));
}

TEST(Profile, IgnoresUnconditionalRecords)
{
    const auto predictor = makePredictor("Profile");
    trace::TraceBuffer training("train");
    trace::BranchRecord jump;
    jump.pc = 4;
    jump.cls = trace::BranchClass::ImmediateUnconditional;
    jump.taken = true;
    training.append(jump);
    // Profiled, two not-taken records would make branch 4 predict
    // not-taken; unconditional, they leave it unprofiled.
    jump.taken = false;
    training.append(jump);
    training.append(jump);
    predictor->train(training);
    EXPECT_TRUE(predictor->predict(conditional(4, 16, false)));
}

TEST(Profile, SameDataAccuracyEqualsMajoritySum)
{
    // The paper computes profile accuracy as
    // sum(max(taken, not_taken)) / total; training and measuring on
    // the same trace must reproduce that exactly.
    const auto predictor = makePredictor("Profile");
    trace::TraceBuffer data("d");
    const bool outcomes[] = {true, true, false, true, false,
                             true, true, true,  false, false};
    for (bool taken : outcomes)
        data.append(conditional(4, 16, taken));
    predictor->train(data);
    int correct = 0;
    for (const auto &record : data.records()) {
        correct += predictor->predict(record) == record.taken;
        predictor->update(record);
    }
    EXPECT_EQ(correct, 6); // max(6 taken, 4 not) = 6
}

TEST(Profile, UpdateNeverChangesPresetBits)
{
    const auto predictor = makePredictor("Profile");
    predictor->train(majorityTrace());
    // Each probe is a predict/update pair whose outcome contradicts
    // the prediction: a stepping bit would flip on the spot.
    const auto probe = [&predictor] {
        std::vector<bool> bits;
        for (const std::uint64_t pc : {4, 8, 12}) {
            bits.push_back(predictor->predict(conditional(pc, 16, true)));
            predictor->update(conditional(pc, 16, !bits.back()));
        }
        return bits;
    };
    const std::vector<bool> bits{true, false, true};
    EXPECT_EQ(probe(), bits);
    // Hammer the reference update() with both outcomes...
    for (int i = 0; i < 200; ++i)
        predictor->update(conditional(4 + 4 * (i % 3), 16, i % 2 == 0));
    EXPECT_EQ(probe(), bits);
    // ...and the fused lane body with outcomes contradicting every
    // bit: each prediction misses, and no bit learns.
    trace::TraceBuffer contrary("contrary");
    for (int i = 0; i < 50; ++i) {
        contrary.append(conditional(4, 16, false));
        contrary.append(conditional(8, 16, true));
        contrary.append(conditional(12, 16, false));
    }
    AccuracyCounter accuracy;
    predictor->simulateBatch(contrary.predecodedView(), accuracy);
    EXPECT_EQ(accuracy.total(), 150u);
    EXPECT_EQ(accuracy.hits(), 0u);
    EXPECT_EQ(probe(), bits);
}

TEST(LeeSmith, CounterTracksPerBranchBias)
{
    core::TwoLevelConfig config = leeSmith();
    config.hrtKind = core::TableKind::Ideal;
    core::TwoLevelPredictor predictor(config);
    // Initial automaton state 3: predict taken.
    EXPECT_TRUE(predictor.predict(conditional(4, 8, false)));
    for (int i = 0; i < 3; ++i)
        predictor.update(conditional(4, 8, false));
    EXPECT_FALSE(predictor.predict(conditional(4, 8, false)));
    // A different branch is unaffected.
    EXPECT_TRUE(predictor.predict(conditional(8, 16, false)));
}

TEST(LeeSmith, LastTimeVariantFlipsImmediately)
{
    core::TwoLevelConfig config = leeSmith();
    config.hrtKind = core::TableKind::Ideal;
    config.automaton = core::AutomatonKind::LastTime;
    core::TwoLevelPredictor predictor(config);
    predictor.update(conditional(4, 8, false));
    EXPECT_FALSE(predictor.predict(conditional(4, 8, true)));
    predictor.update(conditional(4, 8, true));
    EXPECT_TRUE(predictor.predict(conditional(4, 8, true)));
}

TEST(LeeSmith, NoPatternLevelMeansPeriodicPatternsMispredict)
{
    // T T N repeating: the defining weakness versus Two-Level
    // Adaptive Training.
    core::TwoLevelConfig config = leeSmith();
    config.hrtKind = core::TableKind::Ideal;
    core::TwoLevelPredictor predictor(config);
    int misses = 0;
    for (int rep = 0; rep < 90; ++rep) {
        const bool taken = rep % 3 != 2;
        const auto record = conditional(4, 8, taken);
        if (rep >= 30)
            misses += predictor.predict(record) != taken;
        predictor.update(record);
    }
    EXPECT_GE(misses, 20); // at least one per period
}

TEST(LeeSmith, HashedTableInterferes)
{
    core::TwoLevelConfig config = leeSmith();
    config.hrtKind = core::TableKind::Hashed;
    config.hrtEntries = 4;
    core::TwoLevelPredictor predictor(config);
    // pcs 0 and 64 collide in a 4-entry table.
    for (int i = 0; i < 4; ++i)
        predictor.update(conditional(0, 8, false));
    EXPECT_FALSE(predictor.predict(conditional(64, 8, true)));
}

TEST(LeeSmith, NamesFollowTable2)
{
    core::TwoLevelConfig config = leeSmith();
    config.hrtKind = core::TableKind::Associative;
    config.hrtEntries = 512;
    EXPECT_EQ(core::TwoLevelPredictor(config).name(), "LS(AHRT(512,A2),,)");
    config.hrtKind = core::TableKind::Ideal;
    config.automaton = core::AutomatonKind::LastTime;
    EXPECT_EQ(core::TwoLevelPredictor(config).name(), "LS(IHRT(,LT),,)");
}

TEST(LeeSmith, ResetClearsState)
{
    core::TwoLevelConfig config = leeSmith();
    config.hrtKind = core::TableKind::Ideal;
    core::TwoLevelPredictor predictor(config);
    for (int i = 0; i < 4; ++i)
        predictor.update(conditional(4, 8, false));
    predictor.reset();
    EXPECT_TRUE(predictor.predict(conditional(4, 8, true)));
}

} // namespace
} // namespace tlat::predictors
