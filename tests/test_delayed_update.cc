/**
 * @file
 * Unit tests for the deep-pipeline update-delay wrapper and its
 * Section 3.2 predict-taken-when-unresolved policy.
 */

#include <gtest/gtest.h>

#include "core/delayed_update.hh"
#include "core/two_level_predictor.hh"

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

std::unique_ptr<BranchPredictor>
makeInner(unsigned history_bits = 6)
{
    TwoLevelConfig config;
    config.hrtKind = TableKind::Ideal;
    config.historyBits = history_bits;
    return std::make_unique<TwoLevelPredictor>(config);
}

TEST(DelayedUpdate, ZeroDelayMatchesInnerExactly)
{
    DelayedUpdatePredictor wrapped(makeInner(), 0);
    TwoLevelConfig config;
    config.hrtKind = TableKind::Ideal;
    config.historyBits = 6;
    TwoLevelPredictor reference(config);

    for (int i = 0; i < 300; ++i) {
        const auto record =
            conditional(4 + 8 * (i % 3), (i * 7) % 5 < 3);
        EXPECT_EQ(wrapped.predict(record),
                  reference.predict(record));
        wrapped.update(record);
        reference.update(record);
    }
}

TEST(DelayedUpdate, UpdatesAreDeferred)
{
    // With delay 4, four not-taken outcomes must not affect the inner
    // predictor until later updates push them through. A 1-bit
    // history keeps the arithmetic small: four applied not-takens
    // flip the prediction, zero applied leave it taken.
    DelayedUpdatePredictor wrapped(makeInner(1), 4, false);
    for (int i = 0; i < 4; ++i)
        wrapped.update(conditional(4, false));
    // Inner still in initial all-taken state.
    EXPECT_TRUE(wrapped.predict(conditional(4, false)));
    // Four more updates push the first four through.
    for (int i = 0; i < 4; ++i)
        wrapped.update(conditional(4, false));
    EXPECT_FALSE(wrapped.predict(conditional(4, false)));
}

TEST(DelayedUpdate, DrainAppliesEverythingPending)
{
    DelayedUpdatePredictor wrapped(makeInner(1), 8, false);
    for (int i = 0; i < 4; ++i)
        wrapped.update(conditional(4, false));
    EXPECT_TRUE(wrapped.predict(conditional(4, false)));
    wrapped.drain();
    EXPECT_FALSE(wrapped.predict(conditional(4, false)));
}

TEST(DelayedUpdate, UnresolvedSameBranchPredictsTaken)
{
    // Section 3.2: a branch predicted again while its previous
    // outcome is still in flight is predicted taken.
    DelayedUpdatePredictor wrapped(makeInner(), 4, true);
    // Make the inner predictor strongly not-taken for pc 4.
    for (int i = 0; i < 8; ++i) {
        wrapped.update(conditional(4, false));
        wrapped.update(conditional(100, true)); // flush the pipe
    }
    wrapped.drain();
    EXPECT_FALSE(wrapped.predict(conditional(4, false)));
    // Now put an outcome for pc 4 in flight: the policy overrides.
    wrapped.update(conditional(4, false));
    EXPECT_TRUE(wrapped.predict(conditional(4, false)));
}

TEST(DelayedUpdate, PolicyDisabledUsesInnerPrediction)
{
    DelayedUpdatePredictor wrapped(makeInner(), 4, false);
    for (int i = 0; i < 8; ++i) {
        wrapped.update(conditional(4, false));
        wrapped.update(conditional(100, true));
    }
    wrapped.drain();
    wrapped.update(conditional(4, false));
    EXPECT_FALSE(wrapped.predict(conditional(4, false)));
}

TEST(DelayedUpdate, ResetClearsPipeline)
{
    DelayedUpdatePredictor wrapped(makeInner(), 4, true);
    wrapped.update(conditional(4, false));
    wrapped.reset();
    // Nothing pending: prediction comes from the (reset) inner.
    EXPECT_TRUE(wrapped.predict(conditional(4, false)));
}

TEST(DelayedUpdate, NameReflectsDelay)
{
    DelayedUpdatePredictor wrapped(makeInner(), 3);
    EXPECT_EQ(wrapped.name(), "AT(IHRT(,6SR),PT(2^6,A2),)+delay3");
}

TEST(DelayedUpdate, TightLoopAccuracyBenefitsFromPolicy)
{
    // A tight always-taken loop branch with in-flight outcomes: the
    // predict-taken policy should never lose to the no-policy
    // variant.
    auto run = [](bool policy) {
        TwoLevelConfig config;
        config.patternScope = PatternScope::InEntry;
        config.hrtKind = TableKind::Ideal;
        config.automaton = AutomatonKind::LastTime;
        DelayedUpdatePredictor wrapped(
            std::make_unique<TwoLevelPredictor>(config),
            6, policy);
        int correct = 0;
        for (int i = 0; i < 1000; ++i) {
            const bool taken = i % 50 != 49; // long loop
            const auto record = conditional(4, taken);
            correct += wrapped.predict(record) == taken;
            wrapped.update(record);
        }
        return correct;
    };
    EXPECT_GE(run(true), run(false));
}

} // namespace
} // namespace tlat::core
