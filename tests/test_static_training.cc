/**
 * @file
 * Unit tests for Lee & Smith's Static Training scheme — the preset
 * pattern bits, the Same/Diff behaviour the paper's Figure 8 builds
 * on, and its defining difference from Two-Level Adaptive Training:
 * pattern predictions never change at run time.
 */

#include <gtest/gtest.h>

#include "core/two_level_predictor.hh"
#include "harness/experiment.hh"

namespace tlat::predictors
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

/** Builds a single-branch trace from a T/N pattern repeated. */
trace::TraceBuffer
patternTrace(const std::string &pattern, int reps,
             std::uint64_t pc = 4)
{
    trace::TraceBuffer buffer("pattern");
    for (int rep = 0; rep < reps; ++rep) {
        for (char c : pattern)
            buffer.append(conditional(pc, c == 'T'));
    }
    return buffer;
}

/** Static Training on the engine: preset one-bit entries, Same. */
core::TwoLevelConfig
stConfig(core::TableKind hrt_kind, unsigned history_bits)
{
    core::TwoLevelConfig config;
    config.hrtKind = hrt_kind;
    config.historyBits = history_bits;
    config.automaton = core::AutomatonKind::LastTime;
    config.data = core::DataMode::Same;
    return config;
}

core::TwoLevelConfig
idealConfig(unsigned history_bits = 6)
{
    return stConfig(core::TableKind::Ideal, history_bits);
}

TEST(StaticTraining, NeedsTraining)
{
    core::TwoLevelPredictor predictor(idealConfig());
    EXPECT_TRUE(predictor.needsTraining());
}

TEST(StaticTraining, UnseenPatternsPredictTaken)
{
    core::TwoLevelPredictor predictor(idealConfig());
    predictor.train(trace::TraceBuffer{});
    EXPECT_TRUE(predictor.predict(conditional(4, false)));
    EXPECT_TRUE(predictor.patternTable().predict(0));
    EXPECT_TRUE(predictor.patternTable().predict(0x3f));
}

TEST(StaticTraining, LearnsPatternMajorities)
{
    // Train on T T N: with 6-bit histories every context is unique,
    // so the preset bits reproduce the pattern exactly.
    core::TwoLevelPredictor predictor(idealConfig(6));
    predictor.train(patternTrace("TTN", 50));
    const AccuracyCounter accuracy =
        harness::measure(predictor, patternTrace("TTN", 30));
    // Early iterations may traverse unseen warm-up patterns; after
    // that the fixed bits are perfect on the same data.
    EXPECT_GT(accuracy.accuracyPercent(), 95.0);
}

TEST(StaticTraining, SameDataMatchesTwoLevelOnStationaryPattern)
{
    // On stationary behaviour ST(Same) and AT converge to the same
    // asymptote (the paper's Figure 8 observation).
    core::TwoLevelPredictor st(idealConfig(8));
    st.train(patternTrace("TTTTNTN", 60));
    const AccuracyCounter st_accuracy =
        harness::measure(st, patternTrace("TTTTNTN", 60));

    core::TwoLevelConfig at_config;
    at_config.hrtKind = core::TableKind::Ideal;
    at_config.historyBits = 8;
    core::TwoLevelPredictor at(at_config);
    const AccuracyCounter at_accuracy =
        harness::measure(at, patternTrace("TTTTNTN", 60));

    EXPECT_NEAR(st_accuracy.accuracyPercent(),
                at_accuracy.accuracyPercent(), 2.0);
}

TEST(StaticTraining, PresetBitsDoNotAdaptAtRunTime)
{
    // Train toward taken, then measure on all-not-taken: the bits
    // must keep predicting taken (mispredicting forever), unlike AT.
    core::TwoLevelPredictor st(idealConfig(4));
    st.train(patternTrace("TTTT", 50));
    const AccuracyCounter st_accuracy =
        harness::measure(st, patternTrace("NNNN", 50));
    EXPECT_LT(st_accuracy.accuracyPercent(), 15.0);

    core::TwoLevelConfig at_config;
    at_config.hrtKind = core::TableKind::Ideal;
    at_config.historyBits = 4;
    core::TwoLevelPredictor at(at_config);
    const AccuracyCounter at_accuracy =
        harness::measure(at, patternTrace("NNNN", 50));
    EXPECT_GT(at_accuracy.accuracyPercent(), 90.0);
}

TEST(StaticTraining, DiffDataDegradesWhenBehaviourChanges)
{
    // The Figure 8 effect in miniature: train on one branch pattern,
    // test on another that visits the same history patterns with
    // different outcomes.
    core::TwoLevelPredictor same(idealConfig(6));
    same.train(patternTrace("TTNTNN", 50));
    const double same_accuracy =
        harness::measure(same, patternTrace("TTNTNN", 50))
            .accuracyPercent();

    core::TwoLevelPredictor diff(idealConfig(6));
    diff.train(patternTrace("TTTTTN", 50));
    const double diff_accuracy =
        harness::measure(diff, patternTrace("TTNTNN", 50))
            .accuracyPercent();

    EXPECT_GT(same_accuracy, diff_accuracy + 5.0);
}

TEST(StaticTraining, TrainingUsesIdealHistoriesPerBranch)
{
    // Two branches with opposite behaviour: training must keep their
    // histories separate even though the run-time HRT could alias.
    core::TwoLevelPredictor predictor(idealConfig(4));
    trace::TraceBuffer training("t");
    for (int i = 0; i < 40; ++i) {
        training.append(conditional(4, true));
        training.append(conditional(400, false));
    }
    predictor.train(training);
    // Pattern 1111 was always followed by taken (branch 4), pattern
    // 0000 by not-taken (branch 400).
    EXPECT_TRUE(predictor.patternTable().predict(0xf));
    EXPECT_FALSE(predictor.patternTable().predict(0x0));
}

TEST(StaticTraining, MultipleTrainCallsAccumulate)
{
    core::TwoLevelPredictor predictor(idealConfig(4));
    // First training: 3 not-taken on pattern 1111.
    trace::TraceBuffer first("a");
    for (int i = 0; i < 3; ++i)
        first.append(conditional(4, false));
    // Hmm: only the first record has pattern 1111; use fresh pcs.
    trace::TraceBuffer second("b");
    for (int i = 0; i < 8; ++i)
        second.append(conditional(100 + 8 * i, true));
    predictor.train(first);
    predictor.train(second);
    // Pattern 1111 saw 1 not-taken (first trace, first record) and
    // 8 takens (second trace, all fresh branches) -> majority taken.
    EXPECT_TRUE(predictor.patternTable().predict(0xf));
}

TEST(StaticTraining, UpdateNeverChangesPresetBits)
{
    core::TwoLevelPredictor predictor(idealConfig(4));
    predictor.train(patternTrace("TTN", 40));
    bool bits_before[16];
    for (std::uint32_t p = 0; p < 16; ++p)
        bits_before[p] = predictor.patternTable().predict(p);
    // Hammer the predictor with outcomes contradicting the training.
    for (int i = 0; i < 200; ++i)
        predictor.update(conditional(4, i % 2 == 0));
    for (std::uint32_t p = 0; p < 16; ++p)
        EXPECT_EQ(predictor.patternTable().predict(p), bits_before[p]) << p;
}

TEST(StaticTraining, NameFollowsTable2)
{
    core::TwoLevelConfig config = stConfig(core::TableKind::Associative, 12);
    config.hrtEntries = 512;
    EXPECT_EQ(core::TwoLevelPredictor(config).name(),
              "ST(AHRT(512,12SR),PT(2^12,PB),Same)");
    config.data = core::DataMode::Diff;
    config.hrtKind = core::TableKind::Ideal;
    EXPECT_EQ(core::TwoLevelPredictor(config).name(),
              "ST(IHRT(,12SR),PT(2^12,PB),Diff)");
}

TEST(StaticTraining, ResetClearsCountsAndHistories)
{
    core::TwoLevelPredictor predictor(idealConfig(4));
    predictor.train(patternTrace("NNNN", 20));
    EXPECT_FALSE(predictor.patternTable().predict(0x0));
    predictor.reset();
    EXPECT_TRUE(predictor.patternTable().predict(0x0));
}

} // namespace
} // namespace tlat::predictors
