/**
 * @file
 * Tests for predictor checkpointing: a predictor restored from a
 * mid-run checkpoint must continue with bit-identical predictions,
 * across every HRT flavour and option combination; mismatched
 * configurations and corrupt streams are rejected.
 */

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_level_predictor.hh"
#include "predictors/scheme_factory.hh"
#include "predictors/static_predictors.hh"
#include "sim/simulator.hh"
#include "workloads/workload.hh"

namespace tlat::core
{
namespace
{

struct CheckpointCase
{
    const char *label;
    TableKind kind;
    bool cached;
    bool speculative;
};

class CheckpointSweep
    : public ::testing::TestWithParam<CheckpointCase>
{
};

TEST_P(CheckpointSweep, RestoredPredictorContinuesIdentically)
{
    const CheckpointCase &params = GetParam();
    TwoLevelConfig config;
    config.hrtKind = params.kind;
    config.hrtEntries = 128;
    config.historyBits = 10;
    config.cachedPredictionBit = params.cached;
    config.speculativeHistoryUpdate = params.speculative;

    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("gcc")->buildTest(), 6000);
    const auto &records = trace.records();

    // Run the original predictor over the first half.
    TwoLevelPredictor original(config);
    std::size_t half = records.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
        if (records[i].cls != trace::BranchClass::Conditional)
            continue;
        original.predict(records[i]);
        original.update(records[i]);
    }

    // Checkpoint and restore into a fresh predictor.
    std::stringstream checkpoint;
    ASSERT_TRUE(original.saveCheckpoint(checkpoint));
    TwoLevelPredictor restored(config);
    ASSERT_TRUE(restored.loadCheckpoint(checkpoint));

    // Both must agree on every remaining branch.
    for (std::size_t i = half; i < records.size(); ++i) {
        if (records[i].cls != trace::BranchClass::Conditional)
            continue;
        ASSERT_EQ(original.predict(records[i]),
                  restored.predict(records[i]))
            << params.label << " diverged at record " << i;
        original.update(records[i]);
        restored.update(records[i]);
    }
    EXPECT_EQ(original.hrtStats().hits, restored.hrtStats().hits);
    EXPECT_EQ(original.hrtStats().misses,
              restored.hrtStats().misses);
}

INSTANTIATE_TEST_SUITE_P(
    Flavours, CheckpointSweep,
    ::testing::Values(
        CheckpointCase{"ideal", TableKind::Ideal, false, false},
        CheckpointCase{"assoc", TableKind::Associative, false, false},
        CheckpointCase{"hashed", TableKind::Hashed, false, false},
        CheckpointCase{"assoc_cached", TableKind::Associative, true,
                       false},
        CheckpointCase{"assoc_spec", TableKind::Associative, false,
                       true}),
    [](const ::testing::TestParamInfo<CheckpointCase> &info) {
        return std::string(info.param.label);
    });

/** Drives predict()/update() pairs over records [from, to). */
void
drive(BranchPredictor &predictor,
      std::span<const trace::BranchRecord> records, std::size_t from,
      std::size_t to)
{
    for (std::size_t i = from; i < to; ++i) {
        if (records[i].cls != trace::BranchClass::Conditional)
            continue;
        predictor.predict(records[i]);
        predictor.update(records[i]);
    }
}

/** Serialized checkpoint of @p predictor (must succeed). */
std::string
checkpointBytes(const BranchPredictor &predictor)
{
    std::ostringstream os;
    EXPECT_TRUE(predictor.saveCheckpoint(os));
    return os.str();
}

TEST(Checkpoint, RejectsMismatchedConfiguration)
{
    // The fingerprint covers every config field: each field varied
    // from an AT base, and each scope placement, must refuse every
    // other variant's checkpoint and stay untouched.
    TwoLevelConfig base;
    base.hrtKind = TableKind::Associative;
    base.hrtEntries = 64;
    base.historyBits = 6;
    std::vector<TwoLevelConfig> variants(14, base);
    variants[1].hrtKind = TableKind::Hashed;
    variants[2].hrtEntries = 128;
    variants[3].associativity = 2;
    variants[4].historyBits = 5;
    variants[5].automaton = AutomatonKind::A3;
    variants[6].counterBits = 3;
    variants[7].cachedPredictionBit = true;
    variants[8].speculativeHistoryUpdate = true;
    variants[9].hhrtHash = HashKind::Mixed;
    variants[10].initHistoryOnes = false;
    variants[11].automatonInitState = 0;
    variants[12].setBits = 3;
    variants[13].addrShift = 3;
    for (const HistoryScope history :
         {HistoryScope::Global, HistoryScope::PerAddress,
          HistoryScope::PerSet}) {
        for (const PatternScope pattern :
             {PatternScope::Global, PatternScope::PerSet,
              PatternScope::PerAddress, PatternScope::InEntry}) {
            const bool per_address = history == HistoryScope::PerAddress;
            if (per_address == (pattern == PatternScope::Global) ||
                (!per_address && pattern == PatternScope::InEntry))
                continue; // the base, or no such placement
            TwoLevelConfig config = base;
            config.historyScope = history;
            config.patternScope = pattern;
            if (per_address && pattern != PatternScope::InEntry)
                config.hrtKind = TableKind::Ideal;
            variants.push_back(config);
            if (history == HistoryScope::Global) {
                config.xorAddress = true;
                variants.push_back(config);
            }
        }
    }

    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("gcc")->buildTest(), 2000);
    std::vector<std::string> saved;
    for (const TwoLevelConfig &config : variants) {
        TwoLevelPredictor source(config);
        drive(source, trace.records(), 0, trace.records().size());
        saved.push_back(checkpointBytes(source));
    }
    for (std::size_t target = 0; target < variants.size(); ++target) {
        TwoLevelPredictor victim(variants[target]);
        const std::string before = checkpointBytes(victim);
        for (std::size_t source = 0; source < variants.size(); ++source) {
            if (source == target)
                continue;
            std::istringstream is(saved[source]);
            EXPECT_FALSE(victim.loadCheckpoint(is))
                << "variant " << source << " into " << target;
            EXPECT_EQ(checkpointBytes(victim), before)
                << "variant " << source << " into " << target;
        }
        std::istringstream own(saved[target]);
        EXPECT_TRUE(victim.loadCheckpoint(own)) << "variant " << target;
    }
}

TEST(Checkpoint, RejectsGarbageAndTruncation)
{
    TwoLevelConfig config;
    config.hrtKind = TableKind::Hashed;
    config.hrtEntries = 64;
    config.historyBits = 8;
    TwoLevelPredictor predictor(config);

    std::stringstream garbage("definitely not a checkpoint");
    EXPECT_FALSE(predictor.loadCheckpoint(garbage));

    std::stringstream checkpoint;
    ASSERT_TRUE(predictor.saveCheckpoint(checkpoint));
    const std::string full = checkpoint.str();
    std::stringstream truncated(
        full.substr(0, full.size() / 2));
    EXPECT_FALSE(predictor.loadCheckpoint(truncated));
}

TEST(Checkpoint, LoadIsAtomicUnderTruncationAtEveryByteOffset)
{
    // Regression for the non-atomic loader: the old code committed
    // the pattern table before parsing the HRT, so a stream that
    // died between the two left the predictor half-restored. A
    // failed load at ANY truncation point must now leave the target
    // byte-for-byte untouched.
    TwoLevelConfig config;
    config.hrtKind = TableKind::Associative;
    config.hrtEntries = 64;
    config.historyBits = 8;

    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("gcc")->buildTest(), 4000);
    const auto &records = trace.records();
    const std::size_t half = records.size() / 2;

    TwoLevelPredictor source(config);
    drive(source, records, 0, half);
    const std::string bytes = checkpointBytes(source);

    TwoLevelPredictor victim(config);
    drive(victim, records, half, records.size());
    const std::string victim_bytes = checkpointBytes(victim);
    ASSERT_NE(victim_bytes, bytes);

    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::istringstream truncated(bytes.substr(0, len));
        EXPECT_FALSE(victim.loadCheckpoint(truncated))
            << "len=" << len;
        EXPECT_EQ(checkpointBytes(victim), victim_bytes)
            << "state mutated by truncated load, len=" << len;
    }
    // The untruncated stream still loads, proving the loop above
    // exercised real prefixes of a valid checkpoint.
    std::istringstream full(bytes);
    EXPECT_TRUE(victim.loadCheckpoint(full));
    EXPECT_EQ(checkpointBytes(victim), bytes);
}

TEST(Checkpoint, LeeSmithLoadIsAtomicUnderTruncation)
{
    TwoLevelConfig config;
    config.patternScope = PatternScope::InEntry;
    config.hrtKind = TableKind::Associative;
    config.hrtEntries = 64;

    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("gcc")->buildTest(), 4000);
    const auto &records = trace.records();
    const std::size_t half = records.size() / 2;

    TwoLevelPredictor source(config);
    drive(source, records, 0, half);
    const std::string bytes = checkpointBytes(source);

    TwoLevelPredictor victim(config);
    drive(victim, records, half, records.size());
    const std::string victim_bytes = checkpointBytes(victim);
    ASSERT_NE(victim_bytes, bytes);

    for (std::size_t len = 0; len < bytes.size(); ++len) {
        std::istringstream truncated(bytes.substr(0, len));
        EXPECT_FALSE(victim.loadCheckpoint(truncated))
            << "len=" << len;
        EXPECT_EQ(checkpointBytes(victim), victim_bytes)
            << "state mutated by truncated load, len=" << len;
    }
}

TEST(Checkpoint, GeneralizedLoadIsAtomicUnderTruncation)
{
    // PAp: per-address histories AND per-address pattern tables, the
    // richest stream (two pc-sorted map projections).
    TwoLevelConfig config;
    config.historyScope = HistoryScope::PerAddress;
    config.patternScope = PatternScope::PerAddress;
    config.hrtKind = TableKind::Ideal;
    config.historyBits = 6;

    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("gcc")->buildTest(), 4000);
    const auto &records = trace.records();
    const std::size_t half = records.size() / 2;

    TwoLevelPredictor source(config);
    drive(source, records, 0, half);
    const std::string bytes = checkpointBytes(source);

    TwoLevelPredictor victim(config);
    drive(victim, records, half, records.size());
    const std::string victim_bytes = checkpointBytes(victim);
    ASSERT_NE(victim_bytes, bytes);

    // Every-offset scans repeat per class elsewhere; stride the scan
    // to keep the richest stream's test affordable while still
    // crossing every section boundary.
    for (std::size_t len = 0; len < bytes.size();
         len += (len % 7) + 1) {
        std::istringstream truncated(bytes.substr(0, len));
        EXPECT_FALSE(victim.loadCheckpoint(truncated))
            << "len=" << len;
        EXPECT_EQ(checkpointBytes(victim), victim_bytes)
            << "state mutated by truncated load, len=" << len;
    }
    std::istringstream full(bytes);
    EXPECT_TRUE(victim.loadCheckpoint(full));
    EXPECT_EQ(checkpointBytes(victim), bytes);
}

TEST(Checkpoint, GeneralizedRestoredPredictorContinuesIdentically)
{
    for (const PatternScope pattern :
         {PatternScope::Global, PatternScope::PerSet,
          PatternScope::PerAddress}) {
        TwoLevelConfig config;
        config.historyScope = HistoryScope::PerAddress;
        config.patternScope = pattern;
        config.hrtKind = TableKind::Ideal;
        config.historyBits = 6;

        const trace::TraceBuffer trace = sim::collectTrace(
            workloads::makeWorkload("gcc")->buildTest(), 4000);
        const auto &records = trace.records();
        const std::size_t half = records.size() / 2;

        TwoLevelPredictor original(config);
        drive(original, records, 0, half);
        std::stringstream checkpoint;
        ASSERT_TRUE(original.saveCheckpoint(checkpoint));
        TwoLevelPredictor restored(config);
        ASSERT_TRUE(restored.loadCheckpoint(checkpoint));
        EXPECT_EQ(checkpointBytes(restored), checkpointBytes(original));

        for (std::size_t i = half; i < records.size(); ++i) {
            if (records[i].cls != trace::BranchClass::Conditional)
                continue;
            ASSERT_EQ(original.predict(records[i]),
                      restored.predict(records[i]))
                << "diverged at record " << i;
            original.update(records[i]);
            restored.update(records[i]);
        }
        EXPECT_EQ(checkpointBytes(restored),
                  checkpointBytes(original));
    }
}

TEST(Checkpoint, RejectsOutOfRangeHistoryAndPatternState)
{
    // A history register with bits above k would index past the
    // pattern table (the SIMD pass feeds it straight into a gather),
    // and a state byte past the automaton's range would index past
    // lambda/delta and the kernels' 16-entry lookup tables. A cached
    // bit other than 0 or 1 is no state any run writes. Patching any
    // of them into a saved checkpoint must fail the load and leave
    // the predictor untouched.
    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("gcc")->buildTest(), 2000);
    constexpr std::size_t kHeader = 16; // magic, version, fingerprint
    constexpr std::size_t kEnd = 4;     // end sentinel
    constexpr std::size_t kStats = 32;  // HRT TableStats
    constexpr std::size_t kCount = 8;   // section and table counts
    constexpr std::size_t kPt = 64;     // PT(2^6) state bytes
    // AHRT tick and way count, then the first way's tag, last use and
    // valid byte before its entry (history, cached bit, state).
    constexpr std::size_t kFirstWayEntry =
        kHeader + kStats + 8 + kCount + 8 + 8 + 1;
    struct Case
    {
        const char *scheme;
        /** Offset of one history word (its entry's cached bit
         *  follows) from the start, and of one state byte from the
         *  end. */
        std::size_t history;
        std::size_t stateFromEnd;
    };
    const Case cases[] = {
        // HRT stats, entry count, the first entry's pc, then its
        // history; the PT is the last section.
        {"AT(IHRT(,6SR),PT(2^6,A2),)", kHeader + kStats + kCount + 8,
         kEnd + kPt},
        // The first way's history; the PT's last state byte.
        {"AT(AHRT(64,6SR),PT(2^6,A2),)", kFirstWayEntry, kEnd + 1},
        // The first way's history (always 0 in-entry); the last way's
        // automaton state.
        {"LS(AHRT(64,A2),,)", kFirstWayEntry, kEnd + 1},
        // Register count, then the global register's history; the
        // PT is the last section.
        {"GSH(6,A2)", kHeader + kCount, kEnd + kPt},
    };
    for (const Case &input : cases) {
        const auto source = predictors::makePredictor(input.scheme);
        drive(*source, trace.records(), 0, trace.records().size());
        const std::string bytes = checkpointBytes(*source);

        const auto victim = predictors::makePredictor(input.scheme);
        const std::string victim_bytes = checkpointBytes(*victim);
        std::string history = bytes;
        const std::uint32_t word = 0x40000000;
        ASSERT_LE(input.history + sizeof(word), bytes.size());
        std::memcpy(history.data() + input.history, &word, sizeof(word));
        std::string state = bytes;
        ASSERT_LE(input.stateFromEnd, bytes.size());
        state[bytes.size() - input.stateFromEnd] = static_cast<char>(200);
        std::string cached = bytes;
        cached[input.history + 4] = 2;

        for (const std::string &patched : {history, state, cached}) {
            std::istringstream is(patched);
            EXPECT_FALSE(victim->loadCheckpoint(is)) << input.scheme;
            EXPECT_EQ(checkpointBytes(*victim), victim_bytes)
                << input.scheme;
        }
        std::istringstream clean(bytes);
        EXPECT_TRUE(victim->loadCheckpoint(clean)) << input.scheme;
        EXPECT_EQ(checkpointBytes(*victim), bytes) << input.scheme;
    }
}

TEST(Checkpoint, CombiningWithProfileRestoresAndContinuesIdentically)
{
    // Profile is an engine config, so a combination holding it
    // checkpoints: the restored copy was never trained, and its preset
    // bits come from the saved per-branch tallies alone.
    constexpr const char *kScheme =
        "CMB(AT(IHRT(,6SR),PT(2^6,A2),),Profile,CT(2^6))";
    const trace::TraceBuffer trace = sim::collectTrace(
        workloads::makeWorkload("gcc")->buildTest(), 6000);
    const auto &records = trace.records();
    const std::size_t half = records.size() / 2;

    const auto original = predictors::makePredictor(kScheme);
    ASSERT_TRUE(original->needsTraining());
    original->train(trace);
    drive(*original, records, 0, half);
    const std::string bytes = checkpointBytes(*original);
    const auto restored = predictors::makePredictor(kScheme);
    std::istringstream is(bytes);
    ASSERT_TRUE(restored->loadCheckpoint(is));
    EXPECT_EQ(checkpointBytes(*restored), bytes);

    for (std::size_t i = half; i < records.size(); ++i) {
        if (records[i].cls != trace::BranchClass::Conditional)
            continue;
        ASSERT_EQ(original->predict(records[i]),
                  restored->predict(records[i]))
            << "diverged at record " << i;
        original->update(records[i]);
        restored->update(records[i]);
    }
    EXPECT_EQ(checkpointBytes(*restored), checkpointBytes(*original));
}

TEST(Checkpoint, RejectsTrailingJunkInEveryClass)
{
    // The end sentinel plus the fully-consumed check: a checkpoint
    // followed by extra bytes must be rejected by every predictor
    // class, with the target left untouched.
    const auto expectJunkRejected = [](BranchPredictor &predictor) {
        const std::string bytes = checkpointBytes(predictor);
        std::istringstream junk(bytes + 'x');
        EXPECT_FALSE(predictor.loadCheckpoint(junk))
            << predictor.name();
        EXPECT_EQ(checkpointBytes(predictor), bytes)
            << predictor.name();
        std::istringstream clean(bytes);
        EXPECT_TRUE(predictor.loadCheckpoint(clean))
            << predictor.name();
    };

    TwoLevelConfig at_config;
    at_config.hrtKind = TableKind::Hashed;
    at_config.hrtEntries = 64;
    at_config.historyBits = 6;
    TwoLevelPredictor two_level(at_config);
    expectJunkRejected(two_level);

    TwoLevelConfig ls_config;
    ls_config.patternScope = PatternScope::InEntry;
    TwoLevelPredictor lee_smith(ls_config);
    expectJunkRejected(lee_smith);

    TwoLevelConfig gen_config;
    gen_config.patternScope = PatternScope::PerAddress;
    gen_config.hrtKind = TableKind::Ideal;
    gen_config.historyBits = 6;
    TwoLevelPredictor generalized(gen_config);
    expectJunkRejected(generalized);

    predictors::BtfnPredictor btfn;
    expectJunkRejected(btfn);
}

TEST(Checkpoint, StatelessClassesRejectEachOthersCheckpoints)
{
    // The framed payload is empty, so only the name-salted
    // fingerprint tells an AlwaysTaken checkpoint from a BTFN one —
    // it must.
    predictors::AlwaysTakenPredictor taken;
    predictors::BtfnPredictor btfn;
    const std::string taken_bytes = checkpointBytes(taken);
    std::istringstream cross(taken_bytes);
    EXPECT_FALSE(btfn.loadCheckpoint(cross));
    std::istringstream self(taken_bytes);
    EXPECT_TRUE(taken.loadCheckpoint(self));
}

TEST(Checkpoint, RefusesWithInFlightSpeculation)
{
    TwoLevelConfig config;
    config.hrtKind = TableKind::Ideal;
    config.historyBits = 8;
    config.speculativeHistoryUpdate = true;
    TwoLevelPredictor predictor(config);

    trace::BranchRecord record;
    record.pc = 4;
    record.cls = trace::BranchClass::Conditional;
    record.taken = true;
    predictor.predict(record); // speculation now in flight

    std::stringstream checkpoint;
    EXPECT_FALSE(predictor.saveCheckpoint(checkpoint));
    predictor.update(record); // resolve it
    EXPECT_TRUE(predictor.saveCheckpoint(checkpoint));
}

} // namespace
} // namespace tlat::core
