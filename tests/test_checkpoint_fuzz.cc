/**
 * @file
 * Seeded mutation fuzz of predictor checkpoints: every mutant of a
 * saved checkpoint either loads or is rejected with the target left
 * byte-for-byte as it was.
 *
 * For each checkpointing configuration — AT over each HRT flavour
 * and with the cached prediction bit, LS, the taxonomy (GSH, PAp,
 * SAs, SAg), CMB and ST — a warmed-up source
 * predictor's checkpoint is mutated by byte flips, word overwrites
 * with edge values, range copies, truncation and trailing junk, and
 * loaded into a differently warmed victim. A rejected mutant must
 * leave the victim's checkpoint bytes unchanged. An accepted one must
 * re-save to bytes a fresh predictor loads back identically, and
 * drive a later simulateBatch without fault (ASan/UBSan watch that
 * run). Neither may abort. The seed and the mutant budget are fixed,
 * so every run replays the same mutants.
 */

#include <sys/resource.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/two_level_predictor.hh"
#include "predictors/scheme_factory.hh"
#include "sim/simulator.hh"
#include "util/random.hh"
#include "workloads/workload.hh"

namespace tlat
{
namespace
{

using core::BranchPredictor;

constexpr std::uint64_t kSeed = 0x636b7074667a7a31ULL;
constexpr int kMutantsPerSubject = 1000;
/** Magic, version and fingerprint open every checkpoint. */
constexpr std::size_t kHeaderBytes = 16;
constexpr const char *kCmb =
    "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^6))";

/** One checkpointing configuration under test. */
struct Subject
{
    std::string label;
    std::function<std::unique_ptr<BranchPredictor>()> make;
};

std::function<std::unique_ptr<BranchPredictor>()>
fromScheme(const std::string &scheme)
{
    return [scheme] { return predictors::makePredictor(scheme); };
}

std::function<std::unique_ptr<BranchPredictor>()>
fromConfig(const core::TwoLevelConfig &config)
{
    return [config] {
        return std::make_unique<core::TwoLevelPredictor>(config);
    };
}

std::vector<Subject>
subjects()
{
    core::TwoLevelConfig pap;
    pap.historyScope = core::HistoryScope::PerAddress;
    pap.patternScope = core::PatternScope::PerAddress;
    pap.hrtKind = core::TableKind::Ideal;
    pap.historyBits = 4;
    core::TwoLevelConfig sas;
    sas.historyScope = core::HistoryScope::PerSet;
    sas.patternScope = core::PatternScope::PerSet;
    sas.setBits = 2;
    sas.historyBits = 5;
    core::TwoLevelConfig cached;
    cached.hrtEntries = 64;
    cached.historyBits = 6;
    cached.cachedPredictionBit = true;
    core::TwoLevelConfig sag;
    sag.historyScope = core::HistoryScope::PerSet;
    sag.setBits = 2;
    sag.historyBits = 5;
    return {
        {"AT-AHRT", fromScheme("AT(AHRT(64,6SR),PT(2^6,A2),)")},
        {"AT-IHRT", fromScheme("AT(IHRT(,6SR),PT(2^6,A2),)")},
        {"AT-HHRT", fromScheme("AT(HHRT(64,6SR),PT(2^6,A3),)")},
        {"LS", fromScheme("LS(AHRT(64,A2),,)")},
        {"GSH", fromScheme("GSH(6,A2)")},
        {"PAp", fromConfig(pap)},
        {"SAs", fromConfig(sas)},
        {"CMB", fromScheme(kCmb)},
        {"ST", fromScheme("ST(AHRT(64,6SR),PT(2^6,PB),Same)")},
        {"AT-AHRT-cached", fromConfig(cached)},
        {"SAg", fromConfig(sag)},
        {"Profile", fromScheme("Profile")},
    };
}

trace::TraceBuffer
workloadTrace(const char *name)
{
    return sim::collectTrace(workloads::makeWorkload(name)->buildTest(),
                             1500);
}

/** Trains (when the scheme needs it) and drives @p trace. */
void
warm(BranchPredictor &predictor, const trace::TraceBuffer &trace)
{
    if (predictor.needsTraining())
        predictor.train(trace);
    AccuracyCounter accuracy;
    predictor.simulateBatch(trace.predecodedView(), accuracy);
}

std::string
checkpointBytes(const BranchPredictor &predictor)
{
    std::ostringstream os;
    EXPECT_TRUE(predictor.saveCheckpoint(os)) << predictor.name();
    return os.str();
}

bool
load(BranchPredictor &predictor, const std::string &bytes)
{
    std::istringstream is(bytes);
    return predictor.loadCheckpoint(is);
}

/** A field value worth trying: edge values or random bits. */
std::uint64_t
edgeValue(Rng &rng)
{
    const std::uint64_t candidates[] = {
        0, 1, 2, 3, 4, 0x7f, 0xff, 0x100, 0xffff,
        std::uint64_t{1} << 31, std::uint64_t{1} << 32,
        (std::uint64_t{1} << 32) + 1, ~std::uint64_t{0}, rng.next()};
    return candidates[rng.nextBelow(std::size(candidates))];
}

/** Applies one seeded mutation to a valid checkpoint. */
std::string
mutate(const std::string &valid, Rng &rng)
{
    std::string bytes = valid;
    const std::size_t payload = valid.size() - kHeaderBytes;
    const auto payloadOffset = [&] {
        return kHeaderBytes + rng.nextBelow(payload);
    };
    switch (rng.nextBelow(7)) {
      case 0: // byte flips anywhere
        for (std::uint64_t n = 1 + rng.nextBelow(3); n > 0; --n)
            bytes[rng.nextBelow(bytes.size())] ^=
                static_cast<char>(1 + rng.nextBelow(255));
        break;
      case 1: // byte flips in the payload
        for (std::uint64_t n = 1 + rng.nextBelow(3); n > 0; --n)
            bytes[payloadOffset()] ^=
                static_cast<char>(1 + rng.nextBelow(255));
        break;
      case 2: // a 4-byte word (history registers, counts' halves)
      case 3: { // an 8-byte word (counts, tags, pcs, blob sizes)
        const std::size_t width = rng.nextBelow(2) == 0 ? 4 : 8;
        const std::size_t at = payloadOffset();
        const std::uint64_t value = edgeValue(rng);
        std::memcpy(bytes.data() + at, &value,
                    std::min(width, bytes.size() - at));
        break;
      }
      case 4: { // copy one payload range over another
        const std::size_t from = payloadOffset();
        const std::size_t to = payloadOffset();
        const std::size_t length = std::min(
            {std::size_t{1} + rng.nextBelow(32), bytes.size() - from,
             bytes.size() - to});
        bytes.replace(to, length, valid, from, length);
        break;
      }
      case 5: // truncation
        bytes.resize(rng.nextBelow(bytes.size()));
        break;
      default: // trailing junk
        for (std::uint64_t n = 1 + rng.nextBelow(8); n > 0; --n)
            bytes.push_back(static_cast<char>(rng.next()));
        break;
    }
    return bytes;
}

TEST(CheckpointFuzz, EveryMutantLoadsOrLeavesTheTargetUntouched)
{
    const trace::TraceBuffer source_trace = workloadTrace("gcc");
    const trace::TraceBuffer victim_trace = workloadTrace("espresso");
    Rng rng(kSeed);
    for (const Subject &subject : subjects()) {
        const auto source = subject.make();
        warm(*source, source_trace);
        const std::string valid = checkpointBytes(*source);
        ASSERT_GT(valid.size(), kHeaderBytes) << subject.label;

        const auto victim = subject.make();
        warm(*victim, victim_trace);
        const std::string victim_bytes = checkpointBytes(*victim);
        ASSERT_NE(victim_bytes, valid) << subject.label;

        int accepted = 0;
        for (int i = 0; i < kMutantsPerSubject; ++i) {
            const std::string mutant = mutate(valid, rng);
            if (!load(*victim, mutant)) {
                ASSERT_EQ(checkpointBytes(*victim), victim_bytes)
                    << subject.label << " mutant " << i
                    << ": a rejected load changed the target";
                continue;
            }
            ++accepted;
            // Whatever state the mutant described is a fixpoint of
            // save and load, and a later batch runs on it.
            const std::string resaved = checkpointBytes(*victim);
            const auto fresh = subject.make();
            ASSERT_TRUE(load(*fresh, resaved))
                << subject.label << " mutant " << i;
            ASSERT_EQ(checkpointBytes(*fresh), resaved)
                << subject.label << " mutant " << i;
            AccuracyCounter accuracy;
            victim->simulateBatch(victim_trace.predecodedView(),
                                  accuracy);
            EXPECT_EQ(accuracy.total(),
                      victim_trace.conditionalView().size());
            ASSERT_TRUE(load(*victim, victim_bytes)) << subject.label;
        }
        // The budget exercises both verdicts, not only rejections.
        EXPECT_GT(accepted, kMutantsPerSubject / 20) << subject.label;
        EXPECT_LT(accepted, kMutantsPerSubject - kMutantsPerSubject / 20)
            << subject.label;
        // The untouched checkpoint still loads.
        ASSERT_TRUE(load(*victim, valid)) << subject.label;
        EXPECT_EQ(checkpointBytes(*victim), valid) << subject.label;
    }
}

TEST(CheckpointFuzz, RejectsHrtEntriesNoProbeSequenceWrites)
{
    // Corrupt HRT sections the fuzz can draw that loaded before: an
    // IHRT pc repeated (the map kept one entry and silently dropped
    // the other), an AHRT set with two valid ways of one tag (the
    // second is unreachable) and an AHRT way used after the table's
    // clock. Each must be rejected with the target untouched.
    constexpr std::size_t kStats = 32; // HRT TableStats
    constexpr std::size_t kEntry = 6;  // history, cached bit, state
    const trace::TraceBuffer trace = workloadTrace("gcc");
    const auto expectRejected = [](BranchPredictor &victim,
                                   const std::string &bytes) {
        const std::string before = checkpointBytes(victim);
        EXPECT_FALSE(load(victim, bytes)) << victim.name();
        EXPECT_EQ(checkpointBytes(victim), before) << victim.name();
    };

    const char *const ihrt_scheme = "AT(IHRT(,6SR),PT(2^6,A2),)";
    const auto ihrt = predictors::makePredictor(ihrt_scheme);
    warm(*ihrt, trace);
    std::string bytes = checkpointBytes(*ihrt);
    // The HRT opens the payload: stats, entry count, then pc (8) and
    // the entry each.
    const std::size_t first_pc = kHeaderBytes + kStats + 8;
    bytes.replace(first_pc + 8 + kEntry, 8, bytes, first_pc, 8);
    expectRejected(*predictors::makePredictor(ihrt_scheme), bytes);

    const char *const ahrt_scheme = "AT(AHRT(64,6SR),PT(2^6,A2),)";
    const auto ahrt = predictors::makePredictor(ahrt_scheme);
    warm(*ahrt, trace);
    const std::string valid = checkpointBytes(*ahrt);
    // Stats, tick and way count, then tag (8), last use (8), valid
    // (1) and the entry per way, four ways per set. Take the first
    // set whose ways 0 and 1 both hold a branch.
    constexpr std::size_t kWay = 8 + 8 + 1 + kEntry;
    std::size_t way0 = kHeaderBytes + kStats + 8 + 8;
    while (way0 + 2 * kWay < valid.size() &&
           (valid[way0 + 16] != 1 || valid[way0 + kWay + 16] != 1))
        way0 += 4 * kWay;
    ASSERT_LT(way0 + 2 * kWay, valid.size());
    std::string twin = valid;
    twin.replace(way0 + kWay, 8, valid, way0, 8);
    expectRejected(*predictors::makePredictor(ahrt_scheme), twin);
    std::uint64_t tick = 0;
    std::memcpy(&tick, valid.data() + kHeaderBytes + kStats, 8);
    ++tick;
    std::string future = valid;
    std::memcpy(future.data() + way0 + 8, &tick, 8);
    expectRejected(*predictors::makePredictor(ahrt_scheme), future);
}

/** Peak resident set of this process so far, in KiB. */
long
peakRssKiB()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

TEST(CheckpointFuzz, CorruptBlobLengthCostsNoMemory)
{
    // A combining checkpoint's component blobs are length-prefixed,
    // and the loader used to size the blob from the length before
    // reading it, so one flipped byte in a length allocated (and
    // zero-filled) up to 4 GiB. The blob now grows only with bytes
    // actually read.
    const auto source = predictors::makePredictor(kCmb);
    warm(*source, workloadTrace("gcc"));
    std::string bytes = checkpointBytes(*source);
    const std::uint64_t claimed = std::uint64_t{1} << 28;
    std::memcpy(bytes.data() + kHeaderBytes, &claimed, sizeof(claimed));

    const auto victim = predictors::makePredictor(kCmb);
    const std::string victim_bytes = checkpointBytes(*victim);
    const long before = peakRssKiB();
    EXPECT_FALSE(load(*victim, bytes));
    EXPECT_LT(peakRssKiB() - before, 64 * 1024)
        << "a 256 MiB blob length was allocated before it was read";
    EXPECT_EQ(checkpointBytes(*victim), victim_bytes);
}

} // namespace
} // namespace tlat
