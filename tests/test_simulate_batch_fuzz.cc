/**
 * @file
 * Randomized equivalence suite for the batched simulation fast path.
 *
 * BranchPredictor::simulateBatch() carries a strict bit-equivalence
 * contract: the fused overrides must leave the predictor in exactly
 * the state the reference predict()/record()/update() loop would —
 * same accuracy counts, same internal tables and statistics, same
 * collectMetrics() JSON, same checkpoint bytes. This suite holds
 * every scheme the factory can build (and the direct-construction
 * configurations the factory never emits: cached prediction bit,
 * speculative history update, counter-width pattern entries, the
 * generalized scope matrix, delayed updates) to that contract on
 * randomized traces across multiple seeds.
 *
 * The comparison is three-way: the predecoded-view fast path under
 * the host's best SIMD level (util/simd.hh — the vectorized fused pass
 * on AVX2/NEON hosts), the same path pinned to the scalar kernels via
 * ScopedLevelOverride, and the per-record reference loop. On a
 * scalar-only host the first two legs coincide and the suite
 * degenerates to two-way — still a valid run, just without
 * cross-level coverage.
 */

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/combining_predictor.hh"
#include "core/delayed_update.hh"
#include "core/generalized_two_level.hh"
#include "core/scheme_config.hh"
#include "core/two_level_predictor.hh"
#include "harness/experiment.hh"
#include "harness/metrics_json.hh"
#include "isa/instruction.hh"
#include "predictors/lee_smith_btb.hh"
#include "predictors/scheme_factory.hh"
#include "sim/simulator.hh"
#include "trace/trace_buffer.hh"
#include "trace/trace_filter.hh"
#include "util/random.hh"
#include "util/simd.hh"
#include "workloads/workload.hh"

namespace tlat
{
namespace
{

using core::TwoLevelConfig;
using core::TwoLevelPredictor;
using harness::measure;
using harness::measureReference;
using trace::BranchClass;
using trace::BranchRecord;
using trace::TraceBuffer;

/**
 * A randomized trace mixing biased conditional branches (a small pc
 * pool so histories and tables actually warm up), loop-like
 * alternating branches, and the non-conditional classes the batch
 * loop must skip. Forward and backward targets both occur so BTFN is
 * exercised in both directions.
 */
TraceBuffer
makeRandomTrace(std::uint64_t seed, std::size_t records = 4000)
{
    Rng rng(seed);
    TraceBuffer trace("fuzz-" + std::to_string(seed));

    constexpr std::size_t kSites = 48;
    struct Site
    {
        std::uint64_t pc;
        std::uint64_t target;
        std::uint32_t takenPermille;
        bool alternating;
        bool lastTaken;
    };
    std::vector<Site> sites;
    for (std::size_t i = 0; i < kSites; ++i) {
        Site site;
        site.pc = 0x1000 + 4 * rng.nextBelow(1 << 14);
        // Half backward targets, half forward, so BTFN sees both.
        site.target = (i % 2 == 0) ? site.pc - 4 * rng.nextBelow(64)
                                   : site.pc + 4 * rng.nextBelow(64);
        site.takenPermille =
            static_cast<std::uint32_t>(rng.nextBelow(1001));
        site.alternating = rng.nextBelow(8) == 0;
        site.lastTaken = false;
        sites.push_back(site);
    }

    for (std::size_t i = 0; i < records; ++i) {
        // ~1 in 8 records is non-conditional noise the loop skips.
        if (rng.nextBelow(8) == 0) {
            BranchRecord record;
            record.pc = 0x9000 + 4 * rng.nextBelow(1 << 10);
            record.target = 0x9000 + 4 * rng.nextBelow(1 << 10);
            const std::uint64_t pick = rng.nextBelow(3);
            record.cls = pick == 0
                ? BranchClass::Return
                : pick == 1 ? BranchClass::ImmediateUnconditional
                            : BranchClass::RegisterUnconditional;
            record.taken = true;
            record.isCall = rng.nextBelow(2) == 0;
            trace.append(record);
            continue;
        }
        Site &site = sites[rng.nextBelow(kSites)];
        BranchRecord record;
        record.pc = site.pc;
        record.target = site.target;
        record.cls = BranchClass::Conditional;
        if (site.alternating) {
            site.lastTaken = !site.lastTaken;
            record.taken = site.lastTaken;
        } else {
            record.taken = rng.nextBelow(1000) < site.takenPermille;
        }
        trace.append(record);
    }
    return trace;
}

/** collectMetrics() rendered through the stable JSON serializer. */
std::string
metricsJson(const core::BranchPredictor &predictor,
            const AccuracyCounter &accuracy,
            const TraceBuffer &trace)
{
    harness::RunMetricsReport report;
    report.scheme = predictor.name();
    report.benchmark = trace.name();
    report.accuracy = accuracy;
    predictor.collectMetrics(report.predictor);
    return harness::runMetricsJsonString(report);
}

/** measure() with SIMD dispatch pinned to the scalar kernels. */
AccuracyCounter
measureScalarSoa(core::BranchPredictor &predictor,
                 const TraceBuffer &trace)
{
    const util::simd::ScopedLevelOverride pin(
        util::simd::Level::Scalar);
    return measure(predictor, trace);
}

/**
 * Runs the measured protocol on three freshly built predictors — one
 * through measure() at the host's best SIMD level (the vectorized
 * fused pass where eligible), one through measure() pinned to
 * scalar dispatch (the scalar lane-source path), one through
 * measureReference() (the per-record virtual loop) — and asserts
 * identical accuracy and identical metrics JSON across all three.
 */
void
expectBatchEqualsReference(core::BranchPredictor &fast,
                           core::BranchPredictor &scalar_soa,
                           core::BranchPredictor &reference,
                           const TraceBuffer &trace)
{
    fast.reset();
    scalar_soa.reset();
    reference.reset();
    if (fast.needsTraining())
        fast.train(trace);
    if (scalar_soa.needsTraining()) {
        const util::simd::ScopedLevelOverride pin(
            util::simd::Level::Scalar);
        scalar_soa.train(trace);
    }
    if (reference.needsTraining())
        reference.train(trace);

    const AccuracyCounter fast_acc = measure(fast, trace);
    const AccuracyCounter soa_acc = measureScalarSoa(scalar_soa, trace);
    const AccuracyCounter ref_acc = measureReference(reference, trace);

    EXPECT_EQ(fast_acc.total(), ref_acc.total())
        << fast.name() << " on " << trace.name();
    EXPECT_EQ(fast_acc.hits(), ref_acc.hits())
        << fast.name() << " on " << trace.name();
    EXPECT_EQ(soa_acc.total(), ref_acc.total())
        << scalar_soa.name() << " (scalar) on " << trace.name();
    EXPECT_EQ(soa_acc.hits(), ref_acc.hits())
        << scalar_soa.name() << " (scalar) on " << trace.name();
    EXPECT_EQ(metricsJson(fast, fast_acc, trace),
              metricsJson(reference, ref_acc, trace))
        << fast.name() << " on " << trace.name();
    EXPECT_EQ(metricsJson(scalar_soa, soa_acc, trace),
              metricsJson(reference, ref_acc, trace))
        << scalar_soa.name() << " (scalar) on " << trace.name();
}

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

TEST(SimulateBatchFuzz, EveryFactoryScheme)
{
    std::vector<std::string> schemes;
    for (const char *hrt :
         {"IHRT(,", "AHRT(64,", "HHRT(64,"}) {
        for (const char *atm : {"LT", "A1", "A2", "A3", "A4"}) {
            schemes.push_back(std::string("AT(") + hrt + "6SR),PT(2^6," +
                              atm + "),)");
        }
        schemes.push_back(std::string("ST(") + hrt +
                          "6SR),PT(2^6,PB),Same)");
    }
    for (const char *hrt : {"IHRT(,", "AHRT(64,", "HHRT(64,"}) {
        for (const char *atm : {"LT", "A1", "A2", "A3", "A4"})
            schemes.push_back(std::string("LS(") + hrt + atm + "),,)");
    }
    schemes.insert(schemes.end(),
                   {"AlwaysTaken", "AlwaysNotTaken", "BTFN",
                    "Profile", "GSH(6,A2)", "GSH(8,LT)"});
    // Combining schemes: every component pairing class the factory
    // can emit — two-level + BTB, gshare + BTB, two-level + static.
    schemes.insert(
        schemes.end(),
        {"CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),"
         "CT(2^8))",
         "CMB(GSH(6,A2),LS(IHRT(,LT),,),CT(2^6))",
         "CMB(AT(IHRT(,6SR),PT(2^6,A2),),BTFN,CT(2^8))"});

    for (const std::string &scheme : schemes) {
        const auto config = core::SchemeConfig::parse(scheme);
        ASSERT_TRUE(config.has_value()) << scheme;
        for (const std::uint64_t seed : kSeeds) {
            const TraceBuffer trace = makeRandomTrace(seed);
            const auto fast = predictors::makePredictor(*config);
            const auto scalar = predictors::makePredictor(*config);
            const auto reference = predictors::makePredictor(*config);
            expectBatchEqualsReference(*fast, *scalar, *reference,
                                       trace);
        }
    }
}

TEST(SimulateBatchFuzz, TwoLevelCachedSpeculativeAndCounterModes)
{
    // The factory never sets these knobs; construct directly. Every
    // (HRT flavour x cached bit x speculative update) combination
    // plus the counter-width extension must stay bit-identical —
    // including checkpoint bytes, compared below. 5-bit counters are
    // too wide for the SIMD nibble LUTs, so they pin the scalar
    // fallback of an otherwise SIMD-eligible IHRT configuration.
    for (const core::TableKind kind :
         {core::TableKind::Ideal, core::TableKind::Associative,
          core::TableKind::Hashed}) {
        for (const bool cached : {false, true}) {
            for (const bool speculative : {false, true}) {
                for (const unsigned counter_bits : {0u, 3u, 5u}) {
                    TwoLevelConfig config;
                    config.hrtKind = kind;
                    config.hrtEntries = 64;
                    config.historyBits = 6;
                    config.cachedPredictionBit = cached;
                    config.speculativeHistoryUpdate = speculative;
                    config.counterBits = counter_bits;
                    for (const std::uint64_t seed : kSeeds) {
                        const TraceBuffer trace = makeRandomTrace(seed);
                        TwoLevelPredictor fast(config);
                        TwoLevelPredictor scalar(config);
                        TwoLevelPredictor reference(config);
                        expectBatchEqualsReference(fast, scalar,
                                                   reference, trace);
                        EXPECT_EQ(fast.inFlightBranches(), 0u);
                        EXPECT_EQ(fast.squashEvents(),
                                  reference.squashEvents());
                        EXPECT_EQ(scalar.squashEvents(),
                                  reference.squashEvents());

                        std::ostringstream fast_ckpt;
                        std::ostringstream scalar_ckpt;
                        std::ostringstream ref_ckpt;
                        ASSERT_TRUE(fast.saveCheckpoint(fast_ckpt));
                        ASSERT_TRUE(
                            scalar.saveCheckpoint(scalar_ckpt));
                        ASSERT_TRUE(
                            reference.saveCheckpoint(ref_ckpt));
                        EXPECT_EQ(fast_ckpt.str(), ref_ckpt.str())
                            << fast.name() << " cached=" << cached
                            << " spec=" << speculative
                            << " counterBits=" << counter_bits;
                        EXPECT_EQ(scalar_ckpt.str(), ref_ckpt.str())
                            << scalar.name() << " (scalar) cached="
                            << cached << " spec=" << speculative
                            << " counterBits=" << counter_bits;
                    }
                }
            }
        }
    }
}

TEST(SimulateBatchFuzz, GeneralizedScopeMatrix)
{
    using core::GeneralizedConfig;
    using core::GeneralizedTwoLevelPredictor;
    using core::HistoryScope;
    using core::PatternScope;
    for (const HistoryScope history :
         {HistoryScope::Global, HistoryScope::PerAddress,
          HistoryScope::PerSet}) {
        for (const PatternScope pattern :
             {PatternScope::Global, PatternScope::PerSet,
              PatternScope::PerAddress}) {
            for (const core::AutomatonKind automaton :
                 {core::AutomatonKind::LastTime, core::AutomatonKind::A1,
                  core::AutomatonKind::A2, core::AutomatonKind::A3,
                  core::AutomatonKind::A4}) {
                GeneralizedConfig config;
                config.historyScope = history;
                config.patternScope = pattern;
                config.historyBits = 6;
                config.automaton = automaton;
                config.xorAddress = history == HistoryScope::Global;
                for (const std::uint64_t seed : kSeeds) {
                    const TraceBuffer trace = makeRandomTrace(seed);
                    GeneralizedTwoLevelPredictor fast(config);
                    GeneralizedTwoLevelPredictor scalar(config);
                    GeneralizedTwoLevelPredictor reference(config);
                    expectBatchEqualsReference(fast, scalar, reference,
                                               trace);
                }
            }
        }
    }
}

/** Builds a factory component for direct CombiningPredictor tests. */
std::unique_ptr<core::BranchPredictor>
makeComponent(const std::string &scheme)
{
    const auto config = core::SchemeConfig::parse(scheme);
    EXPECT_TRUE(config.has_value()) << scheme;
    return predictors::makePredictor(*config);
}

TEST(SimulateBatchFuzz, CombiningChooserInitStatesAndCheckpointBytes)
{
    // The factory always starts the chooser weakly preferring A;
    // direct construction sweeps every initial counter value. The
    // three drive legs must agree on accuracy, metrics JSON and
    // checkpoint bytes.
    for (const unsigned init : {0u, 1u, 2u, 3u}) {
        core::CombiningOptions options;
        options.chooserBits = 6;
        options.initialState = static_cast<std::uint8_t>(init);
        for (const std::uint64_t seed : kSeeds) {
            const TraceBuffer trace = makeRandomTrace(seed);
            core::CombiningPredictor fast(
                makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
                makeComponent("LS(AHRT(64,A2),,)"), options);
            core::CombiningPredictor scalar(
                makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
                makeComponent("LS(AHRT(64,A2),,)"), options);
            core::CombiningPredictor reference(
                makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
                makeComponent("LS(AHRT(64,A2),,)"), options);
            expectBatchEqualsReference(fast, scalar, reference, trace);

            std::ostringstream fast_ckpt;
            std::ostringstream scalar_ckpt;
            std::ostringstream ref_ckpt;
            ASSERT_TRUE(fast.saveCheckpoint(fast_ckpt));
            ASSERT_TRUE(scalar.saveCheckpoint(scalar_ckpt));
            ASSERT_TRUE(reference.saveCheckpoint(ref_ckpt));
            EXPECT_EQ(fast_ckpt.str(), ref_ckpt.str())
                << "init=" << init << " seed=" << seed;
            EXPECT_EQ(scalar_ckpt.str(), ref_ckpt.str())
                << "(scalar) init=" << init << " seed=" << seed;
        }
    }
}

TEST(SimulateBatchFuzz, CombiningMatchesComponentwiseHandSimulation)
{
    // Hand simulation: drive standalone copies of both components
    // through the trace, replay a scalar 2-bit chooser over their
    // correctness streams in plain test code, and require the
    // combining predictor to report exactly that accuracy, the same
    // disagreement count, and the same final chooser counter for
    // every branch site.
    for (const std::uint64_t seed : kSeeds) {
        const TraceBuffer trace = makeRandomTrace(seed);
        core::CombiningOptions options;
        options.chooserBits = 6;
        core::CombiningPredictor combined(
            makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
            makeComponent("LS(AHRT(64,A2),,)"), options);
        const auto alone_a =
            makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)");
        const auto alone_b = makeComponent("LS(AHRT(64,A2),,)");

        std::vector<std::uint8_t> chooser(
            std::size_t{1} << options.chooserBits,
            options.initialState);
        const std::uint64_t mask =
            (std::uint64_t{1} << options.chooserBits) - 1;
        AccuracyCounter hand;
        std::uint64_t disagreements = 0;
        for (const BranchRecord &record : trace.records()) {
            if (record.cls != BranchClass::Conditional)
                continue;
            const bool pa = alone_a->predict(record);
            const bool pb = alone_b->predict(record);
            std::uint8_t &counter =
                chooser[(record.pc >> options.addrShift) & mask];
            hand.record((counter >= 2 ? pa : pb) == record.taken);
            const bool correct_a = pa == record.taken;
            const bool correct_b = pb == record.taken;
            if (correct_a != correct_b) {
                ++disagreements;
                if (correct_a)
                    counter = static_cast<std::uint8_t>(
                        std::min<unsigned>(counter + 1u, 3u));
                else
                    counter = static_cast<std::uint8_t>(
                        counter > 0 ? counter - 1u : 0u);
            }
            alone_a->update(record);
            alone_b->update(record);
        }

        const AccuracyCounter combined_acc =
            measureReference(combined, trace);
        EXPECT_EQ(combined_acc.hits(), hand.hits()) << "seed=" << seed;
        EXPECT_EQ(combined_acc.total(), hand.total());
        EXPECT_EQ(combined.disagreements(), disagreements);
        for (const std::uint64_t pc : trace.predecoded()->uniquePcs())
            EXPECT_EQ(combined.chooserState(pc),
                      chooser[(pc >> options.addrShift) & mask])
                << "pc=" << pc << " seed=" << seed;
    }
}

TEST(SimulateBatchFuzz, DelayedUpdateWrapperUsesReferenceSemantics)
{
    // The delayed-update wrapper does not override simulateBatch; the
    // default implementation must reproduce the reference loop's
    // delayed pipeline exactly, including the tight-loop
    // predict-taken-when-unresolved policy.
    for (const unsigned delay : {0u, 3u, 7u}) {
        for (const std::uint64_t seed : kSeeds) {
            const TraceBuffer trace = makeRandomTrace(seed);
            TwoLevelConfig config;
            config.hrtKind = core::TableKind::Associative;
            config.hrtEntries = 64;
            config.historyBits = 6;
            core::DelayedUpdatePredictor fast(
                std::make_unique<TwoLevelPredictor>(config), delay);
            core::DelayedUpdatePredictor scalar(
                std::make_unique<TwoLevelPredictor>(config), delay);
            core::DelayedUpdatePredictor reference(
                std::make_unique<TwoLevelPredictor>(config), delay);
            expectBatchEqualsReference(fast, scalar, reference, trace);
        }
    }
}

/** Three-way equivalence for one factory scheme on a given trace. */
void
expectSchemeEqualsReference(const std::string &scheme,
                            const TraceBuffer &trace)
{
    const auto config = core::SchemeConfig::parse(scheme);
    ASSERT_TRUE(config.has_value()) << scheme;
    const auto fast = predictors::makePredictor(*config);
    const auto scalar = predictors::makePredictor(*config);
    const auto reference = predictors::makePredictor(*config);
    expectBatchEqualsReference(*fast, *scalar, *reference, trace);
}

/** Generalized (PAg) three-way equivalence on a given trace. */
void
expectGeneralizedEqualsReference(const TraceBuffer &trace)
{
    core::GeneralizedConfig config;
    config.historyScope = core::HistoryScope::PerAddress;
    config.patternScope = core::PatternScope::Global;
    config.historyBits = 6;
    core::GeneralizedTwoLevelPredictor fast(config);
    core::GeneralizedTwoLevelPredictor scalar(config);
    core::GeneralizedTwoLevelPredictor reference(config);
    expectBatchEqualsReference(fast, scalar, reference, trace);
}

/** Schemes covering every SoA prober flavour plus Lee-Smith. */
constexpr const char *kEdgeSchemes[] = {
    "AT(IHRT(,6SR),PT(2^6,A2),)",
    "AT(AHRT(64,6SR),PT(2^6,A2),)",
    "AT(HHRT(64,6SR),PT(2^6,A2),)",
    "LS(AHRT(64,A2),,)",
    "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^6))",
};

TEST(SimulateBatchFuzz, EdgeTraceZeroConditionals)
{
    // A trace whose records are all non-conditional predecodes to an
    // empty SoA artifact; the fused loops must run zero iterations
    // and leave all counters and tables untouched.
    Rng rng(0xed6e0);
    TraceBuffer trace("no-conditionals");
    for (std::size_t i = 0; i < 200; ++i) {
        BranchRecord record;
        record.pc = 0x9000 + 4 * rng.nextBelow(1 << 8);
        record.target = 0x9000 + 4 * rng.nextBelow(1 << 8);
        record.cls = rng.nextBelow(2) == 0
            ? BranchClass::Return
            : BranchClass::ImmediateUnconditional;
        record.taken = true;
        trace.append(record);
    }
    ASSERT_TRUE(trace.conditionalView().empty());
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, EdgeTraceSingleUniquePc)
{
    // One conditional site only: the dictionary has a single id and
    // every record is a repeat probe (the IHRT lane's repeat-hit
    // accounting must match per-record lookups exactly).
    Rng rng(0xed6e1);
    TraceBuffer trace("single-site");
    bool last = false;
    for (std::size_t i = 0; i < 3000; ++i) {
        if (rng.nextBelow(5) == 0)
            last = !last;
        trace.append([&] {
            BranchRecord record;
            record.pc = 0x2000;
            record.target = 0x1f00;
            record.cls = BranchClass::Conditional;
            record.taken = last;
            return record;
        }());
    }
    ASSERT_EQ(trace.predecoded()->uniquePcCount(), 1u);
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, EdgeTraceManyUniquePcsStressDictionary)
{
    // >64Ki unique conditional PCs: stresses the first-appearance
    // dictionary past the 16-bit boundary, forces cold IHRT probes
    // for every id, and drives heavy AHRT eviction traffic. A tail
    // of random repeats exercises warm probes over the wide id
    // space too.
    constexpr std::size_t kUnique = 70000; // > 65536
    Rng rng(0xed6e2);
    TraceBuffer trace("wide-dictionary");
    for (std::size_t i = 0; i < kUnique; ++i) {
        BranchRecord record;
        record.pc = 0x10000 + 4 * i;
        record.target = record.pc + 16;
        record.cls = BranchClass::Conditional;
        record.taken = i % 3 == 0;
        trace.append(record);
    }
    for (std::size_t i = 0; i < 10000; ++i) {
        BranchRecord record;
        record.pc = 0x10000 + 4 * rng.nextBelow(kUnique);
        record.target = record.pc + 16;
        record.cls = BranchClass::Conditional;
        record.taken = rng.nextBool(0.5);
        trace.append(record);
    }
    ASSERT_EQ(trace.predecoded()->uniquePcCount(), kUnique);
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, AdversarialAlternatingTraceMatchesReference)
{
    // A real simulator-collected trace from the adversarial family:
    // strictly periodic sites drive long same-pattern runs through
    // the SoA lanes (saturated pattern entries, constant history
    // windows) that the synthetic random traces rarely sustain.
    const auto workload = workloads::makeWorkload("alternating");
    const TraceBuffer trace =
        sim::collectTrace(workload->buildTest(), 6000);
    ASSERT_FALSE(trace.conditionalView().empty());
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, AdversarialSingleHotBranchMatchesReference)
{
    // The kmp comparison branch filtered to its own pc: one blazing
    // hot conditional site with an i.i.d. outcome stream — a
    // single-id dictionary whose every probe is a repeat hit, with
    // genuinely random (not synthetic-runs) history churn.
    const auto workload = workloads::makeWorkload("kmp");
    const isa::Program program = workload->buildTest();
    const TraceBuffer full = sim::collectTrace(program, 12000);
    const std::uint64_t pc =
        program.symbols.at("kmp_compare") * isa::kInstructionBytes;
    const TraceBuffer trace = trace::filterByPcRange(
        full, pc, pc + isa::kInstructionBytes);
    ASSERT_GT(trace.size(), 3000u);
    ASSERT_EQ(trace.predecoded()->uniquePcCount(), 1u);
    for (const char *scheme : kEdgeSchemes)
        expectSchemeEqualsReference(scheme, trace);
    expectGeneralizedEqualsReference(trace);
}

TEST(SimulateBatchFuzz, HashedMixedHrtMatchesReference)
{
    // The factory builds HHRTs with the low-bits hash; the mixed
    // hash routes the fast path through the precomputed mix64 index
    // lane, so pin it explicitly across seeds.
    TwoLevelConfig config;
    config.hrtKind = core::TableKind::Hashed;
    config.hrtEntries = 64;
    config.historyBits = 6;
    config.hhrtHash = core::HashKind::Mixed;
    for (const std::uint64_t seed : kSeeds) {
        const TraceBuffer trace = makeRandomTrace(seed);
        TwoLevelPredictor fast(config);
        TwoLevelPredictor scalar(config);
        TwoLevelPredictor reference(config);
        expectBatchEqualsReference(fast, scalar, reference, trace);
    }
}

TEST(SimulateBatchFuzz, MidPairStateFallsBackToReference)
{
    // A predict() without its paired update() leaves the lookup memo
    // live, and with speculative history update an unresolved
    // speculation stays in flight; a batch issued in either state
    // must still match the reference loop run from the same mid-pair
    // state, through the PredecodedView overload's fallback to it.
    const TraceBuffer trace = makeRandomTrace(11);
    ASSERT_FALSE(trace.conditionalView().empty());
    const BranchRecord &first = trace.conditionalView().front();
    const BranchRecord *other = nullptr;
    for (const BranchRecord &record : trace.conditionalView()) {
        if (record.pc != first.pc) {
            other = &record;
            break;
        }
    }
    ASSERT_NE(other, nullptr);

    TwoLevelConfig ahrt;
    ahrt.hrtKind = core::TableKind::Associative;
    ahrt.hrtEntries = 64;
    ahrt.historyBits = 6;
    TwoLevelConfig speculative = ahrt;
    speculative.speculativeHistoryUpdate = true;
    predictors::LeeSmithConfig lee_smith;
    lee_smith.tableKind = core::TableKind::Associative;
    lee_smith.entries = 64;

    struct Case
    {
        const char *label;
        std::function<std::unique_ptr<core::BranchPredictor>()> make;
        /** Leave only a speculation in flight (no lookup memo). */
        bool speculationOnly;
    };
    const Case cases[] = {
        {"AT(AHRT) lookup memo",
         [&] { return std::make_unique<TwoLevelPredictor>(ahrt); },
         false},
        {"LS(AHRT) lookup memo",
         [&] {
             return std::make_unique<predictors::LeeSmithPredictor>(
                 lee_smith);
         },
         false},
        {"AT(AHRT) in-flight speculation",
         [&] {
             return std::make_unique<TwoLevelPredictor>(speculative);
         },
         true},
        {"CMB chooser memo",
         [&] {
             return std::make_unique<core::CombiningPredictor>(
                 makeComponent("AT(AHRT(64,6SR),PT(2^6,A2),)"),
                 makeComponent("LS(AHRT(64,A2),,)"));
         },
         false},
    };

    for (const Case &input : cases) {
        const auto fast = input.make();
        const auto reference = input.make();
        for (core::BranchPredictor *predictor :
             {fast.get(), reference.get()}) {
            (void)predictor->predict(first);
            predictor->update(first);
            // Leave a dangling predict() and then batch.
            (void)predictor->predict(first);
            if (input.speculationOnly) {
                // Resolving another branch clears the memo but leaves
                // first's speculation in flight.
                (void)predictor->predict(*other);
                predictor->update(*other);
            }
        }

        AccuracyCounter fast_acc;
        fast->simulateBatch(trace.predecodedView(), fast_acc);
        AccuracyCounter ref_acc;
        for (const BranchRecord &record : trace.records()) {
            if (record.cls != BranchClass::Conditional)
                continue;
            const bool predicted = reference->predict(record);
            ref_acc.record(predicted == record.taken);
            reference->update(record);
        }
        EXPECT_EQ(fast_acc.hits(), ref_acc.hits()) << input.label;
        EXPECT_EQ(fast_acc.total(), ref_acc.total()) << input.label;
        EXPECT_EQ(metricsJson(*fast, fast_acc, trace),
                  metricsJson(*reference, ref_acc, trace))
            << input.label;
    }
}

TEST(SimulateBatchFuzz, EmptyTraceYieldsZeroAccuracyNotNaN)
{
    // End-to-end face of the AccuracyCounter divide-by-zero guard: a
    // trace with no conditional branches measures as 0.0 everywhere.
    TraceBuffer empty("empty");
    TwoLevelConfig config;
    TwoLevelPredictor predictor(config);
    const AccuracyCounter accuracy = measure(predictor, empty);
    EXPECT_EQ(accuracy.total(), 0u);
    EXPECT_EQ(accuracy.accuracy(), 0.0);
    EXPECT_EQ(accuracy.accuracyPercent(), 0.0);
    EXPECT_EQ(accuracy.missPercent(), 0.0);
}

} // namespace
} // namespace tlat
