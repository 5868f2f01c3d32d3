/**
 * @file
 * Metrics identity: the run-metrics document built from the
 * simulateBatch capture lane (harness::measureStreamWithMetrics) must
 * be byte-identical to the one the per-record predict()/update() loop
 * builds. That loop lives here, verbatim, as the oracle.
 *
 * Every factory scheme is fuzzed — nested combining, static and
 * profile schemes included — plus the direct-construction modes whose
 * batch call takes the reference fallback inside simulateBatch
 * (delayed update, speculative history, cached prediction bit): that
 * fallback must fill the capture lane too. Each scheme runs at chunk
 * sizes 1, 63, 64Ki-1, 64Ki, 64Ki+1, the mmap default and the whole
 * buffer, at the host's SIMD level and pinned to scalar. A checking
 * wrapper asserts after every batch that the capture cursor advanced
 * by exactly the batch's conditional count.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "core/delayed_update.hh"
#include "core/scheme_config.hh"
#include "core/two_level_predictor.hh"
#include "harness/branch_profile.hh"
#include "harness/experiment.hh"
#include "harness/metrics_json.hh"
#include "predictors/scheme_factory.hh"
#include "trace/chunk_stream.hh"
#include "trace/trace_io.hh"
#include "util/random.hh"
#include "util/simd.hh"

namespace tlat
{
namespace
{

using trace::BranchClass;
using trace::BranchRecord;
using trace::TraceBuffer;

constexpr std::size_t k64Ki = std::size_t{1} << 16;

/**
 * The oracle: the per-record metrics loop measureStreamWithMetrics ran
 * before it moved onto the capture lane, over a whole buffer.
 */
harness::RunMetricsReport
referenceMetrics(core::BranchPredictor &predictor,
                 const TraceBuffer &trace,
                 const harness::MetricsOptions &options = {})
{
    harness::RunMetricsReport report;
    report.scheme = predictor.name();
    report.benchmark = trace.name();
    report.options = options;
    report.options.warmupWindow =
        std::max<std::uint64_t>(1, options.warmupWindow);

    harness::BranchProfile profile;
    std::uint64_t window_branches = 0;
    std::uint64_t window_hits = 0;
    const auto closeWindow = [&]() {
        harness::WarmupPoint point;
        point.branches = report.accuracy.total();
        point.windowAccuracyPercent =
            100.0 * static_cast<double>(window_hits) /
            static_cast<double>(window_branches);
        point.cumulativeAccuracyPercent =
            report.accuracy.accuracyPercent();
        report.warmupCurve.push_back(point);
        window_branches = 0;
        window_hits = 0;
    };
    for (const BranchRecord &record : trace.records()) {
        if (record.cls != BranchClass::Conditional)
            continue;
        const bool predicted = predictor.predict(record);
        const bool correct = predicted == record.taken;
        report.accuracy.record(correct);
        profile.record(record.pc, correct, record.taken);
        ++window_branches;
        if (correct)
            ++window_hits;
        if (window_branches == report.options.warmupWindow)
            closeWindow();
        predictor.update(record);
    }
    if (window_branches > 0)
        closeWindow();

    predictor.collectMetrics(report.predictor);
    report.topOffenders = profile.worstSites(options.topOffenders);
    report.h2p = harness::buildH2pReport(profile, report.options);
    return report;
}

/**
 * Forwards to a real predictor and checks the capture contract of
 * every batch: the cursor advances by exactly one byte per
 * conditional of the view.
 */
class CaptureCheckingPredictor final : public core::BranchPredictor
{
  public:
    explicit CaptureCheckingPredictor(
        std::unique_ptr<core::BranchPredictor> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    bool predict(const BranchRecord &record) override
    {
        return inner_->predict(record);
    }
    void update(const BranchRecord &record) override
    {
        inner_->update(record);
    }
    void
    simulateBatch(const trace::PredecodedView &view,
                  AccuracyCounter &accuracy) override
    {
        const std::uint8_t *before = accuracy.captureCursor();
        inner_->simulateBatch(view, accuracy);
        ++batches_;
        if (before == nullptr)
            return;
        EXPECT_EQ(accuracy.captureCursor() - before,
                  static_cast<std::ptrdiff_t>(view.soa().size()))
            << name() << " batch " << batches_;
    }
    void reset() override { inner_->reset(); }
    bool needsTraining() const override
    {
        return inner_->needsTraining();
    }
    void train(const TraceBuffer &trace) override { inner_->train(trace); }
    void
    collectMetrics(core::RunMetrics &metrics) const override
    {
        inner_->collectMetrics(metrics);
    }

    std::size_t batches() const { return batches_; }

  private:
    std::unique_ptr<core::BranchPredictor> inner_;
    std::size_t batches_ = 0;
};

using Factory = std::function<std::unique_ptr<core::BranchPredictor>()>;

Factory
schemeFactory(const std::string &scheme)
{
    const auto config = core::SchemeConfig::parse(scheme);
    EXPECT_TRUE(config.has_value()) << scheme;
    return [config] { return predictors::makePredictor(*config); };
}

/** Mixed-class random trace with biased and alternating sites. */
TraceBuffer
makeRandomTrace(std::uint64_t seed, std::size_t records)
{
    Rng rng(seed);
    TraceBuffer trace("identity-" + std::to_string(seed));
    trace.mix().intAlu = 4 * records;
    trace.mix().controlFlow = records;
    constexpr std::size_t kSites = 48;
    std::vector<std::uint64_t> pcs;
    std::vector<std::uint32_t> permille;
    std::vector<bool> alternating;
    std::vector<bool> last(kSites, false);
    for (std::size_t i = 0; i < kSites; ++i) {
        pcs.push_back(0x1000 + 4 * rng.nextBelow(1 << 14));
        permille.push_back(
            static_cast<std::uint32_t>(rng.nextBelow(1001)));
        alternating.push_back(rng.nextBelow(6) == 0);
    }
    trace.reserve(records, records);
    for (std::size_t i = 0; i < records; ++i) {
        BranchRecord record;
        if (rng.nextBelow(8) == 0) {
            record.pc = 0x9000 + 4 * rng.nextBelow(1 << 10);
            record.target = 0x9000 + 4 * rng.nextBelow(1 << 10);
            record.cls = rng.nextBelow(2) == 0
                ? BranchClass::Return
                : BranchClass::ImmediateUnconditional;
            record.isCall = rng.nextBelow(2) == 0;
            record.taken = true;
        } else {
            const std::size_t site = rng.nextBelow(kSites);
            record.pc = pcs[site];
            record.target = (site % 2 == 0) ? record.pc - 64
                                            : record.pc + 64;
            record.cls = BranchClass::Conditional;
            if (alternating[site]) {
                last[site] = !last[site];
                record.taken = last[site];
            } else {
                record.taken = rng.nextBelow(1000) < permille[site];
            }
        }
        trace.append(record);
    }
    return trace;
}

/** Protocol of every leg: reset, train on the test trace if needed. */
void
prepare(core::BranchPredictor &predictor, const TraceBuffer &trace)
{
    predictor.reset();
    if (predictor.needsTraining())
        predictor.train(trace);
}

/** One chunking of the measured leg. */
struct Chunking
{
    std::string label;
    /** Buffer chunk size, or nullopt for the mmap file default. */
    std::optional<std::size_t> bufferChunk;
};

/**
 * The document of one measured leg: capture-lane metrics over
 * @p chunking of @p trace (file at @p path for the mmap leg).
 */
std::string
capturedDocument(const Factory &make, const TraceBuffer &trace,
                 const std::string &path, const Chunking &chunking)
{
    CaptureCheckingPredictor predictor(make());
    prepare(predictor, trace);
    std::unique_ptr<trace::ChunkStream> stream;
    if (chunking.bufferChunk) {
        stream = std::make_unique<trace::BufferChunkStream>(
            trace, *chunking.bufferChunk);
    } else {
        std::string error;
        stream = trace::MmapChunkStream::open(path, 0, &error);
        EXPECT_NE(stream, nullptr) << error;
        if (!stream)
            return {};
    }
    const std::string json = harness::runMetricsJsonString(
        harness::measureStreamWithMetrics(predictor, *stream));
    EXPECT_TRUE(stream->error().empty()) << stream->error();
    EXPECT_GT(predictor.batches(), 0u);
    return json;
}

/**
 * Asserts that every chunking of @p trace, at both SIMD levels,
 * renders the oracle's document, and that the capture lane builds
 * the oracle's full per-site profile.
 */
void
expectIdentity(const Factory &make, const TraceBuffer &trace,
               const std::vector<Chunking> &chunkings,
               const std::string &path = {})
{
    const auto oracle = make();
    prepare(*oracle, trace);
    const std::string expected =
        harness::runMetricsJsonString(referenceMetrics(*oracle, trace));

    for (const bool scalar : {false, true}) {
        std::optional<util::simd::ScopedLevelOverride> pin;
        if (scalar)
            pin.emplace(util::simd::Level::Scalar);
        for (const Chunking &chunking : chunkings) {
            EXPECT_EQ(capturedDocument(make, trace, path, chunking),
                      expected)
                << oracle->name() << " on " << trace.name() << " at "
                << chunking.label << (scalar ? " (scalar)" : "");
        }
    }

    // Every site, not just the document's capped lists: recordBatch()
    // over the capture lane against record() per reference step.
    const auto profiled = make();
    prepare(*profiled, trace);
    harness::BranchProfile got;
    trace::BufferChunkStream stream(trace, 0);
    harness::simulateCaptured(
        *profiled, stream,
        [&](const trace::PredecodedTrace &soa,
            std::span<const std::uint8_t> correct) {
            got.recordBatch(soa, correct);
        });
    const auto reference = make();
    prepare(*reference, trace);
    harness::BranchProfile want;
    for (const BranchRecord &record : trace.records()) {
        if (record.cls != BranchClass::Conditional)
            continue;
        const bool predicted = reference->predict(record);
        want.record(record.pc, predicted == record.taken, record.taken);
        reference->update(record);
    }
    const auto got_sites = got.allSites();
    const auto want_sites = want.allSites();
    ASSERT_EQ(got_sites.size(), want_sites.size()) << oracle->name();
    for (std::size_t i = 0; i < got_sites.size(); ++i) {
        const harness::BranchSite &a = got_sites[i];
        const harness::BranchSite &b = want_sites[i];
        EXPECT_TRUE(a.pc == b.pc && a.executions == b.executions &&
                    a.mispredictions == b.mispredictions &&
                    a.takenCount == b.takenCount &&
                    a.transitions == b.transitions &&
                    a.systematicMisses == b.systematicMisses &&
                    a.transientMisses == b.transientMisses &&
                    a.patternVisits == b.patternVisits &&
                    a.patternTaken == b.patternTaken &&
                    a.patternMisses == b.patternMisses)
            << oracle->name() << " site " << i;
    }
}

/** Fixture: a short and a >64Ki-record trace, the latter on disk. */
class MetricsIdentity : public testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ::unsetenv("TLAT_CHUNK_RECORDS");
        short_ = new TraceBuffer(makeRandomTrace(7, 3000));
        long_ = new TraceBuffer(makeRandomTrace(8, k64Ki + 3000));
        // Per process: ctest runs each test of this suite as its own
        // process, in parallel.
        path_ = new std::string(testing::TempDir() +
                                "tlat_metrics_identity_" +
                                std::to_string(::getpid()) + ".tltr");
        ASSERT_TRUE(trace::saveToFile(*long_, *path_));
    }

    static void
    TearDownTestSuite()
    {
        std::remove(path_->c_str());
        delete short_;
        delete long_;
        delete path_;
    }

    /** Every chunking the contract names, over both traces. */
    static void
    check(const Factory &make)
    {
        expectIdentity(make, *short_,
                       {{"chunk 1", 1}, {"chunk 63", 63},
                        {"whole buffer", 0}});
        expectIdentity(make, *long_,
                       {{"chunk 64Ki-1", k64Ki - 1},
                        {"chunk 64Ki", k64Ki},
                        {"chunk 64Ki+1", k64Ki + 1},
                        {"mmap default", std::nullopt},
                        {"whole buffer", 0}},
                       *path_);
    }

    static TraceBuffer *short_;
    static TraceBuffer *long_;
    static std::string *path_;
};

TraceBuffer *MetricsIdentity::short_ = nullptr;
TraceBuffer *MetricsIdentity::long_ = nullptr;
std::string *MetricsIdentity::path_ = nullptr;

TEST_F(MetricsIdentity, EveryFactoryScheme)
{
    std::vector<std::string> schemes;
    for (const char *hrt : {"IHRT(,", "AHRT(64,", "HHRT(64,"}) {
        for (const char *atm : {"LT", "A1", "A2", "A3", "A4"}) {
            schemes.push_back(std::string("AT(") + hrt +
                              "6SR),PT(2^6," + atm + "),)");
        }
        schemes.push_back(std::string("ST(") + hrt +
                          "6SR),PT(2^6,PB),Same)");
        schemes.push_back(std::string("LS(") + hrt + "A2),,)");
        schemes.push_back(std::string("LS(") + hrt + "LT),,)");
    }
    schemes.insert(schemes.end(),
                   {"AlwaysTaken", "AlwaysNotTaken", "BTFN", "Profile",
                    "GSH(6,A2)", "GSH(8,LT)"});
    for (const std::string &scheme : schemes)
        check(schemeFactory(scheme));
}

TEST_F(MetricsIdentity, CombiningSchemesIncludingNested)
{
    for (const std::string scheme :
         {"CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),"
          "CT(2^8))",
          "CMB(GSH(6,A2),LS(IHRT(,LT),,),CT(2^6))",
          "CMB(AT(IHRT(,6SR),PT(2^6,A2),),BTFN,CT(2^8))",
          "CMB(ST(IHRT(,6SR),PT(2^6,PB),Same),Profile,CT(2^6))",
          "CMB(CMB(AT(IHRT(,6SR),PT(2^6,A2),),BTFN,CT(2^6)),"
          "LS(AHRT(64,A2),,),CT(2^6))"})
        check(schemeFactory(scheme));
}

TEST_F(MetricsIdentity, ReferenceFallbackModesFillTheCaptureLane)
{
    // The factory never sets these knobs. The delayed-update wrapper
    // routes simulateBatch through the reference loop; speculative
    // history, cached bits and counter widths run the fused loops
    // with extra state.
    for (const core::TableKind kind :
         {core::TableKind::Ideal, core::TableKind::Associative,
          core::TableKind::Hashed}) {
        for (const bool cached : {false, true}) {
            for (const bool speculative : {false, true}) {
                core::TwoLevelConfig config;
                config.hrtKind = kind;
                config.hrtEntries = 64;
                config.historyBits = 6;
                config.cachedPredictionBit = cached;
                config.speculativeHistoryUpdate = speculative;
                config.counterBits = cached ? 3 : 0;
                check([config] {
                    return std::make_unique<core::TwoLevelPredictor>(
                        config);
                });
            }
        }
    }
    for (const unsigned delay : {0u, 5u}) {
        check([delay] {
            core::TwoLevelConfig config;
            config.hrtKind = core::TableKind::Associative;
            config.hrtEntries = 64;
            config.historyBits = 6;
            return std::make_unique<core::DelayedUpdatePredictor>(
                std::make_unique<core::TwoLevelPredictor>(config),
                delay);
        });
    }
    core::TwoLevelConfig generalized;
    generalized.historyScope = core::HistoryScope::Global;
    generalized.patternScope = core::PatternScope::PerSet;
    generalized.historyBits = 6;
    generalized.xorAddress = true;
    check([generalized] {
        return std::make_unique<core::TwoLevelPredictor>(generalized);
    });
}

} // namespace
} // namespace tlat
