/**
 * @file
 * The metrics pipeline: harness::simulateCaptured runs each chunk's
 * sink on a stage thread one or more chunks behind the simulate.
 * These tests pin what the hand-off must not change:
 *  - an exception from the stream or from the sink reaches the
 *    caller, and by then the stage has finished every queued call
 *    (the sink's call count is read with no lock after the throw);
 *    no call follows one that threw;
 *  - a stage that lags many chunks reads each one as simulated;
 *  - a file stream that ends on a corrupt record returns the report
 *    of the chunks before it, and the stream's error;
 *  - a one-chunk stream (and an empty one) renders the same document
 *    as the per-record predict()/update() loop.
 * The tsan preset runs this suite, so the hand-off is race-checked.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "core/scheme_config.hh"
#include "harness/branch_profile.hh"
#include "harness/experiment.hh"
#include "harness/metrics_json.hh"
#include "predictors/scheme_factory.hh"
#include "trace/chunk_stream.hh"
#include "trace/trace_io.hh"
#include "util/random.hh"

namespace tlat
{
namespace
{

using trace::BranchClass;
using trace::BranchRecord;
using trace::TraceBuffer;

const char *const kSchemes[] = {
    "AT(AHRT(64,6SR),PT(2^6,A2),)",
    "CMB(AT(AHRT(64,6SR),PT(2^6,A2),),LS(AHRT(64,A2),,),CT(2^8))"};

std::unique_ptr<core::BranchPredictor>
makeScheme(const std::string &scheme)
{
    const auto config = core::SchemeConfig::parse(scheme);
    EXPECT_TRUE(config.has_value()) << scheme;
    return predictors::makePredictor(*config);
}

/** Mixed-class random trace over a few dozen biased sites. */
TraceBuffer
makeRandomTrace(std::uint64_t seed, std::size_t records)
{
    Rng rng(seed);
    TraceBuffer trace("pipeline-" + std::to_string(seed));
    trace.mix().intAlu = 4 * records;
    trace.mix().controlFlow = records;
    std::uint64_t pcs[40];
    std::uint32_t permille[40];
    for (std::size_t i = 0; i < std::size(pcs); ++i) {
        pcs[i] = 0x1000 + 4 * rng.nextBelow(1 << 12);
        permille[i] = static_cast<std::uint32_t>(rng.nextBelow(1001));
    }
    trace.reserve(records, records);
    for (std::size_t i = 0; i < records; ++i) {
        const std::size_t site = rng.nextBelow(std::size(pcs));
        BranchRecord record;
        record.pc = pcs[site];
        record.target = record.pc + 64;
        if (rng.nextBelow(8) == 0) {
            record.cls = BranchClass::ImmediateUnconditional;
            record.taken = true;
        } else {
            record.cls = BranchClass::Conditional;
            record.taken = rng.nextBelow(1000) < permille[site];
        }
        trace.append(record);
    }
    return trace;
}

/** The per-record metrics loop, over a whole buffer. */
harness::RunMetricsReport
referenceMetrics(core::BranchPredictor &predictor, const TraceBuffer &trace)
{
    harness::RunMetricsReport report;
    report.scheme = predictor.name();
    report.benchmark = trace.name();
    harness::BranchProfile profile;
    std::uint64_t window_branches = 0;
    std::uint64_t window_hits = 0;
    const auto closeWindow = [&] {
        report.warmupCurve.push_back(
            {report.accuracy.total(),
             100.0 * static_cast<double>(window_hits) /
                 static_cast<double>(window_branches),
             report.accuracy.accuracyPercent()});
        window_branches = 0;
        window_hits = 0;
    };
    for (const BranchRecord &record : trace.records()) {
        if (record.cls != BranchClass::Conditional)
            continue;
        const bool correct = predictor.predict(record) == record.taken;
        report.accuracy.record(correct);
        profile.record(record.pc, correct, record.taken);
        ++window_branches;
        window_hits += correct ? 1 : 0;
        if (window_branches == report.options.warmupWindow)
            closeWindow();
        predictor.update(record);
    }
    if (window_branches > 0)
        closeWindow();
    predictor.collectMetrics(report.predictor);
    report.topOffenders =
        profile.worstSites(report.options.topOffenders);
    report.h2p = harness::buildH2pReport(profile, report.options);
    return report;
}

/** Delivers @p inner's chunks, but throws on next() call @p throw_at. */
class ThrowingStream final : public trace::ChunkStream
{
  public:
    ThrowingStream(trace::ChunkStream &inner, int throw_at)
        : inner_(inner), throw_at_(throw_at)
    {
    }

    const std::string &name() const override { return inner_.name(); }
    const trace::InstructionMix &mix() const override
    {
        return inner_.mix();
    }
    std::uint64_t recordCount() const override
    {
        return inner_.recordCount();
    }
    const trace::TraceChunk *
    next() override
    {
        if (++calls_ == throw_at_)
            throw std::runtime_error("stream failed");
        return inner_.next();
    }
    void rewind() override { inner_.rewind(); }
    const std::string &error() const override { return inner_.error(); }

  private:
    trace::ChunkStream &inner_;
    int throw_at_;
    int calls_ = 0;
};

std::string
saveTemp(const TraceBuffer &trace, const std::string &tag)
{
    const std::string path = testing::TempDir() + "tlat_pipeline_" +
                             tag + "_" + std::to_string(::getpid()) +
                             ".tltr";
    EXPECT_TRUE(trace::saveToFile(trace, path)) << path;
    return path;
}

TEST(MetricsPipeline, StreamExceptionReachesCallerWithStageJoined)
{
    const TraceBuffer trace = makeRandomTrace(1, 5000);
    for (const char *scheme : kSchemes) {
        trace::BufferChunkStream chunks(trace, 1000);
        ThrowingStream stream(chunks, 3);
        const auto predictor = makeScheme(scheme);
        std::size_t sink_calls = 0;
        EXPECT_THROW(harness::simulateCaptured(
                         *predictor, stream,
                         [&sink_calls](const trace::PredecodedTrace &,
                                       std::span<const std::uint8_t>) {
                             ++sink_calls;
                         }),
                     std::runtime_error)
            << scheme;
        // Both chunks simulated before the throw reached the sink,
        // and the stage is done with them: a plain read, no lock.
        EXPECT_EQ(sink_calls, 2u) << scheme;

        trace::BufferChunkStream again(trace, 1000);
        ThrowingStream failing(again, 3);
        EXPECT_THROW(harness::measureStreamWithMetrics(
                         *makeScheme(scheme), failing),
                     std::runtime_error)
            << scheme;
    }
}

TEST(MetricsPipeline, SinkExceptionReachesCallerInOrder)
{
    const TraceBuffer trace = makeRandomTrace(2, 5000);
    trace::BufferChunkStream stream(trace, 1000);
    const auto predictor = makeScheme(kSchemes[0]);
    std::size_t sink_calls = 0;
    EXPECT_THROW(harness::simulateCaptured(
                     *predictor, stream,
                     [&sink_calls](const trace::PredecodedTrace &,
                                   std::span<const std::uint8_t>) {
                         if (++sink_calls == 2)
                             throw std::runtime_error("sink failed");
                     }),
                 std::runtime_error);
    // No call follows the failed one, although chunks 3 to 5 were
    // simulated and queued behind it.
    EXPECT_EQ(sink_calls, 2u);
}

TEST(MetricsPipeline, SlowStageSeesEveryChunkIntact)
{
    // A stage that lags many chunks must still read each chunk as it
    // was simulated: the caller may not refill a slot the stage has
    // yet to read.
    const TraceBuffer trace = makeRandomTrace(5, 12000);
    using Digest = std::vector<std::uint64_t>;
    const auto digests = [&trace](bool slow) {
        std::vector<Digest> seen;
        trace::BufferChunkStream stream(trace, 500);
        const auto predictor = makeScheme(kSchemes[0]);
        harness::simulateCaptured(
            *predictor, stream,
            [&seen, slow](const trace::PredecodedTrace &soa,
                          std::span<const std::uint8_t> correct) {
                if (slow && seen.empty())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(50));
                Digest digest{soa.size(), soa.uniquePcCount()};
                for (std::size_t i = 0; i < soa.size(); ++i)
                    digest.push_back(soa.branchIds()[i] << 2 |
                                     (soa.taken(i) ? 2u : 0u) |
                                     correct[i]);
                seen.push_back(std::move(digest));
            });
        return seen;
    };
    const std::vector<Digest> want = digests(false);
    EXPECT_EQ(want.size(), 24u);
    EXPECT_EQ(digests(true), want);
}

TEST(MetricsPipeline, CorruptMmapStreamReturnsThePartialReport)
{
    const std::size_t stride = trace::kDefaultMmapChunkRecords;
    const TraceBuffer trace = makeRandomTrace(3, 2 * stride + 5000);
    const std::string path = saveTemp(trace, "corrupt");
    const std::size_t bad = 2 * stride + 1234;
    {
        // The record array ends the file; the class byte is at 16.
        std::fstream os(path, std::ios::binary | std::ios::in |
                                  std::ios::out | std::ios::ate);
        const auto size = static_cast<std::size_t>(os.tellp());
        os.seekp(static_cast<std::streamoff>(
            size - (trace.size() - bad) * trace::kTltrWireRecordSize +
            16));
        os.put(static_cast<char>(0x7F));
        ASSERT_TRUE(os.good());
    }
    for (const std::size_t chunk : {std::size_t{0}, std::size_t{1000}}) {
        // The report covers exactly the chunks wholly before the bad
        // record: the same document a buffer of those records gives.
        const std::size_t step = chunk == 0 ? stride : chunk;
        TraceBuffer prefix(trace.name());
        prefix.mix() = trace.mix();
        for (std::size_t i = 0; i < bad / step * step; ++i)
            prefix.append(trace.records()[i]);
        for (const char *scheme : kSchemes) {
            trace::BufferChunkStream buffered(prefix, 0);
            const std::string want = harness::runMetricsJsonString(
                harness::measureStreamWithMetrics(*makeScheme(scheme),
                                                  buffered));
            std::string error;
            auto stream = trace::MmapChunkStream::open(path, chunk, &error);
            ASSERT_NE(stream, nullptr) << error;
            EXPECT_EQ(harness::runMetricsJsonString(
                          harness::measureStreamWithMetrics(
                              *makeScheme(scheme), *stream)),
                      want)
                << scheme << " chunk=" << chunk;
            EXPECT_EQ(stream->error(),
                      "corrupt record at index " + std::to_string(bad))
                << scheme << " chunk=" << chunk;
        }
    }
    std::remove(path.c_str());
}

TEST(MetricsPipeline, OneChunkStreamMatchesPerRecordOracle)
{
    const TraceBuffer trace = makeRandomTrace(4, 30000);
    const TraceBuffer empty("pipeline-empty");
    for (const char *scheme : kSchemes) {
        for (const TraceBuffer *measured : {&trace, &empty}) {
            const auto oracle = makeScheme(scheme);
            const std::string want = harness::runMetricsJsonString(
                referenceMetrics(*oracle, *measured));
            // Chunk size 0 is the whole buffer, re-sharing its lanes;
            // a chunk as large as the buffer builds its own.
            for (const std::size_t chunk :
                 {std::size_t{0}, std::max<std::size_t>(1, measured->size())}) {
                trace::BufferChunkStream stream(*measured, chunk);
                EXPECT_EQ(harness::runMetricsJsonString(
                              harness::measureStreamWithMetrics(
                                  *makeScheme(scheme), stream)),
                          want)
                    << scheme << " on " << measured->name()
                    << " chunk=" << chunk;
            }
        }
    }
}

} // namespace
} // namespace tlat
