/**
 * @file
 * Constant-memory streaming proof (tier 2): a synthetic TLTR v2
 * trace an order of magnitude larger than the streaming working set
 * is written chunk-by-chunk (never resident), then simulated through
 * MmapChunkStream at an explicit 64Ki bound and at the default chunk
 * size — asserting the process peak-RSS delta stays under
 * a tenth of the file size, and that the streamed result (accuracy
 * and checkpoint bytes) is identical to loading a same-generator
 * trace whole. Skipped under sanitizers: shadow memory and
 * allocator quarantines make ru_maxrss meaningless there.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <sys/resource.h>

#include "core/scheme_config.hh"
#include "harness/experiment.hh"
#include "predictors/scheme_factory.hh"
#include "trace/chunk_stream.hh"
#include "trace/trace_io.hh"
#include "util/random.hh"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define TLAT_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define TLAT_UNDER_SANITIZER 1
#endif

namespace tlat
{
namespace
{

using trace::BranchClass;
using trace::BranchRecord;

constexpr char kScheme[] = "AT(IHRT(,10SR),PT(2^10,A2),)";

/** Peak resident set of this process so far, in bytes (Linux). */
std::uint64_t
peakRssBytes()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

/** Deterministic per-site record generator shared by both tests. */
class SyntheticRecords
{
  public:
    explicit SyntheticRecords(std::uint64_t seed) : rng_(seed)
    {
        for (std::size_t i = 0; i < kSites; ++i) {
            pcs_.push_back(0x4000 + 4 * rng_.nextBelow(1 << 12));
            permille_.push_back(
                static_cast<std::uint32_t>(rng_.nextBelow(1001)));
        }
    }

    BranchRecord
    next()
    {
        BranchRecord record;
        const std::size_t site = rng_.nextBelow(kSites);
        record.pc = pcs_[site];
        record.target = record.pc + 4 * rng_.nextBelow(64);
        if (rng_.nextBelow(16) == 0) {
            record.cls = BranchClass::Return;
            record.taken = true;
        } else {
            record.cls = BranchClass::Conditional;
            record.taken = rng_.nextBelow(1000) < permille_[site];
        }
        return record;
    }

  private:
    static constexpr std::size_t kSites = 96;
    Rng rng_;
    std::vector<std::uint64_t> pcs_;
    std::vector<std::uint32_t> permille_;
};

/**
 * Streams @p records synthetic records into a TLTR file without ever
 * holding more than one 64Ki batch in memory, so the *test's* write
 * phase cannot inflate the RSS baseline the read phase is judged
 * against.
 */
void
streamWriteSynthetic(const std::string &path, std::uint64_t seed,
                     std::uint64_t records)
{
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os);
    trace::InstructionMix mix;
    mix.intAlu = 6 * records;
    mix.controlFlow = records;
    ASSERT_TRUE(
        trace::writeBinaryHeader(os, "synthetic-rss", mix, records));
    SyntheticRecords gen(seed);
    std::vector<BranchRecord> batch;
    constexpr std::uint64_t kBatch = std::uint64_t{1} << 16;
    for (std::uint64_t base = 0; base < records; base += kBatch) {
        const auto n = static_cast<std::size_t>(
            std::min(kBatch, records - base));
        batch.clear();
        batch.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            batch.push_back(gen.next());
        ASSERT_TRUE(trace::writeBinaryRecords(os, batch));
    }
    ASSERT_TRUE(os);
}

std::string
checkpointBytes(core::BranchPredictor &predictor)
{
    std::ostringstream os;
    EXPECT_TRUE(predictor.saveCheckpoint(os));
    return os.str();
}

TEST(StreamRss, StreamedRunMatchesInMemoryOnGeneratedFile)
{
    // Identity leg at a size where whole-buffer load is cheap: the
    // mmap-streamed run must reproduce the in-memory run exactly,
    // accuracy and predictor end state both.
    const std::string path =
        testing::TempDir() + "tlat_rss_identity.tltr";
    constexpr std::uint64_t kRecords = 2'000'000;
    streamWriteSynthetic(path, 42, kRecords);

    std::string error;
    auto loaded = trace::loadFromFile(path, &error);
    ASSERT_TRUE(loaded) << error;
    const auto whole = predictors::makePredictor(
        *core::SchemeConfig::parse(kScheme));
    const AccuracyCounter expected =
        harness::measure(*whole, *loaded);

    // An explicit 64Ki bound and the default (0), which is bounded
    // too.
    for (const std::size_t chunk : {std::size_t{1} << 16, std::size_t{0}}) {
        auto stream = trace::MmapChunkStream::open(path, chunk, &error);
        ASSERT_NE(stream, nullptr) << error;
        const auto streamed = predictors::makePredictor(
            *core::SchemeConfig::parse(kScheme));
        const AccuracyCounter got =
            harness::measureStream(*streamed, *stream);
        EXPECT_TRUE(stream->error().empty()) << stream->error();
        EXPECT_EQ(got.hits(), expected.hits()) << "chunk=" << chunk;
        EXPECT_EQ(got.total(), expected.total()) << "chunk=" << chunk;
        EXPECT_EQ(checkpointBytes(*streamed), checkpointBytes(*whole))
            << "chunk=" << chunk;
    }
    std::remove(path.c_str());
}

TEST(StreamRss, LargeTraceStreamsUnderConstantMemoryCeiling)
{
#if defined(TLAT_UNDER_SANITIZER)
    GTEST_SKIP() << "ru_maxrss is dominated by sanitizer shadow "
                    "memory";
#else
    // ~180 MB of trace streamed through 64Ki-record chunks: the
    // ceiling is a tenth of the file size, an order of magnitude
    // below what a whole-buffer load (records + conditional mirror +
    // SoA lanes) would add. This is the O(chunk)-memory claim of the
    // chunk iterator, enforced.
    const std::string path =
        testing::TempDir() + "tlat_rss_large.tltr";
    constexpr std::uint64_t kRecords = 10'000'000;
    streamWriteSynthetic(path, 7, kRecords);
    const std::uint64_t file_bytes = [&] {
        std::ifstream is(path,
                         std::ios::binary | std::ios::ate);
        return static_cast<std::uint64_t>(is.tellg());
    }();
    ASSERT_GT(file_bytes, 150'000'000u);

    // Conditional count is deterministic from the generator;
    // re-derive the non-conditional share to confirm the whole file
    // was consumed, not silently truncated.
    const std::uint64_t non_conditional = [] {
        SyntheticRecords gen(7);
        std::uint64_t count = 0;
        for (std::uint64_t i = 0; i < kRecords; ++i) {
            if (gen.next().cls != BranchClass::Conditional)
                ++count;
        }
        return count;
    }();

    const std::uint64_t baseline = peakRssBytes();
    // An explicit 64Ki bound, then the default (0): the default must
    // be just as bounded, so the peak over both passes stays under
    // the same ceiling.
    for (const std::size_t chunk : {std::size_t{1} << 16, std::size_t{0}}) {
        std::string error;
        auto stream = trace::MmapChunkStream::open(path, chunk, &error);
        ASSERT_NE(stream, nullptr) << error;
        const auto predictor = predictors::makePredictor(
            *core::SchemeConfig::parse(kScheme));
        const AccuracyCounter accuracy =
            harness::measureStream(*predictor, *stream);
        EXPECT_TRUE(stream->error().empty()) << stream->error();
        EXPECT_EQ(accuracy.total() + non_conditional, kRecords)
            << "chunk=" << chunk;
    }

    const std::uint64_t peak = peakRssBytes();
    const std::uint64_t delta = peak - baseline;
    EXPECT_LT(delta, file_bytes / 10)
        << "streaming a " << file_bytes
        << "-byte trace grew peak RSS by " << delta << " bytes";
    std::remove(path.c_str());
#endif
}

} // namespace
} // namespace tlat
